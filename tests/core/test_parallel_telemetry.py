"""Stage-handoff telemetry of the parallel pipeline (§4.4 schedule).

Validates that the *measured* span schedule matches the analytic
:class:`~repro.core.pipeline_model.PipelineModel` ordering: per batch,
thread 1 runs ray tracing → waiting gap → cache insertion → cache
eviction/enqueue, while each enqueued chunk's octree update starts on
thread 2 no earlier than its enqueue and after the preceding update.
"""

import numpy as np
import pytest

from repro.core.parallel import ParallelOctoCacheMap
from repro.core.pipeline_model import PipelineModel
from repro.sensor.pointcloud import PointCloud
from repro.telemetry import RingBufferSink, tracing

RES = 0.2
DEPTH = 8


def small_cloud(seed=0, points=60):
    rng = np.random.default_rng(seed)
    pts = np.column_stack(
        [np.full(points, 2.0), rng.uniform(-1, 1, points), rng.uniform(0, 1, points)]
    )
    return PointCloud(pts, origin=(0.0, 0.0, 0.5))


def traced_run(batches=3):
    ring = RingBufferSink()
    with tracing(ring):
        with ParallelOctoCacheMap(resolution=RES, depth=DEPTH) as mapping:
            for seed in range(batches):
                mapping.insert_point_cloud(small_cloud(seed))
    return mapping, ring


def spans_named(ring, name):
    return sorted(
        (s for s in ring.spans if s.name == name), key=lambda s: s.start
    )


class TestQueueProfile:
    def test_profile_counts_and_waits(self):
        mapping, _ring = traced_run()
        profile = mapping.queue_profile()
        assert profile["chunks"] > 0
        assert profile["queue_wait_seconds"] >= 0.0
        assert profile["service_seconds"] > 0.0
        assert profile["mean_queue_wait"] >= 0.0
        assert profile["mean_service"] > 0.0
        assert profile["enqueue_seconds"] >= 0.0

    def test_mean_is_total_over_chunks(self):
        mapping, _ring = traced_run()
        profile = mapping.queue_profile()
        assert profile["mean_queue_wait"] == pytest.approx(
            profile["queue_wait_seconds"] / profile["chunks"]
        )

    def test_empty_pipeline_profile_is_zeroed(self):
        mapping = ParallelOctoCacheMap(resolution=RES, depth=DEPTH)
        profile = mapping.queue_profile()
        assert profile["chunks"] == 0
        assert profile["mean_queue_wait"] == 0.0
        assert profile["mean_service"] == 0.0


class TestScheduleMatchesPipelineModel:
    """The measured span timeline obeys the model's stage ordering."""

    def test_thread1_stage_order_per_batch(self):
        # Model: ray_tracing → wait → cache_insertion → cache_eviction.
        _mapping, ring = traced_run()
        batches = spans_named(ring, "insert_batch")
        traces = spans_named(ring, "ray_tracing")
        assert batches and len(traces) == len(batches)
        for trace, batch in zip(traces, batches):
            # Ray tracing precedes the batch's processing entirely.
            assert trace.start + trace.duration <= batch.start + 1e-9
            children = {
                s.name: s
                for s in ring.spans
                if s.parent_id == batch.span_id
            }
            order = [
                children[name]
                for name in (
                    "thread1_wait",
                    "cache_insertion",
                    "cache_eviction",
                )
            ]
            starts = [span.start for span in order]
            assert starts == sorted(starts)
            # Each stage finishes before the next begins (thread 1 is
            # serial).
            for earlier, later in zip(order, order[1:]):
                assert earlier.start + earlier.duration <= later.start + 1e-9

    def test_octree_updates_follow_their_enqueue(self):
        # Model: thread 2's update of a chunk starts at
        # max(enqueue time, previous octree_update done).
        _mapping, ring = traced_run()
        enqueues = spans_named(ring, "enqueue")
        updates = spans_named(ring, "octree_update")
        assert len(updates) == len(enqueues) > 0
        for enqueue, update in zip(enqueues, updates):
            assert update.start >= enqueue.start
        for previous, current in zip(updates, updates[1:]):
            # Thread 2 serialises octree updates.
            assert current.start >= previous.start + previous.duration - 1e-9

    def test_queue_wait_spans_bridge_the_handoff(self):
        # queue_wait covers enqueue → dequeue: it starts with the enqueue
        # and ends at (or before) its octree update's start.
        _mapping, ring = traced_run()
        waits = spans_named(ring, "queue_wait")
        updates = spans_named(ring, "octree_update")
        assert len(waits) == len(updates) > 0
        for wait, update in zip(waits, updates):
            assert wait.duration >= 0.0
            assert wait.start + wait.duration <= update.start + 1e-6

    def test_threads_are_distinct(self):
        _mapping, ring = traced_run()
        thread1 = {s.thread_id for s in ring.spans if s.name == "cache_insertion"}
        thread2 = {s.thread_id for s in ring.spans if s.name == "octree_update"}
        assert len(thread1) == 1
        assert len(thread2) == 1
        assert thread1 != thread2

    def test_model_reproduces_measured_wait_ordering(self):
        # Feeding the measured per-batch records into the analytic model
        # must yield a consistent timeline: parallel makespan between the
        # octree-update total and the serial sum.
        mapping, _ring = traced_run(batches=4)
        model = PipelineModel(mapping.batches)
        timeline = model.simulate()
        assert timeline.parallel_seconds <= timeline.serial_seconds + 1e-9
        octree_total = sum(b.octree_update for b in model.batches)
        assert timeline.parallel_seconds >= octree_total - 1e-9
        assert timeline.thread1_wait_seconds >= 0.0
