"""The stage ledger: one clock, one record type, for every pipeline.

``MappingSystem.stage`` is the only place a stage is timed.  It opens the
stage's span, takes one measurement, and books it to the batch's
``BatchRecord`` and to ``mapping.totals``; ``stage_seconds()``,
``total_seconds()`` and ``critical_path_seconds()`` are read from those
totals.  These tests hold the three views — per-batch records, totals,
spans — to one another on all eight pipelines.
"""

import time
from functools import partial

import numpy as np
import pytest

from repro.baselines.interface import BatchRecord
from repro.baselines.octomap import OctoMapPipeline
from repro.baselines.octomap_rt import OctoMapRTPipeline
from repro.baselines.skimap import SkiMapPipeline
from repro.baselines.voxelgrid import VoxelGridPipeline
from repro.core.adaptive import AdaptiveOctoCacheMap
from repro.core.config import CacheConfig
from repro.core.octocache import OctoCacheMap, OctoCacheRTMap
from repro.core.parallel import ParallelOctoCacheMap
from repro.sensor.pointcloud import PointCloud
from repro.telemetry import RingBufferSink, tracing

RES = 0.2
DEPTH = 8
BATCHES = 3

#: A cache small enough that every batch evicts (so every stage runs).
SMALL_CACHE = CacheConfig(num_buckets=16, bucket_threshold=2)


def _cases():
    """``(class, kwargs)`` for the eight pipelines × the kernels they take."""
    yield OctoMapRTPipeline, {"depth": DEPTH}
    yield VoxelGridPipeline, {"grid_depth": DEPTH}
    for kernel in ("scalar", "vector"):
        for cls in (OctoMapPipeline, SkiMapPipeline):
            yield cls, {"depth": DEPTH, "kernel": kernel}
        for cls in (
            OctoCacheMap,
            OctoCacheRTMap,
            ParallelOctoCacheMap,
            AdaptiveOctoCacheMap,
        ):
            yield cls, {
                "depth": DEPTH,
                "kernel": kernel,
                "cache_config": SMALL_CACHE,
            }


PIPELINES = [
    pytest.param(
        partial(cls, resolution=RES, **kwargs),
        id=f"{cls.__name__}-{kwargs.get('kernel', 'scalar')}",
    )
    for cls, kwargs in _cases()
]


def wall_cloud(seed=0, points=60):
    rng = np.random.default_rng(seed)
    pts = np.column_stack(
        [np.full(points, 2.0), rng.uniform(-1, 1, points), rng.uniform(0, 1, points)]
    )
    return PointCloud(pts, origin=(0.0, 0.0, 0.5))


def traced_run(factory):
    ring = RingBufferSink()
    with tracing(ring):
        with factory() as mapping:
            for seed in range(BATCHES):
                mapping.insert_point_cloud(wall_cloud(seed))
    return mapping, ring


@pytest.mark.parametrize("factory", PIPELINES)
class TestOneLedger:
    def test_batches_sum_to_stage_seconds(self, factory):
        mapping, _ring = traced_run(factory)
        stage_seconds = mapping.stage_seconds()
        assert {"ray_tracing", "octree_update"} <= set(stage_seconds)
        for stage in BatchRecord.STAGES:
            over_batches = sum(getattr(r, stage) for r in mapping.batches)
            assert over_batches == pytest.approx(
                stage_seconds.get(stage, 0.0), rel=1e-9, abs=1e-12
            )
        assert mapping.totals.observations == sum(
            r.observations for r in mapping.batches
        )
        assert mapping.totals.evicted == sum(r.evicted for r in mapping.batches)

    def test_total_is_sum_of_stages(self, factory):
        mapping, _ring = traced_run(factory)
        assert mapping.total_seconds() == pytest.approx(
            sum(mapping.stage_seconds().values()), rel=1e-12
        )

    def test_critical_path_is_sum_of_responses(self, factory):
        mapping, _ring = traced_run(factory)
        responses = sum(
            mapping.record_response_seconds(r) for r in mapping.batches
        )
        assert 0.0 < mapping.critical_path_seconds()
        # finalize() books its flush to the last batch, so the two agree
        # even for pipelines whose response includes the octree update.
        assert mapping.critical_path_seconds() == pytest.approx(
            responses, rel=1e-9
        )
        for record in mapping.batches:
            assert mapping.record_response_seconds(
                record
            ) <= mapping.record_busy_seconds(record) + 1e-12

    def test_span_durations_are_the_record_fields(self, factory):
        # One measurement: the span's duration *is* what the ledger
        # booked, to the float (summed in emission order, as booked).
        mapping, ring = traced_run(factory)
        for stage, seconds in mapping.stage_seconds().items():
            spans = [s.duration for s in ring.spans if s.name == stage]
            assert spans, f"stage {stage} ran but emitted no span"
            assert sum(spans) == seconds
        ran = set(mapping.stage_seconds())
        idle = set(BatchRecord.STAGES) - ran
        assert not {s.name for s in ring.spans} & idle

    def test_untraced_run_books_the_same_stages(self, factory):
        traced, _ring = traced_run(factory)
        with factory() as untraced:
            for seed in range(BATCHES):
                untraced.insert_point_cloud(wall_cloud(seed))
        assert set(untraced.stage_seconds()) == set(traced.stage_seconds())
        assert untraced.totals.evicted == traced.totals.evicted


class TestParallelQueueProfile:
    def test_profile_is_read_off_the_totals(self):
        mapping, ring = traced_run(
            partial(
                ParallelOctoCacheMap,
                resolution=RES,
                depth=DEPTH,
                cache_config=SMALL_CACHE,
            )
        )
        profile = mapping.queue_profile()
        totals = mapping.totals
        waits = [s for s in ring.spans if s.name == "queue_wait"]
        assert profile["chunks"] == totals.chunks == len(waits) > 0
        assert profile["chunks"] == sum(r.chunks for r in mapping.batches)
        assert profile["queue_wait_seconds"] == totals.queue_wait
        assert profile["service_seconds"] == totals.octree_update
        assert profile["thread1_wait_seconds"] == totals.thread1_wait
        assert profile["enqueue_seconds"] == totals.enqueue
        assert profile["mean_service"] == pytest.approx(
            totals.octree_update / totals.chunks
        )


class TestLedgerRecord:
    """What ``tests/analysis/test_decomposition.py`` asserted of the
    retired ``StageTimings`` / ``Stopwatch``, on their successors."""

    def test_add_and_total(self):
        mapping = OctoMapPipeline(resolution=RES, depth=DEPTH)
        record = BatchRecord()
        mapping._add("ray_tracing", record, 1.0)
        mapping._add("octree_update", record, 3.0)
        mapping._add("octree_update", BatchRecord(), 0.5)
        assert record.seconds() == pytest.approx(4.0)
        assert record.seconds(("ray_tracing",)) == pytest.approx(1.0)
        assert mapping.total_seconds() == pytest.approx(4.5)
        assert mapping.totals.octree_update == pytest.approx(3.5)

    def test_stopwatch_measures(self):
        mapping = OctoMapPipeline(resolution=RES, depth=DEPTH)
        record = BatchRecord()
        with mapping.stage("octree_update", record, "octree"):
            time.sleep(0.01)
        assert record.octree_update >= 0.009
        assert mapping.totals.octree_update == record.octree_update

    def test_stage_books_when_the_body_raises(self):
        mapping = OctoMapPipeline(resolution=RES, depth=DEPTH)
        record = BatchRecord()
        with pytest.raises(RuntimeError):
            with mapping.stage("octree_update", record, "octree"):
                raise RuntimeError("boom")
        assert record.octree_update > 0.0

    def test_as_dict_copy(self):
        mapping = OctoMapPipeline(resolution=RES, depth=DEPTH)
        mapping._add("ray_tracing", BatchRecord(), 1.0)
        stage_seconds = mapping.stage_seconds()
        assert stage_seconds == {"ray_tracing": 1.0}
        stage_seconds["ray_tracing"] = 99.0
        assert mapping.totals.ray_tracing == pytest.approx(1.0)

    def test_record_rejects_unknown_field(self):
        with pytest.raises(AttributeError):
            BatchRecord(dequeue=1.0)
