"""Tests for the analytic two-thread pipeline model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.interface import BatchRecord
from repro.core.pipeline_model import SERIAL_STAGES, PipelineModel

durations = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def batch(rt=1.0, ci=0.5, ce=0.1, ou=2.0, enq=0.0):
    return BatchRecord(
        ray_tracing=rt,
        cache_insertion=ci,
        cache_eviction=ce,
        octree_update=ou,
        enqueue=enq,
    )


class TestStageTimes:
    def test_serial_seconds(self):
        assert batch().seconds(SERIAL_STAGES) == pytest.approx(3.6)

    def test_from_record(self):
        # The model reads a pipeline's records as they are: no copy.
        record = BatchRecord()
        record.ray_tracing = 1.0
        record.octree_update = 2.0
        model = PipelineModel([record])
        assert model.batches[0] is record
        assert model.simulate().serial_seconds == pytest.approx(3.0)


class TestTimeline:
    def test_empty_model(self):
        timeline = PipelineModel([]).simulate()
        assert timeline.serial_seconds == 0.0
        assert timeline.parallel_seconds == 0.0
        assert timeline.speedup == 1.0

    def test_single_batch_overlaps_own_eviction_only(self):
        # One batch: the streamed octree update overlaps only this batch's
        # eviction (0.1), since there is no following ray tracing to hide
        # behind: 3.6 serial -> 3.5 parallel.
        timeline = PipelineModel([batch()]).simulate()
        assert timeline.serial_seconds == pytest.approx(3.6)
        assert timeline.parallel_seconds == pytest.approx(3.5)

    def test_two_batches_overlap(self):
        # Batch 2's ray tracing overlaps batch 1's octree update.
        timeline = PipelineModel([batch(), batch()]).simulate()
        assert timeline.parallel_seconds < timeline.serial_seconds

    def test_perfect_overlap_when_stages_balanced(self):
        # rt+ce == ou: each octree update hides behind its own batch's
        # eviction plus the next batch's ray tracing; only the last one
        # sticks out past thread 1 (pipeline drain).
        batches = [batch(rt=1.0, ci=0.0, ce=1.0, ou=2.0)] * 10
        timeline = PipelineModel(batches).simulate()
        # Serial: 10 * 4.0 = 40.  Thread 1: 10 * 2.0 = 20.  Final octree
        # update starts with the last eviction at t=19 and ends at 21.
        assert timeline.serial_seconds == pytest.approx(40.0)
        assert timeline.parallel_seconds == pytest.approx(21.0)

    def test_waiting_gap_when_octree_dominates(self):
        # Octree updates longer than the rest: thread 1 waits (Fig. 13b).
        batches = [batch(rt=0.1, ci=0.1, ce=0.1, ou=5.0)] * 5
        timeline = PipelineModel(batches).simulate()
        assert timeline.thread1_wait_seconds > 0.0

    def test_no_wait_when_thread1_dominates(self):
        batches = [batch(rt=5.0, ci=1.0, ce=1.0, ou=0.1)] * 5
        timeline = PipelineModel(batches).simulate()
        assert timeline.thread1_wait_seconds == 0.0

    @given(st.lists(
        st.builds(batch, rt=durations, ci=durations, ce=durations, ou=durations),
        min_size=1, max_size=20,
    ))
    @settings(max_examples=50, deadline=None)
    def test_parallel_never_slower_than_serial(self, batches):
        timeline = PipelineModel(batches).simulate()
        assert timeline.parallel_seconds <= timeline.serial_seconds + 1e-9

    @given(st.lists(
        st.builds(batch, rt=durations, ci=durations, ce=durations, ou=durations),
        min_size=1, max_size=20,
    ))
    @settings(max_examples=50, deadline=None)
    def test_parallel_bounded_by_paper_formula(self, batches):
        """Savings never exceed sum of min(T_rt + T_evict, T_octree)."""
        model = PipelineModel(batches)
        timeline = model.simulate()
        saved = timeline.serial_seconds - timeline.parallel_seconds
        assert saved <= model.max_theoretical_gain() + 1e-9

    @given(st.lists(
        st.builds(batch, rt=durations, ci=durations, ce=durations, ou=durations),
        min_size=1, max_size=20,
    ))
    @settings(max_examples=50, deadline=None)
    def test_parallel_at_least_each_thread_total(self, batches):
        timeline = PipelineModel(batches).simulate()
        thread1 = sum(b.ray_tracing + b.cache_insertion + b.cache_eviction for b in batches)
        thread2 = sum(b.octree_update for b in batches)
        assert timeline.parallel_seconds >= max(thread1, thread2) - 1e-9
