"""Tests for trace recording and replay."""

import pytest

from repro.octree.instrumented import recorded_octree, streaming_octree
from repro.simcache.cost_model import jetson_tx2_hierarchy
from repro.simcache.trace import TraceRecorder, replay_trace


class TestRecorder:
    def test_records_in_order(self):
        recorder = TraceRecorder()
        for node_id in (3, 1, 4, 1, 5):
            recorder.record(node_id)
        assert recorder.trace == [3, 1, 4, 1, 5]
        assert len(recorder) == 5

    def test_pause_resume(self):
        recorder = TraceRecorder()
        recorder.record(1)
        recorder.pause()
        recorder.record(2)
        recorder.resume()
        recorder.record(3)
        assert recorder.trace == [1, 3]

    def test_clear(self):
        recorder = TraceRecorder()
        recorder.record(1)
        recorder.clear()
        assert recorder.trace == []


class TestReplay:
    def test_empty_trace(self):
        result = replay_trace([])
        assert result.accesses == 0
        assert result.total_cycles == 0.0

    def test_repeated_node_hits(self):
        result = replay_trace([0, 0, 0, 0])
        assert result.accesses == 4
        # First access misses to DRAM, the rest hit L1.
        assert result.total_cycles == pytest.approx(180.0 + 3 * 4.0)

    def test_custom_hierarchy(self):
        hierarchy = jetson_tx2_hierarchy()
        result = replay_trace([1, 2, 3], hierarchy=hierarchy)
        assert result.accesses == 3
        assert hierarchy.accesses == 3  # the given hierarchy was used

    def test_locality_lowers_cost(self):
        # Same multiset of accesses, different order: the grouped order
        # must cost no more than the interleaved one under LRU.
        far_apart = [i * 1000 for i in range(64)]
        interleaved = far_apart * 8
        grouped = [a for a in far_apart for _ in range(8)]
        assert (
            replay_trace(grouped).total_cycles
            <= replay_trace(interleaved).total_cycles
        )


class TestInstrumentedHelpers:
    def test_recorded_octree_captures_updates(self):
        tree, recorder = recorded_octree(resolution=0.1, depth=5)
        tree.update_node((1, 1, 1), True)
        assert len(recorder.trace) == tree.node_visits

    def test_streaming_octree_costs_accesses(self):
        tree, hierarchy = streaming_octree(resolution=0.1, depth=5)
        tree.update_node((1, 1, 1), True)
        assert hierarchy.accesses == tree.node_visits
        assert hierarchy.total_cycles > 0

    def test_tx2_hit_ratio_of_the_recorded_corridor_trace(self):
        """Deterministic end to end: same scan, same update trace, same
        modeled Jetson-TX2 hierarchy, same innermost-level hit ratio."""
        from repro.datasets.workload import load_bench_workload
        from repro.sensor.scaninsert import trace_scan

        workload = load_bench_workload(
            "fr079_corridor", ray_scale=0.5, max_batches=1
        )
        tree, recorder = recorded_octree(resolution=0.3, depth=10)
        batch = trace_scan(workload.scans[0], 0.3, 10, max_range=workload.max_range)
        for key, occupied in batch.observations:
            tree.update_node(key, occupied)
        replay = replay_trace(recorder.trace[:60_000])
        assert replay.level_hit_ratios[0] == 0.9909
