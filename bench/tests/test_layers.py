"""Wrappers go in for a traced repetition and are gone after it."""

import pytest

import repro.baselines.interface
import repro.service.server
from repro.core.cache import VoxelCache
from repro.mp import codec
from repro.sensor import scaninsert
from repro.sensor.scaninsert import ScanBatch

from bench import layers
from bench.inputs import build_inputs
from bench.spans import SpanRecorder
from bench.workloads import WORKLOADS, construct, drive


def originals():
    return {
        "trace_scan": scaninsert.trace_scan,
        "interface.trace_scan": repro.baselines.interface.trace_scan,
        "server.trace_scan": repro.service.server.trace_scan,
        "evict": VoxelCache.__dict__["evict"],
        "observations": ScanBatch.__dict__["observations"],
        "encode_frame": codec.encode_frame,
    }


def test_wrappers_are_removed_after_a_traced_run():
    before = originals()
    recorder = SpanRecorder()
    with layers.traced_layers(recorder):
        during = originals()
        assert all(during[name] is not before[name] for name in before)
    assert originals() == before
    assert scaninsert.trace_scan is before["trace_scan"]


def test_wrappers_are_removed_when_the_run_raises():
    before = originals()
    with pytest.raises(RuntimeError):
        with layers.traced_layers(SpanRecorder()):
            raise RuntimeError("mid-run")
    assert originals() == before


def test_a_traced_repetition_attributes_its_wall():
    spec = WORKLOADS["campus_sparse"]
    inputs = build_inputs(spec, seed=1, max_scans=4)
    recorder = SpanRecorder()
    pipeline = construct(spec, inputs)
    with layers.traced_layers(recorder) as payloads:
        rep = drive(spec, inputs, pipeline, recorder)
    assert payloads == []  # nothing crosses a pipe in a serial workload
    row = layers.layer_metrics(recorder.spans, rep.facts)
    assert row["bench.client.wall_s"] == pytest.approx(rep.client_wall_s, rel=0.05)
    assert 0.0 <= row["bench.unattributed_share"] < 0.5
    assert row["sensor.trace.rays"] == sum(len(scan) for scan in inputs.scans)
    assert row["cache.insert.hits"] + row["cache.insert.misses"] == (
        row["sensor.trace.observations"]
    )
    assert row["codec.encode.busy_s"] == 0 and row["mp.pipe.wait_s"] == 0
    assert row["octree.raycast.calls"] == len(inputs.probes[0].rays)


def test_memory_metrics_fold_leaf_paths():
    folded = layers.memory_metrics(
        {
            "service/map/shard0/default/cache/resident_cells": 70,
            "service/map/shard0/default/octree/nodes": 30,
            "service/durability/shard0/journal": 500,
            "service/queues/shard0": 8,
            "service/telemetry": 1,
        },
        voxels=10,
    )
    assert folded["mem.cache_bytes"] == 70 and folded["mem.octree_bytes"] == 30
    assert folded["mem.journal_bytes"] == 500 and folded["mem.queue_bytes"] == 8
    assert folded["mem.total_bytes"] == 609 and folded["mem.voxels"] == 10
