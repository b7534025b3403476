"""Tests for MappingSystem shared behaviour not covered elsewhere."""

import numpy as np
import pytest

from repro.baselines.interface import BatchRecord
from repro.baselines.octomap import OctoMapPipeline
from repro.core.octocache import OctoCacheMap
from repro.sensor.pointcloud import PointCloud


def small_cloud(seed=0):
    rng = np.random.default_rng(seed)
    points = np.column_stack(
        [np.full(15, 2.0), rng.uniform(-1, 1, 15), rng.uniform(0, 1, 15)]
    )
    return PointCloud(points, origin=(0.0, 0.0, 0.5))


class TestBatchRecord:
    def test_defaults(self):
        record = BatchRecord()
        assert record.observations == 0
        assert record.thread1_wait == 0.0
        assert not hasattr(record, "dequeue")  # never timed, so not a field
        assert record.enqueue == 0.0

    def test_response_and_busy_defaults(self):
        mapping = OctoMapPipeline(resolution=0.2, depth=8)
        record = BatchRecord()
        record.ray_tracing = 1.0
        record.octree_update = 2.0
        assert mapping.record_response_seconds(record) == pytest.approx(3.0)
        assert mapping.record_busy_seconds(record) == pytest.approx(3.0)

    def test_octocache_response_excludes_octree(self):
        mapping = OctoCacheMap(resolution=0.2, depth=8)
        record = BatchRecord()
        record.ray_tracing = 1.0
        record.cache_insertion = 0.5
        record.octree_update = 2.0
        assert mapping.record_response_seconds(record) == pytest.approx(1.5)
        assert mapping.record_busy_seconds(record) == pytest.approx(3.5)


class TestLastBatch:
    def test_disabled_by_default(self):
        mapping = OctoMapPipeline(resolution=0.2, depth=8)
        mapping.insert_point_cloud(small_cloud())
        assert mapping.last_batch is None

    def test_keeps_when_enabled(self):
        mapping = OctoCacheMap(resolution=0.2, depth=8)
        mapping.keep_last_batch = True
        record = mapping.insert_point_cloud(small_cloud())
        assert mapping.last_batch is not None
        assert len(mapping.last_batch) == record.observations
        keys = mapping.last_batch.unique_keys()
        assert keys  # non-empty voxel set

    def test_replaced_per_batch(self):
        mapping = OctoCacheMap(resolution=0.2, depth=8)
        mapping.keep_last_batch = True
        mapping.insert_point_cloud(small_cloud(0))
        first = mapping.last_batch
        mapping.insert_point_cloud(small_cloud(1))
        assert mapping.last_batch is not first


class TestRawArrayInput:
    def test_accepts_list_of_points(self):
        mapping = OctoMapPipeline(resolution=0.2, depth=8)
        record = mapping.insert_point_cloud(
            [[1.0, 0.0, 0.5], [1.5, 0.2, 0.5]], origin=(0.0, 0.0, 0.5)
        )
        assert record.observations > 0

    def test_trace_respects_rt_flag(self):
        cloud = small_cloud()
        plain = OctoMapPipeline(resolution=0.2, depth=8).trace(cloud)
        import copy

        rt_mapping = OctoMapPipeline(resolution=0.2, depth=8)
        rt_mapping.rt = True
        deduped = rt_mapping.trace(cloud)
        assert len(deduped) <= len(plain)
        keys = [k for k, _o in deduped.observations]
        assert len(keys) == len(set(keys))
