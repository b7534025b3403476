"""Tests for the baseline pipelines and the shared MappingSystem interface."""

import numpy as np
import pytest

from repro.baselines.octomap import OctoMapPipeline
from repro.baselines.octomap_rt import OctoMapRTPipeline
from repro.core.octocache import OctoCacheMap, OctoCacheRTMap
from repro.core.parallel import ParallelOctoCacheMap
from repro.sensor.pointcloud import PointCloud

RES = 0.2
DEPTH = 9

ALL_PIPELINES = [
    OctoMapPipeline,
    OctoMapRTPipeline,
    OctoCacheMap,
    OctoCacheRTMap,
    ParallelOctoCacheMap,
]


def wall_cloud(seed=0, n=60):
    rng = np.random.default_rng(seed)
    points = np.column_stack(
        [np.full(n, 3.0), rng.uniform(-2, 2, n), rng.uniform(0, 2, n)]
    )
    return PointCloud(points, origin=(0.0, 0.0, 1.0))


class TestInterface:
    @pytest.mark.parametrize("pipeline_cls", ALL_PIPELINES)
    def test_basic_workflow(self, pipeline_cls):
        mapping = pipeline_cls(resolution=RES, depth=DEPTH)
        record = mapping.insert_point_cloud(wall_cloud())
        assert record.observations > 0
        assert record.ray_tracing > 0.0
        mapping.finalize()
        # The first scanned point's voxel must be occupied...
        cloud = wall_cloud()
        first_point = tuple(cloud.points[0])
        assert mapping.is_occupied(first_point) is True
        # ...and the midpoint of its ray observed free.
        midpoint = tuple((np.asarray(cloud.origin) + cloud.points[0]) / 2.0)
        assert mapping.is_occupied(midpoint) is False

    @pytest.mark.parametrize("pipeline_cls", ALL_PIPELINES)
    def test_accepts_raw_arrays(self, pipeline_cls):
        mapping = pipeline_cls(resolution=RES, depth=DEPTH)
        mapping.insert_point_cloud(
            [[2.0, 0.0, 1.0]], origin=(0.0, 0.0, 1.0)
        )
        mapping.finalize()
        assert mapping.is_occupied((2.0, 0.0, 1.0)) is True

    @pytest.mark.parametrize("pipeline_cls", ALL_PIPELINES)
    def test_timings_accumulate(self, pipeline_cls):
        mapping = pipeline_cls(resolution=RES, depth=DEPTH)
        mapping.insert_point_cloud(wall_cloud())
        mapping.finalize()
        assert mapping.total_seconds() > 0.0
        assert mapping.critical_path_seconds() > 0.0
        assert mapping.critical_path_seconds() <= mapping.total_seconds() + 1e-9

    @pytest.mark.parametrize("pipeline_cls", ALL_PIPELINES)
    def test_batch_records_kept(self, pipeline_cls):
        mapping = pipeline_cls(resolution=RES, depth=DEPTH)
        for i in range(3):
            mapping.insert_point_cloud(wall_cloud(seed=i))
        mapping.finalize()
        assert len(mapping.batches) == 3
        for record in mapping.batches:
            assert mapping.record_response_seconds(record) >= 0.0
            assert mapping.record_busy_seconds(record) >= 0.0


class TestVanillaOctoMap:
    def test_every_observation_updates_octree(self):
        mapping = OctoMapPipeline(resolution=RES, depth=DEPTH)
        record = mapping.insert_point_cloud(wall_cloud())
        # Node visits reflect one root-to-leaf round trip per observation.
        assert mapping.octree.node_visits >= record.observations * 2

    def test_octree_update_dominates(self):
        """Figure 6's headline: octree update is the bottleneck."""
        mapping = OctoMapPipeline(resolution=0.1, depth=12)
        for i in range(3):
            mapping.insert_point_cloud(wall_cloud(seed=i, n=150))
        assert mapping.totals.octree_update > 0.5 * mapping.total_seconds()


class TestRTVariants:
    def test_rt_traces_fewer_observations(self):
        vanilla = OctoMapPipeline(resolution=RES, depth=DEPTH)
        rt = OctoMapRTPipeline(resolution=RES, depth=DEPTH)
        cloud = wall_cloud()
        rec_vanilla = vanilla.insert_point_cloud(cloud)
        rec_rt = rt.insert_point_cloud(cloud)
        assert rec_rt.observations < rec_vanilla.observations

    def test_rt_flag_set(self):
        assert OctoMapRTPipeline(resolution=RES, depth=DEPTH).rt is True
        assert OctoCacheRTMap(resolution=RES, depth=DEPTH).rt is True


class TestOctoCachePipeline:
    def test_cache_absorbs_duplicates(self):
        mapping = OctoCacheMap(resolution=RES, depth=DEPTH)
        record = mapping.insert_point_cloud(wall_cloud())
        assert mapping.cache.stats.hits > 0
        # The octree receives fewer voxels than the raw observation count.
        mapping.finalize()
        total_written = sum(r.evicted for r in mapping.batches)
        assert total_written <= record.observations

    def test_critical_path_excludes_octree_update(self):
        mapping = OctoCacheMap(resolution=RES, depth=DEPTH)
        mapping.insert_point_cloud(wall_cloud())
        critical = mapping.critical_path_seconds()
        total = mapping.total_seconds()
        assert critical < total

    def test_repeated_scans_increase_hit_ratio(self):
        mapping = OctoCacheMap(resolution=RES, depth=DEPTH)
        cloud = wall_cloud()
        mapping.insert_point_cloud(cloud)
        first_ratio = mapping.cache.stats.hit_ratio
        for _ in range(3):
            mapping.insert_point_cloud(cloud)  # identical scan: all hits
        assert mapping.cache.stats.hit_ratio > first_ratio


class TestParallelPipeline:
    def test_context_manager_finalizes(self):
        with ParallelOctoCacheMap(resolution=RES, depth=DEPTH) as mapping:
            mapping.insert_point_cloud(wall_cloud())
        # After the with-block everything is in the octree.
        assert mapping.octree.num_nodes > 0
        assert mapping.cache.resident_voxels == 0

    def test_worker_restarts_after_finalize(self):
        mapping = ParallelOctoCacheMap(resolution=RES, depth=DEPTH)
        mapping.insert_point_cloud(wall_cloud(seed=0))
        mapping.finalize()
        mapping.insert_point_cloud(wall_cloud(seed=1))
        mapping.finalize()
        assert len(mapping.batches) == 2

    def test_enqueue_dequeue_recorded(self):
        mapping = ParallelOctoCacheMap(
            resolution=RES,
            depth=DEPTH,
        )
        for i in range(3):
            mapping.insert_point_cloud(wall_cloud(seed=i))
        mapping.finalize()
        assert mapping.totals.enqueue >= 0.0
        assert mapping.totals.octree_update > 0.0
