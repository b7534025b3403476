"""Tests for scan-to-batch conversion (vanilla and RT ray tracing)."""

import numpy as np
import pytest

from repro.sensor.pointcloud import PointCloud
from repro.sensor.scaninsert import ScanBatch, trace_scan, trace_scan_rt

RES = 0.1
DEPTH = 10


def wall_cloud(n=50, x=2.0, spread=1.0, seed=0):
    rng = np.random.default_rng(seed)
    points = np.column_stack(
        [
            np.full(n, x),
            rng.uniform(-spread, spread, n),
            rng.uniform(0.0, spread, n),
        ]
    )
    return PointCloud(points, origin=(0.0, 0.0, 0.5))


class TestTraceScan:
    def test_each_ray_emits_free_then_occupied(self):
        cloud = PointCloud([[1.0, 0.0, 0.0]], origin=(0.0, 0.0, 0.0))
        batch = trace_scan(cloud, RES, DEPTH)
        assert batch.num_rays == 1
        assert batch.observations[-1][1] is True  # endpoint occupied
        assert all(occ is False for _k, occ in batch.observations[:-1])

    def test_duplication_from_conical_rays(self):
        batch = trace_scan(wall_cloud(), RES, DEPTH)
        # Rays share voxels near the origin: duplication must appear.
        assert batch.duplication_ratio > 1.5

    def test_occupied_and_free_counts(self):
        batch = trace_scan(wall_cloud(n=20), RES, DEPTH)
        assert batch.num_occupied == 20  # one endpoint per ray
        assert batch.num_free == len(batch) - 20

    def test_max_range_truncates_to_free(self):
        cloud = PointCloud([[10.0, 0.0, 0.0]], origin=(0.0, 0.0, 0.0))
        batch = trace_scan(cloud, RES, DEPTH, max_range=2.0)
        # Truncated ray: all observations free, none beyond ~2m.
        assert all(occ is False for _k, occ in batch.observations)
        offset = 1 << (DEPTH - 1)
        max_x = max(k[0] for k, _occ in batch.observations)
        assert (max_x - offset) * RES <= 2.0 + RES

    def test_within_range_unaffected_by_max_range(self):
        cloud = PointCloud([[1.0, 0.0, 0.0]], origin=(0.0, 0.0, 0.0))
        with_limit = trace_scan(cloud, RES, DEPTH, max_range=5.0)
        without = trace_scan(cloud, RES, DEPTH)
        assert with_limit.observations == without.observations

    def test_empty_cloud(self):
        batch = trace_scan(PointCloud(np.zeros((0, 3))), RES, DEPTH)
        assert len(batch) == 0
        assert batch.duplication_ratio == 0.0


class TestTraceScanRT:
    def test_no_duplicates(self):
        batch = trace_scan_rt(wall_cloud(), RES, DEPTH)
        keys = [k for k, _occ in batch.observations]
        assert len(keys) == len(set(keys))
        assert batch.duplication_ratio == pytest.approx(1.0)

    def test_occupied_wins_over_free(self):
        # Two rays: one ends where the other passes through.
        cloud = PointCloud(
            [[0.5, 0.0, 0.0], [1.0, 0.0, 0.0]], origin=(0.0, 0.0, 0.0)
        )
        batch = trace_scan_rt(cloud, RES, DEPTH)
        occupancy = dict(batch.observations)
        end_key_near = trace_scan(
            PointCloud([[0.5, 0.0, 0.0]], origin=(0.0, 0.0, 0.0)), RES, DEPTH
        ).observations[-1][0]
        assert occupancy[end_key_near] is True

    def test_same_voxel_set_as_vanilla(self):
        cloud = wall_cloud(n=30)
        vanilla = trace_scan(cloud, RES, DEPTH)
        rt = trace_scan_rt(cloud, RES, DEPTH)
        assert vanilla.unique_keys() == rt.unique_keys()

    def test_fewer_observations_than_vanilla(self):
        cloud = wall_cloud()
        assert len(trace_scan_rt(cloud, RES, DEPTH)) < len(trace_scan(cloud, RES, DEPTH))


class TestScanBatchConcat:
    """The service's coalesced worker turn applies one concatenated batch."""

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_num_rays_is_the_sum_of_the_parts(self, parts):
        batches = [
            trace_scan(wall_cloud(n=5 + index, seed=index), RES, DEPTH, kernel="vector")
            for index in range(parts)
        ]
        joined = ScanBatch.concat(batches)
        assert joined.num_rays == sum(5 + index for index in range(parts))
        assert joined.observations == [
            observation for batch in batches for observation in batch.observations
        ]
