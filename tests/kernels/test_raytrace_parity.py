"""Property-based parity: vector ray tracing vs the scalar oracle.

The contract of :mod:`repro.kernels.raytrace` is *bit-exactness*: the
batched tracer must emit the identical observation stream — same voxel
keys, same occupied flags, same order — as the per-ray scalar path.
These tests fuzz randomized clouds across resolutions, depths and range
clamps, then hammer the known corner cases (degenerate rays, same-voxel
endpoints, axis-aligned rays, exact voxel-corner ties, ``max_range``
truncation, out-of-bounds errors).

The tracer sizes its grids by the ray: rays are grouped into length
cohorts, each traced on its own grid and written back to the ray's
place in the stream.  The cohort tests mix one-voxel, mid-length and
map-spanning rays in one cloud, push the cohort rule to both extremes,
bound the transient memory and guard the module's loop structure.
"""

import ast
import math
import pathlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import raytrace
from repro.sensor.pointcloud import PointCloud
from repro.sensor.scaninsert import trace_scan, trace_scan_rt


def assert_streams_equal(
    cloud, resolution, depth, max_range=math.inf, trace=trace_scan
):
    scalar = trace(cloud, resolution, depth, max_range=max_range)
    vector = trace(
        cloud, resolution, depth, max_range=max_range, kernel="vector"
    )
    assert vector.num_rays == scalar.num_rays
    assert vector.observations == scalar.observations
    return scalar, vector


def random_cloud(rng, span, num_points):
    origin = tuple(rng.uniform(-span * 0.3, span * 0.3, size=3))
    points = rng.uniform(-span, span, size=(num_points, 3))
    return PointCloud(points=points, origin=origin)


class TestFuzzParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            resolution = float(rng.choice([0.05, 0.1, 0.25, 0.5]))
            depth = int(rng.choice([6, 8, 10]))
            span = resolution * (1 << (depth - 1)) * 0.8
            cloud = random_cloud(rng, span, int(rng.integers(1, 40)))
            assert_streams_equal(cloud, resolution, depth)


class TestMaxRangeParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_truncated_rays_match_and_contribute_free_only(self, seed):
        rng = np.random.default_rng(1000 + seed)
        resolution = 0.2
        depth = 9
        span = resolution * (1 << (depth - 1)) * 0.8
        cloud = random_cloud(rng, span, 30)
        scalar, vector = assert_streams_equal(
            cloud, resolution, depth, max_range=span * 0.3
        )
        # Some rays truncated (free endpoint), some not.
        assert scalar.num_occupied < 30
        assert vector.num_occupied == scalar.num_occupied

    def test_all_rays_truncated(self):
        cloud = PointCloud(
            points=np.array([[5.0, 5.0, 5.0], [-6.0, 0.0, 3.0]]),
            origin=(0.0, 0.0, 0.0),
        )
        scalar, vector = assert_streams_equal(
            cloud, 0.25, 8, max_range=1.5
        )
        assert scalar.num_occupied == 0
        assert vector.num_occupied == 0


class TestCornerCases:
    def test_empty_cloud(self):
        cloud = PointCloud(points=np.empty((0, 3)), origin=(0.0, 0.0, 0.0))
        scalar, vector = assert_streams_equal(cloud, 0.1, 8)
        assert len(vector) == 0

    def test_degenerate_rays_point_equals_origin(self):
        origin = (0.37, -0.81, 0.05)
        points = np.array([list(origin)] * 3)
        assert_streams_equal(
            PointCloud(points=points, origin=origin), 0.1, 8
        )

    def test_same_voxel_endpoints(self):
        # Endpoint inside the origin voxel but not equal to the origin.
        origin = (0.02, 0.03, 0.04)
        points = np.array([[0.08, 0.01, 0.09], [0.01, 0.09, 0.01]])
        scalar, vector = assert_streams_equal(
            PointCloud(points=points, origin=origin), 0.1, 8
        )
        assert len(scalar) == 2  # endpoint observations only

    def test_axis_aligned_rays(self):
        origin = (0.05, 0.05, 0.05)
        points = np.array(
            [
                [2.05, 0.05, 0.05],
                [0.05, -1.95, 0.05],
                [0.05, 0.05, 3.05],
                [-1.95, 0.05, 0.05],
            ]
        )
        assert_streams_equal(
            PointCloud(points=points, origin=origin), 0.1, 8
        )

    def test_voxel_corner_ties(self):
        # Endpoints and origin on exact multiples of the resolution: the
        # diagonal rays cross voxel corners, where two or three axis
        # crossings share one t value and the tie-break order matters.
        origin = (0.0, 0.0, 0.0)
        points = np.array(
            [
                [1.0, 1.0, 1.0],
                [2.0, 2.0, 0.0],
                [-1.0, -1.0, -1.0],
                [0.5, 0.5, 0.5],
            ]
        )
        for resolution in (0.1, 0.25, 0.5):
            assert_streams_equal(
                PointCloud(points=points, origin=origin), resolution, 8
            )

    def test_mixed_batch(self):
        origin = (0.11, 0.0, -0.07)
        points = np.array(
            [
                [0.11, 0.0, -0.07],  # degenerate
                [0.13, 0.01, -0.05],  # same voxel
                [3.0, 0.0, -0.07],  # axis-aligned
                [2.7, -1.9, 1.4],  # generic
                [40.0, 40.0, 40.0],  # truncated under max_range
            ]
        )
        assert_streams_equal(
            PointCloud(points=points, origin=origin), 0.2, 9, max_range=6.0
        )


class TestErrorParity:
    def test_endpoint_outside_map_raises_like_scalar(self):
        # depth 6 at 0.1 m spans ±3.2 m; 10 m is out of bounds.
        cloud = PointCloud(
            points=np.array([[10.0, 0.0, 0.0]]), origin=(0.0, 0.0, 0.0)
        )
        with pytest.raises(ValueError) as scalar_err:
            trace_scan(cloud, 0.1, 6)
        with pytest.raises(ValueError) as vector_err:
            trace_scan(cloud, 0.1, 6, kernel="vector")
        assert str(vector_err.value) == str(scalar_err.value)

    def test_origin_outside_map_raises_like_scalar(self):
        cloud = PointCloud(
            points=np.array([[0.0, 0.0, 0.0]]), origin=(10.0, 0.0, 0.0)
        )
        with pytest.raises(ValueError) as scalar_err:
            trace_scan(cloud, 0.1, 6)
        with pytest.raises(ValueError) as vector_err:
            trace_scan(cloud, 0.1, 6, kernel="vector")
        assert str(vector_err.value) == str(scalar_err.value)

    def test_truncation_can_rescue_out_of_range_endpoint(self):
        # The scalar path truncates before converting: so must the
        # vector path — no spurious bounds error for clamped rays.
        cloud = PointCloud(
            points=np.array([[10.0, 0.0, 0.0]]), origin=(0.0, 0.0, 0.0)
        )
        assert_streams_equal(cloud, 0.1, 6, max_range=1.0)

    def test_unknown_kernel_rejected(self):
        cloud = PointCloud(
            points=np.array([[1.0, 0.0, 0.0]]), origin=(0.0, 0.0, 0.0)
        )
        with pytest.raises(ValueError, match="unknown kernel"):
            trace_scan(cloud, 0.1, 6, kernel="simd")


class TestBatchCounters:
    """Satellite: counts computed once, identical across representations."""

    def test_counts_match_between_array_and_tuple_batches(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 8.0, 25)
        scalar = trace_scan(cloud, 0.2, 8)
        vector = trace_scan(cloud, 0.2, 8, kernel="vector")
        assert vector.num_occupied == scalar.num_occupied
        assert vector.num_free == scalar.num_free
        assert vector.duplication_ratio == pytest.approx(
            scalar.duplication_ratio
        )
        # Cached after first access: same object back, no rescan.
        assert vector.duplication_ratio is not None
        assert vector._num_unique == len(scalar.unique_keys())


def assert_rt_streams_equal(cloud, resolution, depth, max_range=math.inf):
    assert_streams_equal(cloud, resolution, depth, max_range, trace=trace_scan_rt)


#: Ray kinds of :func:`interleaved_cloud`: degenerate (point == origin),
#: endpoint in the origin's voxel, one-voxel, mid-length, map-spanning.
RAY_KINDS = "dvoml"


def interleaved_cloud(kinds, seed, resolution, depth):
    """One ray per entry of ``kinds``, in that stream order."""
    rng = np.random.default_rng(seed)
    half = resolution * (1 << (depth - 1))
    origin = rng.uniform(-0.2 * half, 0.2 * half, size=3)
    corner = np.floor(origin / resolution) * resolution
    points = np.empty((len(kinds), 3))
    for row, kind in enumerate(kinds):
        direction = rng.normal(size=3)
        direction /= np.abs(direction).max()
        if kind == "d":
            points[row] = origin
        elif kind == "v":
            points[row] = corner + rng.uniform(0.05, 0.95, size=3) * resolution
        elif kind == "o":
            points[row] = origin + direction * resolution
        elif kind == "m":
            points[row] = origin + direction * resolution * rng.uniform(5, 20)
        else:
            points[row] = origin + direction * (0.75 * half - 1e-9)
    return PointCloud(points=points, origin=tuple(origin.tolist()))


def count_cohorts(monkeypatch):
    """Spy on the per-cohort kernel; the returned list holds ray counts."""
    sizes = []
    kernel = raytrace._trace_cohort

    def spy(t0, *args):
        sizes.append(t0.shape[0])
        return kernel(t0, *args)

    monkeypatch.setattr(raytrace, "_trace_cohort", spy)
    return sizes


class TestCohortParity:
    RESOLUTION = 0.1
    DEPTH = 8

    @settings(max_examples=60, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(RAY_KINDS), min_size=1, max_size=64),
        seed=st.integers(0, 2**32 - 1),
        clamp=st.sampled_from([None, 0.15, 0.5]),
        pass_cells=st.sampled_from([raytrace._PASS_CELLS, 256]),
    )
    def test_interleaved_ray_lengths_match_the_oracle(
        self, kinds, seed, clamp, pass_cells
    ):
        """Stream order is drawn, so cohorts interleave in the output;
        the lower pass cost splits clouds this small several ways."""
        cloud = interleaved_cloud(kinds, seed, self.RESOLUTION, self.DEPTH)
        half = self.RESOLUTION * (1 << (self.DEPTH - 1))
        max_range = math.inf if clamp is None else clamp * half
        with mock.patch.object(raytrace, "_PASS_CELLS", pass_cells):
            assert_streams_equal(cloud, self.RESOLUTION, self.DEPTH, max_range)
            assert_rt_streams_equal(cloud, self.RESOLUTION, self.DEPTH, max_range)

    def mixed_cloud(self):
        rng = np.random.default_rng(42)
        kinds = rng.permutation(list("d" * 3 + "v" * 4 + "o" * 150 + "m" * 12 + "l" * 4))
        return interleaved_cloud(kinds.tolist(), 42, self.RESOLUTION, self.DEPTH)

    def test_short_rays_do_not_ride_a_long_rays_grid(self, monkeypatch):
        sizes = count_cohorts(monkeypatch)
        cloud = self.mixed_cloud()
        assert_streams_equal(cloud, self.RESOLUTION, self.DEPTH)
        assert len(sizes) >= 2
        assert sum(sizes) == 150 + 12 + 4  # degenerate / same-voxel: untraced

    def test_every_ray_in_one_cohort(self, monkeypatch):
        monkeypatch.setattr(raytrace, "_PASS_CELLS", 1 << 60)
        monkeypatch.setattr(raytrace, "_COHORT_CELLS", 1 << 60)
        sizes = count_cohorts(monkeypatch)
        cloud = self.mixed_cloud()
        assert_streams_equal(cloud, self.RESOLUTION, self.DEPTH)
        assert sizes == [166]
        assert_rt_streams_equal(cloud, self.RESOLUTION, self.DEPTH)

    def test_every_ray_in_its_own_cohort(self, monkeypatch):
        monkeypatch.setattr(raytrace, "_COHORT_CELLS", 1)
        sizes = count_cohorts(monkeypatch)
        cloud = self.mixed_cloud()
        assert_streams_equal(cloud, self.RESOLUTION, self.DEPTH, max_range=3.0)
        assert sizes == [1] * 166
        assert_rt_streams_equal(cloud, self.RESOLUTION, self.DEPTH, max_range=3.0)

    def test_small_cloud_stays_one_cohort(self, monkeypatch):
        sizes = count_cohorts(monkeypatch)
        rng = np.random.default_rng(5)
        assert_streams_equal(random_cloud(rng, 5.0, 30), 0.1, self.DEPTH)
        assert sizes == [30]

    def test_dense_cloud_matches_the_oracle(self, monkeypatch):
        sizes = count_cohorts(monkeypatch)
        rng = np.random.default_rng(2025)
        directions = rng.normal(size=(5200, 3)) * (1.0, 1.0, 0.4)
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        reach = rng.uniform(0.05, 7.0, size=(5200, 1))
        origin = (0.31, -0.17, 0.52)
        cloud = PointCloud(points=origin + directions * reach, origin=origin)
        scalar, vector = assert_streams_equal(cloud, 0.2, 10, max_range=5.0)
        assert 0 < scalar.num_occupied < 5200
        assert len(sizes) >= 3
        assert_rt_streams_equal(cloud, 0.2, 10, max_range=5.0)


class TestTransientMemory:
    def test_traced_peak_stays_within_three_streams(self):
        """20 000 rays at 20 m: the grids are cut to a cell budget, so the
        tracer's peak is bounded by the stream it returns, not by
        ``rays x longest ray``."""
        rng = np.random.default_rng(9)
        directions = rng.normal(size=(20000, 3)) * (1.0, 1.0, 0.3)
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        reach = rng.uniform(0.5, 30.0, size=(20000, 1))
        cloud = PointCloud(points=directions * reach, origin=(0.0, 0.0, 0.0))
        tracemalloc.start()
        try:
            keys, occupied, _num_rays = raytrace.trace_cloud_arrays(
                cloud, 0.2, 12, max_range=20.0
            )
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert keys.shape[0] > 1_000_000
        assert peak <= 3 * (keys.nbytes + occupied.nbytes)


def loops_in(tree):
    """What every loop and comprehension of a module runs over."""
    loops = []
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            loops.append(f"for … in {ast.unparse(node.iter)}")
        elif isinstance(node, ast.While):
            loops.append(f"while {ast.unparse(node.test)}")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            loops.append(ast.unparse(node))
    return loops


class TestLoopStructure:
    """The kernel's only Python loops step through cohorts."""

    #: Trace each cohort, write each cohort, and the cut search itself.
    COHORT_LOOPS = {
        "for … in _cohort_bounds(lengths)",
        "for … in traced",
        "while pending",
    }

    def test_raytrace_loops_over_cohorts_only(self):
        source = pathlib.Path(raytrace.__file__).read_text()
        assert set(loops_in(ast.parse(source))) == self.COHORT_LOOPS

    def test_the_guard_sees_a_per_ray_loop(self):
        per_ray = "for ray in range(count):\n    out[ray] = [k for k in keys]\n"
        assert len(loops_in(ast.parse(per_ray))) == 2
