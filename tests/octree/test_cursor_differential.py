"""The resumed read path against a root-restarting one.

``reference_rayquery`` writes ``cast_ray`` and ``coord_to_key`` out
longhand (one ``tree.search`` from the root per voxel; ``int(np.floor())``
per axis).  Everything here is equality, not tolerance: a cursor answers
like ``search`` for any key sequence on any tree shape, a cast returns
the reference's ``RayHit`` field for field, the visit hook sees exactly
the nodes that are counted, and a ray costs a fraction of the reference's
node visits — a count, so a slide back to root restarts fails without a
clock.
"""

import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.morton import morton_encode3
from repro.core.octocache import OctoCacheMap
from repro.datasets import make_dataset
from repro.octree.key import coord_to_key
from repro.octree.rayquery import RayHit, cast_ray, clamped_endpoint
from repro.octree.tree import OccupancyOctree
from repro.service.sharded_map import ShardedMap

from .reference_rayquery import reference_cast_ray, reference_coord_to_key

DEPTH = 5
SIDE = 1 << DEPTH


def same(a, b):
    """Equal, signed zeros told apart."""
    return repr(a) == repr(b)


def block_keys(corner, level):
    span = range(1 << level)
    return [
        (corner[0] + dx, corner[1] + dy, corner[2] + dz)
        for dx in span for dy in span for dz in span
    ]


def tree_of(blocks):
    """A tree holding ``(corner, level, value)`` blocks: each aligned
    block written whole, so it prunes to one leaf at its level."""
    tree = OccupancyOctree(resolution=0.1, depth=DEPTH)
    for corner, level, value in blocks:
        keys = block_keys(corner, level)
        tree.set_leaves_bulk(np.array(keys), np.full(len(keys), value))
    return tree


def shaped_tree():
    """Pruned blocks at levels 3, 2 and 1, lone finest voxels (one beside
    a pruned block, one in an otherwise absent octant), the rest absent."""
    return tree_of(
        [
            ((0, 0, 0), 3, -2.0),
            ((8, 0, 0), 2, 0.85),
            ((12, 4, 0), 1, -0.4),
            ((14, 4, 0), 0, 3.5),
            ((8, 8, 8), 0, -0.0),
            ((31, 31, 31), 0, 0.85),
            ((16, 0, 0), 0, 0.0),
        ]
    )


TREES = {
    "shaped": shaped_tree(),
    "empty": OccupancyOctree(resolution=0.1, depth=DEPTH),
    "root_only": tree_of([((0, 0, 0), DEPTH, 0.85)]),
}

coordinate = st.integers(min_value=0, max_value=SIDE - 1)
keys = st.tuples(coordinate, coordinate, coordinate)
# A ray: face-neighbour steps from a start voxel.
steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from([-1, 1])),
    max_size=40,
)
corners = st.sampled_from([0, 1, SIDE // 2 - 1, SIDE // 2, SIDE - 2, SIDE - 1])
outside = st.tuples(
    st.sampled_from([-1, SIDE, 3]), st.sampled_from([-5, 2 * SIDE, 0]), coordinate
).filter(lambda key: not all(0 <= c < SIDE for c in key))


def ray_ordered(start, moves):
    key = list(start)
    sequence = [start]
    for axis, step in moves:
        key[axis] = min(max(key[axis] + step, 0), SIDE - 1)
        sequence.append(tuple(key))
    return sequence


sequences = st.one_of(
    st.builds(ray_ordered, keys, steps),
    st.lists(keys, max_size=40),
    st.lists(keys, max_size=12).map(lambda ks: [k for k in ks for _ in range(3)]),
    st.lists(st.tuples(corners, corners, corners), max_size=30),
    st.lists(st.one_of(keys, outside), max_size=30),
)
log_odds = st.sampled_from([-2.0, -0.4, -0.0, 0.0, 0.85, 3.5])
aligned_blocks = st.integers(min_value=0, max_value=3).flatmap(
    lambda level: st.tuples(
        st.tuples(
            *[st.integers(0, (SIDE >> level) - 1).map(lambda c: c << level)] * 3
        ),
        st.just(level),
        log_odds,
    )
)


def assert_cursor_matches_search(tree, sequence):
    cursor = tree.cursor()
    for key in sequence:
        try:
            expected = tree.search(key)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                cursor(key)
            assert str(raised.value) == str(error)
        else:
            assert same(cursor(key), expected), key


class TestCursorAgainstSearch:
    @pytest.mark.parametrize("name", sorted(TREES))
    @given(sequences)
    @settings(max_examples=120, deadline=None)
    def test_fixed_shapes(self, name, sequence):
        assert_cursor_matches_search(TREES[name], sequence)

    @given(st.lists(aligned_blocks, max_size=6), sequences)
    @settings(max_examples=60, deadline=None)
    def test_random_shapes(self, blocks, sequence):
        assert_cursor_matches_search(tree_of(blocks), sequence)

    def test_shapes_are_what_they_claim(self):
        assert TREES["empty"].num_nodes == 0
        assert list(TREES["root_only"].iter_leaves()) == [((0, 0, 0), DEPTH, 0.85)]
        levels = {level for _key, level, _value in TREES["shaped"].iter_leaves()}
        assert levels == {0, 1, 2, 3}

    def test_every_voxel_in_scan_and_morton_order(self):
        tree = TREES["shaped"]
        every = block_keys((0, 0, 0), DEPTH)
        for order in (every, sorted(every, key=lambda key: morton_encode3(*key))):
            cursor = tree.cursor()
            assert all(same(cursor(key), tree.search(key)) for key in order)

    def test_hook_sees_exactly_the_counted_nodes(self):
        tree = shaped_tree()
        rng = np.random.default_rng(3)
        sequence = ray_ordered((7, 0, 0), [(0, 1)] * 12) + [
            tuple(key) for key in rng.integers(0, SIDE, size=(60, 3)).tolist()
        ]
        trace = []
        tree.visit_hook = trace.append
        cursor = tree.cursor()
        entered = []
        for key in sequence:
            seen, before = len(trace), tree.node_visits
            cursor(key)
            assert tree.node_visits - before == len(trace) - seen
            entered.append(trace[seen:])
        # What a descent enters is the tail of that key's root-to-leaf
        # path; only the first one enters the root.
        restarted = 0
        for key, nodes in zip(sequence, entered):
            del trace[:]
            tree.search(key)
            assert nodes == trace[len(trace) - len(nodes):]
            restarted += len(trace)
        assert [nodes[:1] == [0] for nodes in entered] == [True] + [False] * (
            len(sequence) - 1
        )
        assert sum(map(len, entered)) < restarted / 2


# ----------------------------------------------------------------------
# cast_ray on a map built from dataset scans.
# ----------------------------------------------------------------------

RES = 0.2
MAP_DEPTH = 12
RANGE = 8.0


@pytest.fixture(scope="module")
def college():
    """``(tree, poses)``: eight ``new_college`` scans, cache flushed."""
    dataset = make_dataset("new_college", seed=1, ray_scale=0.5)
    pipeline = OctoCacheMap(
        RES, depth=MAP_DEPTH, max_range=dataset.sensor.max_range, kernel="vector"
    )
    scans = list(islice(dataset.scans(), 8))
    for scan in scans:
        pipeline.insert_point_cloud(scan)
    pipeline.finalize()
    return pipeline.octree, [tuple(map(float, scan.origin)) for scan in scans]


def probe_rays(poses, count, seed):
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(count, 3)) * (1.0, 1.0, 0.3)
    picks = rng.integers(0, len(poses), size=count).tolist()
    return [
        (poses[pick], tuple(direction))
        for pick, direction in zip(picks, directions.tolist())
    ]


class TestCastRayAgainstReference:
    def test_probe_rays_both_unknown_policies(self, college):
        tree, poses = college
        outcomes = set()
        for origin, direction in probe_rays(poses, 300, seed=11):
            for ignore_unknown in (True, False):
                hit = cast_ray(tree, origin, direction, RANGE, ignore_unknown)
                assert hit == reference_cast_ray(
                    tree, tree.search, origin, direction, RANGE, ignore_unknown
                )
                outcomes.add((hit.hit, hit.blocked_by_unknown))
        # Hits, walks that end in unknown space, walks that run out of range.
        assert outcomes == {(True, False), (False, True), (False, False)}

    def test_ray_starting_in_a_pruned_block(self, college):
        tree, poses = college
        origin = poses[0]
        corner = tuple(c & ~7 for c in tree.coord_to_key(origin))
        block = block_keys(corner, 3)
        pruned = OccupancyOctree(RES, depth=MAP_DEPTH)
        pruned.set_leaves_bulk(*tree.finest_leaf_arrays())
        pruned.set_leaves_bulk(np.array(block), np.full(len(block), -2.0))
        assert list(pruned.iter_leaves(corner, corner)) == [(corner, 3, -2.0)]
        for _, direction in probe_rays(poses, 40, seed=12):
            for ignore_unknown in (True, False):
                assert cast_ray(
                    pruned, origin, direction, RANGE, ignore_unknown
                ) == reference_cast_ray(
                    pruned, pruned.search, origin, direction, RANGE, ignore_unknown
                )

    def test_hit_at_the_first_voxel(self, college):
        tree, _poses = college
        key = next(
            key
            for key, level, value in tree.iter_leaves()
            if level == 0 and tree.params.is_occupied(value)
        )
        x, y, z = tree.key_to_coord(key)
        origin = (x - RES, y, z)
        hit = cast_ray(tree, origin, (1.0, 0.0, 0.0), RANGE)
        assert hit == reference_cast_ray(
            tree, tree.search, origin, (1.0, 0.0, 0.0), RANGE
        )
        assert hit == RayHit(hit=True, key=key, endpoint=(x, y, z))

    def test_ray_that_never_leaves_its_voxel_reads_only_it(self, college):
        tree, poses = college
        key = tree.coord_to_key(poses[0])
        centre = tree.key_to_coord(key)
        before = tree.node_visits
        tree.search(key)
        one_read = tree.node_visits - before
        hit = cast_ray(tree, centre, (0.0, 1.0, 0.0), RES / 50)
        assert hit == RayHit(hit=False, key=key, endpoint=centre)
        assert tree.node_visits - before == 2 * one_read

    def test_hook_sees_exactly_the_counted_nodes(self, college):
        tree, poses = college
        trace = []
        tree.visit_hook = trace.append
        try:
            before = tree.node_visits
            for origin, direction in probe_rays(poses, 50, seed=13):
                cast_ray(tree, origin, direction, RANGE, ignore_unknown=False)
                assert tree.node_visits - before == len(trace)
        finally:
            tree.visit_hook = None
        assert trace and max(trace) < tree._size

    def test_a_ray_costs_a_fraction_of_the_root_restarting_walk(self, college):
        """The count-based guard: measured 0.06x; root restarts read 1.0x."""
        tree, poses = college
        rays = probe_rays(poses, 200, seed=14)
        start = tree.node_visits
        for origin, direction in rays:
            cast_ray(tree, origin, direction, RANGE)
        resumed = tree.node_visits - start
        for origin, direction in rays:
            reference_cast_ray(tree, tree.search, origin, direction, RANGE)
        restarted = tree.node_visits - start - resumed
        assert 0 < resumed <= 0.15 * restarted


class TestBoundary:
    """A ray whose range crosses the map boundary stops just inside it."""

    ORIGIN, DIRECTION = (20.0, 0.0, 0.0), (1.0, 0.0, 0.0)

    def test_serial_walk_returns_instead_of_raising(self):
        tree = OccupancyOctree(resolution=0.2, depth=8)  # half-side 25.6 m
        with pytest.raises(ValueError, match="outside map boundary"):
            tree.coord_to_key((30.0, 0.0, 0.0))  # where 10 m would end
        hit = cast_ray(tree, self.ORIGIN, self.DIRECTION, 10.0)
        # The endpoint's voxel is the map's last.
        last = (255, 128, 128)
        assert hit == RayHit(hit=False, key=last, endpoint=tree.key_to_coord(last))
        blocked = cast_ray(
            tree, self.ORIGIN, self.DIRECTION, 10.0, ignore_unknown=False
        )
        assert blocked.blocked_by_unknown and blocked.key == (228, 128, 128)
        # Cut exactly where a range ending just inside the boundary ends.
        assert hit == reference_cast_ray(
            tree, tree.search, self.ORIGIN, self.DIRECTION, 5.6 - 0.2e-3
        )

    @given(
        st.tuples(*[st.floats(-20.0, 20.0)] * 3),
        st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda d: math.sqrt(sum(c * c for c in d)) > 0.0
        ),
        st.floats(0.01, 5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_rays_inside_the_map_keep_their_endpoint_bit_for_bit(
        self, origin, direction, max_range
    ):
        norm = math.sqrt(sum(c * c for c in direction))
        tree = OccupancyOctree(resolution=0.2, depth=8)
        assert clamped_endpoint(tree, origin, direction, max_range) == tuple(
            origin[axis] + direction[axis] / norm * max_range for axis in range(3)
        )


class TestBackendWalkUnchanged:
    def test_sharded_map_answers_as_its_old_inline_walk(self):
        dataset = make_dataset("fr079_corridor", seed=2, ray_scale=0.3)
        sharded = ShardedMap(
            resolution=RES, depth=9, num_shards=2,
            max_range=dataset.sensor.max_range, kernel="vector",
        )
        scans = list(islice(dataset.scans(), 4))
        for scan in scans:
            sharded.insert_point_cloud(scan)
        poses = [tuple(map(float, scan.origin)) for scan in scans]
        outcomes = set()
        # 80 m from a corridor pose leaves the 102.4 m map: clamped rays too.
        for max_range in (6.0, 80.0):
            for origin, direction in probe_rays(poses, 60, seed=15):
                for ignore_unknown in (True, False):
                    hit = sharded.cast_ray(origin, direction, max_range, ignore_unknown)
                    assert hit == reference_cast_ray(
                        sharded, sharded.query_key, origin, direction,
                        max_range, ignore_unknown,
                    )
                    outcomes.add((hit.hit, hit.blocked_by_unknown))
        assert len(outcomes) == 3


# ----------------------------------------------------------------------
# coord_to_key: math.floor for int(np.floor()).
# ----------------------------------------------------------------------


class TestCoordToKey:
    @pytest.mark.parametrize(
        "coord",
        [
            (-0.2, -0.4, -25.6),            # negative exact multiples
            (0.0, 0.2, 0.6000000000000001),  # multiples and their float noise
            (-0.0, -1e-12, 1e-12),
            (25.599999, -25.6, 3.3),         # the boundary's inside edge
            (np.float64(1.234), np.float64(-7.5), np.float64(0.2)),
            tuple(np.array([3.7, -3.7, 0.1], dtype=np.float32)),
            (3, -4, 0),
        ],
    )
    def test_equals_the_old_expression(self, coord):
        key = coord_to_key(coord, 0.2, 8)
        assert key == reference_coord_to_key(coord, 0.2, 8)
        assert all(type(component) is int for component in key)

    @given(st.tuples(*[st.floats(-30.0, 30.0)] * 3), st.sampled_from([0.05, 0.2, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_old_expression_or_raises_alike(self, coord, resolution):
        try:
            expected = reference_coord_to_key(coord, resolution, 8)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                coord_to_key(coord, resolution, 8)
            assert str(raised.value) == str(error)
        else:
            assert coord_to_key(coord, resolution, 8) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_nan_and_inf_raise_the_same_exception_type(self, bad, axis):
        coord = [0.0, 0.0, 0.0]
        coord[axis] = bad
        with pytest.raises((ValueError, OverflowError)) as expected:
            reference_coord_to_key(tuple(coord), 0.2, 8)
        with pytest.raises(expected.type):
            coord_to_key(tuple(coord), 0.2, 8)

    def test_an_out_of_map_axis_is_reported_before_a_later_nan(self):
        for function in (coord_to_key, reference_coord_to_key):
            with pytest.raises(ValueError, match="outside map boundary"):
                function((1e6, math.nan, 0.0), 0.2, 8)
