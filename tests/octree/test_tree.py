"""Tests for the occupancy octree: updates, queries, pruning, invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.octree.occupancy import OccupancyParams
from repro.octree.tree import OccupancyOctree

DEPTH = 6
SIDE = 1 << DEPTH  # 64 voxels per axis

keys = st.tuples(
    st.integers(min_value=0, max_value=SIDE - 1),
    st.integers(min_value=0, max_value=SIDE - 1),
    st.integers(min_value=0, max_value=SIDE - 1),
)


def make_tree(**kwargs):
    kwargs.setdefault("resolution", 0.1)
    kwargs.setdefault("depth", DEPTH)
    return OccupancyOctree(**kwargs)


class TestConstruction:
    def test_empty_tree(self):
        tree = make_tree()
        assert tree.num_nodes == 0
        assert len(tree) == 0
        assert tree.search((0, 0, 0)) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            OccupancyOctree(resolution=0.0)
        with pytest.raises(ValueError):
            OccupancyOctree(resolution=0.1, depth=0)
        with pytest.raises(ValueError):
            OccupancyOctree(resolution=0.1, depth=25)


class TestUpdateAndSearch:
    def test_single_occupied_update(self):
        tree = make_tree()
        params = tree.params
        value = tree.update_node((1, 2, 3), True)
        assert value == pytest.approx(params.delta_occupied)
        assert tree.search((1, 2, 3)) == pytest.approx(value)

    def test_single_free_update(self):
        tree = make_tree()
        value = tree.update_node((1, 2, 3), False)
        assert value == pytest.approx(-tree.params.delta_free)
        assert not tree.params.is_occupied(tree.search((1, 2, 3)))

    def test_unknown_neighbour_stays_unknown(self):
        tree = make_tree()
        tree.update_node((10, 10, 10), True)
        assert tree.search((10, 10, 11)) is None
        assert tree.search((11, 10, 10)) is None

    def test_update_creates_full_path(self):
        tree = make_tree()
        tree.update_node((0, 0, 0), True)
        assert tree.num_nodes == DEPTH + 1  # root + one node per level

    def test_repeated_updates_accumulate(self):
        tree = make_tree()
        key = (5, 6, 7)
        for _ in range(3):
            tree.update_node(key, True)
        expected = min(3 * tree.params.delta_occupied, tree.params.max_occ)
        assert tree.search(key) == pytest.approx(expected)

    def test_inner_nodes_hold_max_of_children(self):
        tree = make_tree()
        tree.update_node((0, 0, 0), True)
        tree.update_node((0, 0, 1), False)
        # Root value equals the maximum leaf value below it.
        assert tree.search_at_level((0, 0, 0), tree.depth) == pytest.approx(
            tree.params.delta_occupied
        )

    def test_set_leaf_overwrites(self):
        tree = make_tree()
        key = (3, 3, 3)
        tree.update_node(key, True)
        tree.set_leaf(key, -1.25)
        assert tree.search(key) == pytest.approx(-1.25)

    def test_update_batch(self):
        tree = make_tree()
        tree.update_batch([((1, 1, 1), True), ((2, 2, 2), False)])
        assert tree.params.is_occupied(tree.search((1, 1, 1)))
        assert not tree.params.is_occupied(tree.search((2, 2, 2)))

    @given(st.lists(st.tuples(keys, st.booleans()), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_dict(self, updates):
        """The octree agrees with a flat dict applying the same updates."""
        tree = make_tree()
        reference = {}
        params = tree.params
        for key, occupied in updates:
            reference[key] = params.update(
                reference.get(key, params.threshold), occupied
            )
            tree.update_node(key, occupied)
        for key, expected in reference.items():
            assert tree.search(key) == pytest.approx(expected)


class TestPruning:
    def test_eight_equal_siblings_prune(self):
        params = OccupancyParams()
        tree = make_tree(params=params)
        # Saturate all 8 voxels of one octant to the same clamped value.
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    for _ in range(20):
                        tree.update_node((x, y, z), True)
        # The 8 leaves collapsed into their parent.
        assert tree.search((0, 0, 0)) == pytest.approx(params.max_occ)
        assert tree.search((1, 1, 1)) == pytest.approx(params.max_occ)
        # Node count: a path to the pruned parent, no leaf level.
        assert tree.num_nodes == DEPTH  # root + levels-1 path nodes

    def test_pruned_region_reexpands_on_update(self):
        params = OccupancyParams()
        tree = make_tree(params=params)
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    for _ in range(20):
                        tree.update_node((x, y, z), True)
        pruned_nodes = tree.num_nodes
        # A free observation inside the pruned block must expand it.
        tree.update_node((0, 0, 0), False)
        assert tree.num_nodes > pruned_nodes
        assert tree.search((0, 0, 0)) == pytest.approx(
            params.update(params.max_occ, False)
        )
        # Siblings keep the old saturated value.
        assert tree.search((1, 1, 1)) == pytest.approx(params.max_occ)

    def test_pruning_preserves_queries(self):
        tree = make_tree()
        updates = [((x, y, z), True) for x in range(4) for y in range(4) for z in range(4)]
        for _ in range(20):
            tree.update_batch(updates)
        for key, _ in updates:
            assert tree.search(key) == pytest.approx(tree.params.max_occ)


class TestCoordinateAPI:
    def test_query_by_coordinate(self):
        tree = make_tree()
        key = tree.coord_to_key((0.05, 0.05, 0.05))
        tree.update_node(key, True)
        assert tree.is_occupied((0.05, 0.05, 0.05)) is True
        assert tree.is_occupied((1.05, 1.05, 1.05)) is None

    def test_out_of_bounds_query_raises(self):
        tree = make_tree()
        with pytest.raises(ValueError):
            tree.query((1e9, 0.0, 0.0))


class TestInstrumentation:
    def test_node_visits_counted(self):
        tree = make_tree()
        assert tree.node_visits == 0
        tree.update_node((0, 0, 0), True)
        # Root-to-leaf down (depth+1 nodes) + leaf-and-ancestors up.
        assert tree.node_visits == 2 * (DEPTH + 1)

    def test_query_visits_path(self):
        tree = make_tree()
        tree.update_node((0, 0, 0), True)
        before = tree.node_visits
        tree.search((0, 0, 0))
        assert tree.node_visits == before + DEPTH + 1

    def test_visit_hook_receives_ids(self):
        seen = []
        tree = OccupancyOctree(resolution=0.1, depth=DEPTH, visit_hook=seen.append)
        tree.update_node((0, 0, 0), True)
        assert len(seen) == tree.node_visits
        assert all(isinstance(node_id, int) for node_id in seen)

    def test_memory_accounting(self):
        tree = make_tree()
        tree.update_node((0, 0, 0), True)
        assert tree.memory_bytes() == tree.num_nodes * 16


class TestLeafIteration:
    def test_iterates_all_updates(self):
        tree = make_tree()
        inserted = {(1, 2, 3), (4, 5, 6), (7, 8, 9)}
        for key in inserted:
            tree.update_node(key, True)
        finest = {key for key, _value in tree.iter_finest_leaves()}
        assert inserted <= finest

    def test_pruned_leaf_reports_level(self):
        tree = make_tree()
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    for _ in range(20):
                        tree.update_node((x, y, z), True)
        levels = {level for _key, level, _value in tree.iter_leaves()}
        assert 1 in levels  # the pruned block surfaces at level 1
