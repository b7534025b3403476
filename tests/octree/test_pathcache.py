"""Tests for the path-caching batch inserter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.morton import morton_encode3
from repro.octree.pathcache import PathCachingInserter
from repro.octree.tree import OccupancyOctree

DEPTH = 6
SIDE = 1 << DEPTH

keys = st.tuples(
    st.integers(min_value=0, max_value=SIDE - 1),
    st.integers(min_value=0, max_value=SIDE - 1),
    st.integers(min_value=0, max_value=SIDE - 1),
)


def plain_tree(updates):
    tree = OccupancyOctree(resolution=0.1, depth=DEPTH)
    for key, occupied in updates:
        tree.update_node(key, occupied)
    return tree


def cached_tree(updates):
    tree = OccupancyOctree(resolution=0.1, depth=DEPTH)
    with PathCachingInserter(tree) as inserter:
        inserter.insert_batch(updates)
    return tree


class TestEquivalence:
    @given(st.lists(st.tuples(keys, st.booleans()), min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_identical_final_maps(self, updates):
        reference = plain_tree(updates)
        cached = cached_tree(updates)
        assert cached.num_nodes == reference.num_nodes
        reference_leaves = sorted(reference.iter_finest_leaves())
        cached_leaves = sorted(cached.iter_finest_leaves())
        assert len(reference_leaves) == len(cached_leaves)
        for (rk, rv), (ck, cv) in zip(reference_leaves, cached_leaves):
            assert rk == ck
            assert cv == pytest.approx(rv)

    def test_repeated_same_key(self):
        updates = [((3, 3, 3), True)] * 5
        reference = plain_tree(updates)
        cached = cached_tree(updates)
        assert cached.search((3, 3, 3)) == pytest.approx(
            reference.search((3, 3, 3))
        )

    def test_pruning_preserved(self):
        updates = [
            ((x, y, z), True)
            for _ in range(20)
            for x in range(2)
            for y in range(2)
            for z in range(2)
        ]
        reference = plain_tree(updates)
        cached = cached_tree(updates)
        assert cached.num_nodes == reference.num_nodes  # pruned identically

    def test_expansion_inherits_values(self):
        # Build a pruned block, then poke one voxel through the inserter.
        tree = OccupancyOctree(resolution=0.1, depth=DEPTH)
        for _ in range(20):
            for x in range(2):
                for y in range(2):
                    for z in range(2):
                        tree.update_node((x, y, z), True)
        with PathCachingInserter(tree) as inserter:
            inserter.insert((0, 0, 0), False)
        assert tree.search((1, 1, 1)) == pytest.approx(tree.params.max_occ)
        expected = tree.params.update(tree.params.max_occ, False)
        assert tree.search((0, 0, 0)) == pytest.approx(expected)

    def test_inner_values_current_after_finish(self):
        updates = [((0, 0, 0), True), ((SIDE - 1, SIDE - 1, SIDE - 1), False)]
        cached = cached_tree(updates)
        # Root must reflect the max over both leaves.
        assert cached.search_at_level((0, 0, 0), DEPTH) == pytest.approx(
            cached.params.delta_occupied
        )


class TestWorkSaving:
    def test_morton_order_descends_less(self):
        """F(S) predicts descent work: Morton order saves real steps."""
        import random

        all_keys = [
            (x, y, z) for x in range(8) for y in range(8) for z in range(8)
        ]
        shuffled = list(all_keys)
        random.Random(0).shuffle(shuffled)
        morton = sorted(all_keys, key=lambda k: morton_encode3(*k))

        def steps(ordering):
            tree = OccupancyOctree(resolution=0.1, depth=DEPTH)
            inserter = PathCachingInserter(tree)
            inserter.insert_batch((key, True) for key in ordering)
            inserter.finish()
            return inserter.descent_steps

        assert steps(morton) < 0.6 * steps(shuffled)

    def test_same_key_run_costs_one_descent(self):
        tree = OccupancyOctree(resolution=0.1, depth=DEPTH)
        inserter = PathCachingInserter(tree)
        inserter.insert((5, 5, 5), True)
        first = inserter.descent_steps
        for _ in range(10):
            inserter.insert((5, 5, 5), True)
        inserter.finish()
        assert inserter.descent_steps == first  # zero extra descent
