"""The array-backed octree's storage (differential vs the pointer tree).

The tree's nodes are array slots; ``reference_tree.ReferenceOctree`` is
the pointer tree it replaced.  The wider interleaved suite is
``test_tree_differential.py``; this file keeps the scalar-operation
differential and the properties specific to array storage.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.octree.tree import NODE_BYTES, OccupancyOctree

from .reference_tree import ReferenceOctree

DEPTH = 6
SIDE = 1 << DEPTH

keys = st.tuples(
    st.integers(min_value=0, max_value=SIDE - 1),
    st.integers(min_value=0, max_value=SIDE - 1),
    st.integers(min_value=0, max_value=SIDE - 1),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("update"), keys, st.booleans()),
        st.tuples(st.just("set"), keys, st.floats(min_value=-2.0, max_value=3.4)),
    ),
    min_size=1,
    max_size=100,
)


class TestDifferential:
    @given(operations)
    @settings(max_examples=60, deadline=None)
    def test_matches_pointer_tree(self, ops):
        pointer = ReferenceOctree(resolution=0.1, depth=DEPTH)
        array = OccupancyOctree(resolution=0.1, depth=DEPTH)
        for op, key, argument in ops:
            if op == "update":
                pointer.update_node(key, argument)
                array.update_node(key, argument)
            else:
                pointer.set_leaf(key, argument)
                array.set_leaf(key, argument)
        assert array.num_nodes == pointer.num_nodes
        assert sorted(array.iter_finest_leaves()) == pointer.finest_leaves()

    @given(st.lists(st.tuples(keys, st.booleans()), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_search_agrees_everywhere(self, updates):
        pointer = ReferenceOctree(resolution=0.1, depth=DEPTH)
        array = OccupancyOctree(resolution=0.1, depth=DEPTH)
        for key, occupied in updates:
            pointer.update_node(key, occupied)
            array.update_node(key, occupied)
        for key, _occ in updates:
            assert array.search(key) == pointer.search(key)


class TestArraySpecifics:
    def test_empty(self):
        tree = OccupancyOctree(resolution=0.1, depth=DEPTH)
        assert tree.num_nodes == 0
        assert tree.search((0, 0, 0)) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            OccupancyOctree(resolution=0.0)
        with pytest.raises(ValueError):
            OccupancyOctree(resolution=0.1, depth=0)

    def test_pruning_recycles_storage(self):
        slots = []
        tree = OccupancyOctree(resolution=0.1, depth=DEPTH, visit_hook=slots.append)
        for _ in range(20):
            for x in range(2):
                for y in range(2):
                    for z in range(2):
                        tree.update_node((x, y, z), True)
        pruned_nodes = tree.num_nodes
        highest_slot = max(slots)
        # Updating a fresh distant region reuses freed slots first.
        tree.update_node((40, 40, 40), True)
        assert tree.num_nodes > pruned_nodes
        assert max(slots) <= highest_slot

    def test_denser_than_pointer_tree(self):
        array = OccupancyOctree(resolution=0.1, depth=DEPTH)
        pointer = ReferenceOctree(resolution=0.1, depth=DEPTH)
        for x in range(8):
            for y in range(8):
                array.update_node((x, y, 0), True)
                pointer.update_node((x, y, 0), True)
        # The byte model charges OctoMap's compact node per live node,
        # whatever the arrays' capacity.
        assert array.num_nodes == pointer.num_nodes
        assert array.memory_bytes() == NODE_BYTES * pointer.num_nodes

    def test_visit_hook(self):
        seen = []
        tree = OccupancyOctree(resolution=0.1, depth=DEPTH, visit_hook=seen.append)
        tree.update_node((1, 2, 3), True)
        assert len(seen) == tree.node_visits
        assert all(isinstance(node, int) for node in seen)

    def test_coordinate_queries(self):
        tree = OccupancyOctree(resolution=0.2, depth=DEPTH)
        key = (32, 32, 32)
        tree.update_node(key, True)
        centre = tree.key_to_coord(key)
        assert tree.is_occupied(centre) is True
