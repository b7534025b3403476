"""The array octree against the scalar pointer tree it replaced.

``reference_tree.ReferenceOctree`` is the pre-columnar tree (one object
per node, one round trip per key).  Random interleavings of every write
and read — scalar and bulk, with blocks forced to prune, expand and
re-prune — must leave both trees with the same voxels, node count,
census, changed keys and serialised bytes, and give the same answer to
every read on the way.
"""

import base64
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.morton import morton_encode3
from repro.octree.serialize import tree_from_bytes, tree_to_bytes
from repro.octree.tree import OccupancyOctree

from .reference_tree import ReferenceOctree

DEPTH = 4
SIDE = 1 << DEPTH

coordinate = st.integers(min_value=0, max_value=SIDE - 1)
keys = st.tuples(coordinate, coordinate, coordinate)
# Few distinct values, zero of both signs among them: equal siblings
# (so blocks prune) and the max-of-children tie the sign can expose.
log_odds = st.sampled_from([-2.0, -0.4, -0.0, 0.0, 0.85, 3.5])
block_corner = st.tuples(*[st.integers(min_value=0, max_value=SIDE // 2 - 1)] * 3)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("update"), keys, st.booleans()),
        st.tuples(st.just("set"), keys, log_odds),
        st.tuples(st.just("bulk"), st.lists(keys, min_size=1, max_size=24, unique=True), log_odds),
        # Fill a 2x2x2 block with one value: a forced prune (and, the
        # block having been poked since the last fill, a re-prune).
        st.tuples(st.just("block"), block_corner, log_odds),
        st.tuples(st.just("search"), keys, st.integers(min_value=0, max_value=DEPTH)),
        st.tuples(st.just("batch"), st.lists(keys, min_size=1, max_size=24), st.none()),
    ),
    min_size=1,
    max_size=40,
)


def block_keys(corner):
    return [
        (2 * corner[0] + dx, 2 * corner[1] + dy, 2 * corner[2] + dz)
        for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)
    ]


def apply(tree, reference, op, first, second):
    """One operation on both trees; reads are compared on the spot."""
    if op == "update":
        assert tree.update_node(first, second) == reference.update_node(first, second)
    elif op == "set":
        tree.set_leaf(first, second)
        reference.set_leaf(first, second)
    elif op in ("bulk", "block"):
        batch = first if op == "bulk" else block_keys(first)
        values = [second] * len(batch)
        tree.set_leaves_bulk(np.array(batch), np.array(values))
        reference.set_leaves_bulk(batch, values)
    elif op == "search":
        assert same(tree.search(first), reference.search(first))
        assert same(
            tree.search_at_level(first, second),
            reference.search_at_level(first, second),
        )
    else:
        values, found = tree.search_batch(np.array(first))
        for key, value, known in zip(first, values.tolist(), found.tolist()):
            assert same(value if known else None, reference.search(key))


def same(a, b):
    """Equal, signed zeros told apart."""
    return repr(a) == repr(b)


def assert_same_tree(tree, reference):
    assert tree.num_nodes == reference.num_nodes
    assert tree.recount_nodes() == reference.num_nodes
    assert tree.node_census() == reference.node_census()
    assert repr(sorted(tree.iter_finest_leaves())) == repr(reference.finest_leaves())
    leaf_keys, leaf_values = tree.finest_leaf_arrays()
    assert repr(list(zip(map(tuple, leaf_keys.tolist()), leaf_values.tolist()))) == repr(
        sorted(reference.finest_leaves(), key=lambda leaf: morton_encode3(*leaf[0]))
    )
    assert tree_to_bytes(tree) == reference.to_bytes()


class TestAgainstPointerTree:
    @given(operations)
    @settings(max_examples=150, deadline=None)
    def test_interleaved_operations(self, ops):
        tree = OccupancyOctree(resolution=0.1, depth=DEPTH)
        reference = ReferenceOctree(resolution=0.1, depth=DEPTH)
        tree.enable_change_tracking()
        reference.changed = set()
        for op, first, second in ops:
            apply(tree, reference, op, first, second)
            assert tree.pop_changed_keys() == reference.pop_changed_keys()
        assert_same_tree(tree, reference)
        # What was written loads back to the same bytes.
        assert tree_to_bytes(tree_from_bytes(tree_to_bytes(tree))) == reference.to_bytes()

    def test_prune_expand_reprune_recycles_slots(self):
        slots = []
        tree = OccupancyOctree(resolution=0.1, depth=DEPTH, visit_hook=slots.append)
        reference = ReferenceOctree(resolution=0.1, depth=DEPTH)
        peak = 0
        for _ in range(30):
            for op, first, second in (
                ("block", (1, 2, 3), 0.85),    # 8 equal leaves: pruned
                ("update", (2, 4, 6), False),  # poked: expanded again
                ("bulk", [(3, 5, 7), (2, 4, 7)], -0.4),
                ("block", (1, 2, 3), 0.85),    # re-pruned
            ):
                apply(tree, reference, op, first, second)
                assert_same_tree(tree, reference)
                peak = max(peak, tree.num_nodes)
        # Every round reuses the slots the previous one released.
        assert max(slots) < peak

    def test_scalar_visit_counts_match(self):
        trace = []
        tree = OccupancyOctree(resolution=0.1, depth=DEPTH, visit_hook=trace.append)
        reference = ReferenceOctree(resolution=0.1, depth=DEPTH)
        rng = np.random.default_rng(5)
        for key in rng.integers(0, SIDE, size=(200, 3)).tolist():
            key = tuple(key)
            tree.update_node(key, True)
            reference.update_node(key, True)
            tree.search(key)
            reference.search(key)
            tree.search_at_level((key[2], key[0], key[1]), 1)
            reference.search_at_level((key[2], key[0], key[1]), 1)
        assert tree.node_visits == reference.visits == len(trace)

    def test_growth_keeps_every_node(self):
        """Far more nodes than the initial arrays hold, scalar and bulk."""
        rng = np.random.default_rng(9)
        points = np.unique(rng.integers(0, 1 << 8, size=(3000, 3)), axis=0)
        values = rng.choice([-0.4, 0.85], size=len(points))
        scalar = OccupancyOctree(resolution=0.1, depth=8)
        for key, value in zip(points.tolist(), values.tolist()):
            scalar.set_leaf(tuple(key), value)
        bulk = OccupancyOctree(resolution=0.1, depth=8)
        bulk.set_leaves_bulk(points, values)
        assert scalar.num_nodes == bulk.num_nodes > 3000
        assert tree_to_bytes(scalar) == tree_to_bytes(bulk)


#: ``tree_to_bytes`` of the tree ``frozen_tree`` builds, taken at commit
#: f02604b (the pointer tree's recursive writer).
FROZEN_BLOB = base64.b85decode(
    "Qcpuv0ssI20002cKLh{(00000005Y-3TF@<>px1Ezw9IP**}Gd&U60Y|G#M#bkq#b3qSz?0"
    "00000Q5hD00000008tqKmY&$0002=KL`K-00000^gsUq000000Q5fq00000008tq000000"
    "002=KL7v#00000^gjUGGoT4>2J1fn00000008tq000000002=KL7v#00000^gjTYt_o)m9q"
    "T_un63(E5FP73>*mB&;rvG2KLX~&RpI<b+&=)At_o)m9qT^`n63(E5FP730GO@{XAm9hKS7"
    "wT3TF@<>puXPt_o)m9qT^;n63(E5FP730hq1|XAm9hKLARYzw9IP*}ou4n7`~J^Vz=un63("
    "E5FP73fS9fdXAm9hKLD7n3TF@<>pz1^n7`~J^Vz>3N|?XwBlFq60GO@{XAm9hKY*C73TF@<"
    ">puXPt_o)m9qT^=n63(E5FP730GO@{XAm9hKL(ht3TF@<>pujTt_o)m9qT^;N|?XwBlFq60"
    "!o;_>?8BpzW@LL00000=)Zsf000000O-Gf00000008K}fB*mh0002!zX0i&60-"
)


def frozen_tree():
    tree = OccupancyOctree(resolution=0.25, depth=4)
    for key in block_keys((2, 3, 1)):
        tree.set_leaf(key, 1.25)
    for i in range(12):
        tree.update_node((i % 5, (3 * i) % 7, 9 + i % 3), i % 3 != 0)
    tree.set_leaf((15, 15, 15), -0.75)
    tree.update_node((5, 6, 2), False)  # expands the pruned block
    tree.update_node((0, 0, 9), True)
    return tree


class TestFrozenBlob:
    def test_blob_is_the_one_frozen(self):
        assert len(FROZEN_BLOB) == 446
        assert hashlib.sha256(FROZEN_BLOB).hexdigest() == (
            "19a353ab058f0aac4755d522086a0e5c46b83a5cf2a1fbffe1cc368ef21a37f3"
        )

    def test_same_operations_write_the_same_bytes(self):
        assert tree_to_bytes(frozen_tree()) == FROZEN_BLOB

    def test_loads_and_reserialises_identically(self):
        loaded = tree_from_bytes(FROZEN_BLOB)
        assert loaded.num_nodes == 43 == loaded.recount_nodes()
        assert tree_to_bytes(loaded) == FROZEN_BLOB
        assert sorted(loaded.iter_finest_leaves()) == sorted(
            frozen_tree().iter_finest_leaves()
        )


class TestDistinctKeysPrecondition:
    def test_duplicate_key_is_rejected_and_named(self):
        tree = OccupancyOctree(resolution=0.1, depth=DEPTH)
        tree.set_leaf((1, 1, 1), 0.5)
        before = tree_to_bytes(tree)
        batch = np.array([(3, 3, 3), (9, 2, 4), (5, 5, 5), (9, 2, 4), (3, 3, 3)])
        with pytest.raises(ValueError, match=r"distinct keys; \(3, 3, 3\) repeats"):
            tree.set_leaves_bulk(batch, np.zeros(5))
        # All-or-nothing, like the bounds check.
        assert tree_to_bytes(tree) == before
