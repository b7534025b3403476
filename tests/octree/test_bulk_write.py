"""The bulk writer, the batch reader and the leaf-array producer.

Every snapshot, checkpoint and merge writes a whole map through
``set_leaves_bulk``; the property here is that nothing distinguishes the
tree it builds from the one per-key ``set_leaf`` calls build — bytes
(values, topology, pruning), node count, changed keys — whatever the
destination already held.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.octree.key import keys_to_morton
from repro.octree.serialize import tree_to_bytes
from repro.octree.tree import OccupancyOctree

DEPTH = 4
LIMIT = 1 << DEPTH
# Few distinct values, so equal-valued siblings (and prunes) are common.
VALUES = st.sampled_from([-2.0, -0.4, 0.0, 0.85, 3.5])
COORD = st.integers(0, LIMIT - 1)


def block(span, value, corner=(0, 0, 0)):
    """Every voxel of one aligned cube, one value: it must prune."""
    return {
        (corner[0] + dx, corner[1] + dy, corner[2] + dz): value
        for dx in range(span)
        for dy in range(span)
        for dz in range(span)
    }


@st.composite
def octants(draw):
    span = 1 << draw(st.integers(1, 2))
    corner = [draw(st.integers(0, LIMIT // span - 1)) * span for _ in range(3)]
    return block(span, draw(VALUES), corner)


SCATTER = st.lists(st.tuples(st.tuples(COORD, COORD, COORD), VALUES), max_size=40)


@st.composite
def leaf_sets(draw):
    """Distinct ``key -> value`` writes: scattered voxels and full octants."""
    writes = dict(draw(SCATTER))
    for octant in draw(st.lists(octants(), max_size=2)):
        writes.update(octant)
    return writes


def as_arrays(writes):
    keys = np.array(list(writes), dtype=np.int64).reshape(-1, 3)
    return keys, np.array(list(writes.values()), dtype=np.float64)


def seeded_pair(seed):
    """Two identical trees (possibly empty, possibly pruned), tracking on."""
    pair = [OccupancyOctree(resolution=0.1, depth=DEPTH) for _ in range(2)]
    for tree in pair:
        for key, value in seed.items():
            tree.set_leaf(key, value)
        tree.enable_change_tracking()
    return pair


@settings(max_examples=150, deadline=None)
@given(seed=leaf_sets(), writes=leaf_sets())
# A full block into an empty tree prunes (twice: 8 x 8 equal leaves).
@example(seed={}, writes=block(4, 0.85))
# One write into a pruned block expands it; an equal one changes nothing.
@example(seed=block(4, 0.85), writes={(1, 2, 3): -0.4, (3, 3, 3): 0.85})
# The last differing voxel of a block arrives: it prunes on the write.
@example(seed={**block(2, 3.5, (8, 8, 8)), (9, 9, 9): 0.0}, writes={(9, 9, 9): 3.5})
def test_bulk_write_builds_the_tree_set_leaf_builds(seed, writes):
    per_key, bulk = seeded_pair(seed)
    for key, value in writes.items():
        per_key.set_leaf(key, value)
    bulk.set_leaves_bulk(*as_arrays(writes))

    assert tree_to_bytes(bulk) == tree_to_bytes(per_key)
    assert bulk.num_nodes == bulk.recount_nodes() == per_key.num_nodes
    assert bulk.pop_changed_keys() == per_key.pop_changed_keys()


@settings(max_examples=150, deadline=None)
@given(seed=leaf_sets(), probes=st.lists(st.tuples(COORD, COORD, COORD), max_size=40))
def test_search_batch_answers_as_search_does(seed, probes):
    tree, _ = seeded_pair(seed)
    keys = np.array(probes, dtype=np.int64).reshape(-1, 3)
    values, found = tree.search_batch(keys)
    assert values.dtype == np.float64 and found.dtype == bool
    assert np.isnan(values[~found]).all()
    answers = [value if known else None for value, known in zip(values.tolist(), found.tolist())]
    assert answers == [tree.search(key) for key in probes]


@settings(max_examples=150, deadline=None)
@given(seed=leaf_sets())
def test_leaf_arrays_round_trip_through_a_fresh_tree(seed):
    source, _ = seeded_pair(seed)
    keys, values = source.finest_leaf_arrays()

    assert keys.dtype == np.int64 and values.dtype == np.float64
    assert keys.shape == (len(values), 3)
    # The same voxels iter_finest_leaves expands to, in Morton order.
    assert dict(zip(map(tuple, keys.tolist()), values.tolist())) == dict(
        source.iter_finest_leaves()
    )
    assert (np.diff(keys_to_morton(keys).astype(np.int64)) > 0).all()

    copy = OccupancyOctree(resolution=0.1, depth=DEPTH)
    copy.set_leaves_bulk(keys, values)
    assert tree_to_bytes(copy) == tree_to_bytes(source)
    assert copy.num_nodes == copy.recount_nodes() == source.num_nodes
