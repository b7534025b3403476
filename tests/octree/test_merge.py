"""Tests for octree merging and map comparison."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.octree.merge import map_agreement, merge_many, merge_tree
from repro.octree.serialize import tree_to_bytes
from repro.octree.tree import OccupancyOctree

DEPTH = 6


def make_tree():
    return OccupancyOctree(resolution=0.1, depth=DEPTH)


class TestMerge:
    def test_accumulate_disjoint_regions(self):
        a = make_tree()
        b = make_tree()
        a.update_node((1, 1, 1), True)
        b.update_node((5, 5, 5), False)
        moved = merge_tree(a, b)
        assert moved == 1
        assert a.params.is_occupied(a.search((1, 1, 1)))
        assert not a.params.is_occupied(a.search((5, 5, 5)))

    def test_accumulate_adds_evidence(self):
        a = make_tree()
        b = make_tree()
        a.update_node((2, 2, 2), True)
        b.update_node((2, 2, 2), True)
        merge_tree(a, b)
        expected = a.params.accumulate(
            a.params.delta_occupied, a.params.delta_occupied
        )
        assert a.search((2, 2, 2)) == pytest.approx(expected)

    def test_accumulate_conflicting_evidence_cancels(self):
        a = make_tree()
        b = make_tree()
        a.update_node((2, 2, 2), True)
        b.update_node((2, 2, 2), True)
        # b also saw it free twice: net free evidence in b.
        b.update_node((2, 2, 2), False)
        b.update_node((2, 2, 2), False)
        merge_tree(a, b)
        value = a.search((2, 2, 2))
        expected = a.params.accumulate(a.params.delta_occupied, b_value_for((2, 2, 2)))
        assert value == pytest.approx(expected)

    def test_overwrite_replaces(self):
        a = make_tree()
        b = make_tree()
        a.update_node((3, 3, 3), True)
        b.update_node((3, 3, 3), False)
        merge_tree(a, b, strategy="overwrite")
        assert a.search((3, 3, 3)) == pytest.approx(-a.params.delta_free)

    def test_merge_pruned_source(self):
        a = make_tree()
        b = make_tree()
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    for _ in range(20):
                        b.update_node((x, y, z), True)
        moved = merge_tree(a, b)
        assert moved == 8  # pruned block expands to 8 finest voxels
        assert a.search((1, 0, 1)) == pytest.approx(a.params.max_occ)

    def test_overwrite_disjoint_regions(self):
        """Overwrite on non-overlapping trees degenerates to a union —
        the sharded service's snapshot-export case."""
        a = make_tree()
        b = make_tree()
        a.update_node((1, 1, 1), True)
        b.update_node((5, 5, 5), True)
        b.update_node((6, 6, 6), False)
        moved = merge_tree(a, b, strategy="overwrite")
        assert moved == 2
        assert a.params.is_occupied(a.search((1, 1, 1)))
        assert a.params.is_occupied(a.search((5, 5, 5)))
        assert not a.params.is_occupied(a.search((6, 6, 6)))

    def test_overwrite_overlapping_keeps_source_values_only(self):
        a = make_tree()
        b = make_tree()
        for _ in range(5):
            a.update_node((2, 2, 2), True)
        b.update_node((2, 2, 2), True)
        merge_tree(a, b, strategy="overwrite")
        # a's five observations are gone; b's single one remains.
        assert a.search((2, 2, 2)) == pytest.approx(b.search((2, 2, 2)))

    def test_accumulate_into_empty_destination_copies(self):
        a = make_tree()
        b = make_tree()
        b.update_node((3, 4, 5), True)
        b.update_node((3, 4, 5), False)
        merge_tree(a, b)
        assert a.search((3, 4, 5)) == pytest.approx(b.search((3, 4, 5)))

    def test_empty_source_moves_nothing(self):
        a = make_tree()
        a.update_node((1, 1, 1), True)
        for strategy in ("accumulate", "overwrite"):
            assert merge_tree(a, make_tree(), strategy=strategy) == 0
        assert a.params.is_occupied(a.search((1, 1, 1)))

    def test_rejects_mismatched_geometry(self):
        a = make_tree()
        with pytest.raises(ValueError):
            merge_tree(a, OccupancyOctree(resolution=0.2, depth=DEPTH))
        with pytest.raises(ValueError):
            merge_tree(a, OccupancyOctree(resolution=0.1, depth=DEPTH - 1))
        with pytest.raises(ValueError):
            merge_tree(a, make_tree(), strategy="replace-all")


def merge_per_key(destination, source, strategy):
    """The reference: one root round trip per source voxel."""
    params = destination.params
    for key, value in source.iter_finest_leaves():
        existing = destination.search(key)
        if strategy == "accumulate" and existing is not None:
            value = params.accumulate(existing, value)
        destination.set_leaf(key, value)


# A 3-voxel cube: runs of observations saturate (clamp), some voxels
# stay unknown to one side, and an octant can reach one value (prune).
UPDATES = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 3), st.booleans()), max_size=120
)
SATURATED_OCTANT = [
    ((x, y, z), True) for x in (0, 1) for y in (0, 1) for z in (0, 1)
] * 5


class TestAgainstPerKeyReference:
    @pytest.mark.parametrize("strategy", ["accumulate", "overwrite"])
    @settings(max_examples=60, deadline=None)
    @given(ours=UPDATES, theirs=UPDATES)
    # A pruned source over a pruned destination with one voxel driven free.
    @example(ours=SATURATED_OCTANT + [((1, 0, 1), False)] * 9, theirs=SATURATED_OCTANT)
    def test_bulk_merge_builds_the_tree_the_per_key_loop_builds(
        self, strategy, ours, theirs
    ):
        merged, reference, source = make_tree(), make_tree(), make_tree()
        for tree, updates in [(merged, ours), (reference, ours), (source, theirs)]:
            tree.update_batch(updates)
        merged.enable_change_tracking()
        reference.enable_change_tracking()

        moved = merge_tree(merged, source, strategy=strategy)
        merge_per_key(reference, source, strategy)

        assert moved == sum(1 for _ in source.iter_finest_leaves())
        assert tree_to_bytes(merged) == tree_to_bytes(reference)
        assert merged.num_nodes == merged.recount_nodes() == reference.num_nodes
        assert merged.pop_changed_keys() == reference.pop_changed_keys()


def b_value_for(key):
    """Recompute the value b accumulated for ``key`` in the cancel test."""
    tree = make_tree()
    tree.update_node(key, True)
    tree.update_node(key, False)
    tree.update_node(key, False)
    return tree.search(key)


class TestMergeMany:
    def test_disjoint_shards_union(self):
        shards = [make_tree() for _ in range(3)]
        shards[0].update_node((1, 1, 1), True)
        shards[1].update_node((9, 9, 9), True)
        shards[2].update_node((20, 20, 20), False)
        dest = make_tree()
        moved = merge_many(dest, shards, strategy="overwrite")
        assert moved == 3
        assert dest.params.is_occupied(dest.search((1, 1, 1)))
        assert dest.params.is_occupied(dest.search((9, 9, 9)))
        assert not dest.params.is_occupied(dest.search((20, 20, 20)))

    def test_later_source_wins_under_overwrite(self):
        first = make_tree()
        second = make_tree()
        first.update_node((2, 2, 2), True)
        second.update_node((2, 2, 2), False)
        dest = make_tree()
        merge_many(dest, [first, second], strategy="overwrite")
        assert not dest.params.is_occupied(dest.search((2, 2, 2)))

    def test_no_sources_is_a_noop(self):
        dest = make_tree()
        assert merge_many(dest, []) == 0
        assert dest.num_nodes == 0


class TestAgreement:
    def test_identical_maps(self):
        a = make_tree()
        a.update_node((1, 2, 3), True)
        a.update_node((4, 5, 6), False)
        report = map_agreement(a, a)
        assert report.compared == 2
        assert report.decision_agreement == 1.0
        assert report.missing == 0

    def test_missing_counted(self):
        a = make_tree()
        a.update_node((1, 2, 3), True)
        empty = make_tree()
        report = map_agreement(a, empty)
        assert report.missing == 1
        assert report.decision_agreement == 0.0

    def test_disagreement_counted(self):
        a = make_tree()
        b = make_tree()
        a.update_node((1, 2, 3), True)
        b.update_node((1, 2, 3), False)
        report = map_agreement(a, b)
        assert report.compared == 1
        assert report.matching == 0

    def test_empty_reference(self):
        report = map_agreement(make_tree(), make_tree())
        assert report.decision_agreement == 1.0

    def test_empty_reference_against_populated_other(self):
        """Agreement iterates the reference: an empty reference compares
        zero voxels regardless of what the other map holds."""
        other = make_tree()
        other.update_node((1, 2, 3), True)
        report = map_agreement(make_tree(), other)
        assert report.compared == 0
        assert report.missing == 0
        assert report.decision_agreement == 1.0

    def test_identical_after_merge_roundtrip(self):
        a = make_tree()
        for key in [(1, 1, 1), (2, 3, 4), (8, 8, 8)]:
            a.update_node(key, True)
        copy = make_tree()
        merge_tree(copy, a, strategy="overwrite")
        report = map_agreement(a, copy)
        assert report.compared == 3
        assert report.matching == 3
        assert report.missing == 0
