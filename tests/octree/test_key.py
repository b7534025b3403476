"""Tests for discrete voxel keys and coordinate conversion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.morton import common_prefix_depth, morton_encode3
from repro.octree.key import (
    ancestor_level,
    child_index,
    coord_to_key,
    coords_to_keys,
    key_to_coord,
    key_to_morton,
    keys_to_coords,
    keys_to_morton,
)

RES = 0.25
DEPTH = 10
HALF_EXTENT = RES * (1 << (DEPTH - 1))  # 128 voxels per side half-width

in_bounds = st.floats(
    min_value=-HALF_EXTENT + RES,
    max_value=HALF_EXTENT - RES,
    allow_nan=False,
    allow_infinity=False,
)


class TestCoordToKey:
    def test_origin_maps_to_centre(self):
        key = coord_to_key((0.0, 0.0, 0.0), RES, DEPTH)
        offset = 1 << (DEPTH - 1)
        assert key == (offset, offset, offset)

    def test_one_voxel_step(self):
        base = coord_to_key((0.0, 0.0, 0.0), RES, DEPTH)
        stepped = coord_to_key((RES, 0.0, 0.0), RES, DEPTH)
        assert stepped == (base[0] + 1, base[1], base[2])

    def test_negative_coordinates(self):
        key = coord_to_key((-RES / 2, -RES / 2, -RES / 2), RES, DEPTH)
        offset = 1 << (DEPTH - 1)
        assert key == (offset - 1, offset - 1, offset - 1)

    def test_out_of_bounds_raises(self):
        with pytest.raises(ValueError):
            coord_to_key((HALF_EXTENT + 1.0, 0.0, 0.0), RES, DEPTH)
        with pytest.raises(ValueError):
            coord_to_key((0.0, 0.0, -HALF_EXTENT - 1.0), RES, DEPTH)

    @given(in_bounds, in_bounds, in_bounds)
    def test_roundtrip_within_half_voxel(self, x, y, z):
        key = coord_to_key((x, y, z), RES, DEPTH)
        cx, cy, cz = key_to_coord(key, RES, DEPTH)
        assert abs(cx - x) <= RES / 2 + 1e-9
        assert abs(cy - y) <= RES / 2 + 1e-9
        assert abs(cz - z) <= RES / 2 + 1e-9

    @given(in_bounds, in_bounds, in_bounds)
    def test_centre_is_fixed_point(self, x, y, z):
        key = coord_to_key((x, y, z), RES, DEPTH)
        centre = key_to_coord(key, RES, DEPTH)
        assert coord_to_key(centre, RES, DEPTH) == key


class TestVectorised:
    @given(st.lists(st.tuples(in_bounds, in_bounds, in_bounds), min_size=1, max_size=40))
    def test_matches_scalar(self, coords):
        arr = np.array(coords)
        keys = coords_to_keys(arr, RES, DEPTH)
        expected = [coord_to_key(c, RES, DEPTH) for c in coords]
        assert [tuple(k) for k in keys] == expected

    def test_out_of_bounds_raises(self):
        with pytest.raises(ValueError):
            coords_to_keys(np.array([[1e6, 0.0, 0.0]]), RES, DEPTH)

    def test_keys_to_coords_roundtrip(self):
        keys = np.array([[10, 20, 30], [500, 400, 300]])
        coords = keys_to_coords(keys, RES, DEPTH)
        back = coords_to_keys(coords, RES, DEPTH)
        assert np.array_equal(back, keys)

    def test_keys_to_morton_matches_scalar(self):
        keys = np.array([[1, 2, 3], [7, 0, 5]])
        codes = keys_to_morton(keys)
        assert [int(c) for c in codes] == [
            key_to_morton((1, 2, 3)),
            key_to_morton((7, 0, 5)),
        ]


class TestChildIndex:
    def test_matches_morton_groups(self):
        # The child chosen at level l is exactly Morton bit-group l.
        key = (0b1011, 0b0110, 0b1101)
        code = morton_encode3(*key)
        for level in range(4):
            group = (code >> (3 * level)) & 0b111
            assert child_index(key, level) == group

    def test_level_zero_uses_low_bits(self):
        assert child_index((1, 0, 1), 0) == 0b101
        assert child_index((0, 1, 0), 0) == 0b010

    def test_range(self):
        for level in range(DEPTH):
            idx = child_index((123, 456, 789), level)
            assert 0 <= idx <= 7


class TestAncestorLevel:
    def test_same_siblings_and_opposite_octants(self):
        assert ancestor_level((5, 6, 7), (5, 6, 7)) == 0
        assert ancestor_level((4, 6, 2), (5, 6, 2)) == 1
        assert ancestor_level((0, 0, 0), (0, 1 << (DEPTH - 1), 0)) == DEPTH

    @given(
        st.tuples(*[st.integers(0, (1 << DEPTH) - 1)] * 3),
        st.tuples(*[st.integers(0, (1 << DEPTH) - 1)] * 3),
        st.integers(0, DEPTH),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_the_per_level_loop(self, a, flips, keep):
        """The loop ``PathCachingInserter._shared_depth`` was: compare
        child slots from the root down until one differs."""
        b = tuple(x ^ (f & ((1 << keep) - 1)) for x, f in zip(a, flips))
        shared = 0
        for level in range(DEPTH - 1, -1, -1):
            if child_index(a, level) != child_index(b, level):
                break
            shared += 1
        assert DEPTH - ancestor_level(a, b) == shared
        assert ancestor_level(a, b) == ancestor_level(b, a)
        # The same depth read off the Morton codes.
        assert shared == common_prefix_depth(
            morton_encode3(*a), morton_encode3(*b), DEPTH
        )
