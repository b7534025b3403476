"""Unit and property tests for 3-D Morton codes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.morton import (
    MAX_COORD_BITS,
    common_prefix_depth,
    contract3,
    dilate3,
    morton_argsort,
    morton_decode3,
    morton_decode3_array,
    morton_encode3,
    morton_encode3_array,
    morton_sort,
)

coords = st.integers(min_value=0, max_value=(1 << MAX_COORD_BITS) - 1)


class TestDilate:
    def test_zero(self):
        assert dilate3(0) == 0

    def test_all_ones_byte(self):
        assert dilate3(0b111) == 0b001001001

    def test_single_high_bit(self):
        assert dilate3(1 << 20) == 1 << 60

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dilate3(-1)

    def test_rejects_too_wide(self):
        with pytest.raises(ValueError):
            dilate3(1 << MAX_COORD_BITS)

    @given(coords)
    def test_contract_inverts_dilate(self, value):
        assert contract3(dilate3(value)) == value

    @given(coords)
    def test_dilated_bits_every_third_position(self, value):
        spread = dilate3(value)
        assert spread & 0o666666666666666666666 == 0  # only bits 0,3,6,... set


class TestEncodeDecode:
    def test_origin(self):
        assert morton_encode3(0, 0, 0) == 0

    def test_unit_axes_ordering(self):
        # Per-level group is (x, y, z) with x most significant.
        assert morton_encode3(1, 0, 0) == 0b100
        assert morton_encode3(0, 1, 0) == 0b010
        assert morton_encode3(0, 0, 1) == 0b001

    def test_documented_example(self):
        # x=001, y=101, z=011 -> groups (0,1,0)(0,0,1)(1,1,1) = 0b010001111.
        assert morton_encode3(1, 5, 3) == 0b010001111

    @given(coords, coords, coords)
    def test_roundtrip(self, x, y, z):
        assert morton_decode3(morton_encode3(x, y, z)) == (x, y, z)

    @given(coords, coords, coords)
    def test_monotone_in_shared_prefix(self, x, y, z):
        # Flipping a higher bit always increases the code more than any
        # change confined to lower bits can: codes respect octant nesting.
        code = morton_encode3(x, y, z)
        bumped = morton_encode3(x | 1, y, z)
        assert bumped >= code

    def test_decode_rejects_negative(self):
        with pytest.raises(ValueError):
            morton_decode3(-5)


class TestVectorised:
    @given(st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=50))
    def test_matches_scalar(self, triples):
        arr = np.array(triples, dtype=np.int64)
        codes = morton_encode3_array(arr[:, 0], arr[:, 1], arr[:, 2])
        expected = [morton_encode3(x, y, z) for x, y, z in triples]
        assert [int(c) for c in codes] == expected

    @given(st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=50))
    def test_array_roundtrip(self, triples):
        arr = np.array(triples, dtype=np.int64)
        codes = morton_encode3_array(arr[:, 0], arr[:, 1], arr[:, 2])
        x, y, z = morton_decode3_array(codes)
        assert np.array_equal(x, arr[:, 0].astype(np.uint64))
        assert np.array_equal(y, arr[:, 1].astype(np.uint64))
        assert np.array_equal(z, arr[:, 2].astype(np.uint64))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            morton_encode3_array(np.array([-1]), np.array([0]), np.array([0]))

    def test_rejects_too_wide(self):
        big = np.array([1 << MAX_COORD_BITS])
        with pytest.raises(ValueError):
            morton_encode3_array(big, big, big)


class TestOrdering:
    def test_sort_small_cube(self):
        cube = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
        ordered = morton_sort(cube)
        # Z-order within a 2x2x2 cube: z fastest, then y, then x.
        assert ordered == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        ]

    @given(st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=30))
    def test_argsort_consistent_with_sort(self, items):
        by_sort = morton_sort(items)
        by_argsort = [items[i] for i in morton_argsort(items)]
        assert by_sort == by_argsort

    @given(st.lists(st.tuples(coords, coords, coords), min_size=2, max_size=30))
    def test_sorted_codes_nondecreasing(self, items):
        codes = [morton_encode3(*c) for c in morton_sort(items)]
        assert all(a <= b for a, b in zip(codes, codes[1:]))


class TestCommonPrefix:
    def test_identical_codes_share_everything(self):
        code = morton_encode3(3, 5, 7)
        assert common_prefix_depth(code, code, 4) == 4

    def test_sibling_leaves(self):
        a = morton_encode3(0, 0, 0)
        b = morton_encode3(0, 0, 1)
        assert common_prefix_depth(a, b, 3) == 2

    def test_opposite_octants_share_nothing(self):
        levels = 3
        a = morton_encode3(0, 0, 0)
        b = morton_encode3(7, 7, 7)
        assert common_prefix_depth(a, b, levels) == 0

    def test_rejects_negative_levels(self):
        with pytest.raises(ValueError):
            common_prefix_depth(0, 0, -1)

    @given(coords, coords)
    def test_symmetry(self, a, b):
        assert common_prefix_depth(a, b, 21) == common_prefix_depth(b, a, 21)

    @given(
        st.integers(min_value=0, max_value=(1 << 63) - 1),
        st.integers(min_value=0, max_value=(1 << 63) - 1),
        st.integers(min_value=0, max_value=21),
        st.integers(min_value=0, max_value=62),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_the_per_level_loop(self, a, flips, levels, keep):
        """The loop ``common_prefix_depth`` was: compare 3-bit groups from
        the top until one differs.  ``b`` shares ``a``'s bits above
        ``keep``, so long shared prefixes are common, not one in 8**n."""
        b = a ^ (flips & ((1 << keep) - 1))
        depth = 0
        for level in range(levels - 1, -1, -1):
            shift = 3 * level
            if (a >> shift) & 0b111 != (b >> shift) & 0b111:
                break
            depth += 1
        assert common_prefix_depth(a, b, levels) == depth
