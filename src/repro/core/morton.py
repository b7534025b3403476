"""3-D Morton codes (Z-order curve) as used by OctoCache (paper §4.3).

A Morton code interleaves the bits of three integer coordinates into a single
integer.  Two properties make it central to OctoCache:

1. **Bucket indexing** — the Morton OctoCache locates a cache bucket with
   ``M(v) % w`` instead of a generic hash, so that sequential bucket eviction
   emits voxels in Morton order (paper §4.3, implementation details).
2. **Optimal octree insertion order** — sorting voxels by Morton code of
   their discrete coordinates minimises the locality functional
   :func:`repro.core.locality.locality_cost` over the octree, which is the
   paper's main theorem.  Intuitively, adjacent codes share long key
   prefixes, hence long chains of common octree ancestors.

Both scalar and numpy-vectorised encoders are provided.  Scalar encoding
uses 8-bit dilation lookup tables (the classic Stocco & Schrack technique
the paper cites), vectorised encoding uses numpy magic-number dilation.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "MAX_COORD_BITS",
    "dilate3",
    "contract3",
    "morton_encode3",
    "morton_decode3",
    "morton_encode3_array",
    "morton_decode3_array",
    "morton_sort",
    "morton_argsort",
    "common_prefix_depth",
]

#: Maximum number of bits per coordinate supported by the scalar encoder.
#: 21 bits/axis fills 63 bits, matching a 21-level octree — deeper than the
#: 16-level tree of the paper's standard configuration.
MAX_COORD_BITS = 21

# ---------------------------------------------------------------------------
# Dilation tables: _DILATE_TABLE[b] spreads the 8 bits of b to every 3rd bit.
# ---------------------------------------------------------------------------


def _build_dilate_table() -> List[int]:
    table = []
    for value in range(256):
        spread = 0
        for bit in range(8):
            if value & (1 << bit):
                spread |= 1 << (3 * bit)
        table.append(spread)
    return table


_DILATE_TABLE: List[int] = _build_dilate_table()


def dilate3(value: int) -> int:
    """Spread the bits of ``value`` so bit *i* moves to bit *3i*.

    ``dilate3(0b111) == 0b001001001``.  Supports up to
    :data:`MAX_COORD_BITS` input bits.
    """
    if value < 0:
        raise ValueError(f"coordinate must be non-negative, got {value}")
    if value >> MAX_COORD_BITS:
        raise ValueError(
            f"coordinate {value} exceeds {MAX_COORD_BITS} bits supported by dilate3"
        )
    return (
        _DILATE_TABLE[value & 0xFF]
        | (_DILATE_TABLE[(value >> 8) & 0xFF] << 24)
        | (_DILATE_TABLE[(value >> 16) & 0xFF] << 48)
    )


def contract3(value: int) -> int:
    """Inverse of :func:`dilate3`: gather every 3rd bit back together."""
    result = 0
    bit = 0
    while value:
        if value & 1:
            result |= 1 << bit
        value >>= 3
        bit += 1
    return result


def morton_encode3(x: int, y: int, z: int) -> int:
    """Interleave three non-negative integer coordinates into a Morton code.

    Per bit level the x bit is most significant, then y, then z: level *i*
    contributes ``(x_i, y_i, z_i)`` as one 3-bit group, so
    ``morton_encode3(1, 5, 3)`` with x=001, y=101, z=011 yields the groups
    ``(0,1,0)(0,0,1)(1,1,1)`` = ``0b010001111`` = 143.  (The paper's worked
    example in §4.3 concatenates the same per-level groups with a different
    axis convention and prints 167; the optimality theorem holds for any
    fixed axis permutation, and each 3-bit group here directly indexes the
    child chosen along the octree's root-to-leaf path.)
    """
    return (dilate3(x) << 2) | (dilate3(y) << 1) | dilate3(z)


def morton_decode3(code: int) -> Tuple[int, int, int]:
    """Invert :func:`morton_encode3` back into ``(x, y, z)``."""
    if code < 0:
        raise ValueError(f"Morton code must be non-negative, got {code}")
    return (
        contract3((code >> 2) & 0o111111111111111111111),
        contract3((code >> 1) & 0o111111111111111111111),
        contract3(code & 0o111111111111111111111),
    )


# ---------------------------------------------------------------------------
# Vectorised variants (numpy, magic-number dilation for 21-bit coordinates).
# ---------------------------------------------------------------------------


def _dilate3_array(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.uint64)
    v = (v | (v << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v << np.uint64(2))) & np.uint64(0x1249249249249249)
    return v


def morton_encode3_array(
    x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`morton_encode3` over equal-length integer arrays."""
    x = np.asarray(x)
    y = np.asarray(y)
    z = np.asarray(z)
    if np.any(x < 0) or np.any(y < 0) or np.any(z < 0):
        raise ValueError("coordinates must be non-negative")
    if (
        np.any(x >> MAX_COORD_BITS)
        or np.any(y >> MAX_COORD_BITS)
        or np.any(z >> MAX_COORD_BITS)
    ):
        raise ValueError(f"coordinates exceed {MAX_COORD_BITS} bits")
    return (
        (_dilate3_array(x) << np.uint64(2))
        | (_dilate3_array(y) << np.uint64(1))
        | _dilate3_array(z)
    )


def _contract3_array(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.uint64) & np.uint64(0x1249249249249249)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return v


def morton_decode3_array(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`morton_decode3`; returns ``(x, y, z)`` arrays."""
    codes = np.asarray(codes, dtype=np.uint64)
    return (
        _contract3_array(codes >> np.uint64(2)),
        _contract3_array(codes >> np.uint64(1)),
        _contract3_array(codes),
    )


# ---------------------------------------------------------------------------
# Ordering helpers.
# ---------------------------------------------------------------------------


def morton_sort(
    coords: Iterable[Tuple[int, int, int]]
) -> List[Tuple[int, int, int]]:
    """Return voxel coordinates sorted ascending by Morton code.

    This is the ordering the paper proves optimal for octree insertion.
    """
    return sorted(coords, key=lambda c: morton_encode3(*c))


def morton_argsort(coords: Sequence[Tuple[int, int, int]]) -> List[int]:
    """Return indices that sort ``coords`` by Morton code (stable)."""
    return sorted(range(len(coords)), key=lambda i: morton_encode3(*coords[i]))


def common_prefix_depth(code_a: int, code_b: int, levels: int) -> int:
    """Number of leading 3-bit groups shared by two Morton codes.

    For leaf voxels of an ``levels``-deep octree this equals the depth of
    their closest common ancestor: each 3-bit group selects one child along
    the root-to-leaf path, so a shared prefix is a shared ancestor chain.
    """
    if levels < 0:
        raise ValueError(f"levels must be non-negative, got {levels}")
    # The highest differing bit names the first differing 3-bit group
    # (``repro.octree.key.ancestor_level`` is the same on keys).
    differing = (code_a ^ code_b) & ((1 << 3 * levels) - 1)
    return levels - (differing.bit_length() + 2) // 3
