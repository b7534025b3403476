"""Discrete voxel keys (OctoMap's ``OcTreeKey`` equivalent).

A voxel at the finest resolution is addressed by a triple of unsigned
integers.  Following OctoMap, a metric coordinate ``x`` maps to key
``floor(x / resolution) + offset`` where ``offset = 2**(depth-1)`` centres
the map on the origin: the mapping boundary is a cube of side
``resolution * 2**depth`` centred at ``(0, 0, 0)`` (paper §2.2).

At tree level *d* (root = level ``depth``), the child index along a
root-to-leaf traversal is assembled from bit ``d-1`` of each key component —
the same 3-bit group a Morton code stores for that level, which is why
Morton order equals root-to-leaf path order.
"""

from __future__ import annotations

from math import floor
from typing import Tuple

import numpy as np

from repro.core.morton import (
    MAX_COORD_BITS,
    morton_encode3,
    morton_encode3_array,
)

__all__ = [
    "VoxelKey",
    "coord_to_key",
    "key_to_coord",
    "coords_to_keys",
    "keys_to_coords",
    "key_to_morton",
    "keys_to_morton",
    "child_index",
    "ancestor_level",
    "validate_key",
]

#: A discrete voxel address: three unsigned ints, one per axis.
VoxelKey = Tuple[int, int, int]


def validate_key(key: VoxelKey, depth: int) -> None:
    """Reject keys outside a ``depth``-deep map with a clear error.

    Map entry points (insert/query) call this so a negative or too-large
    component fails with the offending key and the map bounds named,
    instead of a bare encoder error from deep inside
    :func:`repro.core.morton.morton_encode3`.
    """
    limit = 1 << depth
    if 0 <= key[0] < limit and 0 <= key[1] < limit and 0 <= key[2] < limit:
        return
    raise ValueError(
        f"voxel key {tuple(key)} is outside the map bounds: components "
        f"must be in [0, {limit}) for an octree of depth {depth}"
    )


def coord_to_key(
    coord: Tuple[float, float, float], resolution: float, depth: int
) -> VoxelKey:
    """Convert a metric coordinate to the voxel key at the finest level.

    Raises :class:`ValueError` when the coordinate falls outside the map
    boundary implied by ``resolution`` and ``depth``.
    """
    x, y, z = coord
    limit = 1 << depth
    offset = limit >> 1
    # Axis by axis, so a bad x is reported before a nan y is floored.
    kx = floor(x / resolution) + offset
    if 0 <= kx < limit:
        ky = floor(y / resolution) + offset
        if 0 <= ky < limit:
            kz = floor(z / resolution) + offset
            if 0 <= kz < limit:
                return (kx, ky, kz)
    raise ValueError(
        f"coordinate {coord} outside map boundary "
        f"(resolution={resolution}, depth={depth})"
    )


def key_to_coord(
    key: VoxelKey, resolution: float, depth: int
) -> Tuple[float, float, float]:
    """Convert a voxel key back to the metric centre of its voxel."""
    offset = 1 << (depth - 1)
    return tuple((component - offset + 0.5) * resolution for component in key)


def coords_to_keys(
    coords: np.ndarray, resolution: float, depth: int
) -> np.ndarray:
    """Vectorised :func:`coord_to_key` over an ``(N, 3)`` float array.

    Returns an ``(N, 3)`` int64 array.  Out-of-bounds coordinates raise.
    """
    coords = np.asarray(coords, dtype=np.float64)
    offset = 1 << (depth - 1)
    limit = 1 << depth
    keys = np.floor(coords / resolution).astype(np.int64) + offset
    if np.any(keys < 0) or np.any(keys >= limit):
        raise ValueError(
            f"coordinates outside map boundary (resolution={resolution}, depth={depth})"
        )
    return keys


def keys_to_coords(keys: np.ndarray, resolution: float, depth: int) -> np.ndarray:
    """Vectorised :func:`key_to_coord` over an ``(N, 3)`` int array."""
    offset = 1 << (depth - 1)
    return (np.asarray(keys, dtype=np.float64) - offset + 0.5) * resolution


def key_to_morton(key: VoxelKey) -> int:
    """Morton code of a voxel key (used for cache indexing and ordering)."""
    return morton_encode3(key[0], key[1], key[2])


def keys_to_morton(keys: np.ndarray) -> np.ndarray:
    """Vectorised :func:`key_to_morton` over an ``(N, 3)`` int array.

    Dilates all three coordinate columns in one ``(N, 3)`` pass — a third
    of the array-op count of three per-axis
    :func:`~repro.core.morton.morton_encode3_array` calls, which matters
    for the small per-batch unique-key arrays on the ingest hot path.
    """
    keys = np.asarray(keys)
    if (keys < 0).any():
        raise ValueError("coordinates must be non-negative")
    if (keys >> MAX_COORD_BITS).any():
        raise ValueError(f"coordinates exceed {MAX_COORD_BITS} bits")
    v = keys.astype(np.uint64)
    v = (v | (v << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v << np.uint64(2))) & np.uint64(0x1249249249249249)
    return (
        (v[:, 0] << np.uint64(2)) | (v[:, 1] << np.uint64(1)) | v[:, 2]
    )


def child_index(key: VoxelKey, level: int) -> int:
    """Child slot (0–7) chosen at tree ``level`` on the path to ``key``.

    ``level`` counts down from ``depth - 1`` (just below the root) to 0
    (the leaf level); bit ``level`` of each key component selects the half
    of the corresponding axis.
    """
    return (
        (((key[0] >> level) & 1) << 2)
        | (((key[1] >> level) & 1) << 1)
        | ((key[2] >> level) & 1)
    )


def ancestor_level(key_a: VoxelKey, key_b: VoxelKey) -> int:
    """Tree level (0 = finest voxel) of the deepest node on both keys'
    root-to-leaf paths: the bit length of their highest differing bit.
    ``depth`` minus it is the closest-common-ancestor depth ``F(S)`` sums
    (:func:`repro.core.morton.common_prefix_depth` on Morton codes)."""
    return (
        (key_a[0] ^ key_b[0]) | (key_a[1] ^ key_b[1]) | (key_a[2] ^ key_b[2])
    ).bit_length()
