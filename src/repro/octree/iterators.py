"""Region queries over an occupancy octree.

Planners query the map along candidate trajectories (paper §2.1, Figure 3):
these helpers provide axis-aligned bounding-box leaf iteration with subtree
culling, plus the occupied-voxel extraction collision checkers use.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.octree.key import VoxelKey
from repro.octree.tree import OccupancyOctree

__all__ = ["iter_leaves_in_box", "occupied_keys_in_box", "count_occupied"]


def iter_leaves_in_box(
    tree: OccupancyOctree, min_key: VoxelKey, max_key: VoxelKey
) -> Iterator[Tuple[VoxelKey, int, float]]:
    """Yield ``(min_key, level, value)`` leaves intersecting a key-space box.

    The box is inclusive on both ends.  Subtrees wholly outside the box are
    culled without descent, so the cost scales with the intersected region,
    not the whole map.
    """
    for axis in range(3):
        if min_key[axis] > max_key[axis]:
            raise ValueError(f"min_key exceeds max_key on axis {axis}")
    return tree.iter_leaves(min_key, max_key)


def occupied_keys_in_box(
    tree: OccupancyOctree, min_key: VoxelKey, max_key: VoxelKey
) -> List[VoxelKey]:
    """Finest-level keys of occupied voxels inside an inclusive key box."""
    occupied: List[VoxelKey] = []
    threshold = tree.params.threshold
    for (kx, ky, kz), level, value in iter_leaves_in_box(tree, min_key, max_key):
        if value < threshold:
            continue
        span = 1 << level
        for x in range(max(kx, min_key[0]), min(kx + span - 1, max_key[0]) + 1):
            for y in range(max(ky, min_key[1]), min(ky + span - 1, max_key[1]) + 1):
                for z in range(
                    max(kz, min_key[2]), min(kz + span - 1, max_key[2]) + 1
                ):
                    occupied.append((x, y, z))
    return occupied


def count_occupied(tree: OccupancyOctree) -> int:
    """Number of finest-level occupied voxels in the whole map."""
    total = 0
    threshold = tree.params.threshold
    for _key, level, value in tree.iter_leaves():
        if value >= threshold:
            total += (1 << level) ** 3
    return total
