"""Ray queries over a built map (OctoMap's ``castRay`` equivalent).

Planners probe the map along candidate rays; ``cast_ray`` walks voxels
from an origin along a direction until it meets an occupied voxel, an
unknown voxel (optionally), the range limit, or the map boundary.
:func:`clamped_endpoint` and :func:`first_hit` are shared with the sharded
map's ``cast_ray``: their ``grid`` is the tree or that map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from repro.octree.key import VoxelKey, key_to_coord
from repro.octree.tree import OccupancyOctree
from repro.sensor.raycast import compute_ray_keys

__all__ = ["RayHit", "cast_ray", "clamped_endpoint", "first_hit"]

Coord = Tuple[float, float, float]


@dataclass(frozen=True)
class RayHit:
    """Result of a map ray query.

    Attributes:
        hit: an occupied voxel was found.
        key: the terminating voxel (occupied voxel on a hit; the last
            visited voxel otherwise), ``None`` when the ray never left its
            starting voxel.
        endpoint: metric centre of ``key``.
        blocked_by_unknown: the walk stopped at unknown space (only when
            ``ignore_unknown`` is false).
    """

    hit: bool
    key: Optional[VoxelKey]
    endpoint: Optional[Tuple[float, float, float]]
    blocked_by_unknown: bool = False


def clamped_endpoint(grid, origin: Coord, direction: Coord, max_range: float) -> Coord:
    """``max_range`` from ``origin`` along ``direction`` (normalised here),
    cut a thousandth of a voxel inside the map cube if the range would
    leave it; a ray the cube does not cut keeps its endpoint bit for bit."""
    norm = math.sqrt(sum(c * c for c in direction))
    if norm == 0.0:
        raise ValueError("direction must be non-zero")
    unit = tuple(c / norm for c in direction)
    inside = grid.resolution * (1 << (grid.depth - 1)) - grid.resolution * 1e-3
    travel = max_range
    for o, d in zip(origin, unit):
        if d:  # towards the face at ±inside on this axis
            travel = min(travel, (math.copysign(inside, d) - o) / d)
    travel = max(travel, 0.0)
    return tuple(o + d * travel for o, d in zip(origin, unit))


def first_hit(
    grid, keys: Sequence[VoxelKey], values: Iterable[Optional[float]], ignore_unknown: bool
) -> RayHit:
    """The outcome of a walk over ``keys`` (near to far) with log-odds
    ``values``, read no further than the voxel that ends it: the first
    occupied, the first unknown (``None``) unless ignored, else the last."""
    resolution, depth, is_occupied = grid.resolution, grid.depth, grid.params.is_occupied
    last: Optional[VoxelKey] = None
    for key, value in zip(keys, values):
        if value is None:
            if not ignore_unknown:
                return RayHit(False, key, key_to_coord(key, resolution, depth), True)
        elif is_occupied(value):
            return RayHit(True, key, key_to_coord(key, resolution, depth))
        last = key
    # ``last`` is None when the ray never left its starting voxel.
    return RayHit(False, last, last and key_to_coord(last, resolution, depth))


def cast_ray(
    tree: OccupancyOctree,
    origin: Coord,
    direction: Coord,
    max_range: float,
    ignore_unknown: bool = True,
) -> RayHit:
    """Walk the map from ``origin`` along ``direction`` up to ``max_range``.

    Reads the voxels strictly between the origin's and the (clamped)
    endpoint's, through one :meth:`~OccupancyOctree.cursor`.

    Args:
        tree: the occupancy octree to query.
        origin: ray start, in metres.
        direction: ray direction (normalised internally).
        max_range: maximum travel distance, in metres.
        ignore_unknown: treat unknown voxels as free (OctoMap's default);
            when false the walk stops at the first unknown voxel and the
            result's ``blocked_by_unknown`` is set.

    Returns:
        a :class:`RayHit`; ``hit`` is true iff an occupied voxel was met.
    """
    if max_range <= 0:
        raise ValueError(f"max_range must be positive, got {max_range}")
    endpoint = clamped_endpoint(tree, origin, direction, max_range)
    # The stepper leaves out the endpoint's voxel; drop the origin's too.
    keys = compute_ray_keys(origin, endpoint, tree.resolution, tree.depth)[1:]
    return first_hit(tree, keys, map(tree.cursor(), keys), ignore_unknown)
