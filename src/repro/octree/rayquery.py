"""Ray queries over a built map (OctoMap's ``castRay`` equivalent).

Planners probe the map along candidate rays; ``cast_ray`` walks voxels
from an origin along a direction until it meets an occupied voxel, an
unknown voxel (optionally), the range limit, or the map boundary.
:func:`walk_ray` is that walk for anything shaped like a map — its
``grid`` is the tree here and the sharded map in
:meth:`~repro.service.sharded_map.MapBackend.cast_ray` — so a ray reads
the same voxels and ends the same way wherever the map lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.octree.key import VoxelKey, coord_to_key, key_to_coord
from repro.octree.tree import OccupancyOctree
from repro.sensor.raycast import compute_ray_keys

__all__ = ["RayHit", "cast_ray", "clamped_endpoint", "first_hit", "walk_ray"]

Coord = Tuple[float, float, float]


@dataclass(frozen=True)
class RayHit:
    """Result of a map ray query.

    Attributes:
        hit: an occupied voxel was found.
        key: the terminating voxel (occupied voxel on a hit; the last
            visited voxel otherwise).
        endpoint: metric centre of ``key``.
        blocked_by_unknown: the walk stopped at unknown space (only when
            ``ignore_unknown`` is false).
    """

    hit: bool
    key: VoxelKey
    endpoint: Tuple[float, float, float]
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
    """The outcome of a walk over ``keys`` (near to far, at least one) with
    log-odds ``values``, read no further than the voxel that ends it: the
    first occupied, the first unknown (``None``) unless ignored, else the last."""
    resolution, depth, is_occupied = grid.resolution, grid.depth, grid.params.is_occupied
    for key, value in zip(keys, values):
        if value is None:
            if not ignore_unknown:
                return RayHit(False, key, key_to_coord(key, resolution, depth), True)
        elif is_occupied(value):
            return RayHit(True, key, key_to_coord(key, resolution, depth))
    return RayHit(False, keys[-1], key_to_coord(keys[-1], resolution, depth))


def walk_ray(
    grid,
    read: Callable[[List[VoxelKey]], Iterable[Optional[float]]],
    origin: Coord,
    direction: Coord,
    max_range: float,
    ignore_unknown: bool,
) -> RayHit:
    """One ray over ``grid`` (its ``resolution``, ``depth`` and ``params``),
    ``read(keys)`` giving the log-odds of the ray's voxels in order.

    OctoMap's ``castRay`` convention: the origin's voxel is read first and
    the (clamped) endpoint's last.
    """
    if max_range <= 0:
        raise ValueError(f"max_range must be positive, got {max_range}")
    endpoint = clamped_endpoint(grid, origin, direction, max_range)
    # The stepper stops short of the endpoint's voxel.
    keys = compute_ray_keys(origin, endpoint, grid.resolution, grid.depth)
    keys.append(coord_to_key(endpoint, grid.resolution, grid.depth))
    return first_hit(grid, keys, read(keys), ignore_unknown)


def cast_ray(
    tree: OccupancyOctree,
    origin: Coord,
    direction: Coord,
    max_range: float,
    ignore_unknown: bool = True,
) -> RayHit:
    """Walk the map from ``origin`` along ``direction`` up to ``max_range``.

    :func:`walk_ray` over the tree, read through one
    :meth:`~OccupancyOctree.cursor` and no further than the voxel that
    ends the walk.

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
    return walk_ray(
        tree,
        lambda keys: map(tree.cursor(), keys),
        origin,
        direction,
        max_range,
        ignore_unknown,
    )
