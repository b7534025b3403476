"""Test-side reference: the root-restarting ray walk ``cast_ray`` replaced.

``reference_cast_ray`` is ``rayquery.cast_ray`` as it stood before the
tree cursor — one ``tree.search`` from the root per voxel, its own
unknown / occupied / last-key loop — and ``reference_coord_to_key`` the
``int(np.floor(...))`` discretisation ``coord_to_key`` used.  The
differential suite holds the production walk to them: equal ``RayHit``s,
equal keys, the same exception types.  The reference does not clamp the
range to the map boundary: a ray that leaves the map raises here, as it
did.  ``reference_backend_cast_ray`` is the sharded map's walk of the
same vintage, which always clamped.
"""

import math

import numpy as np

from repro.octree.rayquery import RayHit
from repro.sensor.raycast import compute_ray_keys


def reference_coord_to_key(coord, resolution, depth):
    offset = 1 << (depth - 1)
    limit = 1 << depth
    key = []
    for axis_value in coord:
        component = int(np.floor(axis_value / resolution)) + offset
        if not 0 <= component < limit:
            raise ValueError(
                f"coordinate {coord} outside map boundary "
                f"(resolution={resolution}, depth={depth})"
            )
        key.append(component)
    return (key[0], key[1], key[2])


def reference_cast_ray(tree, origin, direction, max_range, ignore_unknown=True):
    if max_range <= 0:
        raise ValueError(f"max_range must be positive, got {max_range}")
    norm = math.sqrt(sum(c * c for c in direction))
    if norm == 0.0:
        raise ValueError("direction must be non-zero")
    endpoint = tuple(
        origin[axis] + direction[axis] / norm * max_range for axis in range(3)
    )
    keys = compute_ray_keys(origin, endpoint, tree.resolution, tree.depth)
    keys = keys[1:] if keys else []  # skip the origin's own voxel
    last_key = None
    for key in keys:
        value = tree.search(key)
        if value is None:
            if not ignore_unknown:
                return RayHit(
                    hit=False,
                    key=key,
                    endpoint=tree.key_to_coord(key),
                    blocked_by_unknown=True,
                )
        elif tree.params.is_occupied(value):
            return RayHit(hit=True, key=key, endpoint=tree.key_to_coord(key))
        last_key = key
    if last_key is None:
        return RayHit(hit=False, key=None, endpoint=None)
    return RayHit(hit=False, key=last_key, endpoint=tree.key_to_coord(last_key))


def reference_backend_cast_ray(
    backend, origin, direction, max_range, ignore_unknown=True
):
    """``MapBackend.cast_ray`` as it stood: its own boundary clamp, both
    end voxels included, its own copy of the termination loop."""
    norm = math.sqrt(sum(c * c for c in direction))
    if norm == 0.0:
        raise ValueError("direction must be non-zero")
    unit = tuple(c / norm for c in direction)
    half = backend.resolution * (1 << (backend.depth - 1))
    margin = backend.resolution * 1e-3
    travel = max_range
    for o, d in zip(origin, unit):
        if d > 0:
            travel = min(travel, (half - margin - o) / d)
        elif d < 0:
            travel = min(travel, (-half + margin - o) / d)
    travel = max(travel, 0.0)
    endpoint = tuple(o + d * travel for o, d in zip(origin, unit))
    keys = compute_ray_keys(origin, endpoint, backend.resolution, backend.depth)
    keys.append(reference_coord_to_key(endpoint, backend.resolution, backend.depth))
    last = None
    for key in keys:
        value = backend.query_key(key)
        if value is None:
            if not ignore_unknown:
                return RayHit(
                    hit=False,
                    key=key,
                    endpoint=backend._coord_of(key),
                    blocked_by_unknown=True,
                )
        elif backend.params.is_occupied(value):
            return RayHit(hit=True, key=key, endpoint=backend._coord_of(key))
        last = key
    if last is None:
        return RayHit(hit=False, key=None, endpoint=None)
    return RayHit(hit=False, key=last, endpoint=backend._coord_of(last))
