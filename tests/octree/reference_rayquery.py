"""Test-side reference: the ray walk written out longhand.

``reference_cast_ray`` is OctoMap's ``castRay`` convention without any of
the production pieces: its own boundary clamp (a thousandth of a voxel
inside the map cube), the origin's voxel first and the endpoint's last,
one root-restarting ``read(key)`` per voxel — ``tree.search`` for a tree,
``backend.query_key`` for a sharded map — and its own unknown / occupied
/ last-key loop.  ``reference_coord_to_key`` is the ``int(np.floor(...))``
discretisation ``coord_to_key`` used.  The differential suites hold the
production walk to them: equal ``RayHit``s, equal keys, the same
exception types.
"""

import math

import numpy as np

from repro.octree.key import key_to_coord
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


def reference_cast_ray(
    grid, read, origin, direction, max_range, ignore_unknown=True
):
    if max_range <= 0:
        raise ValueError(f"max_range must be positive, got {max_range}")
    norm = math.sqrt(sum(c * c for c in direction))
    if norm == 0.0:
        raise ValueError("direction must be non-zero")
    unit = tuple(c / norm for c in direction)
    half = grid.resolution * (1 << (grid.depth - 1))
    margin = grid.resolution * 1e-3
    travel = max_range
    for o, d in zip(origin, unit):
        if d > 0:
            travel = min(travel, (half - margin - o) / d)
        elif d < 0:
            travel = min(travel, (-half + margin - o) / d)
    travel = max(travel, 0.0)
    endpoint = tuple(o + d * travel for o, d in zip(origin, unit))
    keys = compute_ray_keys(origin, endpoint, grid.resolution, grid.depth)
    keys.append(reference_coord_to_key(endpoint, grid.resolution, grid.depth))

    def centre(key):
        return key_to_coord(key, grid.resolution, grid.depth)

    for key in keys:
        value = read(key)
        if value is None:
            if not ignore_unknown:
                return RayHit(
                    hit=False, key=key, endpoint=centre(key), blocked_by_unknown=True
                )
        elif grid.params.is_occupied(value):
            return RayHit(hit=True, key=key, endpoint=centre(key))
    return RayHit(hit=False, key=keys[-1], endpoint=centre(keys[-1]))
