"""Batched Amanatides–Woo ray traversal (the vector tracing kernel).

Traces every ray of a point cloud in one set of array passes and emits
the **identical observation stream** — same voxel keys, same occupied
flags, same order — as the scalar reference
(:func:`repro.sensor.raycast.compute_ray_keys` driven by
:func:`repro.sensor.scaninsert.trace_scan`).  Bit-exactness is the
contract: the scalar path stays the oracle, and the parity fuzz suite
(``tests/kernels/``) compares the two key-for-key.

How the scalar loop becomes array passes
----------------------------------------

The scalar stepper repeatedly picks ``argmin(t_max)`` (ties break to the
lowest axis index), steps that axis and advances its ``t_max`` by
``t_delta``.  That is exactly a 3-way merge of the per-axis border
crossing sequences ``t0, t0+dt, (t0+dt)+dt, ...``:

1. The rays that leave the origin's voxel are sorted by their largest
   per-axis crossing count and cut into **length cohorts**
   (:func:`_cohort_bounds`).  Steps 2-5 run once per cohort, on grids
   sized for that cohort's longest ray: a one-voxel ray never rides a
   map-spanning ray's grid.
2. Each axis's crossing sequence is materialised by a **row-wise
   cumsum** over ``[t0, dt, dt, ...]`` — numpy's cumsum performs the
   same left-to-right repeated addition as the scalar ``t_max +=
   t_delta``, so every crossing value is bit-identical, not just close.
3. A per-ray **stable argsort** over the three concatenated sequences
   (axis 0's block first) merges them; for equal ``t`` values stability
   keeps the lower axis first, matching the scalar tie-break, and
   within one axis keeps crossings in order.
4. Per-axis **cumulative step counts** (int32) along the merged order
   give the voxel key after every step, and the scalar's two break
   conditions become array tests: ``key == end_key`` is a per-axis count
   match and the overshoot test ``min(t_max) > 1`` is simply "the next
   merged event's ``t`` exceeds 1" (the merged order is sorted, so the
   next event *is* the minimum of the three axis heads).  The scalar
   per-ray step budget (Manhattan key distance + 3, which absorbs float
   corner ties) caps the steps a ray emits.
5. The emitted cells are gathered out of the count grids (``repeat`` /
   ``arange`` from the per-ray emitted counts) into compact int32 keys.
6. Once every cohort's emitted counts are known, so is every ray's
   place in the stream: each cohort's keys are written **straight to
   their stream offsets**, widening to int64 on that one write.

``max_range`` truncation is vectorised with the same arithmetic as the
scalar path (same operation order, so the truncated endpoints are
bit-identical), and truncated rays contribute only free space.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.octree.key import coord_to_key
from repro.sensor.pointcloud import PointCloud

__all__ = ["trace_cloud_arrays"]

#: Cells of the ``(rays, 3, width)`` crossing grid a cut must save to be
#: worth one more cohort: eight times the ~4 000 padded cells' time (~0.1
#: ms) a cohort costs in a quiet process, because under the threaded
#: service each of its ~60 numpy calls is also a GIL hand-off.
_PASS_CELLS = 1 << 15

#: Largest crossing grid of one cohort (a single ray excepted): bounds the
#: transient memory by the stream returned, not ``rays x longest ray``.
_COHORT_CELLS = 1 << 16


def trace_cloud_arrays(
    cloud: PointCloud,
    resolution: float,
    depth: int,
    max_range: float = float("inf"),
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Trace all rays of ``cloud``; return ``(keys, occupied, num_rays)``.

    ``keys`` is ``(M, 3)`` int64 and ``occupied`` ``(M,)`` bool, in the
    scalar emission order: per ray, free voxels from the origin outward
    followed by the endpoint voxel (occupied unless the ray was
    truncated at ``max_range``).  Raises :class:`ValueError` for
    endpoints (after truncation) or an origin outside the map, exactly
    like the scalar path.
    """
    points = cloud.as_array()
    num_rays = points.shape[0]
    if num_rays == 0:
        return np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=bool), 0
    origin = np.asarray(cloud.origin, dtype=np.float64)

    deltas = points - origin
    truncated = np.zeros(num_rays, dtype=bool)
    endpoints = points
    if max_range != math.inf:
        # Same association as the scalar path: (dx*dx + dy*dy) + dz*dz.
        dist = np.sqrt(
            deltas[:, 0] * deltas[:, 0]
            + deltas[:, 1] * deltas[:, 1]
            + deltas[:, 2] * deltas[:, 2]
        )
        truncated = dist > max_range
        if truncated.any():
            endpoints = points.copy()
            scale = max_range / dist[truncated]
            endpoints[truncated] = origin + deltas[truncated] * scale[:, None]
            deltas = endpoints - origin

    offset = 1 << (depth - 1)
    limit = 1 << depth
    start_key = coord_to_key(cloud.origin, resolution, depth)
    sk = np.array(start_key, dtype=np.int64)

    with np.errstate(invalid="ignore"):
        end_keys = np.floor(endpoints / resolution).astype(np.int64) + offset
    bad = (end_keys < 0) | (end_keys >= limit)
    if bad.any():
        index = int(np.argmax(bad.any(axis=1)))
        # Re-raise through the scalar converter for the identical error.
        coord_to_key(tuple(endpoints[index].tolist()), resolution, depth)

    # Crossings per axis.  A ray that ends in the origin's voxel (a
    # degenerate one included) has none and emits only its endpoint.
    n_steps = np.abs(end_keys - sk).astype(np.int32)
    length = n_steps.max(axis=1)
    rays = np.flatnonzero(length)
    rays = rays[np.argsort(length[rays], kind="stable")]   # shortest first
    lengths = length[rays]
    n_steps = n_steps[rays]
    d = deltas[rays]
    stp = np.sign(d.T).astype(np.int32)
    nonzero = d != 0.0
    border = (sk - offset + (d > 0.0)) * resolution
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = np.where(nonzero, (border - origin) / d, np.inf)
        dt = np.where(nonzero, resolution / np.abs(d), np.inf)

    emitted = np.empty(rays.shape[0], dtype=np.int64)
    traced = []
    for lo, hi in _cohort_bounds(lengths):
        emitted[lo:hi], keys = _trace_cohort(
            t0[lo:hi], dt[lo:hi], stp[:, lo:hi], n_steps[lo:hi], sk
        )
        traced.append((lo, hi, keys))

    free_counts = np.zeros(num_rays, dtype=np.int64)
    free_counts[rays] = 1 + emitted            # start voxel + steps
    ends_pos = np.cumsum(free_counts + 1) - 1  # + endpoint observation
    starts = (ends_pos - free_counts)[rays]
    total = int(ends_pos[-1]) + 1

    out_keys = np.empty((total, 3), dtype=np.int64)
    out_occ = np.zeros(total, dtype=bool)
    out_keys[ends_pos] = end_keys
    out_occ[ends_pos] = ~truncated
    out_keys[starts] = sk
    for lo, hi, keys in traced:
        # A cohort's keys lie ray after ray; each ray's run moves to the
        # slots after that ray's start voxel.
        steps = emitted[lo:hi]
        run_start = np.cumsum(steps) - steps
        positions = np.repeat(starts[lo:hi] + 1 - run_start, steps)
        positions += np.arange(keys.shape[1])
        out_keys[positions] = keys.T
    return out_keys, out_occ, num_rays


def _cohort_bounds(lengths: np.ndarray) -> List[Tuple[int, int]]:
    """Cut rays sorted by ``lengths`` into cohorts; ``(lo, hi)`` slices.

    A cohort's crossing grid is ``3 * (its longest ray + 4)`` cells per
    ray.  A slice is cut where the cut saves the most cells — the rays
    below it times the width they no longer pad to — as long as that
    beats :data:`_PASS_CELLS`; a slice no cut pays for is one cohort,
    shed from the long end in :data:`_COHORT_CELLS` pieces if its grid
    is larger than that.  A pure function of the crossing counts.
    """
    upto = np.cumsum(np.bincount(lengths))     # rays no longer than v
    bounds = []
    pending = [(0, lengths.shape[0])] if lengths.shape[0] else []
    while pending:
        lo, hi = pending.pop()
        shortest, longest = int(lengths[lo]), int(lengths[hi - 1])
        below = upto[shortest:longest] - lo    # rays under a cut after v
        saved = below * (3 * (longest - np.arange(shortest, longest)))
        fit = max(1, _COHORT_CELLS // (3 * (longest + 4)))
        if saved.size and saved.max() >= _PASS_CELLS:
            cut = lo + int(below[saved.argmax()])
            pending += [(lo, cut), (cut, hi)]
        elif hi - lo > fit:
            pending.append((lo, hi - fit))
            bounds.append((hi - fit, hi))
        else:
            bounds.append((lo, hi))
    return bounds


def _trace_cohort(
    t0: np.ndarray, dt: np.ndarray, stp: np.ndarray, n_steps: np.ndarray, sk: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Trace one cohort of active rays; see :func:`trace_cloud_arrays`.

    ``t0`` / ``dt``: each ray's first crossing and crossing interval per
    axis; ``stp``: its ``(3, rays)`` key steps.  Returns the steps emitted
    per ray and their keys, ``(3, emitted.sum())`` int32 in scalar order.
    """
    count = t0.shape[0]
    manhattan = n_steps.sum(axis=1)
    budget = manhattan + 3                     # scalar max_steps
    num_events = int(budget.max()) + 1         # need step i's successor t
    width = int(n_steps.max()) + 4             # per-axis slack ≥ budget tail

    # Crossing values per (ray, axis): cumsum over [t0, dt, dt, ...]
    # reproduces the scalar repeated addition bit-for-bit.
    events = np.empty((count, 3, width))
    events[:, :, 0] = t0
    events[:, :, 1:] = dt[:, :, None]
    np.cumsum(events, axis=2, out=events)
    events = events.reshape(count, 3 * width)

    order = np.argsort(events, axis=1, kind="stable")[:, :num_events]
    # Column j has seen j+1 events in total, so the y and z counts are
    # implied by these two: cy = cxy - cx, cz = j + 1 - cxy.
    cx = (order < width).cumsum(axis=1, dtype=np.int32)
    cxy = (order < 2 * width).cumsum(axis=1, dtype=np.int32)

    # The scalar break conditions, without materialising the merged
    # t values or a stop grid:
    # - overshoot ("next event's t > 1"): the merge is sorted, so the
    #   first such column is just the count of crossings with t <= 1
    #   (minus the one consumed by the stop test's +1 lookahead);
    # - end-voxel arrival: counts sum to j+1 per column, so all three
    #   can equal ``n_steps`` (which sums to the Manhattan distance)
    #   only at column manhattan-1 — one gather checks it.
    reach = np.count_nonzero(events <= 1.0, axis=1)
    emitted = np.minimum(np.maximum(reach - 1, 0), budget)  # steps per ray
    end_col = manhattan - 1
    row_start = np.arange(count, dtype=np.int32) * num_events
    end_x = np.take(cx, row_start + end_col)
    end_xy = np.take(cxy, row_start + end_col)
    at_end = (end_x == n_steps[:, 0]) & (end_xy - end_x == n_steps[:, 1])
    at_end &= manhattan - end_xy == n_steps[:, 2]
    np.minimum(emitted, np.where(at_end, end_col, emitted), out=emitted)

    # Gather the emitted (ray, column) cells, row-major = scalar order.
    total = int(emitted.sum())
    run_start = (np.cumsum(emitted) - emitted).astype(np.int32)
    column = np.arange(total, dtype=np.int32) - np.repeat(run_start, emitted)
    cell = np.repeat(row_start, emitted) + column
    keys = np.empty((3, total), dtype=np.int32)
    keys[0] = np.take(cx, cell)
    keys[2] = np.take(cxy, cell)
    np.subtract(keys[2], keys[0], out=keys[1])
    np.subtract(column + 1, keys[2], out=keys[2])
    keys *= np.repeat(stp, emitted, axis=1)
    keys += sk.astype(np.int32)[:, None]
    return emitted, keys
