"""Bulk clamped log-odds application (the vector update kernel).

The clamped update ``min(v + δ_occ, max_occ)`` / ``max(v − δ_free,
min_occ)`` is **order-dependent and non-associative** in floating
point, so summing deltas per voxel (or composing updates as intervals)
would drift from the scalar path by rounding.  Bit-exactness instead
comes from replaying the per-voxel observation sequences with the very
same operations, vectorised *across voxels round by round*: round ``r``
applies the ``r``-th observation of every voxel that still has one,
with ``np.minimum``/``np.maximum`` — IEEE-identical to the scalar
``min``/``max``.  Total work is O(total observations); the number of
rounds is the maximum per-voxel multiplicity.

Voxels are processed in descending-count layout so each round touches a
contiguous prefix (a slice, not a mask), and the few highest-multiplicity
stragglers are finished with a tight scalar loop once the prefix gets
small — numpy per-call overhead would otherwise dominate the tail.
"""

from __future__ import annotations

import numpy as np

from repro.octree.occupancy import OccupancyParams

__all__ = ["fold_logodds"]

#: Below this many active voxels a round is cheaper in pure Python
#: (tuned on the depth-10 corridor workload: per-call numpy overhead crosses
#: the scalar loop's per-element cost around this prefix size).
_SCALAR_TAIL = 64


def fold_logodds(
    base: np.ndarray,
    occ_sorted: np.ndarray,
    seg_starts: np.ndarray,
    counts: np.ndarray,
    params: OccupancyParams,
) -> np.ndarray:
    """Fold each voxel's observation run onto its base value; return finals.

    Args:
        base: ``(U,)`` float64 starting log-odds per voxel.
        occ_sorted: ``(M,)`` bool flags in segment layout (each voxel's
            observations contiguous, original order preserved).
        seg_starts: ``(U,)`` offset of each voxel's run in ``occ_sorted``.
        counts: ``(U,)`` run length per voxel.
        params: the clamp/delta parameters shared with the scalar path.

    The result is bit-identical to calling ``params.update`` once per
    observation, per voxel, in order.
    """
    num_groups = counts.shape[0]
    values = np.array(base, dtype=np.float64, copy=True)
    if num_groups == 0 or occ_sorted.shape[0] == 0:
        return values
    d_occ = params.delta_occupied
    d_free = params.delta_free
    lo = params.min_occ
    hi = params.max_occ

    # Descending-count layout: round r's active voxels are a prefix.
    layout = np.argsort(-counts, kind="stable")
    sorted_counts = counts[layout]
    sorted_starts = seg_starts[layout]
    sorted_values = values[layout]
    max_rounds = int(sorted_counts[0])
    # counts > r  ⇔  index < searchsorted(-counts, -r, "left")
    actives = np.searchsorted(
        -sorted_counts, -np.arange(max_rounds, dtype=np.int64), side="left"
    )

    round_index = 0
    while round_index < max_rounds:
        active = int(actives[round_index])
        if active <= _SCALAR_TAIL:
            break
        flags = occ_sorted[sorted_starts[:active] + round_index]
        head = sorted_values[:active]
        sorted_values[:active] = np.where(
            flags,
            np.minimum(head + d_occ, hi),
            np.maximum(head - d_free, lo),
        )
        round_index += 1

    if round_index < max_rounds:
        # Finish the high-multiplicity stragglers scalar-style.  Once a
        # value sits exactly on a clamp bound, further same-direction
        # updates are exact no-ops (min(hi + δ, hi) == hi), so the loop
        # skips straight to the next opposite flag — long uniform runs
        # (e.g. the origin voxel, freed by every ray) collapse to a
        # handful of real updates plus one C-speed ``list.index`` scan.
        occ_list = occ_sorted.tolist()
        index_of = occ_list.index
        for group in range(int(actives[round_index])):
            value = float(sorted_values[group])
            start = int(sorted_starts[group]) + round_index
            stop = int(sorted_starts[group]) + int(sorted_counts[group])
            pos = start
            while pos < stop:
                if occ_list[pos]:
                    value = value + d_occ
                    pos += 1
                    if value >= hi:
                        if value > hi:
                            value = hi
                        try:
                            pos = index_of(False, pos, stop)
                        except ValueError:
                            break
                else:
                    value = value - d_free
                    pos += 1
                    if value <= lo:
                        if value < lo:
                            value = lo
                        try:
                            pos = index_of(True, pos, stop)
                        except ValueError:
                            break
            sorted_values[group] = value

    values[layout] = sorted_values
    return values
