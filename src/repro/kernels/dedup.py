"""Array-pass duplication elimination (paper §4 as one sort/unique pass).

A traced batch touches each voxel many times (§3.1 reports 2.78–31.3×
intra-batch duplication).  These helpers collapse an observation stream
``(keys, occupied)`` to its unique voxels in a single Morton-encode →
stable-sort → segment-reduce pass:

- :func:`dedup_observations` reproduces
  :func:`repro.sensor.scaninsert.trace_scan_rt` semantics *by
  construction*: each voxel appears once, occupied wins over free
  (``np.logical_or.reduceat`` per segment), and output order is
  first-touch order (the stable sort keeps the earliest observation
  first in each segment).
- :func:`group_observations` keeps the full per-voxel observation
  subsequences (for the bulk log-odds fold) instead of reducing them.

Grouping sorts by a *packed* key code — ``x << 42 | y << 21 | z``, or a
30-bit packing sorted as a two-pass uint16 radix when coordinates fit
10 bits (see :func:`_grouping_order`) — injective for in-bounds keys
and costing four array ops where the Morton interleave costs ~18.  The
sort order differs from Morton order, but group identity (and therefore
every output, which is emitted in first-touch order) is identical; the
Morton codes consumers need for cache indexing are computed afterwards
on the unique keys only.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from repro.octree.key import keys_to_morton

__all__ = ["GroupedObservations", "dedup_observations", "group_observations"]


def _packed_codes(keys: np.ndarray) -> np.ndarray:
    """Injective per-voxel sort code: ``x << 42 | y << 21 | z``."""
    return (keys[:, 0] << 42) | (keys[:, 1] << 21) | keys[:, 2]


def _grouping_order(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(codes, order)``: injective codes + stable sort of the stream.

    Any injective code yields the same groups, and every output is
    emitted in first-touch order — so the code layout is free to chase
    sort speed.  When all coordinates fit 10 bits (maps of depth <= 10:
    the ``*-bench`` commands' default) the code packs into 30 bits and
    the sort runs as a two-pass LSD radix over uint16 digits, where numpy's
    stable argsort uses a counting sort ~9x faster than the int64
    comparison sort; otherwise it falls back to one stable argsort of
    the wide packed code.  The repo benchmark (``bench/``) runs
    ``depth=12``, keys around 2048, so there the fallback always runs.
    """
    if keys.shape[0] and int(keys.min()) >= 0 and int(keys.max()) < 1024:
        packed = (keys[:, 0] << 20) | (keys[:, 1] << 10) | keys[:, 2]
        p32 = packed.astype(np.uint32)
        low = (p32 & np.uint32(0xFFFF)).astype(np.uint16)
        high = (p32 >> np.uint32(16)).astype(np.uint16)
        order = np.argsort(low, kind="stable")
        order = order[np.argsort(high[order], kind="stable")]
        return packed, order
    packed = _packed_codes(keys)
    return packed, np.argsort(packed, kind="stable")


class GroupedObservations(NamedTuple):
    """An observation stream grouped by unique voxel.

    Attributes:
        codes: ``(U,)`` uint64 Morton code per unique voxel, in
            first-touch order.
        keys: ``(U, 3)`` int64 voxel keys, first-touch order.
        counts: ``(U,)`` observations per voxel, first-touch order.
        seg_starts: ``(U,)`` offset of each voxel's observation run in
            ``occ_sorted``, first-touch order.
        occ_sorted: ``(M,)`` bool occupied flags, grouped by voxel
            (segment layout), original observation order within each
            segment — the exact per-voxel update sequences.
    """

    codes: np.ndarray
    keys: np.ndarray
    counts: np.ndarray
    seg_starts: np.ndarray
    occ_sorted: np.ndarray


def group_observations(
    keys: np.ndarray, occupied: np.ndarray
) -> GroupedObservations:
    """Group a ``(keys, occupied)`` stream by unique voxel.

    One stable sort by packed key code; each segment of equal codes
    holds that voxel's observations in original stream order, so folding
    a segment left-to-right replays the scalar per-voxel update sequence
    exactly.  Group order is first-touch order.
    """
    total = keys.shape[0]
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return GroupedObservations(
            codes=np.empty(0, dtype=np.uint64),
            keys=np.empty((0, 3), dtype=np.int64),
            counts=empty,
            seg_starts=empty,
            occ_sorted=np.empty(0, dtype=bool),
        )
    packed, order = _grouping_order(keys)
    sorted_packed = packed[order]
    boundary = np.empty(total, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_packed[1:], sorted_packed[:-1], out=boundary[1:])
    seg_starts = np.flatnonzero(boundary)
    counts = np.empty(seg_starts.shape[0], dtype=np.int64)
    np.subtract(seg_starts[1:], seg_starts[:-1], out=counts[:-1])
    counts[-1] = total - seg_starts[-1]
    # Stable sort ⇒ the first element of each segment carries the lowest
    # original index: the voxel's first touch.
    first_touch = order[seg_starts]
    perm = np.argsort(first_touch, kind="stable")
    unique_keys = keys[first_touch[perm]]
    return GroupedObservations(
        codes=keys_to_morton(unique_keys),
        keys=unique_keys,
        counts=counts[perm],
        seg_starts=seg_starts[perm],
        occ_sorted=occupied[order],
    )


def dedup_observations(
    keys: np.ndarray, occupied: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse a stream to unique voxels: occupied wins, first-touch order.

    Returns ``(keys, occupied)`` arrays of the deduplicated batch —
    exactly what :func:`repro.sensor.scaninsert.trace_scan_rt` emits for
    the same stream.
    """
    total = keys.shape[0]
    if total == 0:
        return keys[:0].reshape(0, 3), occupied[:0]
    packed, order = _grouping_order(keys)
    sorted_packed = packed[order]
    boundary = np.empty(total, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_packed[1:], sorted_packed[:-1], out=boundary[1:])
    seg_starts = np.flatnonzero(boundary)
    first_touch = order[seg_starts]
    seg_occupied = np.logical_or.reduceat(occupied[order], seg_starts)
    perm = np.argsort(first_touch, kind="stable")
    return keys[first_touch[perm]], seg_occupied[perm]
