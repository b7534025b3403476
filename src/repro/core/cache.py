"""The OctoCache voxel cache (paper §4.2–4.3).

A flattened, table-based cache placed in front of the octree.  It holds
*accumulated* occupancy values — a cache cell is authoritative for its voxel
while resident — so queries can be answered from the cache alone on a hit
and from the octree on a miss, reproducing vanilla OctoMap's results
exactly (the paper's query-consistency property).

Structure: ``w`` buckets of cells ``(voxel key, accumulated log-odds)``.
A voxel maps to bucket ``index(v) % w``, where ``index`` is either a
generic hash (strawman, §4.2) or the Morton code of the voxel's
coordinates (§4.3).  Eviction scans buckets sequentially and drops the
earliest-inserted cells of any bucket holding more than ``τ`` cells; with
Morton indexing the evicted batch therefore comes out (locally) in Morton
order — the insertion order the paper proves optimal for the octree.

Storage is columnar: the resident cells occupy slots ``[0, n)`` of a few
parallel numpy arrays (Morton code, key, value, insertion sequence
number, bucket), a per-bucket count says which buckets are over-full, and
one ``code → slot`` dict serves residency probes.  A bucket's cells are
the slots carrying its number, oldest first by sequence number; evicted
cells leave as one :class:`LeafBatch` of arrays, the form
:meth:`~repro.octree.tree.OccupancyOctree.set_leaves_bulk` takes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.config import CacheConfig
from repro.core.morton import MAX_COORD_BITS, morton_encode3
from repro.octree.key import VoxelKey, validate_key
from repro.octree.occupancy import OccupancyParams
from repro.octree.tree import OccupancyOctree

__all__ = ["VoxelCache", "CacheStats", "LeafBatch", "aggregate_cache_stats"]

_INITIAL_CAPACITY = 256
#: Cells per streamed eviction chunk (whole buckets, so at least this
#: many): enough to amortise a bulk octree write, few enough that the
#: octree updater starts while the rest of the batch is still queued.
_STREAM_CHUNK_CELLS = 512


def aggregate_cache_stats(stats_dicts: "Iterable[dict]") -> "dict[str, float]":
    """Fold several ``VoxelCache.stats_dict()`` snapshots into one.

    Counters add; the ratios are recomputed from the summed counters (a
    mean of per-shard hit ratios would weight an idle shard equally with
    a loaded one).  Used by the service layer to report a fleet-wide
    Fig-23 hit ratio next to the per-shard ones.
    """
    totals: "dict[str, float]" = {
        "hits": 0,
        "misses": 0,
        "insertions": 0,
        "evictions": 0,
        "octree_fills": 0,
        "query_hits": 0,
        "query_misses": 0,
        "resident_voxels": 0,
    }
    for stats in stats_dicts:
        for key in totals:
            totals[key] += stats.get(key, 0)
    totals["hit_ratio"] = (
        totals["hits"] / totals["insertions"] if totals["insertions"] else 0.0
    )
    return totals

class LeafBatch:
    """Voxels on their way to the octree: ``keys`` ``(N, 3)`` int64 with
    distinct rows and ``values`` ``(N,)`` float64 accumulated log-odds.

    ``len()`` counts voxels; iterating yields ``(key, value)`` pairs for
    the consumers that go key by key.
    """

    __slots__ = ("keys", "values")

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        self.keys = keys
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Tuple[VoxelKey, float]]:
        return zip(map(tuple, self.keys.tolist()), self.values.tolist())


@dataclass
class CacheStats:
    """Counters accumulated over the cache's lifetime.

    ``hits``/``misses`` count insert-path lookups (the paper's cache hit
    ratio, §6.2.3).  ``query_hits``/``query_misses`` count the read path.
    ``octree_fills`` counts misses whose voxel existed in the octree and
    was pulled into the cache.
    """

    hits: int = 0
    misses: int = 0
    octree_fills: int = 0
    evicted: int = 0
    query_hits: int = 0
    query_misses: int = 0

    @property
    def insertions(self) -> int:
        """Total insert-path lookups."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Insert-path hit ratio; 0.0 when nothing was inserted."""
        total = self.insertions
        return self.hits / total if total else 0.0


class VoxelCache:
    """Bucketed voxel cache with accumulated-occupancy cells.

    Args:
        config: cache shape and indexing policy.
        params: occupancy-update parameters (shared with the backend tree).
        backend: the octree consulted on a miss to seed the accumulated
            value (and to serve read misses).  May be ``None`` for a
            standalone cache, in which case misses start from the
            occupancy threshold.
    """

    def __init__(
        self,
        config: CacheConfig,
        params: Optional[OccupancyParams] = None,
        backend: Optional[OccupancyOctree] = None,
    ) -> None:
        self.config = config
        self.params = params or (backend.params if backend else OccupancyParams())
        self.backend = backend
        self.stats = CacheStats()
        self._mask = config.num_buckets - 1
        #: Morton code → slot of every resident cell.
        self._index: Dict[int, int] = {}
        #: Cells per bucket; a bucket may exceed τ until the next eviction.
        self._count = np.zeros(config.num_buckets, dtype=np.int64)
        #: Resident cells: they occupy slots ``[0, _size)``.
        self._size = 0
        self._next_seq = 0
        self._reserve(_INITIAL_CAPACITY)
        # Keys are validated at the insert/query boundary against the
        # backend map's bounds (or the encoder's limit for a standalone
        # cache) so out-of-range keys fail with the key and bounds named
        # rather than a bare encoder error from ``bucket_index``.
        self._key_depth = backend.depth if backend is not None else MAX_COORD_BITS
        self._key_limit = 1 << self._key_depth

    def _reserve(self, capacity: int) -> None:
        """(Re)allocate the slot arrays and re-take their memoryviews."""
        size = self._size
        columns = (
            np.empty(capacity, dtype=np.uint64),  # Morton code
            np.empty((capacity, 3), dtype=np.int64),  # key
            np.empty(capacity, dtype=np.float64),  # accumulated log-odds
            np.empty(capacity, dtype=np.int64),  # insertion sequence number
            np.empty(capacity, dtype=np.intp),  # bucket
        )
        if size:
            for column, old in zip(columns, self._columns):
                column[:size] = old[:size]
        self._columns = columns
        self._codes, self._keys, self._values, self._seq, self._bucket = columns
        self._take_views()

    def _take_views(self) -> None:
        """The scalar paths' ``memoryview``s, after an array was replaced."""
        self._mv_values = memoryview(self._values)
        #: What a scalar miss writes: each column, flat, and the counts.
        self._mv_cell = tuple(
            memoryview(array.reshape(-1)) for array in self._columns + (self._count,)
        )

    # ------------------------------------------------------------------
    # Indexing.
    # ------------------------------------------------------------------

    def bucket_index(self, key: VoxelKey) -> int:
        """Bucket slot for ``key``: ``M(v) & (w-1)`` or ``hash(v) & (w-1)``."""
        if self.config.use_morton_indexing:
            return morton_encode3(*key) & self._mask
        return hash(key) & self._mask

    def _buckets_of(self, codes: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """:meth:`bucket_index` of many cells at once."""
        if self.config.use_morton_indexing:
            return (codes & np.uint64(self._mask)).astype(np.intp)
        hashes = map(hash, map(tuple, keys.tolist()))
        return np.fromiter(hashes, dtype=np.int64, count=len(keys)) & self._mask

    # ------------------------------------------------------------------
    # Insert path (paper §4.2.1).
    # ------------------------------------------------------------------

    def insert(self, key: VoxelKey, occupied: bool) -> float:
        """Record one occupied/free observation for the voxel at ``key``.

        On a hit the resident cell's accumulated value receives the clamped
        log-odds update.  On a miss the starting value is fetched from the
        backend octree if the voxel exists there, else the occupancy
        threshold; the updated cell is appended to the bucket (buckets may
        exceed τ until the next eviction).  Returns the voxel's new
        accumulated log-odds value.
        """
        limit = self._key_limit
        if not (0 <= key[0] < limit and 0 <= key[1] < limit and 0 <= key[2] < limit):
            validate_key(key, self._key_depth)
        code = morton_encode3(key[0], key[1], key[2])
        slot = self._index.get(code)
        if slot is not None:
            values = self._mv_values
            new_value = values[slot] = self.params.update(values[slot], occupied)
            self.stats.hits += 1
            return new_value
        self.stats.misses += 1
        base = None
        if self.backend is not None:
            base = self.backend.search(key)
        if base is None:
            base = self.params.threshold
        else:
            self.stats.octree_fills += 1
        new_value = self.params.update(base, occupied)
        slot = self._size
        if slot == len(self._values):
            self._reserve(2 * slot)
        if self.config.use_morton_indexing:
            bucket = code & self._mask
        else:
            bucket = hash(key) & self._mask
        codes, keys, values, seqs, buckets, counts = self._mv_cell
        codes[slot] = code
        keys[3 * slot], keys[3 * slot + 1], keys[3 * slot + 2] = key
        values[slot] = new_value
        seqs[slot] = self._next_seq
        buckets[slot] = bucket
        counts[bucket] += 1
        self._index[code] = slot
        self._next_seq += 1
        self._size = slot + 1
        return new_value

    def insert_batch(self, items: Iterable[Tuple[VoxelKey, bool]]) -> None:
        """Insert a sequence of ``(key, occupied)`` observations."""
        insert = self.insert
        for key, occupied in items:
            insert(key, occupied)

    def update_batch_bulk(self, keys: np.ndarray, occupied: np.ndarray) -> None:
        """Apply a whole observation batch in grouped array passes.

        ``keys`` is ``(M, 3)`` int64 and ``occupied`` ``(M,)`` bool — the
        array form of the stream :meth:`insert_batch` consumes one tuple
        at a time.  The batch is grouped by unique voxel
        (:func:`repro.kernels.dedup.group_observations`), residency is
        probed once per *voxel* with one C-speed pass over the index,
        miss bases come from one level-wise octree sweep
        (:meth:`~repro.octree.tree.OccupancyOctree.search_batch`), the
        per-voxel observation runs are folded with
        :func:`repro.kernels.logodds.fold_logodds`, and the misses are
        appended as one slice.

        Bit-exact with the scalar loop: same bases, the same clamped
        update sequence per voxel, new cells appended in first-touch
        order (= the scalar append order), and identical
        hit/miss/octree-fill counters.
        """
        from repro.kernels.dedup import group_observations
        from repro.kernels.logodds import fold_logodds

        total = int(keys.shape[0])
        if total == 0:
            return
        limit = self._key_limit
        bad = (keys < 0) | (keys >= limit)
        if bad.any():
            index = int(np.argmax(bad.any(axis=1)))
            validate_key(tuple(keys[index].tolist()), self._key_depth)
        groups = group_observations(keys, occupied)
        codes = groups.codes
        slots = np.fromiter(
            map(self._index.get, codes.tolist(), repeat(-1)),
            dtype=np.intp,
            count=len(codes),
        )
        hit = slots >= 0
        hit_slots = slots[hit]
        misses = np.flatnonzero(~hit)
        bases = np.empty(len(codes), dtype=np.float64)
        bases[hit] = self._values[hit_slots]
        bases[misses] = self.params.threshold
        octree_fills = 0
        if misses.size and self.backend is not None:
            known, found = self.backend.search_batch(groups.keys[misses])
            bases[misses[found]] = known[found]
            octree_fills = int(found.sum())

        finals = fold_logodds(
            bases, groups.occ_sorted, groups.seg_starts, groups.counts, self.params
        )
        self._values[hit_slots] = finals[hit]
        if misses.size:
            self._append(codes[misses], groups.keys[misses], finals[misses])
        stats = self.stats
        stats.misses += misses.size
        stats.hits += total - misses.size
        stats.octree_fills += octree_fills

    def _append(self, codes: np.ndarray, keys: np.ndarray, values: np.ndarray) -> None:
        """New cells, in insertion order, into the slots after the last."""
        start, stop = self._size, self._size + len(codes)
        if stop > len(self._values):
            self._reserve(max(2 * len(self._values), stop))
        buckets = self._buckets_of(codes, keys)
        self._codes[start:stop] = codes
        self._keys[start:stop] = keys
        self._values[start:stop] = values
        self._seq[start:stop] = np.arange(self._next_seq, self._next_seq + len(codes))
        self._bucket[start:stop] = buckets
        self._count += np.bincount(buckets, minlength=len(self._count))
        self._index.update(zip(codes.tolist(), range(start, stop)))
        self._next_seq += len(codes)
        self._size = stop

    # ------------------------------------------------------------------
    # Read path.
    # ------------------------------------------------------------------

    def lookup(self, key: VoxelKey) -> Optional[float]:
        """Accumulated log-odds for ``key`` from the cache alone.

        Returns ``None`` on a cache miss *without* consulting the backend
        (use :meth:`query` for the consistent two-level read).
        """
        limit = self._key_limit
        if not (0 <= key[0] < limit and 0 <= key[1] < limit and 0 <= key[2] < limit):
            validate_key(key, self._key_depth)
        slot = self._index.get(morton_encode3(key[0], key[1], key[2]))
        if slot is not None:
            return self._mv_values[slot]
        return None

    def query(self, key: VoxelKey) -> Optional[float]:
        """Consistent occupancy read: cache on hit, octree on miss.

        Matches vanilla OctoMap's answer for every voxel (the cache cell
        holds the fully accumulated value; evicted voxels overwrite the
        octree), which is the paper's query-consistency guarantee.
        """
        limit = self._key_limit
        if not (0 <= key[0] < limit and 0 <= key[1] < limit and 0 <= key[2] < limit):
            validate_key(key, self._key_depth)
        code = morton_encode3(key[0], key[1], key[2])
        slot = self._index.get(code)
        if slot is not None:
            self.stats.query_hits += 1
            return self._mv_values[slot]
        self.stats.query_misses += 1
        if self.backend is not None:
            # Checked above against the backend's own bound, and the code
            # that missed the index is the path the octree walks.
            return self.backend._walk(code, 0)
        return None

    def is_occupied(self, key: VoxelKey) -> Optional[bool]:
        """Occupancy decision for ``key``; ``None`` when unknown."""
        value = self.query(key)
        if value is None:
            return None
        return self.params.is_occupied(value)

    # ------------------------------------------------------------------
    # Eviction (paper §4.2.2).
    # ------------------------------------------------------------------

    def _bucket_order(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``slots`` in bucket order, oldest first within a bucket, and
        the bucket of each."""
        buckets = self._bucket[slots]
        order = np.lexsort((self._seq[slots], buckets))
        return slots[order], buckets[order]

    def _overflow(self) -> Tuple[np.ndarray, np.ndarray]:
        """The cells an eviction drops — every over-full bucket's earliest
        ``count - τ`` — as ``(slots, buckets)`` in eviction order."""
        tau = self.config.bucket_threshold
        empty = np.empty(0, dtype=np.intp)
        if not (self._count > tau).any():
            return empty, empty
        crowded = np.flatnonzero(self._count[self._bucket[: self._size]] > tau)
        slots, buckets = self._bucket_order(crowded)
        # Rank of each cell inside its bucket's run.
        first = np.flatnonzero(np.r_[True, buckets[1:] != buckets[:-1]])
        run = np.diff(np.r_[first, buckets.size])
        rank = np.arange(buckets.size) - np.repeat(first, run)
        drop = rank < np.repeat(run - tau, run)
        return slots[drop], buckets[drop]

    def _pop(self, slots: np.ndarray) -> LeafBatch:
        """Remove the cells in ``slots``; the last residents move into
        the holes so the rest stay in ``[0, _size)``."""
        batch = LeafBatch(self._keys[slots], self._values[slots])
        if not slots.size:
            return batch
        index = self._index
        deque(map(index.__delitem__, self._codes[slots].tolist()), maxlen=0)
        self._count -= np.bincount(self._bucket[slots], minlength=len(self._count))
        size = self._size - slots.size
        dead = np.zeros(self._size, dtype=bool)
        dead[slots] = True
        holes = np.flatnonzero(dead[:size])
        movers = size + np.flatnonzero(~dead[size:])
        for column in self._columns:
            column[holes] = column[movers]
        index.update(zip(self._codes[holes].tolist(), holes.tolist()))
        self._size = size
        self.stats.evicted += slots.size
        return batch

    def evict(self) -> LeafBatch:
        """Trim every bucket to τ cells; return the evicted batch.

        Buckets are scanned in index order and each over-full bucket drops
        its *earliest inserted* cells.  With Morton indexing the batch is
        emitted in bucket order = ``Morton % w`` order, the paper's
        cache-enabled approximation of the globally optimal Morton
        sequence (exact whenever resident codes span less than ``w``).
        """
        return self._pop(self._overflow()[0])

    def iter_evict(self) -> Iterator[LeafBatch]:
        """Streaming variant of :meth:`evict`: the same cells in the same
        order, in chunks of whole buckets.

        The parallel pipeline pushes each yielded chunk straight into the
        shared buffer, so thread 2's octree update overlaps the rest of
        the hand-over — the readerwriterqueue behaviour of §4.4.  A chunk
        leaves the cache only when it is yielded: abandoning the
        generator mid-stream keeps the remaining cells resident.
        """
        slots, buckets = self._overflow()
        codes = self._codes[slots]
        # Cut where a bucket starts, at the first start past each multiple
        # of the chunk size.
        starts = np.flatnonzero(np.r_[True, buckets[1:] != buckets[:-1]])
        targets = np.arange(_STREAM_CHUNK_CELLS, len(codes), _STREAM_CHUNK_CELLS)
        cuts = np.searchsorted(starts, targets)
        bounds = np.unique(np.r_[0, starts[cuts[cuts < starts.size]], len(codes)])
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            # Earlier chunks moved cells: find this chunk's by code.
            chunk = map(self._index.__getitem__, codes[start:stop].tolist())
            yield self._pop(np.fromiter(chunk, dtype=np.intp, count=stop - start))

    def cells(self) -> LeafBatch:
        """Every resident cell in bucket order, oldest first in a bucket.

        A read-only snapshot: a resident cell is authoritative for its
        voxel, so overlaying these cells on the backend octree reproduces
        the map's current answers without flushing (the global-snapshot
        export of the sharded service).
        """
        slots, _buckets = self._bucket_order(np.arange(self._size))
        return LeafBatch(self._keys[slots], self._values[slots])

    def flush(self) -> LeafBatch:
        """Evict *everything* (end of mapping session / final octree sync)."""
        batch = self.cells()
        self._index.clear()
        self._count[:] = 0
        self._size = 0
        self.stats.evicted += len(batch)
        return batch

    def rebucket(self, num_buckets: int) -> None:
        """Re-hash every resident cell into ``num_buckets`` buckets.

        Cells keep their insertion sequence numbers, so each new bucket
        still evicts its oldest cells first.  Lifetime counters carry on.
        """
        self.config = replace(self.config, num_buckets=num_buckets)
        self._mask = num_buckets - 1
        size = self._size
        self._bucket[:size] = self._buckets_of(self._codes[:size], self._keys[:size])
        self._count = np.bincount(self._bucket[:size], minlength=num_buckets)
        self._take_views()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def resident_voxels(self) -> int:
        """Number of cells currently held across all buckets."""
        return self._size

    #: Cumulative lifetime counters, exposed directly so callers (the
    #: telemetry layer, service dashboards) never reach through ``stats``.

    @property
    def hits(self) -> int:
        """Cumulative insert-path cache hits."""
        return self.stats.hits

    @property
    def misses(self) -> int:
        """Cumulative insert-path cache misses."""
        return self.stats.misses

    @property
    def evictions(self) -> int:
        """Cumulative evicted cells (``evict``/``iter_evict``/``flush``)."""
        return self.stats.evicted

    def stats_dict(self) -> "dict[str, float]":
        """One JSON-able snapshot of every lifetime counter.

        Covers both paths — insert (``hits``/``misses``/``hit_ratio``,
        the paper's Fig. 23 metric) and read (``query_hits``/
        ``query_misses``) — plus eviction and residency, so a single call
        feeds a metrics report without poking at :class:`CacheStats`.
        """
        stats = self.stats
        return {
            "hits": stats.hits,
            "misses": stats.misses,
            "insertions": stats.insertions,
            "hit_ratio": stats.hit_ratio,
            "evictions": stats.evicted,
            "octree_fills": stats.octree_fills,
            "query_hits": stats.query_hits,
            "query_misses": stats.query_misses,
            "resident_voxels": self._size,
        }

    def iter_cells(self) -> Iterator[Tuple[VoxelKey, float]]:
        """Yield every resident ``(key, accumulated value)`` in bucket
        order (:meth:`cells`, one pair at a time)."""
        return iter(self.cells())

    def memory_bytes(self) -> int:
        """Current footprint using the paper's 7-bytes-per-cell accounting."""
        from repro.core.config import CELL_BYTES

        return self._size * CELL_BYTES

    def recount_resident(self) -> int:
        """Resident cells recounted from the per-bucket counts (exact path).

        Must always equal :attr:`resident_voxels` (the slot counter, kept
        separately) — the memsight drift gate checks exactly that.
        """
        return int(self._count.sum())

    def memory_breakdown(self, exact: bool = False):
        """Hierarchical footprint: resident cells + index + bucket array.

        With ``exact=True`` the resident count comes from the per-bucket
        counts instead of the slot counter; the two reports must agree
        byte-for-byte (``MemoryReport.drift_bytes``).
        """
        from repro.core.config import CELL_BYTES
        from repro.memsight.costs import BUCKET_SLOT_BYTES, INDEX_ENTRY_BYTES
        from repro.memsight.report import MemoryReport

        resident = self.recount_resident() if exact else self._size
        index_entries = len(self._index)
        num_buckets = self.config.num_buckets
        return MemoryReport(
            "cache",
            children=[
                MemoryReport(
                    "resident_cells", resident * CELL_BYTES, resident
                ),
                MemoryReport(
                    "morton_index",
                    index_entries * INDEX_ENTRY_BYTES,
                    index_entries,
                ),
                MemoryReport(
                    "buckets", num_buckets * BUCKET_SLOT_BYTES, num_buckets
                ),
            ],
        )

    def bucket_sizes(self) -> List[int]:
        """Cell count per bucket (for occupancy/collision diagnostics)."""
        return self._count.tolist()

    def collision_histogram(self) -> "dict[int, int]":
        """Histogram of bucket occupancies: size → number of buckets.

        The paper's τ discussion (§6.2.4) rests on most buckets holding
        ≤4 cells when the cache is sized 3–4× the batch; this is the
        direct measurement of that claim.
        """
        sizes, buckets = np.unique(self._count, return_counts=True)
        return dict(zip(sizes.tolist(), buckets.tolist()))

    def occupancy_quantiles(self) -> Tuple[float, float, float]:
        """(median, p90, max) of nonzero bucket occupancies (0s excluded).

        Both quantiles use the nearest-rank definition: the p-th quantile
        of ``n`` sorted values is the value at 1-based rank ``ceil(p*n)``
        — so the p90 of 10 values is the 9th, not the maximum, and the
        median of an even-length list is the lower middle.
        """
        sizes = np.sort(self._count[self._count > 0]).tolist()
        if not sizes:
            return (0.0, 0.0, 0.0)

        def nearest_rank(fraction: float) -> float:
            rank = math.ceil(fraction * len(sizes))
            return float(sizes[max(rank, 1) - 1])

        return (nearest_rank(0.5), nearest_rank(0.9), float(sizes[-1]))

    def __contains__(self, key: VoxelKey) -> bool:
        return self.lookup(key) is not None

    def __len__(self) -> int:
        return self._size
