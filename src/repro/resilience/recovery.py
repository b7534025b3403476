"""Crash recovery for sharded occupancy maps: snapshots + replay journal.

Each shard's durability story has two halves kept by one
:class:`CheckpointStore`:

- a **journal** of accepted observation batches, appended *before* the
  batch is applied — so a shard that dies mid-apply still knows exactly
  what it had accepted;
- periodic **snapshots**: the shard's authoritative tree (octree merged
  with the resident cache overlay) serialised with
  :func:`repro.octree.serialize.tree_to_bytes`, stamped with how many
  journal entries it covers.

Recovery is exact, not approximate.  :func:`restore_pipeline` loads the
latest snapshot into a fresh pipeline (empty cache, snapshot tree as the
authoritative octree) and replays every journal entry past the snapshot
point.  Because a replayed insert misses the empty cache and seeds from
the octree's accumulated value, the per-voxel update chain is identical
to the uninterrupted one — the rebuilt shard answers every query exactly
as it would have had the crash never happened, and a half-applied batch
is simply overwritten wholesale.
"""

from __future__ import annotations

import enum
import os
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.octree.serialize import tree_from_bytes, tree_to_bytes
from repro.octree.tree import OccupancyOctree
from repro.resilience.faults import FaultPlan
from repro.sensor.scaninsert import ScanBatch

__all__ = [
    "CheckpointStore",
    "ShardCheckpoint",
    "ShardHealth",
    "restore_pipeline",
]


class ShardHealth(str, enum.Enum):
    """Lifecycle of one shard as seen by the service.

    ``HEALTHY`` serves fresh answers; ``RECOVERING`` means a replacement
    worker is rebuilding the shard while the old map keeps serving
    (reads are flagged stale); ``DEAD`` means the shard exhausted its
    recovery budget and now discards its ingest traffic.
    """

    HEALTHY = "healthy"
    RECOVERING = "recovering"
    DEAD = "dead"


@dataclass(frozen=True)
class ShardCheckpoint:
    """One serialised shard snapshot.

    Attributes:
        blob: the shard's authoritative tree (octree + cache overlay) as
            produced by :func:`tree_to_bytes`.
        upto: journal entries the snapshot already contains — recovery
            replays entries ``upto:`` on top of it.
    """

    blob: bytes
    upto: int


class CheckpointStore:
    """Per-shard journals and snapshots (in memory, optionally on disk).

    Args:
        num_shards: shard count; shard ids index the store.
        directory: when set, each snapshot is also written to
            ``<directory>/shard-<id>.oct`` (the journal itself is kept in
            memory — it exists to survive *worker* crashes, the failure
            mode the service recovers from, not host crashes).
        fault_plan: evaluated at the ``snapshot.write`` site before a
            snapshot is stored, so chaos runs can exercise checkpoint
            failures (a failed snapshot is skipped; the journal keeps
            growing and recovery just replays more).
    """

    def __init__(
        self,
        num_shards: int,
        directory: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.directory = directory
        self.fault_plan = fault_plan or FaultPlan()
        self._locks = [threading.Lock() for _ in range(num_shards)]
        self._journals: List[List[ScanBatch]] = [
            [] for _ in range(num_shards)
        ]
        self._checkpoints: List[Optional[ShardCheckpoint]] = [
            None for _ in range(num_shards)
        ]
        #: Absolute index of each journal's first *retained* entry:
        #: :meth:`compact` drops snapshot-covered entries but journal
        #: positions (``upto``, append indices) stay absolute forever.
        self._bases: List[int] = [0 for _ in range(num_shards)]
        #: Observations across retained entries, maintained on append/
        #: compact — the O(1) counter behind :meth:`memory_breakdown`.
        self._journal_obs: List[int] = [0 for _ in range(num_shards)]
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    # Journal.
    # ------------------------------------------------------------------

    def append(self, shard_id: int, batch: ScanBatch) -> int:
        """Journal one accepted batch; returns its 0-based entry index.

        Called by the shard worker *before* applying the batch, so the
        journal always covers at least everything the map contains.  The
        entry is the batch itself, not a copy: batches are immutable.
        """
        with self._locks[shard_id]:
            journal = self._journals[shard_id]
            journal.append(batch)
            self._journal_obs[shard_id] += len(batch)
            return self._bases[shard_id] + len(journal) - 1

    def journal_length(self, shard_id: int) -> int:
        """Absolute journal length (compacted prefix included)."""
        with self._locks[shard_id]:
            return self._bases[shard_id] + len(self._journals[shard_id])

    def compact(self, shard_id: int) -> int:
        """Drop journal entries the latest snapshot already covers.

        Entries below ``checkpoint.upto`` can never be replayed again
        (recovery always starts from the newest snapshot), so dropping
        them returns their memory while keeping absolute journal
        positions intact via the shard's base offset.  Returns the
        number of entries dropped (0 when there is no snapshot or
        nothing to drop).
        """
        with self._locks[shard_id]:
            checkpoint = self._checkpoints[shard_id]
            if checkpoint is None:
                return 0
            drop = checkpoint.upto - self._bases[shard_id]
            if drop <= 0:
                return 0
            journal = self._journals[shard_id]
            dropped = journal[:drop]
            del journal[:drop]
            self._bases[shard_id] = checkpoint.upto
            self._journal_obs[shard_id] -= sum(
                len(entry) for entry in dropped
            )
            return len(dropped)

    # ------------------------------------------------------------------
    # Snapshots.
    # ------------------------------------------------------------------

    def write_snapshot(
        self, shard_id: int, tree: OccupancyOctree, upto: int
    ) -> ShardCheckpoint:
        """Store a snapshot covering the first ``upto`` journal entries.

        ``tree`` must be the shard's *authoritative* state at that
        journal position (octree merged with the cache overlay — see
        :meth:`ShardedMap.shard_snapshot_tree`).  Raises whatever the
        fault plan injects at ``snapshot.write``; the previous snapshot
        stays in place when that happens.
        """
        return self.write_snapshot_blob(shard_id, tree_to_bytes(tree), upto)

    def write_snapshot_blob(
        self, shard_id: int, blob: bytes, upto: int
    ) -> ShardCheckpoint:
        """Store an already-serialised snapshot (serialize-v2 bytes).

        The process-backed map exports shard snapshots in the worker
        process as bytes; storing them verbatim avoids a decode/encode
        round trip.  Same contract as :meth:`write_snapshot` otherwise
        (fault site, journal-position check, optional disk write).
        """
        self.fault_plan.check("snapshot.write", shard=shard_id)
        checkpoint = ShardCheckpoint(blob=blob, upto=upto)
        with self._locks[shard_id]:
            length = self._bases[shard_id] + len(self._journals[shard_id])
            if upto > length:
                raise ValueError(
                    f"snapshot claims {upto} journal entries but shard "
                    f"{shard_id} only journaled {length}"
                )
            self._checkpoints[shard_id] = checkpoint
        if self.directory is not None:
            path = os.path.join(self.directory, f"shard-{shard_id}.oct")
            with open(path, "wb") as handle:
                handle.write(checkpoint.blob)
        return checkpoint

    def checkpoint(self, shard_id: int) -> Optional[ShardCheckpoint]:
        with self._locks[shard_id]:
            return self._checkpoints[shard_id]

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------

    def recovery_state(
        self, shard_id: int
    ) -> Tuple[Optional[ShardCheckpoint], List[ScanBatch]]:
        """The latest snapshot plus the journal entries it doesn't cover."""
        with self._locks[shard_id]:
            checkpoint = self._checkpoints[shard_id]
            start = checkpoint.upto if checkpoint is not None else 0
            # ``start`` is absolute; compaction never outruns the newest
            # snapshot, so ``start - base`` is non-negative in practice
            # (clamped defensively anyway).
            offset = max(0, start - self._bases[shard_id])
            tail = self._journals[shard_id][offset:]
        return checkpoint, tail

    def stats(self, shard_id: int) -> dict:
        """JSON-able durability state for one shard."""
        with self._locks[shard_id]:
            checkpoint = self._checkpoints[shard_id]
            live = len(self._journals[shard_id])
            return {
                "journal_entries": self._bases[shard_id] + live,
                "journal_live_entries": live,
                "journal_base": self._bases[shard_id],
                "snapshot_upto": (
                    checkpoint.upto if checkpoint is not None else 0
                ),
                "snapshot_bytes": (
                    len(checkpoint.blob) if checkpoint is not None else 0
                ),
            }

    # ------------------------------------------------------------------
    # Memory accounting (repro.memsight).
    # ------------------------------------------------------------------

    def memory_breakdown(self, exact: bool = False):
        """Durability footprint: retained journal entries + snapshots.

        Journal bytes use the modeled :data:`OBS_BYTES` per retained
        observation (``exact=True`` recounts by walking the entries;
        the default reads the O(1) counters).  Snapshot bytes are exact
        blob lengths either way.
        """
        from repro.memsight.costs import OBS_BYTES
        from repro.memsight.report import MemoryReport

        shards = []
        for shard_id in range(len(self._journals)):
            with self._locks[shard_id]:
                if exact:
                    obs = sum(
                        len(entry) for entry in self._journals[shard_id]
                    )
                else:
                    obs = self._journal_obs[shard_id]
                checkpoint = self._checkpoints[shard_id]
                blob_bytes = (
                    len(checkpoint.blob) if checkpoint is not None else 0
                )
            shards.append(
                MemoryReport(
                    f"shard{shard_id}",
                    children=[
                        MemoryReport("journal", obs * OBS_BYTES, obs),
                        MemoryReport(
                            "snapshot",
                            blob_bytes,
                            1 if blob_bytes else 0,
                        ),
                    ],
                )
            )
        return MemoryReport("durability", children=shards)


def restore_pipeline(
    factory: Callable[[], "object"],
    checkpoint: Optional[ShardCheckpoint],
    batches: Sequence[ScanBatch],
):
    """Rebuild one shard pipeline from a snapshot plus journal replay.

    ``factory`` makes a fresh shard pipeline (an
    :class:`~repro.core.octocache.OctoCacheMap` configured like the
    crashed one).  The snapshot tree becomes the pipeline's backend
    octree — the cache starts empty, so the first replayed touch of any
    voxel misses and seeds from the snapshot's accumulated value, which
    is what makes the replayed update chain identical to the original.
    """
    pipeline = factory()
    if checkpoint is not None:
        tree = tree_from_bytes(checkpoint.blob)
        if (
            tree.depth != pipeline.depth
            or tree.resolution != pipeline.resolution
        ):
            raise ValueError(
                f"snapshot shape (res={tree.resolution}, depth={tree.depth}) "
                f"does not match the shard (res={pipeline.resolution}, "
                f"depth={pipeline.depth})"
            )
        pipeline._tree = tree
        pipeline.cache.backend = tree
    for batch in batches:
        pipeline.insert_batch(batch)
    return pipeline
