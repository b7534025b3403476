"""``ProcessShardedMap``: the process-backed drop-in for ``ShardedMap``.

Same spatial sharding, same Morton-prefix router, same public surface —
but each shard's :class:`~repro.core.octocache.OctoCacheMap` lives in a
child process (:mod:`repro.mp.worker`) behind a
:class:`~repro.mp.supervisor.ShardProcessSupervisor`, so shard compute
escapes the GIL.  The parent keeps everything that must stay
centralised: routing, the per-shard locks, fault injection, journal
bookkeeping, and telemetry.

The backpressure story is unchanged because it never lived here: queue
bounds, slot reservation, and two-phase ``must_accept`` all run in
:class:`~repro.service.server.OccupancyMapService`, *before* a batch
reaches the backend.  A dispatcher thread calling
:meth:`apply_to_shard` blocks in an IPC round trip with the GIL
released while the child computes — that blocking thread is exactly the
thread-backend shape the service already schedules around.

Recovery has two triggers with one mechanism (a ``RESTORE`` command
that rebuilds the child pipeline via
:func:`~repro.resilience.recovery.restore_pipeline`, the identical path
a crashed worker *thread* takes):

- **service-driven**: an apply raises
  :class:`~repro.mp.supervisor.ShardProcessDied` (an ``InjectedCrash``
  subclass), the service's existing crash handling calls
  :meth:`restore_shard` with its checkpoint + full journal tail;
- **backend-driven (lazy sibling restore)**: a process hosts several
  shards when ``num_procs < num_shards``, so one death empties sibling
  shards the service never saw fail.  The next operation touching such
  a shard notices the process generation changed and replays
  ``recovery_source(shard, tenant)`` — cut to the ``_applied`` prefix,
  because the journal is appended *before* apply and the entry that was
  in flight when the process died must not be double-applied when the
  service later restores it with the full tail.
"""

from __future__ import annotations

import threading
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import CacheConfig
from repro.memsight.report import MemoryReport
from repro.mp import codec
from repro.mp.supervisor import ShardProcessDied, ShardProcessSupervisor
from repro.octree.key import VoxelKey
from repro.octree.occupancy import OccupancyParams
from repro.octree.serialize import tree_from_bytes
from repro.resilience.recovery import ShardCheckpoint
from repro.sensor.scaninsert import ScanBatch
from repro.service.sharded_map import MapBackend
from repro.telemetry.tracer import current_span_info

__all__ = ["ProcessShardedMap"]


def _wire_parent() -> int:
    """The ambient span id to propagate as wire trace context (0 = none)."""
    info = current_span_info()
    return info[0] if info else 0


class ProcessShardedMap(MapBackend):
    """A spatially sharded map whose shard pipelines live in processes.

    The process transport of
    :class:`~repro.service.sharded_map.MapBackend`: each primitive is one
    framed command to the worker hosting the shard (:meth:`_exchange`),
    and the seams the base class declares inert act here —
    ``recovery_source`` feeds the lazy sibling restore, ``relay_tracer``
    receives relayed child telemetry (default: this object's own
    tracer), :meth:`kill_shard_process` is the chaos hook.

    Args mirror ``MapBackend``; the extras:
        num_procs: worker process count (default one per shard); shards
            are assigned round-robin.
        start_method: ``multiprocessing`` start method override.
    """

    def __init__(
        self,
        resolution: float,
        depth: int = 12,
        num_shards: int = 4,
        params: Optional[OccupancyParams] = None,
        max_range: float = float("inf"),
        cache_config: Optional[CacheConfig] = None,
        rt: bool = False,
        kernel: str = "scalar",
        num_procs: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        super().__init__(
            resolution, depth, num_shards, params, max_range, cache_config,
            rt, kernel,
        )
        self.supervisor = ShardProcessSupervisor(
            num_shards=num_shards,
            num_procs=num_procs,
            worker_config=self._worker_config(),
            start_method=start_method,
        )
        self.supervisor.start()
        self.supervisor.start_heartbeat(on_death=self._on_process_death)
        #: Journal entries confirmed applied per ``(shard, tenant)`` —
        #: the replay horizon for lazy sibling restore (see module
        #: docstring).  Tenant slot 0 is the default single-tenant map.
        self._applied: Dict[Tuple[int, int], int] = {}
        #: Process generation each ``(shard, tenant)`` pipeline's state
        #: was last installed into; a respawn bumps the generation, so
        #: the next touch of each slot notices and lazily restores it.
        self._restored_gen: Dict[Tuple[int, int], int] = {
            (shard, 0): self.supervisor.generation(shard)
            for shard in range(num_shards)
        }
        #: Last relayed byte rollup per ``(shard, tenant)`` slot: every
        #: apply/restore/drop reply piggybacks the worker-side
        #: :class:`~repro.memsight.report.MemoryReport` (as a dict), so
        #: scrape-time attribution costs no extra round trip.
        self._mem_slots: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self._mem_lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._closed = False

    def _worker_config(self) -> Dict[str, Any]:
        """The pipeline shape, JSON-able, for the workers' ``ShardSlots``."""
        config = dict(self._shape, params=asdict(self.params))
        if config["cache_config"] is not None:
            config["cache_config"] = asdict(config["cache_config"])
        return config

    @property
    def num_procs(self) -> int:
        return self.supervisor.num_procs

    # ------------------------------------------------------------------
    # Telemetry relay.
    # ------------------------------------------------------------------

    def _relay_target(self):
        return self.relay_tracer if self.relay_tracer is not None else self.tracer

    def _replay(self, events: Sequence[Dict[str, Any]]) -> None:
        """Replay a child's relayed spans/counters into the parent tracer."""
        if not events:
            return
        target = self._relay_target()
        for event in events:
            kind = event.get("k")
            if kind == "span":
                # Child ids are pid-disjoint (the worker reseeds its
                # allocator), so they install verbatim — parent links to
                # wire-propagated parent spans survive the relay.
                target.record_span(
                    event["n"],
                    event["c"],
                    event["s"],
                    event["d"],
                    thread_id=event.get("t"),
                    span_id=event.get("i"),
                    parent_id=event.get("p"),
                    **event.get("a", {}),
                )
            elif kind == "count":
                target.count(event["n"], event["v"], category=event["c"])
            elif kind == "mem":
                # Worker-side byte rollup for one (shard, tenant) slot;
                # ``r = None`` means the slot was dropped.
                slot = (int(event["sh"]), int(event["tn"]))
                report = event.get("r")
                with self._mem_lock:
                    if report is None:
                        self._mem_slots.pop(slot, None)
                    else:
                        self._mem_slots[slot] = report

    def _on_process_death(
        self, proc_index: int, shard_ids: List[int], generation: int
    ) -> None:
        # Telemetry only: recovery stays traffic-driven (exactly-once,
        # budgeted by the service), never heartbeat-driven.
        self._relay_target().count(
            "mp.process_deaths", 1, category="service"
        )

    # ------------------------------------------------------------------
    # Requests + readiness.
    # ------------------------------------------------------------------

    def _ensure_ready(
        self, shard_id: int, respawn: bool = True, tenant: int = 0
    ) -> None:
        """Make a shard's process hold one slot's state (lock held).

        With ``respawn`` a dead process is relaunched first; without it
        (the read paths), a dead process raises ``ShardProcessDied`` so
        callers degrade to "unknown" instead of resurrecting a process
        behind the service's recovery accounting.  Restores are lazy
        *per (shard, tenant) slot*: a respawn bumps the process
        generation, and each slot is rebuilt the next time traffic
        touches it.
        """
        if respawn:
            generation = self.supervisor.ensure_alive(shard_id)
        else:
            if not self.supervisor.alive(shard_id):
                raise ShardProcessDied(
                    f"worker process for shard {shard_id} is not running"
                )
            generation = self.supervisor.generation(shard_id)
        slot = (shard_id, tenant)
        if self._restored_gen.get(slot) == generation:
            return
        checkpoint, tail = self.recovery_source(shard_id, tenant)
        upto = checkpoint.upto if checkpoint is not None else 0
        # Replay only what this slot had *applied*: the journal gains
        # an entry before its apply, and an in-flight entry belongs to
        # the service's own restore (full tail), not the lazy one.
        applied = self._applied.get(slot, 0)
        replay = tail[: max(0, applied - upto)]
        if checkpoint is not None or replay or applied:
            self._install(shard_id, checkpoint, replay, tenant, generation)
        else:
            # A brand-new slot with nothing to install skips the round
            # trip: the worker creates the empty pipeline lazily.
            self._applied[slot] = 0
            self._restored_gen[slot] = generation

    def _install(
        self,
        shard_id: int,
        checkpoint: Optional[ShardCheckpoint],
        batches: Sequence[ScanBatch],
        tenant: int,
        generation: int,
    ) -> None:
        """One ``RESTORE`` command: the worker replaces the slot's whole
        pipeline with checkpoint + replayed batches (lock held)."""
        upto = checkpoint.upto if checkpoint is not None else 0
        blob = checkpoint.blob if checkpoint is not None else None
        reply = self.supervisor.request(
            shard_id,
            codec.MSG_RESTORE,
            codec.encode_restore(blob, upto, batches),
            parent_span=_wire_parent(),
            tenant=tenant,
        )
        _body, events = codec.decode_reply(reply.payload)
        self._replay(events)
        self._applied[(shard_id, tenant)] = upto + len(batches)
        self._restored_gen[(shard_id, tenant)] = generation

    def _exchange(
        self,
        shard_id: int,
        msg_type: int,
        payload: bytes = b"",
        tenant: int = 0,
        respawn: bool = True,
    ) -> bytes:
        """Ready-the-slot + one request under the shard lock (re-entrant);
        returns the reply body, relayed telemetry already replayed."""
        with self._locks[shard_id]:
            self._ensure_ready(shard_id, respawn=respawn, tenant=tenant)
            reply = self.supervisor.request(
                shard_id,
                msg_type,
                payload,
                parent_span=_wire_parent(),
                tenant=tenant,
            )
            body, events = codec.decode_reply(reply.payload)
            self._replay(events)
        return body

    def _read(
        self, shard_id: int, msg_type: int, payload: bytes = b"", tenant: int = 0
    ) -> Optional[bytes]:
        """A read-path :meth:`_exchange`: never respawns, and answers
        ``None`` for a dead process — so each caller degrades (unknown,
        nothing, cached) instead of raising."""
        try:
            return self._exchange(
                shard_id, msg_type, payload, tenant, respawn=False
            )
        except ShardProcessDied:
            return None

    # ------------------------------------------------------------------
    # Update path.
    # ------------------------------------------------------------------

    def apply_to_shard(
        self, shard_id: int, batch: ScanBatch, tenant: int = 0
    ) -> float:
        """Ship one shard's slice to its process; returns busy seconds.

        The IPC round trip blocks with the GIL released while the child
        runs the cache-insert → evict → octree-update cycle — this is
        where multi-core speedup comes from.  Raises
        :class:`ShardProcessDied` into the service's existing
        ``InjectedCrash`` recovery path when the process is gone.
        """
        if self.fault_plan.check("octree.update", shard=shard_id) == "drop":
            return 0.0
        with self.tracer.span(
            "shard.ingest",
            category="service",
            shard=shard_id,
            observations=len(batch),
        ) as span:
            with self._locks[shard_id]:
                self._ensure_ready(shard_id, tenant=tenant)
                reply = self.supervisor.request(
                    shard_id,
                    codec.MSG_APPLY,
                    codec.encode_observations(batch),
                    parent_span=span.span_id,
                    tenant=tenant,
                )
                slot = (shard_id, tenant)
                self._applied[slot] = self._applied.get(slot, 0) + 1
                body, events = codec.decode_reply(reply.payload)
        self._replay(events)
        return codec.decode_busy_seconds(body)

    def _finalize_shard(self, shard_id: int) -> None:
        # Best effort: a dead process holds nothing to flush.
        self._read(shard_id, codec.MSG_FINALIZE)

    def close(self) -> None:
        """Finalize live shards, then shut every worker process down.

        Idempotent and teardown-safe (the service's atexit path may call
        it while the interpreter is dismantling itself).
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self.finalize()
        except Exception:
            pass
        self.supervisor.close()

    # ------------------------------------------------------------------
    # Crash / recovery hooks (the service's seam).
    # ------------------------------------------------------------------

    def kill_shard_process(self, shard_id: int) -> bool:
        """SIGKILL the process hosting a shard (chaos hook)."""
        return self.supervisor.kill(shard_id)

    def restore_shard(
        self,
        shard_id: int,
        checkpoint: Optional[ShardCheckpoint],
        tail: Sequence[ScanBatch],
        tenant: int = 0,
    ) -> None:
        """Service-driven exact restore: one ``RESTORE`` command.

        Unlike the lazy sibling restore, the tail here includes the
        entry that was in flight when the process died — the child
        replaces the whole pipeline, so that is safe to repeat.
        """
        with self._locks[shard_id]:
            generation = self.supervisor.ensure_alive(shard_id)
            self._install(shard_id, checkpoint, tail, tenant, generation)

    def _drop_slot(self, shard_id: int, tenant: int) -> None:
        # A dead process is skipped — it holds no state to free — and
        # the slot bookkeeping is cleared either way so a later
        # re-create starts from a blank horizon.
        self._read(shard_id, codec.MSG_DROP_TENANT, tenant=tenant)
        slot = (shard_id, tenant)
        self._applied.pop(slot, None)
        self._restored_gen.pop(slot, None)
        # Live workers relay the removal themselves; dead ones can't,
        # so drop the cached attribution explicitly.
        with self._mem_lock:
            self._mem_slots.pop(slot, None)

    # ------------------------------------------------------------------
    # Query path: a dead shard degrades to "unknown" / "nothing".
    # ------------------------------------------------------------------

    def query_keys_in_shard(
        self, shard_id: int, keys: Sequence[VoxelKey], tenant: int = 0
    ) -> List[Optional[float]]:
        """One ``QUERY_MANY`` round trip; a dead shard is all unknown."""
        body = self._read(
            shard_id, codec.MSG_QUERY_MANY, codec.encode_keys(keys), tenant
        )
        if body is None:
            return [None] * len(keys)
        return codec.decode_values(body)

    def _box_in_shard(
        self, shard_id: int, min_key: VoxelKey, max_key: VoxelKey
    ) -> List[VoxelKey]:
        body = self._read(
            shard_id, codec.MSG_BOX_QUERY, codec.encode_keys([min_key, max_key])
        )
        return [] if body is None else codec.decode_keys(body)

    # ------------------------------------------------------------------
    # Snapshot export and introspection.
    # ------------------------------------------------------------------

    def shard_snapshot_blob(self, shard_id: int, tenant: int = 0) -> bytes:
        """The child exports the blob (octree merged with its cache
        overlay): no decode/encode round trip in the parent."""
        return self._exchange(shard_id, codec.MSG_SNAPSHOT, tenant=tenant)

    def _shard_leaves(self, shard_id: int, tenant: int):
        blob = self.shard_snapshot_blob(shard_id, tenant)
        return tree_from_bytes(blob).finest_leaf_arrays()

    def shard_stats(self, shard_id: int) -> Dict[str, Any]:
        """The default slot's stats, fetched from its process."""
        return codec.decode_json(self._exchange(shard_id, codec.MSG_STATS))

    def _slot_memory(
        self, shard_id: int, exact: bool = False, deep: bool = False
    ) -> Dict[int, MemoryReport]:
        """From the rollups the worker relayed with its last reply —
        zero IPC, current as of the last applied batch.  ``exact`` (or
        ``deep``) asks the live process to recount by walking its
        storage (one ``MEM`` round trip); a dead process falls back to
        its cached rollups."""
        with self._mem_lock:
            slots: Dict[Any, Dict[str, Any]] = {
                tenant: report
                for (sid, tenant), report in self._mem_slots.items()
                if sid == shard_id
            }
        # No rollup relayed yet (nothing applied to this shard) also
        # costs one round trip, so incremental and exact reports agree
        # on untouched shards too; it seeds the cache.
        if exact or deep or 0 not in slots:
            body = self._read(
                shard_id,
                codec.MSG_MEM,
                codec.encode_json({"exact": exact, "deep": deep}),
            )
            if body is not None:
                slots = codec.decode_json(body)["slots"]
                if not (exact or deep):
                    with self._mem_lock:
                        for tenant, report in slots.items():
                            slot = (shard_id, int(tenant))
                            self._mem_slots.setdefault(slot, report)
        return {
            int(tenant): MemoryReport.from_dict(report)
            for tenant, report in slots.items()
        }
