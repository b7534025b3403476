"""``TenantRegistry``: many occupancy maps on one shared shard pool.

A fleet operator runs *one* OctoCache service and hosts every robot's
map in it.  The registry multiplexes tenants onto the service's existing
shards rather than dedicating shards per tenant:

- **Placement** — each tenant routes with its own salted
  :class:`~repro.service.sharding.ShardRouter`
  (``salt = tenant_salt(name)``), so ``(tenant, voxel)`` is
  consistent-hashed onto the shared pool and identically shaped maps
  from different robots do not pile their hot blocks onto the same
  shards.  On a shard, each tenant owns a private ``(shard, tenant)``
  pipeline slot (see :meth:`ShardedMap.apply_to_shard` /
  :meth:`ProcessShardedMap.apply_to_shard`), so tenants never share
  voxel state.
- **Fairness** — the registry runs no threads.  A tenant *is* an
  :class:`~repro.service.server.IngestLane` on the service's one ingest
  plane: each shard worker serves the lanes with queued slices
  round-robin, one lane per turn, so a tenant replaying a log at memory
  speed gets the same turns as one trickling live scans.
- **Quotas** — submissions pass a per-tenant token bucket (scans/s) and
  an all-or-nothing queue-slot check (one slot per target shard slice);
  a rejected submission leaves the tenant's map byte-identical.
- **Lifecycle** — the shard workers journal each accepted slice into the
  tenant's own :class:`~repro.resilience.recovery.CheckpointStore`
  *before* applying it, and retry, checkpoint and crash-rebuild it as
  they do the default map.  ``persist`` checkpoints each shard slice,
  ``evict`` persists then frees the tenant's memory, ``restore`` rebuilds
  the map bit-exactly from snapshot + journal-tail replay — all through
  the service's own checkpoint and restore routines.
- **Streaming** — subscribers get leaf deltas since their cursor
  (:mod:`repro.tenancy.changelog`); capture costs one keyed read per
  written voxel and is skipped while a tenant has no subscribers.

Per-tenant counters land in the service's own
:class:`~repro.service.metrics.MetricsRegistry` under
``tenant.<what>.<name>`` (the per-shard ``queue_depth.shard<i>``
convention, extended to tenants), so ``/metrics`` exports them with no
exposition changes; ``/tenants`` (:mod:`repro.obs.admin`) serves
:meth:`TenantRegistry.tenants_dict`.
"""

from __future__ import annotations

import enum
import hashlib
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.kernels.dedup import dedup_observations
from repro.memsight.report import MemoryReport
from repro.octree.key import VoxelKey
from repro.octree.tree import OccupancyOctree
from repro.resilience.faults import InjectedCrash
from repro.resilience.recovery import CheckpointStore
from repro.sensor.scaninsert import Observation, ScanBatch
from repro.service.server import IngestLane, IngestReceipt
from repro.service.sharding import ShardRouter
from repro.tenancy.changelog import ChangeLog, Subscription
from repro.tenancy.quota import TenantQuota

__all__ = [
    "Tenant",
    "TenantQuotaExceeded",
    "TenantReceipt",
    "TenantRegistry",
    "TenantState",
    "tenant_salt",
]


def tenant_salt(name: str) -> int:
    """A stable 64-bit routing salt for one tenant id.

    blake2b keyed by nothing and truncated to 8 bytes: stable across
    processes and Python versions (unlike ``hash()``), so an evicted
    tenant restored on a fresh service lands its voxels on the same
    shards it journaled them for.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class TenantState(str, enum.Enum):
    """Lifecycle of one tenant.

    ``ACTIVE`` accepts scans and answers queries; ``EVICTED`` holds only
    the durable snapshot + journal (no shard memory) until
    :meth:`TenantRegistry.restore` rebuilds it bit-exactly.
    """

    ACTIVE = "active"
    EVICTED = "evicted"


class TenantQuotaExceeded(RuntimeError):
    """A ``must_accept`` submission was rejected by the tenant's quota.

    All-or-nothing: when this raises, nothing was enqueued and the
    tenant's map is untouched.
    """


@dataclass(frozen=True)
class TenantReceipt(IngestReceipt):
    """What happened to one tenant-scoped submission.

    ``reason`` is empty on acceptance, else ``"rate"`` (token bucket),
    ``"slots"`` (queue-slot quota) or ``"shard"`` (a target shard is dead
    or dropped the slice at the ``queue.enqueue`` fault site) — the axis
    that rejected it.
    """

    reason: str = ""


class Tenant(IngestLane):
    """One hosted map: its lane on the service's ingest plane (slot,
    routing, durability) plus quota and accounting."""

    def __init__(
        self,
        name: str,
        slot: int,
        router: ShardRouter,
        store: CheckpointStore,
        quota: TenantQuota,
        changelog_capacity: int,
    ) -> None:
        super().__init__(slot, name, router, store)
        self.quota = quota
        self.bucket = quota.make_bucket()
        self.state = TenantState.ACTIVE
        self.changelog = ChangeLog(changelog_capacity)
        self.submitted_observations = 0
        self.served_observations = 0
        self.rejected_observations = 0

    def to_dict(self) -> Dict[str, object]:
        num_shards = self.router.num_shards
        return {
            "slot": self.slot,
            "state": self.state.value,
            "submitted_observations": self.submitted_observations,
            "served_observations": self.served_observations,
            "rejected_observations": self.rejected_observations,
            "pending_slices": self.outstanding,
            "quota": self.quota.to_dict(),
            "queue_slots_free": self.quota.queue_slots - self.outstanding,
            "changelog": self.changelog.stats(),
            "journal_entries": sum(
                self.store.journal_length(shard) for shard in range(num_shards)
            ),
        }

    def memory_breakdown(self, exact: bool = False) -> MemoryReport:
        """Registry-owned state: the tenant's journals + changelog ring.

        Map slot bytes are deliberately *not* here — they already live
        under the map component (``map/shard<i>/tenant<slot>``), and a
        component tree must not double-count.  Per-tenant attribution
        that combines both views is
        :meth:`TenantRegistry.tenant_memory_bytes`.
        """
        return MemoryReport(
            f"tenant{self.slot}",
            children=[
                self.store.memory_breakdown(exact=exact),
                self.changelog.memory_breakdown(exact=exact),
            ],
        )


class TenantRegistry:
    """Hosts many tenants' maps on one service's shared shard pool.

    Args:
        service: a running
            :class:`~repro.service.server.OccupancyMapService`; the
            registry shares its map backend (both worker backends work),
            its metrics registry, and — once constructed — announces
            itself as ``service.tenant_registry`` so the admin server's
            ``/tenants`` route finds it.
        default_quota: quota for tenants created without an explicit one.
        changelog_capacity: per-tenant change-log ring size (deltas).
        checkpoint_dir: when set, tenant snapshots are persisted under
            ``<dir>/tenant-<slot>/shard-<i>.oct``.

    Typical use::

        registry = TenantRegistry(service)
        registry.create("robot-7")
        registry.submit_observations("robot-7", batch)
        registry.flush("robot-7")
        registry.evict("robot-7")      # persist + free shard memory
        registry.restore("robot-7")    # bit-exact rebuild
    """

    def __init__(
        self,
        service,
        default_quota: Optional[TenantQuota] = None,
        changelog_capacity: int = 65536,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        self.service = service
        self.map = service.map
        self.metrics = service.metrics
        self.num_shards = service.config.num_shards
        self.default_quota = default_quota or TenantQuota()
        self.changelog_capacity = changelog_capacity
        self.checkpoint_dir = checkpoint_dir
        self._tenants: Dict[str, Tenant] = {}
        self._next_slot = 1
        self._lock = threading.RLock()
        self._closed = False
        #: Advisory per-tenant pressure flags (name -> level) from the
        #: service's PressureMonitor; surfaced in ``/tenants``.  The
        #: hook only *observes* — nothing is shed or evicted here.
        self._pressure_flags: Dict[str, str] = {}
        service.pressure.on_pressure = self._on_pressure
        service.tenant_registry = self

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def create(
        self, name: str, quota: Optional[TenantQuota] = None
    ) -> Tenant:
        """Admit a new tenant (fresh empty map, ACTIVE)."""
        self._check_open()
        with self._lock:
            if name in self._tenants:
                raise ValueError(f"tenant {name!r} already exists")
            slot = self._next_slot
            self._next_slot += 1
            directory = None
            if self.checkpoint_dir is not None:
                directory = os.path.join(self.checkpoint_dir, f"tenant-{slot}")
            tenant = Tenant(
                name=name,
                slot=slot,
                router=ShardRouter(
                    self.num_shards,
                    self.service.config.depth,
                    salt=tenant_salt(name),
                ),
                store=CheckpointStore(
                    self.num_shards,
                    directory=directory,
                    fault_plan=self.service.fault_plan,
                ),
                quota=quota or self.default_quota,
                changelog_capacity=self.changelog_capacity,
            )
            tenant.on_done = self._slices_done
            self._tenants[name] = tenant
            self.service.lanes[slot] = tenant
        self.metrics.state(f"tenant_state.{name}", initial="active")
        self.metrics.gauge("tenant.count").set(len(self._tenants))
        return tenant

    def get(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
        if tenant is None:
            raise KeyError(f"unknown tenant {name!r}")
        return tenant

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def persist(self, name: str) -> int:
        """Checkpoint every shard slice of one tenant; returns the number
        of shards snapshotted.

        Drains the tenant's pending slices first, so each snapshot
        covers exactly the journal entries applied so far.  A shard
        whose snapshot fails (e.g. its worker process just died) is
        skipped — its previous checkpoint stays valid and recovery just
        replays a longer journal tail, so ``persist`` degrades to
        journal-only durability instead of failing the tenant.
        """
        tenant = self._require_active(name)
        self.flush(name)
        written = 0
        for shard_id in range(self.num_shards):
            try:
                if self.service.checkpoint(shard_id, tenant):
                    written += 1
            except InjectedCrash:  # the worker process died under the export
                self.service.tracer.count(
                    "shard.snapshot_failures", category="service"
                )
        self.metrics.counter(f"tenant.persists.{name}").inc()
        return written

    def evict(self, name: str) -> None:
        """Persist one tenant, then free every shard slice it owns.

        The evicted tenant keeps only its durable snapshot (plus the
        journal tail of any shard whose snapshot failed): map slots are
        dropped, journals are compacted below the checkpoint, and the
        changelog ring is cleared (subscribers see ``truncated`` and
        resync).  Its in-memory footprint returns to the baseline —
        :meth:`restore` rebuilds the exact map.  Queries and submissions
        against an evicted tenant raise until then.
        """
        tenant = self._require_active(name)
        self.persist(name)
        tenant.state = TenantState.EVICTED
        # A submission that raced the line above is journaled past the
        # checkpoint (compaction keeps it), so restore replays it.
        del self.service.lanes[tenant.slot]
        self.map.drop_tenant(tenant.slot)
        for shard_id in range(self.num_shards):
            tenant.store.compact(shard_id)
        tenant.changelog.clear()
        self.metrics.state(f"tenant_state.{name}").set("evicted")
        self.metrics.counter(f"tenant.evictions.{name}").inc()

    def restore(self, name: str) -> None:
        """Rebuild an evicted tenant bit-exactly from its checkpoints.

        Per shard: latest snapshot + the journal tail it doesn't cover,
        through the same :meth:`OccupancyMapService.restore_lane` replay
        shard-crash recovery uses — so the restored map answers every
        query exactly as it did at eviction.
        """
        tenant = self.get(name)
        if tenant.state is TenantState.ACTIVE:
            raise RuntimeError(f"tenant {name!r} is active; nothing to restore")
        for shard_id in range(self.num_shards):
            self.service.restore_lane(shard_id, tenant)
        self.service.lanes[tenant.slot] = tenant
        tenant.state = TenantState.ACTIVE
        self.metrics.state(f"tenant_state.{name}").set("active")
        self.metrics.counter(f"tenant.restores.{name}").inc()

    # ------------------------------------------------------------------
    # Ingest path.
    # ------------------------------------------------------------------

    def submit_observations(
        self,
        name: str,
        observations: Union[ScanBatch, Sequence[Observation]],
        must_accept: bool = False,
    ) -> TenantReceipt:
        """Admit one pre-traced scan into a tenant's map.

        Admission is all-or-nothing per scan: one token from the
        tenant's rate bucket, then one queue slot per non-empty target
        shard slice reserved atomically.  Either everything is enqueued
        or nothing is; with ``must_accept`` a rejection raises
        :class:`TenantQuotaExceeded` instead of returning a receipt.
        """
        self._check_open()
        tenant = self._require_active(name)
        batch = ScanBatch.coerce(observations)
        total = len(batch)
        tenant.submitted_observations += total
        self.metrics.counter(f"tenant.submitted.{name}").inc(total)
        # The registry shares the service's ingest SLO surface: these
        # are the same counters/histograms load-bench and /slo evaluate,
        # so the knee detector works identically in fleet mode.
        self.service.tracer.count("ingest.requests", category="service")
        if not tenant.bucket.try_acquire(1.0):
            return self._reject(tenant, total, "rate", must_accept)
        targets, refused = self.service.route(tenant, batch)
        if refused:
            return self._reject(tenant, total, "shard", must_accept)
        if not self.service.enqueue_slices(
            tenant, targets, limit=tenant.quota.queue_slots
        ):
            return self._reject(tenant, total, "slots", must_accept)
        self.metrics.gauge(f"tenant.pending.{name}").set(tenant.outstanding)
        return TenantReceipt(observations=total, enqueued=total, rejected=0)

    def _reject(
        self, tenant: Tenant, total: int, reason: str, must_accept: bool
    ) -> TenantReceipt:
        tenant.rejected_observations += total
        self.metrics.counter(f"tenant.rejected.{tenant.name}").inc(total)
        self.metrics.counter(f"tenant.rejected_scans.{tenant.name}").inc()
        self.service.tracer.count("ingest.rejected_batches", category="service")
        if must_accept:
            raise TenantQuotaExceeded(
                f"tenant {tenant.name!r} quota rejected the scan "
                f"({reason}); nothing was enqueued"
            )
        return TenantReceipt(
            observations=total, enqueued=0, rejected=total, reason=reason
        )

    def _slices_done(
        self,
        tenant: Tenant,
        shard_id: int,
        batch: ScanBatch,
        slices: int,
        applied: bool,
    ) -> None:
        """The tenant lane's ``on_done`` hook: a turn was applied — or
        discarded / left to recovery, which replays it from the journal
        without passing here again."""
        if applied:
            tenant.served_observations += len(batch)
            self.metrics.counter(f"tenant.served.{tenant.name}").inc(len(batch))
            if tenant.changelog.active:
                self._capture_deltas(shard_id, tenant, batch)
        self.metrics.gauge(f"tenant.pending.{tenant.name}").set(
            tenant.outstanding - slices
        )

    def _capture_deltas(
        self, shard_id: int, tenant: Tenant, batch: ScanBatch
    ) -> None:
        """Record ``(key, post-apply value)`` for each voxel the slice
        touched, in first-touch order — the accumulated value a query
        would answer right now, which is what subscribers replicate."""
        unique, _occupied = dedup_observations(
            batch.keys_array(), batch.occupied_array()
        )
        keys: List[VoxelKey] = [(x, y, z) for x, y, z in unique.tolist()]
        values = self.map.query_keys_in_shard(
            shard_id, keys, tenant=tenant.slot
        )
        tenant.changelog.record(
            [
                (key, value)
                for key, value in zip(keys, values)
                if value is not None
            ]
        )

    # ------------------------------------------------------------------
    # Query path and subscriptions.
    # ------------------------------------------------------------------

    def query_key(self, name: str, key: VoxelKey) -> Optional[float]:
        """Log-odds occupancy of one voxel in one tenant's map."""
        return self.query_keys(name, [key])[0]

    def query_keys(
        self, name: str, keys: Sequence[VoxelKey]
    ) -> List[Optional[float]]:
        """Batch keyed query against one tenant's map (order preserved)."""
        tenant = self._require_active(name)
        return self.map.query_keys(
            keys, tenant=tenant.slot, router=tenant.router
        )

    def snapshot(self, name: str) -> OccupancyOctree:
        """One tenant's whole map as a single octree (union of its
        per-shard authoritative trees — disjoint by routing)."""
        return self.map.snapshot(tenant=self._require_active(name).slot)

    def subscribe(self, name: str) -> Subscription:
        """Open a map-diff stream on one tenant (see ``changelog.py``).

        Delta capture starts with the first subscription and stops with
        the last close, so unobserved tenants pay nothing.
        """
        return self.get(name).changelog.subscribe()

    # ------------------------------------------------------------------
    # Barriers, introspection, shutdown.
    # ------------------------------------------------------------------

    def flush(self, name: Optional[str] = None) -> None:
        """Wait until a tenant's slices (or, with no name, every lane's)
        are applied and no shard is mid-recovery — the service's own
        barrier, so it raises the service's shard worker error."""
        self.service.flush(None if name is None else self.get(name))

    def memory_breakdown(self, exact: bool = False) -> MemoryReport:
        """The ``tenancy`` component: per-tenant journals + changelogs.

        Tenant *map* bytes live under the map component's per-shard
        tenant slots; this node carries only what the registry itself
        owns, so summing the service's component tree never counts a
        byte twice.
        """
        with self._lock:
            tenants = sorted(
                self._tenants.values(), key=lambda tenant: tenant.slot
            )
        return MemoryReport(
            "tenancy",
            children=[tenant.memory_breakdown(exact=exact) for tenant in tenants],
        )

    def tenant_memory_bytes(self) -> Dict[str, int]:
        """Attributed footprint per tenant name: map slots across every
        shard plus the tenant's journals and changelog ring.

        This is the view the pressure monitor's per-tenant watermarks
        and the ``tenant.mem_bytes.<name>`` gauges evaluate.
        """
        return {
            name: entry["memory"]["total_bytes"]
            for name, entry in self.tenants_dict()["tenants"].items()
        }

    def _on_pressure(self, level: str, tenant_levels: Dict[str, str]) -> None:
        """Advisory hook from the service's :class:`PressureMonitor`:
        remember which tenants are over their watermark so ``/tenants``
        can surface the flag.  Observation only — no shedding here."""
        with self._lock:
            self._pressure_flags = dict(tenant_levels)

    def tenants_dict(self) -> Dict[str, object]:
        """JSON-able fleet state (the admin server's ``/tenants`` body).

        Each entry carries a ``memory`` rollup (map slots + journals +
        changelog, in bytes) and — when the pressure monitor has flagged
        the tenant — a ``memory_pressure`` level.
        """
        with self._lock:
            tenants = dict(self._tenants)
            flags = dict(self._pressure_flags)
        try:
            slot_bytes = self.map.tenant_memory_bytes()
        except Exception:
            slot_bytes = {}
        entries: Dict[str, object] = {}
        for name, tenant in sorted(tenants.items()):
            entry = tenant.to_dict()
            map_bytes = int(slot_bytes.get(tenant.slot, 0))
            registry_report = tenant.memory_breakdown()
            durable = registry_report.child("durability")
            changelog = registry_report.child("changelog")
            entry["memory"] = {
                "map_bytes": map_bytes,
                "journal_bytes": durable.total_bytes if durable else 0,
                "changelog_bytes": changelog.total_bytes if changelog else 0,
                "total_bytes": map_bytes + registry_report.total_bytes,
            }
            if name in flags:
                entry["memory_pressure"] = flags[name]
            entries[name] = entry
        return {
            "enabled": True,
            "count": len(tenants),
            "tenants": entries,
        }

    def _require_active(self, name: str) -> Tenant:
        tenant = self.get(name)
        if tenant.state is not TenantState.ACTIVE:
            raise RuntimeError(
                f"tenant {name!r} is {tenant.state.value}; restore it first"
            )
        return tenant

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("tenant registry is closed")
        if self.service.closed:
            raise RuntimeError("service is closed")

    def close(self) -> None:
        """Flush, then unhook from the service.  Idempotent.

        Does not close the underlying service (the registry is a guest
        on it) and does not evict tenants — close then reopen loses only
        the in-memory maps of tenants never persisted.  Raises what the
        flush raises, after unhooking; either close order works.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            tenants = list(self._tenants.values())
        try:
            self.service.flush()
        finally:
            for tenant in tenants:
                self.service.lanes.pop(tenant.slot, None)
            if self.service.pressure.on_pressure == self._on_pressure:
                self.service.pressure.on_pressure = None
            if self.service.tenant_registry is self:
                self.service.tenant_registry = None

    def __enter__(self) -> "TenantRegistry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
