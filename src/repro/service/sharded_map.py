"""The sharded occupancy map: N OctoCache pipelines behind a Morton router.

Generalises the paper's two-thread schedule (§4.4) along the *spatial*
axis: instead of one cache + one octree, the map is partitioned into
``num_shards`` disjoint Morton-prefix regions, each owned by its own
:class:`~repro.core.octocache.OctoCacheMap` (cache + octree) behind its
own lock, plus one pipeline per ``(shard, tenant)`` slot for hosted
tenants.  Shards never share voxels, so:

- updates to different shards are independent (lock-per-shard, no global
  lock on the hot path);
- within a shard the paper's consistency argument applies unchanged — a
  resident cache cell is authoritative, eviction overwrites the octree —
  so every query answers exactly as a serially built OctoMap would;
- the global snapshot is the plain union of shard maps.

Where the pipelines *live* is a transport choice: :class:`MapBackend`
owns everything that is not transport, :class:`ShardedMap` keeps the
pipelines in this process, :class:`~repro.mp.backend.ProcessShardedMap`
in supervised child processes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.config import CacheConfig
from repro.core.octocache import OctoCacheMap
from repro.kernels import validate_kernel
from repro.memsight.report import MemoryReport
from repro.octree.key import VoxelKey, coord_to_key, key_to_coord
from repro.octree.occupancy import OccupancyParams
from repro.octree.rayquery import RayHit, walk_ray
from repro.octree.serialize import tree_to_bytes
from repro.octree.tree import OccupancyOctree
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import ShardCheckpoint, restore_pipeline
from repro.sensor.pointcloud import PointCloud
from repro.sensor.scaninsert import (
    Observation,
    ScanBatch,
    trace_scan,
    trace_scan_rt,
)
from repro.service.shard_slots import ShardSlots
from repro.service.sharding import ShardRouter
from repro.telemetry import get_tracer

__all__ = ["MapBackend", "ShardedMap", "ShardedBatchRecord"]

Coord = Tuple[float, float, float]


@dataclass
class ShardedBatchRecord:
    """Stage accounting for one batch applied across shards.

    ``modeled_cost`` is the batch's cost under the service's execution
    model — shards run concurrently, so the batch costs what its slowest
    shard costs (``max``), versus the serial pipeline's ``sum``.  This is
    the quantity the throughput-vs-shards benchmark compares against the
    serial :class:`OctoCacheMap`.
    """

    observations: int = 0
    ray_tracing: float = 0.0
    shard_busy: Dict[int, float] = field(default_factory=dict)

    @property
    def modeled_cost(self) -> float:
        busiest = max(self.shard_busy.values()) if self.shard_busy else 0.0
        return self.ray_tracing + busiest

    @property
    def serialized_cost(self) -> float:
        """Cost had the same shard work run back-to-back on one core."""
        return self.ray_tracing + sum(self.shard_busy.values())


class MapBackend:
    """A spatially sharded OctoCache occupancy map (transport-agnostic).

    Synchronous: callers bring their own threads (see
    :class:`repro.service.server.OccupancyMapService`).  Every public
    entry point takes the owning shard's lock, so concurrent use is safe
    and shards proceed independently.

    A transport defines these per-shard primitives — nothing else
    differs between backends (``docs/parallelism.md`` has the table):

    - ``apply_to_shard(shard_id, batch, tenant=0)``: one slot's
      cache-insert → evict → octree-update cycle on a slice; returns the
      pipeline's busy seconds.  Checks the ``octree.update`` fault site
      first (``"drop"`` skips the slice), spans ``shard.ingest`` and
      takes the shard lock, so ingest and queries serialise per shard.
    - ``query_keys_in_shard(shard_id, keys, tenant=0)``: log-odds for
      keys the caller routed itself (the tenant layer's salted routers).
    - ``_box_in_shard(shard_id, min_key, max_key)``: occupied keys in an
      inclusive key box, any order; ``_shard_leaves(shard_id, tenant)``:
      one slot's authoritative answers as ``(keys, values)`` leaf arrays.
    - ``shard_stats(shard_id)`` and ``_slot_memory(shard_id, exact,
      deep)``: the default slot's stats / every live slot's footprint by
      tenant, in the shapes :class:`ShardSlots` gives them — so the
      service never reaches into shard pipelines.
    - ``restore_shard(shard_id, checkpoint, tail, tenant=0)``: rebuild a
      slot from a checkpoint + the *full* journal tail; absolute (the
      pipeline is replaced whole), so repeats never double-apply.
    - ``_drop_slot(shard_id, tenant)`` (lock held, ``tenant != 0``),
      ``_finalize_shard(shard_id)`` (every slot on the shard), and
      :meth:`close` when it holds more than memory.

    Args:
        resolution: finest voxel edge length (metres), shared by shards.
        depth: octree depth, shared by shards.
        num_shards: spatial partition count.
        params: occupancy-update parameters, shared by shards.
        max_range: sensor range clamp for :meth:`insert_point_cloud`.
        cache_config: per-shard cache shape; defaults per shard.
        rt: duplicate-free ray tracing for :meth:`insert_point_cloud`.
        kernel: ``"scalar"`` or ``"vector"`` — the tracing/apply kernel
            used by :meth:`insert_point_cloud` and every shard pipeline
            (see ``docs/kernels.md``; both produce bit-identical maps).
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
    ) -> None:
        validate_kernel(kernel)
        self.resolution = resolution
        self.depth = depth
        self.max_range = max_range
        self.rt = rt
        self.kernel = kernel
        self.router = ShardRouter(num_shards, depth)
        self.params = params or OccupancyParams()
        #: The keyword arguments every shard pipeline is built with.
        self._shape = {
            "resolution": resolution,
            "depth": depth,
            "params": self.params,
            "max_range": max_range,
            "cache_config": cache_config,
            "kernel": kernel,
        }
        self._locks: List[threading.RLock] = [
            threading.RLock() for _ in range(num_shards)
        ]
        self.records: List[ShardedBatchRecord] = []
        #: Telemetry tracer for per-shard ingest spans (the global one by
        #: default; shard pipelines carry their own ``tracer`` attribute).
        self.tracer = get_tracer()
        #: Fault-injection plan evaluated at the ``octree.update`` site
        #: inside :meth:`apply_to_shard`.  Empty (inert) by default; the
        #: service installs its own for chaos runs.
        self.fault_plan = FaultPlan()
        # The seams only a process transport acts on.  Inert here, so
        # the service and the tenant registry wire them without asking
        # which backend they got.
        #: Where relayed child telemetry is replayed; the service points
        #: this at its always-on tracer (registry + forward sinks).
        self.relay_tracer = None
        #: ``(shard id, tenant=0) -> (checkpoint, journal tail)`` for lazy
        #: sibling restore of one slot; the service installs a lookup
        #: through its lane table (a slot it does not know has nothing).
        self.recovery_source = lambda shard_id, tenant=0: (None, [])

    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    def shard_lock(self, shard_id: int) -> threading.RLock:
        """The lock guarding one shard (exposed for the service layer)."""
        return self._locks[shard_id]

    def kill_shard_process(self, shard_id: int) -> bool:
        """SIGKILL the process hosting a shard (chaos hook); ``False``
        when there is none — always, for an in-process transport."""
        return False

    def _key_of(self, coord: Coord) -> VoxelKey:
        return coord_to_key(coord, self.resolution, self.depth)

    def _coord_of(self, key: VoxelKey) -> Coord:
        return key_to_coord(key, self.resolution, self.depth)

    def _new_tree(self) -> OccupancyOctree:
        return OccupancyOctree(
            resolution=self.resolution, depth=self.depth, params=self.params
        )

    # ------------------------------------------------------------------
    # Update path.
    # ------------------------------------------------------------------

    def insert_point_cloud(
        self, points, origin: Coord = (0.0, 0.0, 0.0)
    ) -> ShardedBatchRecord:
        """Trace one scan (here) and apply it across shards, synchronously."""
        if isinstance(points, PointCloud):
            cloud = points
        else:
            cloud = PointCloud(points, origin)
        tracer = trace_scan_rt if self.rt else trace_scan
        start = time.perf_counter()
        batch = tracer(
            cloud,
            self.resolution,
            self.depth,
            max_range=self.max_range,
            kernel=self.kernel,
        )
        elapsed = time.perf_counter() - start
        return self.insert_observations(batch, ray_tracing=elapsed)

    def insert_observations(
        self,
        observations: Union[ScanBatch, Sequence[Observation]],
        ray_tracing: float = 0.0,
    ) -> ShardedBatchRecord:
        """Partition pre-traced observations and apply each shard's slice.

        Per-voxel observation order is preserved (the router keeps a
        voxel's updates on one shard, in order), so accumulated values —
        and therefore every query answer — match a serially built map.
        """
        batch = ScanBatch.coerce(observations)
        record = ShardedBatchRecord(
            observations=len(batch), ray_tracing=ray_tracing
        )
        for shard_id, part in enumerate(self.router.partition(batch)):
            if not part:
                continue
            record.shard_busy[shard_id] = self.apply_to_shard(shard_id, part)
        self.records.append(record)
        return record

    def finalize(self) -> None:
        """Flush every shard cache into its octree (tenant slots too)."""
        for shard_id in range(self.num_shards):
            self._finalize_shard(shard_id)

    def close(self) -> None:
        """Finalize and release whatever the transport holds.  Idempotent."""
        self.finalize()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def drop_tenant(self, tenant: int) -> None:
        """Discard every shard slice owned by ``tenant``.

        The tenant layer persists the slices first (evict = persist +
        drop); this just frees the memory.  Slot 0 — the default map —
        cannot be dropped.
        """
        if tenant == 0:
            raise ValueError("tenant slot 0 (the default map) cannot be dropped")
        for shard_id in range(self.num_shards):
            with self._locks[shard_id]:
                self._drop_slot(shard_id, tenant)

    # ------------------------------------------------------------------
    # Query path: route, then the consistent per-shard read.
    # ------------------------------------------------------------------

    def query_keys(
        self,
        keys: Sequence[VoxelKey],
        tenant: int = 0,
        router: Optional[ShardRouter] = None,
    ) -> List[Optional[float]]:
        """Point-query many keys with one batched read per shard; the
        answers come back in the order of ``keys``.

        ``tenant``/``router`` read a hosted tenant's map instead of the
        default one: the tenant layer places voxels with per-tenant
        salted routers, so its keys must be routed with *its* router.
        """
        router = router or self.router
        by_shard: Dict[int, List[int]] = {}
        for index, key in enumerate(keys):
            by_shard.setdefault(router.shard_of(key), []).append(index)
        answers: List[Optional[float]] = [None] * len(keys)
        for shard_id, indices in by_shard.items():
            values = self.query_keys_in_shard(
                shard_id, [keys[index] for index in indices], tenant
            )
            for index, value in zip(indices, values):
                answers[index] = value
        return answers

    def query_key(self, key: VoxelKey) -> Optional[float]:
        """Log-odds occupancy for ``key`` (``None`` = unknown)."""
        return self.query_keys_in_shard(self.router.shard_of(key), (key,))[0]

    def query(self, coord: Coord) -> Optional[float]:
        """Log-odds occupancy at a metric coordinate."""
        return self.query_key(self._key_of(coord))

    def is_occupied(self, coord: Coord) -> Optional[bool]:
        """Occupancy decision at a metric coordinate (``None`` = unknown)."""
        value = self.query(coord)
        if value is None:
            return None
        return self.params.is_occupied(value)

    def cast_ray(
        self,
        origin: Coord,
        direction: Coord,
        max_range: float,
        ignore_unknown: bool = True,
    ) -> RayHit:
        """Walk the sharded map along a ray (OctoMap's ``castRay``).

        :func:`~repro.octree.rayquery.walk_ray` over this map: the voxels
        the serial ``cast_ray`` reads, answered through the consistent
        per-shard cache-then-octree read, so planners see exactly what a
        serially built map would show — including voxels still resident
        in a shard cache.
        """
        return walk_ray(
            self, self._ray_values, origin, direction, max_range, ignore_unknown
        )

    def _ray_values(self, keys: List[VoxelKey]) -> Iterator[Optional[float]]:
        """A ray's log-odds, near to far, fetched as the walk consumes
        them: :meth:`query_keys` on the first 16 voxels, then 32, 64, … —
        one batched read per shard per chunk.  A walk that ends at a near
        hit leaves the far voxels unread; one that runs its whole range
        costs a few batches, not a read (a pipe round trip, on the process
        transport) per voxel.
        """
        start, size = 0, 16
        while start < len(keys):
            yield from self.query_keys(keys[start : start + size])
            start += size
            size *= 2

    def occupied_in_box(self, min_coord: Coord, max_coord: Coord) -> List[VoxelKey]:
        """Occupied finest-level keys inside an inclusive metric box.

        Each shard answers with its cache overlaid on its octree; shards
        hold disjoint voxels, so the result is their sorted union.
        """
        min_key = self._key_of(min_coord)
        max_key = self._key_of(max_coord)
        for axis in range(3):
            if min_key[axis] > max_key[axis]:
                raise ValueError(f"min_coord exceeds max_coord on axis {axis}")
        occupied: List[VoxelKey] = []
        for shard_id in range(self.num_shards):
            occupied.extend(self._box_in_shard(shard_id, min_key, max_key))
        return sorted(occupied)

    # ------------------------------------------------------------------
    # Snapshot export.
    # ------------------------------------------------------------------

    def snapshot(self, tenant: int = 0) -> OccupancyOctree:
        """Export one octree holding a whole map's current answers.

        The union of the (disjoint) shard slots' authoritative trees —
        the same cache-is-authoritative rule the query path applies, so
        the snapshot agrees voxel-for-voxel with live queries at export
        time.  Shards are locked one at a time: the snapshot is per-shard
        consistent, which is the service's documented guarantee.
        ``tenant != 0`` exports that tenant's map instead of the default.
        """
        tree = self._new_tree()
        for shard_id in range(self.num_shards):
            tree.set_leaves_bulk(*self._shard_leaves(shard_id, tenant))
        return tree

    def shard_snapshot_tree(
        self, shard_id: int, tenant: int = 0
    ) -> OccupancyOctree:
        """One shard slot's authoritative tree: octree + cache overlay.

        The per-shard slice of :meth:`snapshot` — the exact accumulated
        values the slot would answer queries with right now.
        """
        tree = self._new_tree()
        tree.set_leaves_bulk(*self._shard_leaves(shard_id, tenant))
        return tree

    def shard_snapshot_blob(self, shard_id: int, tenant: int = 0) -> bytes:
        """One shard slot's authoritative tree as serialize-v2 bytes.

        The payload crash-recovery checkpoints (and tenant persist/evict
        snapshots) store verbatim via
        ``CheckpointStore.write_snapshot_blob``.
        """
        return tree_to_bytes(self.shard_snapshot_tree(shard_id, tenant))

    # ------------------------------------------------------------------
    # Introspection: rollups of the per-shard primitives.
    # ------------------------------------------------------------------

    def _per_shard(self, stat: str) -> list:
        return [
            self.shard_stats(shard_id)[stat]
            for shard_id in range(self.num_shards)
        ]

    def hit_ratios(self) -> List[float]:
        """Per-shard insert-path cache hit ratios."""
        return self._per_shard("hit_ratio")

    def resident_voxels(self) -> int:
        """Cache-resident voxels summed over shards."""
        return sum(self._per_shard("resident_voxels"))

    def octree_nodes(self) -> int:
        """Octree nodes summed over shards."""
        return sum(self._per_shard("octree_nodes"))

    def modeled_total_cost(self) -> float:
        """Sum of per-batch modeled costs (max-over-shards execution)."""
        return sum(record.modeled_cost for record in self.records)

    def memory_breakdown(
        self, exact: bool = False, deep: bool = False
    ) -> MemoryReport:
        """Per-shard, per-tenant-slot footprint tree.

        Shape::

            map
            ├── shard0
            │   ├── default        (slot 0's cache + octree)
            │   └── tenant<slot>   (one per live tenant slice)
            └── shard1 ...

        Each shard is read on its own (per-shard consistent, matching
        the snapshot guarantee).  ``exact`` recounts each pipeline's
        storage; ``deep`` adds the octree depth drill-down.
        """
        return MemoryReport(
            "map",
            children=[
                MemoryReport(
                    f"shard{shard_id}",
                    children=[
                        report
                        for _tenant, report in sorted(
                            self._slot_memory(shard_id, exact, deep).items()
                        )
                    ],
                )
                for shard_id in range(self.num_shards)
            ],
        )

    def tenant_memory_bytes(self) -> Dict[int, int]:
        """Footprint per tenant slot, summed across shards (slot 0 =
        the default map, always present).  The tenancy layer joins these
        to tenant names for ``tenant.mem_bytes.<name>`` attribution."""
        totals: Dict[int, int] = {0: 0}
        for shard_id in range(self.num_shards):
            for tenant, report in self._slot_memory(shard_id).items():
                totals[tenant] = totals.get(tenant, 0) + report.total_bytes
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(res={self.resolution}, depth={self.depth}, "
            f"shards={self.num_shards}, batches={len(self.records)})"
        )


class ShardedMap(MapBackend):
    """The in-process transport: the pipelines live in a
    :class:`~repro.service.shard_slots.ShardSlots` table here, and each
    primitive is "take the shard lock, read the table".

    Args: see :class:`MapBackend`.
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
    ) -> None:
        super().__init__(
            resolution, depth, num_shards, params, max_range, cache_config,
            rt, kernel,
        )
        self._slots = ShardSlots(range(num_shards), **self._shape)

    @property
    def shards(self) -> List[OctoCacheMap]:
        """The default map's pipelines (tenant slot 0), by shard id."""
        return [self._slots.get(shard_id) for shard_id in range(self.num_shards)]

    def make_shard_pipeline(self) -> OctoCacheMap:
        """A fresh pipeline shaped like the resident shards."""
        return self._slots.make_pipeline()

    def replace_shard(
        self, shard_id: int, pipeline: OctoCacheMap, tenant: int = 0
    ) -> None:
        """Swap in a rebuilt shard pipeline (under the shard lock).

        Until this call the old pipeline keeps serving queries — stale
        but self-consistent reads — which is why recovery rebuilds
        off-lock and swaps atomically at the end.
        """
        with self._locks[shard_id]:
            self._slots.put(shard_id, tenant, pipeline)

    def restore_shard(
        self,
        shard_id: int,
        checkpoint: Optional[ShardCheckpoint],
        tail: Sequence[ScanBatch],
        tenant: int = 0,
    ) -> None:
        """Rebuild a slot off-lock, then :meth:`replace_shard`."""
        pipeline = restore_pipeline(self.make_shard_pipeline, checkpoint, tail)
        self.replace_shard(shard_id, pipeline, tenant=tenant)

    def apply_to_shard(
        self, shard_id: int, batch: ScanBatch, tenant: int = 0
    ) -> float:
        """Apply a slice to a slot's pipeline under the shard lock, so
        different shards proceed in parallel."""
        if self.fault_plan.check("octree.update", shard=shard_id) == "drop":
            return 0.0
        with self.tracer.span(
            "shard.ingest",
            category="service",
            shard=shard_id,
            observations=len(batch),
        ):
            # The slot is resolved under the lock: recovery may have
            # swapped in a rebuilt pipeline since the caller routed here.
            with self._locks[shard_id]:
                return self._slots.apply(shard_id, tenant, batch)

    def query_keys_in_shard(
        self, shard_id: int, keys: Sequence[VoxelKey], tenant: int = 0
    ) -> List[Optional[float]]:
        """Cache-first reads of one slot under the shard lock."""
        with self._locks[shard_id]:
            shard = self._slots.get(shard_id, tenant)
            return [shard.query_key(key) for key in keys]

    def _box_in_shard(
        self, shard_id: int, min_key: VoxelKey, max_key: VoxelKey
    ) -> List[VoxelKey]:
        with self._locks[shard_id]:
            return self._slots.occupied_in_box(shard_id, 0, min_key, max_key)

    def _shard_leaves(self, shard_id: int, tenant: int):
        # Only the read holds the lock; the caller's bulk write does not.
        with self._locks[shard_id]:
            return self._slots.leaf_arrays(shard_id, tenant)

    def shard_stats(self, shard_id: int) -> Dict[str, object]:
        """The default slot's stats, read under the shard lock."""
        with self._locks[shard_id]:
            return self._slots.stats(shard_id)

    def _slot_memory(
        self, shard_id: int, exact: bool = False, deep: bool = False
    ) -> Dict[int, MemoryReport]:
        with self._locks[shard_id]:
            return self._slots.memory_reports(shard_id, exact, deep)

    def _drop_slot(self, shard_id: int, tenant: int) -> None:
        self._slots.drop(shard_id, tenant)

    def _finalize_shard(self, shard_id: int) -> None:
        with self._locks[shard_id]:
            self._slots.finalize_shard(shard_id)
