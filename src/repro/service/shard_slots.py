"""``ShardSlots``: one process's ``(shard, tenant)`` pipelines.

Both transports keep their shard pipelines in one of these — the thread
backend (:class:`~repro.service.sharded_map.ShardedMap`) in the service
process, each :mod:`repro.mp.worker` process for the shards it owns — so
everything that reads a pipeline *as a map* is written once, here.  In
particular the paper's §4.2 consistency rule: a resident cache cell is
authoritative and eviction overwrites the octree, so cache + octree
answer as one map only when the cache is overlaid on the octree
(:meth:`ShardSlots.leaf_arrays`, :meth:`ShardSlots.occupied_in_box`).

Nothing here locks.  The thread backend calls in under the shard's lock;
a worker process serves its commands one at a time.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.octocache import OctoCacheMap
from repro.memsight.report import MemoryReport
from repro.octree.iterators import occupied_keys_in_box
from repro.octree.key import VoxelKey, keys_to_morton
from repro.sensor.scaninsert import ScanBatch

__all__ = ["ShardSlots"]


class ShardSlots:
    """The pipelines of some shards, one per ``(shard, tenant)`` slot.

    Tenant slot 0 — the default single-tenant map — exists for every
    owned shard from construction and is never dropped.  Non-zero slots
    are created on first touch (apply, restore, query) and freed with
    :meth:`drop`; slices arriving here are already partitioned per
    tenant (the tenant layer routes with its own salted routers).

    Args:
        shard_ids: the shards this table owns.
        **shape: the keyword arguments every pipeline is built with —
            ``resolution``, ``depth``, ``params``, ``max_range``,
            ``cache_config``, ``kernel`` (see
            :class:`~repro.core.octocache.OctoCacheMap`; the serial
            pipeline is the right one per shard, since shard parallelism
            replaces the paper's two-thread schedule).
    """

    def __init__(self, shard_ids: Iterable[int], **shape) -> None:
        self._shape = shape
        #: ``shard -> tenant -> pipeline``.  One inner dict per shard, so
        #: a shard's slots are only ever touched under that shard's lock.
        self._slots: Dict[int, Dict[int, OctoCacheMap]] = {
            shard: {0: self.make_pipeline()} for shard in shard_ids
        }
        #: ``(shard, tenant) -> batches applied``.  A slot lives as long
        #: as the service, so it keeps this count and not its pipeline's
        #: per-batch records.
        self._applied: Counter = Counter()

    def make_pipeline(self) -> OctoCacheMap:
        """A fresh pipeline shaped like the resident ones.

        Crash recovery uses this as the factory for the replacement
        pipeline a snapshot + journal replay is rebuilt into.
        """
        return OctoCacheMap(**self._shape)

    def _of_shard(self, shard: int) -> Dict[int, OctoCacheMap]:
        slots = self._slots.get(shard)
        if slots is None:
            raise ValueError(
                f"shard {shard} is not assigned here (owns {sorted(self._slots)})"
            )
        return slots

    def get(self, shard: int, tenant: int = 0) -> OctoCacheMap:
        """The pipeline in one slot, created empty if it is new."""
        slots = self._of_shard(shard)
        pipeline = slots.get(tenant)
        if pipeline is None:
            pipeline = slots[tenant] = self.make_pipeline()
        return pipeline

    def put(self, shard: int, tenant: int, pipeline: OctoCacheMap) -> None:
        """Install a rebuilt pipeline, replacing the slot's state whole."""
        self._of_shard(shard)[tenant] = pipeline
        self._applied[shard, tenant] = len(pipeline.batches)
        pipeline.batches.clear()

    def drop(self, shard: int, tenant: int) -> bool:
        """Free one tenant slot; ``False`` if it held nothing."""
        if tenant == 0:
            raise ValueError("tenant slot 0 (the default map) cannot be dropped")
        self._applied.pop((shard, tenant), None)
        return self._of_shard(shard).pop(tenant, None) is not None

    def tenants_on(self, shard: int) -> List[int]:
        """The tenant slots live on one shard, ascending (0 first)."""
        return sorted(self._of_shard(shard))

    def apply(self, shard: int, tenant: int, batch: ScanBatch) -> float:
        """One cache-insert → evict → octree-update cycle on a slot.

        Returns the pipeline's busy seconds for the slice.
        """
        pipeline = self.get(shard, tenant)
        busy = pipeline.record_busy_seconds(pipeline.insert_batch(batch))
        pipeline.batches.clear()
        self._applied[shard, tenant] += 1
        return busy

    def finalize_shard(self, shard: int) -> None:
        """Flush every slot's cache on one shard into its octree."""
        for pipeline in list(self._of_shard(shard).values()):
            pipeline.finalize()

    # -- reads: cache over octree, as one map --------------------------

    def leaf_arrays(self, shard: int, tenant: int) -> Tuple[np.ndarray, np.ndarray]:
        """What one slot *is* as a map: ``(keys (N, 3), values (N,))``.

        The octree's finest leaves with the resident cache cells over
        them — exactly the accumulated values the slot would answer
        queries with right now, one row per voxel, the input
        ``set_leaves_bulk`` takes.  Slots hold disjoint voxels, so
        writing several into one tree is their plain union.
        """
        pipeline = self.get(shard, tenant)
        keys, values = pipeline.octree.finest_leaf_arrays()
        cells = pipeline.cache.cells()
        fresh = ~np.isin(keys_to_morton(keys), keys_to_morton(cells.keys))
        return (
            np.concatenate([keys[fresh], cells.keys]),
            np.concatenate([values[fresh], cells.values]),
        )

    def occupied_in_box(
        self, shard: int, tenant: int, min_key: VoxelKey, max_key: VoxelKey
    ) -> List[VoxelKey]:
        """One slot's occupied finest-level keys in an inclusive key box.

        The octree answers for evicted voxels (with subtree culling) and
        resident cache cells overlay it — a cached-free voxel the octree
        still thinks occupied is correctly excluded.
        """
        pipeline = self.get(shard, tenant)

        def in_box(key: VoxelKey) -> bool:
            return all(
                min_key[axis] <= key[axis] <= max_key[axis] for axis in range(3)
            )

        cached = {
            key: value
            for key, value in pipeline.cache.iter_cells()
            if in_box(key)
        }
        occupied = [
            key
            for key in occupied_keys_in_box(pipeline.octree, min_key, max_key)
            if key not in cached
        ]
        occupied.extend(
            key
            for key, value in cached.items()
            if pipeline.params.is_occupied(value)
        )
        return occupied

    def stats(self, shard: int, tenant: int = 0) -> Dict[str, object]:
        """One slot's pipeline stats (JSON-able; ``/snapshot``'s slice).

        ``cache`` is the voxel cache's full ``stats_dict()``; ``memory``
        the slot's footprint tree as a dict.
        """
        pipeline = self.get(shard, tenant)
        return {
            "hit_ratio": pipeline.hit_ratio,
            "resident_voxels": pipeline.cache.resident_voxels,
            "octree_nodes": pipeline.octree.num_nodes,
            "batches": self._applied[shard, tenant],
            "cache": pipeline.cache.stats_dict(),
            "memory": pipeline.memory_breakdown().to_dict(),
        }

    def memory_report(
        self, shard: int, tenant: int, exact: bool = False, deep: bool = False
    ) -> Optional[MemoryReport]:
        """One slot's footprint, named ``default`` or ``tenant<slot>``;
        ``None`` for a slot that does not exist (never creates one)."""
        pipeline = self._of_shard(shard).get(tenant)
        if pipeline is None:
            return None
        return pipeline.memory_breakdown(
            exact=exact,
            deep=deep,
            name="default" if tenant == 0 else f"tenant{tenant}",
        )

    def memory_reports(
        self, shard: int, exact: bool = False, deep: bool = False
    ) -> Dict[int, MemoryReport]:
        """Every live slot's footprint on one shard, keyed by tenant.

        ``exact`` recounts each pipeline's storage; ``deep`` adds the
        octree depth drill-down.
        """
        return {
            tenant: self.memory_report(shard, tenant, exact, deep)
            for tenant in self.tenants_on(shard)
        }
