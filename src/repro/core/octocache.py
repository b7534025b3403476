"""Serial OctoCache mapping pipeline (paper §4.2–4.3, Figure 11).

The per-batch workflow is: ray tracing → cache insertion → *(queries are
now serveable)* → cache eviction → octree update of evicted voxels.  The
cache holds accumulated occupancy values, so a cache hit answers queries
exactly as vanilla OctoMap would, and eviction *overwrites* the octree's
stale copy; a cache miss falls through to the octree (§4.2.1).

``use_morton_indexing=True`` (the default) gives the Morton-code cache of
§4.3: buckets are located by ``Morton(v) % w``, so sequential bucket-order
eviction emits the octree update batch in (modular) Morton order — the
insertion order the paper proves optimal.  Setting it ``False`` yields the
strawman hash cache of §4.2 (an ablation knob).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.baselines.interface import BatchRecord, MappingSystem
from repro.core.cache import LeafBatch, VoxelCache
from repro.core.config import CacheConfig
from repro.octree.key import VoxelKey
from repro.octree.occupancy import OccupancyParams
from repro.sensor.scaninsert import ScanBatch

__all__ = ["OctoCacheMap", "OctoCacheRTMap"]


class OctoCacheMap(MappingSystem):
    """OctoMap accelerated by the OctoCache voxel cache (serial design)."""

    name = "OctoCache"

    #: Queries are served right after cache insertion (Figure 13a).
    RESPONSE_STAGES = ("ray_tracing", "cache_insertion")

    def __init__(
        self,
        resolution: float,
        depth: int = 16,
        params: Optional[OccupancyParams] = None,
        max_range: float = float("inf"),
        cache_config: Optional[CacheConfig] = None,
        rt: bool = False,
        kernel: str = "scalar",
    ) -> None:
        super().__init__(
            resolution=resolution,
            depth=depth,
            params=params,
            max_range=max_range,
            rt=rt,
            kernel=kernel,
        )
        self.cache = VoxelCache(
            cache_config or CacheConfig(),
            params=self.params,
            backend=self._tree,
        )

    # ------------------------------------------------------------------
    # Update path.
    # ------------------------------------------------------------------

    def _process_batch(self, batch: ScanBatch, record: BatchRecord) -> None:
        self._insert_stage(batch, record)
        with self._eviction_stage(record):
            evicted = self.cache.evict()
        with self.stage("octree_update", record, "octree", voxels=len(evicted)):
            self._apply_evicted(evicted)

    def _insert_stage(self, batch: ScanBatch, record: BatchRecord) -> None:
        """Cache insertion: fold every observation into its cell (§4.2)."""
        cache = self.cache
        stats = cache.stats
        hits_before, misses_before = stats.hits, stats.misses
        with self.stage(
            "cache_insertion", record, "cache", observations=len(batch)
        ) as stage:
            if self.kernel == "vector":
                cache.update_batch_bulk(
                    batch.keys_array(), batch.occupied_array()
                )
            else:
                for key, occupied in batch.observations:
                    cache.insert(key, occupied)
            hits = stats.hits - hits_before
            misses = stats.misses - misses_before
            stage.set(hits=hits, misses=misses)
        stage.count("cache.hits", hits)
        stage.count("cache.misses", misses)

    @contextmanager
    def _eviction_stage(self, record: BatchRecord) -> Iterator[None]:
        """Cache eviction, around whatever hands the evicted cells on."""
        stats = self.cache.stats
        evicted_before = stats.evicted
        with self.stage("cache_eviction", record, "cache") as stage:
            yield
            evicted = stats.evicted - evicted_before
            stage.set(evicted=evicted)
        self._add("evicted", record, evicted)
        stage.count("cache.evictions", evicted)

    def _apply_evicted(self, evicted: LeafBatch) -> None:
        """Overwrite the octree with the accumulated values of a batch."""
        tree = self._tree
        if self.kernel == "vector":
            tree.set_leaves_bulk(evicted.keys, evicted.values)
            return
        for key, value in evicted:
            tree.set_leaf(key, value)

    def finalize(self) -> None:
        """Flush every resident cache cell into the octree.

        After this the backend octree alone answers every query (used at
        the end of construction runs and before map serialisation).
        """
        record = self.batches[-1] if self.batches else BatchRecord()
        flushed = self.cache.flush()
        self._add("evicted", record, len(flushed))
        self.tracer.count("cache.evictions", len(flushed), category="cache")
        with self.stage(
            "octree_update", record, "octree", voxels=len(flushed), flush=True
        ):
            self._apply_evicted(flushed)

    # ------------------------------------------------------------------
    # Query path: cache first, octree on miss (query consistency, §4.2.1).
    # ------------------------------------------------------------------

    def query_key(self, key: VoxelKey) -> Optional[float]:
        """Occupancy for ``key``: resident cache cell wins, else octree."""
        return self.cache.query(key)

    @property
    def hit_ratio(self) -> float:
        """Insert-path cache hit ratio (the paper's Fig. 23 metric)."""
        return self.cache.stats.hit_ratio

    # ------------------------------------------------------------------
    # Memory accounting (repro.memsight).
    # ------------------------------------------------------------------

    def memory_breakdown(
        self, exact: bool = False, deep: bool = False, name: str = "pipeline"
    ):
        """Cache + octree footprint as one :class:`MemoryReport` subtree."""
        from repro.memsight.report import MemoryReport

        return MemoryReport(
            name,
            children=[
                self.cache.memory_breakdown(exact=exact),
                self._tree.memory_breakdown(exact=exact, deep=deep),
            ],
        )


class OctoCacheRTMap(OctoCacheMap):
    """OctoCache-RT: the cache behind duplicate-free ray tracing (§5).

    Intra-batch duplicates are gone before the cache; the cache still
    earns hits from *inter-batch* overlap and still reorders evictions
    into Morton order.
    """

    name = "OctoCache-RT"

    def __init__(
        self,
        resolution: float,
        depth: int = 16,
        params: Optional[OccupancyParams] = None,
        max_range: float = float("inf"),
        cache_config: Optional[CacheConfig] = None,
        kernel: str = "scalar",
    ) -> None:
        super().__init__(
            resolution=resolution,
            depth=depth,
            params=params,
            max_range=max_range,
            cache_config=cache_config,
            rt=True,
            kernel=kernel,
        )
