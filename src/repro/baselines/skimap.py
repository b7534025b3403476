"""SkiMap-like mapping pipeline (Table 1's software comparator).

SkiMap organises voxels in a three-level hierarchy of skip lists
(x-index → y-index → z-index), trading the octree's root-to-leaf
traversal for expected O(log n) ordered-index hops.  The OctoCache paper
(Table 1) credits this with addressing the octree bottleneck while
charging a much higher memory overhead — each voxel carries skip-list
tower pointers at three levels.  Both properties are measurable here.

Note SkiMap has no inner-node occupancy summaries: multi-resolution
queries and unknown-space reasoning degrade compared with the octree,
which is why the paper keeps the octree and caches in front of it.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.interface import BatchRecord, MappingSystem
from repro.baselines.skiplist import SkipList
from repro.octree.key import VoxelKey
from repro.sensor.scaninsert import ScanBatch

__all__ = ["SkiMapPipeline"]


class SkiMapPipeline(MappingSystem):
    """Occupancy mapping on nested skip lists (x → y → z)."""

    name = "SkiMap"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._index = SkipList(seed=1)

    def _process_batch(self, batch: ScanBatch, record: BatchRecord) -> None:
        params = self.params
        index = self._index
        # The skip-list update fills the octree-update slot of the ledger.
        with self.stage("octree_update", record, "octree", voxels=len(batch)):
            for key, occupied in batch.observations:
                x, y, z = key
                y_list = index.get(x)
                if y_list is None:
                    y_list = SkipList(seed=x + 2)
                    index.insert(x, y_list)
                z_list = y_list.get(y)
                if z_list is None:
                    z_list = SkipList(seed=y + 3)
                    y_list.insert(y, z_list)
                value = z_list.get(z)
                if value is None:
                    value = params.threshold
                z_list.insert(z, params.update(value, occupied))

    # ------------------------------------------------------------------
    # Query path.
    # ------------------------------------------------------------------

    def query_key(self, key: VoxelKey) -> Optional[float]:
        """Log-odds at ``key`` from the skip-list hierarchy."""
        y_list = self._index.get(key[0])
        if y_list is None:
            return None
        z_list = y_list.get(key[1])
        if z_list is None:
            return None
        return z_list.get(key[2])

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Footprint including every tower pointer at all three levels."""
        total = self._index.memory_bytes()
        for _x, y_list in self._index.items():
            total += y_list.memory_bytes()
            for _y, z_list in y_list.items():
                total += z_list.memory_bytes()
        return total

    def stored_voxels(self) -> int:
        """Number of voxels carrying occupancy values."""
        return sum(
            len(z_list)
            for _x, y_list in self._index.items()
            for _y, z_list in y_list.items()
        )
