"""Vanilla OctoMap pipeline (the paper's primary baseline).

Every traced voxel observation — duplicates included — performs the full
root-to-leaf octree round trip (paper §2.2).  Queries are served from the
octree and, in the serial workflow, wait for the whole update to finish;
that waiting is what :meth:`critical_path_seconds` measures.
"""

from __future__ import annotations

from repro.baselines.interface import BatchRecord, MappingSystem
from repro.sensor.scaninsert import ScanBatch

__all__ = ["OctoMapPipeline"]


class OctoMapPipeline(MappingSystem):
    """OctoMap: ray tracing straight into the octree."""

    name = "OctoMap"

    def _process_batch(self, batch: ScanBatch, record: BatchRecord) -> None:
        tree = self._tree
        with self.stage("octree_update", record, "octree", voxels=len(batch)):
            if self.kernel == "vector":
                tree.update_batch_bulk(
                    batch.keys_array(), batch.occupied_array()
                )
            else:
                for key, occupied in batch.observations:
                    tree.update_node(key, occupied)
