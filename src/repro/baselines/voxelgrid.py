"""Dense voxel-grid mapping baseline (paper §2.1, Figure 2a).

A flat 3-D array of log-odds values over a fixed bounding box.  Updates
and queries are O(1) — no tree traversal — but memory grows with the
*mapped volume* rather than the observed surface, which is exactly the
trade-off that motivates OctoMap's octree (and therefore OctoCache).
Included as a comparator: fast updates, no memory frugality, no
unknown-space representation outside its box.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.baselines.interface import BatchRecord, MappingSystem
from repro.octree.key import VoxelKey
from repro.octree.occupancy import OccupancyParams
from repro.sensor.scaninsert import ScanBatch

__all__ = ["VoxelGridPipeline"]


class VoxelGridPipeline(MappingSystem):
    """Occupancy mapping on a dense numpy grid.

    The grid covers a cube of side ``resolution * 2**grid_depth`` centred
    at the origin — the same addressing as the octree at depth
    ``grid_depth``, so voxel keys are interchangeable.  ``grid_depth`` is
    deliberately separate from ``depth``: a dense array at octree depth 16
    would need 2^48 cells, which is the whole point of the comparison.

    Args:
        resolution: voxel edge length.
        grid_depth: log2 of the grid's side length in voxels (≤9 keeps
            the array under ~1 GB of float32 at 2^27 cells).
    """

    name = "VoxelGrid"

    #: Sentinel marking never-observed cells (outside log-odds range).
    _UNKNOWN = np.float32(np.finfo(np.float32).min)

    def __init__(
        self,
        resolution: float,
        grid_depth: int = 8,
        params: Optional[OccupancyParams] = None,
        max_range: float = float("inf"),
        rt: bool = False,
    ) -> None:
        if not 1 <= grid_depth <= 9:
            raise ValueError(
                f"grid_depth must be in [1, 9] (dense memory!), got {grid_depth}"
            )
        super().__init__(
            resolution=resolution,
            depth=grid_depth,
            params=params,
            max_range=max_range,
            rt=rt,
        )
        side = 1 << grid_depth
        self._grid = np.full((side, side, side), self._UNKNOWN, dtype=np.float32)

    def _process_batch(self, batch: ScanBatch, record: BatchRecord) -> None:
        grid = self._grid
        params = self.params
        unknown = self._UNKNOWN
        # The grid update fills the octree-update slot of the ledger.
        with self.stage("octree_update", record, "octree", voxels=len(batch)):
            for key, occupied in batch.observations:
                value = grid[key]
                if value == unknown:
                    value = params.threshold
                grid[key] = params.update(float(value), occupied)

    # ------------------------------------------------------------------
    # Query path: the octree API answered from the array.
    # ------------------------------------------------------------------

    def query_key(self, key: VoxelKey) -> Optional[float]:
        """Log-odds at ``key`` (``None`` when never observed)."""
        value = self._grid[key]
        if value == self._UNKNOWN:
            return None
        return float(value)

    def query(self, coord: Tuple[float, float, float]) -> Optional[float]:
        from repro.octree.key import coord_to_key

        return self.query_key(coord_to_key(coord, self.resolution, self.depth))

    def memory_bytes(self) -> int:
        """Dense footprint: every cell, observed or not."""
        return int(self._grid.nbytes)

    def memory_breakdown(self, exact: bool = False):
        """Footprint as a :class:`MemoryReport`: one dense ``grid`` leaf.

        ``numpy`` reports the array's exact allocation, so the default
        and ``exact=True`` paths are the same number — the kwarg exists
        for :class:`repro.memsight.report.MemoryMeter` parity.
        """
        from repro.memsight.report import MemoryReport

        side = self._grid.shape[0]
        return MemoryReport(
            "voxelgrid",
            children=[
                MemoryReport("grid", int(self._grid.nbytes), side**3)
            ],
        )

    def observed_voxels(self) -> int:
        """Number of cells carrying an actual observation."""
        return int(np.count_nonzero(self._grid != self._UNKNOWN))
