"""Scan-to-voxel-batch conversion (the ray-tracing stage of Figure 4).

Two conversions are provided, matching the paper's evaluated systems:

- :func:`trace_scan` — vanilla OctoMap behaviour: every ray contributes all
  its free voxels and its occupied endpoint, *with duplicates preserved*.
  Rays form a cone, so voxels near the sensor are reported free many times,
  and dense clouds put many endpoints in one voxel (§3.1's 2.78–31.3×
  intra-batch duplication).
- :func:`trace_scan_rt` — OctoMap-RT behaviour: duplicates are eliminated
  during ray tracing and each voxel is observed at most once per batch,
  occupied winning over free (§5's description of OctoMap-RT).

Both accept ``kernel="scalar"`` (the per-ray Python reference oracle) or
``kernel="vector"`` (the batched numpy kernels of :mod:`repro.kernels`,
bit-exact with the oracle — same keys, flags and order).  The vector
path keeps the batch as arrays; :class:`ScanBatch` materialises tuple
observations lazily only when a consumer asks for them.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.octree.key import VoxelKey, keys_to_morton
from repro.sensor.pointcloud import PointCloud
from repro.sensor.raycast import compute_ray_keys, ray_endpoint_key

__all__ = ["ScanBatch", "trace_scan", "trace_scan_rt"]

#: One voxel observation: the voxel's key and whether it was seen occupied.
Observation = Tuple[VoxelKey, bool]


class ScanBatch:
    """The voxel observations produced by ray tracing one point cloud.

    Holds the stream either as a list of ``(key, occupied)`` tuples (the
    scalar tracer's output and the service wire format) or as numpy
    arrays (the vector kernels' output); whichever representation is
    missing is built lazily on first access.  Batches are immutable
    once constructed: the service's queue, journal and shard sink share
    one batch without copies (``docs/service.md``, "A scan's life"), so
    its arrays are read-only, and the derived counts
    (:attr:`num_occupied`, :attr:`duplication_ratio`) are computed once
    and cached instead of re-scanning the stream on every access.

    Args:
        observations: ``(key, occupied)`` pairs in ray-tracing order —
            the paper's "original order in OctoMap".
        num_rays: number of rays traced.
        keys: ``(M, 3)`` int64 voxel keys (array representation).
        occupied: ``(M,)`` bool occupied flags (array representation).
    """

    __slots__ = (
        "_observations",
        "num_rays",
        "_keys",
        "_occupied",
        "_num_occupied",
        "_num_unique",
    )

    def __init__(
        self,
        observations: Optional[List[Observation]] = None,
        num_rays: int = 0,
        keys: Optional[np.ndarray] = None,
        occupied: Optional[np.ndarray] = None,
    ) -> None:
        if observations is None and keys is None:
            raise ValueError("ScanBatch needs observations or key arrays")
        if (keys is None) != (occupied is None):
            raise ValueError("keys and occupied arrays come together")
        self._observations = observations
        self.num_rays = num_rays
        self._keys = None if keys is None else _read_only(keys)
        self._occupied = None if occupied is None else _read_only(occupied)
        self._num_occupied: Optional[int] = None
        self._num_unique: Optional[int] = None

    @classmethod
    def coerce(
        cls, observations: Union["ScanBatch", Iterable[Observation]]
    ) -> "ScanBatch":
        """A batch as is, or a ``(key, occupied)`` sequence copied into
        one — the platform's public entry points call this once."""
        if isinstance(observations, cls):
            return observations
        return cls(observations=list(observations))

    @classmethod
    def concat(cls, batches: Sequence["ScanBatch"]) -> "ScanBatch":
        """The batches' streams end to end, as one batch."""
        if len(batches) == 1:
            return batches[0]
        return cls(
            num_rays=sum(batch.num_rays for batch in batches),
            keys=np.concatenate([batch.keys_array() for batch in batches]),
            occupied=np.concatenate(
                [batch.occupied_array() for batch in batches]
            ),
        )

    def take(self, selector: np.ndarray) -> "ScanBatch":
        """The observations picked by an index array or a boolean mask,
        in the order the selector gives (stream order, for a mask)."""
        return ScanBatch(
            keys=self.keys_array()[selector],
            occupied=self.occupied_array()[selector],
        )

    def __len__(self) -> int:
        if self._observations is not None:
            return len(self._observations)
        return self._keys.shape[0]

    @property
    def observations(self) -> List[Observation]:
        """``(key, occupied)`` pairs; materialised from arrays on demand."""
        if self._observations is None:
            flags = self._occupied.tolist()
            self._observations = [
                ((key[0], key[1], key[2]), flag)
                for key, flag in zip(self._keys.tolist(), flags)
            ]
        return self._observations

    def keys_array(self) -> np.ndarray:
        """Voxel keys as an ``(M, 3)`` int64 array; built on demand."""
        if self._keys is None:
            self._keys = _read_only(
                np.array(
                    [key for key, _occupied in self._observations],
                    dtype=np.int64,
                ).reshape(-1, 3)
            )
        return self._keys

    def occupied_array(self) -> np.ndarray:
        """Occupied flags as an ``(M,)`` bool array; built on demand."""
        if self._occupied is None:
            count = len(self._observations)
            self._occupied = _read_only(
                np.fromiter(
                    (occupied for _key, occupied in self._observations),
                    dtype=bool,
                    count=count,
                )
            )
        return self._occupied

    @property
    def num_occupied(self) -> int:
        """Occupied observations (duplicates included); computed once."""
        if self._num_occupied is None:
            if self._occupied is not None:
                self._num_occupied = int(self._occupied.sum())
            else:
                self._num_occupied = sum(
                    1 for _key, occupied in self._observations if occupied
                )
        return self._num_occupied

    @property
    def num_free(self) -> int:
        """Free observations (duplicates included)."""
        return len(self) - self.num_occupied

    def unique_keys(self) -> Set[VoxelKey]:
        """Distinct voxels touched by this batch."""
        return {key for key, _occupied in self.observations}

    @property
    def duplication_ratio(self) -> float:
        """Total observations per distinct voxel (paper §3.1); cached."""
        if self._num_unique is None:
            if self._keys is not None:
                self._num_unique = (
                    int(np.unique(keys_to_morton(self._keys)).shape[0])
                    if self._keys.shape[0]
                    else 0
                )
            else:
                self._num_unique = len(self.unique_keys())
        return len(self) / self._num_unique if self._num_unique else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScanBatch(observations={len(self)}, num_rays={self.num_rays})"
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that refuses in-place writes."""
    view = array.view()
    view.flags.writeable = False
    return view


def trace_scan(
    cloud: PointCloud,
    resolution: float,
    depth: int,
    max_range: float = float("inf"),
    kernel: str = "scalar",
) -> ScanBatch:
    """Vanilla ray tracing: duplicates preserved, per-ray order.

    Each ray emits its free voxels from the sensor outward followed by the
    occupied endpoint voxel.  Points beyond ``max_range`` are truncated to
    the range limit and contribute only free space (OctoMap's maxrange
    semantics).  ``kernel="vector"`` traces the whole cloud through the
    batched numpy kernel — the identical stream, held as arrays.
    """
    if kernel == "vector":
        from repro.kernels.raytrace import trace_cloud_arrays

        keys, occupied, num_rays = trace_cloud_arrays(
            cloud, resolution, depth, max_range=max_range
        )
        return ScanBatch(num_rays=num_rays, keys=keys, occupied=occupied)
    if kernel != "scalar":
        from repro.kernels import validate_kernel

        validate_kernel(kernel)
    observations: List[Observation] = []
    append = observations.append
    origin = cloud.origin
    bounded = max_range != math.inf
    for point in cloud.as_array().tolist():
        endpoint = (point[0], point[1], point[2])
        truncated = False
        if bounded:
            dx = endpoint[0] - origin[0]
            dy = endpoint[1] - origin[1]
            dz = endpoint[2] - origin[2]
            distance = math.sqrt(dx * dx + dy * dy + dz * dz)
            if distance > max_range:
                scale = max_range / distance
                endpoint = (
                    origin[0] + dx * scale,
                    origin[1] + dy * scale,
                    origin[2] + dz * scale,
                )
                truncated = True
        for key in compute_ray_keys(origin, endpoint, resolution, depth):
            append((key, False))
        end_key = ray_endpoint_key(endpoint, resolution, depth)
        append((end_key, not truncated))
    return ScanBatch(observations=observations, num_rays=len(cloud))


def trace_scan_rt(
    cloud: PointCloud,
    resolution: float,
    depth: int,
    max_range: float = float("inf"),
    kernel: str = "scalar",
) -> ScanBatch:
    """Duplicate-free ray tracing (OctoMap-RT's method).

    Each distinct voxel is observed at most once per batch; a voxel that is
    both an endpoint for one ray and pass-through for another counts as
    occupied (occupied wins, matching OctoMap's batch-insert discrete
    semantics).  Observation order is first-touch order.  With
    ``kernel="vector"`` the duplicate elimination is the §4 single array
    pass (:func:`repro.kernels.dedup.dedup_observations`) over the
    vector-traced stream — same keys, flags and order by construction.
    """
    if kernel == "vector":
        from repro.kernels.dedup import dedup_observations
        from repro.kernels.raytrace import trace_cloud_arrays

        keys, occupied, num_rays = trace_cloud_arrays(
            cloud, resolution, depth, max_range=max_range
        )
        unique_keys, unique_occupied = dedup_observations(keys, occupied)
        return ScanBatch(
            num_rays=num_rays, keys=unique_keys, occupied=unique_occupied
        )
    raw = trace_scan(cloud, resolution, depth, max_range=max_range, kernel=kernel)
    occupied_keys: Set[VoxelKey] = {
        key for key, occupied in raw.observations if occupied
    }
    emitted: Set[VoxelKey] = set()
    observations: List[Observation] = []
    for key, _occupied in raw.observations:
        if key in emitted:
            continue
        emitted.add(key)
        observations.append((key, key in occupied_keys))
    return ScanBatch(observations=observations, num_rays=raw.num_rays)
