"""Adaptive cache sizing (an extension the paper leaves as tuning, §6.2.3).

Figure 23 shows the hit ratio rising with cache size until all inter- and
intra-batch duplication is captured, then flattening; the paper picks the
size offline (3–4× the average non-duplicate batch).  This module closes
the loop online: :class:`AdaptiveOctoCacheMap` monitors each batch's hit
ratio and grows the bucket array (power-of-two doubling, resident cells
rehashed) while hits keep improving, stopping automatically at the
saturation knee or a memory ceiling.

Useful when the workload is unknown up front — a UAV flying from open
ground into a cluttered interior needs a different cache size per regime.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.interface import BatchRecord
from repro.core.config import CacheConfig
from repro.core.octocache import OctoCacheMap
from repro.octree.occupancy import OccupancyParams
from repro.sensor.scaninsert import ScanBatch

__all__ = ["AdaptiveOctoCacheMap"]


class AdaptiveOctoCacheMap(OctoCacheMap):
    """OctoCache whose bucket count grows until hits saturate.

    Growth policy: after each batch, compare the batch's insert-path hit
    ratio against the previous batch's.  While the cache keeps evicting
    (it is full) *and* the hit ratio sits below ``target_hit_ratio``, the
    bucket array doubles — until ``max_memory_bytes`` would be exceeded
    or the last doubling failed to improve hits by ``min_gain``.

    Args:
        target_hit_ratio: stop growing once this hit ratio is reached.
        min_gain: a doubling must add at least this much hit ratio,
            otherwise growth is considered saturated (Figure 23's knee).
        max_memory_bytes: hard cap on the post-eviction cache footprint.
    """

    name = "OctoCache (adaptive)"

    def __init__(
        self,
        resolution: float,
        depth: int = 16,
        params: Optional[OccupancyParams] = None,
        max_range: float = float("inf"),
        cache_config: Optional[CacheConfig] = None,
        rt: bool = False,
        kernel: str = "scalar",
        target_hit_ratio: float = 0.9,
        min_gain: float = 0.01,
        max_memory_bytes: int = 14 * 1024 * 1024,  # the paper's 14MB budget
    ) -> None:
        cache_config = cache_config or CacheConfig(num_buckets=64)
        super().__init__(
            resolution=resolution,
            depth=depth,
            params=params,
            max_range=max_range,
            cache_config=cache_config,
            rt=rt,
            kernel=kernel,
        )
        if not 0.0 < target_hit_ratio <= 1.0:
            raise ValueError(
                f"target_hit_ratio must be in (0, 1], got {target_hit_ratio}"
            )
        if min_gain < 0.0:
            raise ValueError(f"min_gain must be non-negative, got {min_gain}")
        self.target_hit_ratio = target_hit_ratio
        self.min_gain = min_gain
        self.max_memory_bytes = max_memory_bytes
        self.resize_events: List[int] = []
        self._saturated = False
        self._ratio_before_resize: Optional[float] = None
        self._stalls = 0
        self._hits_before = 0
        self._inserts_before = 0

    # ------------------------------------------------------------------
    # Growth control.
    # ------------------------------------------------------------------

    def _batch_hit_ratio(self) -> float:
        stats = self.cache.stats
        hits = stats.hits - self._hits_before
        inserts = stats.insertions - self._inserts_before
        self._hits_before = stats.hits
        self._inserts_before = stats.insertions
        return hits / inserts if inserts else 0.0

    def _grow(self) -> None:
        """Double the bucket array, rehashing resident cells."""
        self.cache.rebucket(self.cache.config.num_buckets * 2)
        self.resize_events.append(self.cache.config.num_buckets)

    def _process_batch(self, batch: ScanBatch, record: BatchRecord) -> None:
        super()._process_batch(batch, record)
        if self._saturated:
            return
        ratio = self._batch_hit_ratio()
        if ratio >= self.target_hit_ratio:
            self._saturated = True
            return
        # Knee detection: a doubling must eventually pay off.  Per-batch
        # ratios are noisy (scan content varies), so growth stops only
        # after two consecutive doublings each failing to beat the
        # pre-resize ratio by min_gain.
        if self.resize_events and self._ratio_before_resize is not None:
            if ratio - self._ratio_before_resize < self.min_gain:
                self._stalls += 1
                if self._stalls >= 2:
                    self._saturated = True  # the Figure-23 knee
                    return
            else:
                self._stalls = 0
        if record.evicted == 0:
            return  # cache not under pressure; growth cannot add hits
        # Growth is proportional to pressure: a batch that evicted more
        # than the whole capacity clearly needs more than one doubling —
        # this makes the controller converge within a few batches even
        # when it starts orders of magnitude undersized.
        capacity = self.cache.config.capacity
        doublings = 1
        if record.evicted > capacity:
            doublings = 2
        if record.evicted > 4 * capacity:
            doublings = 3
        self._ratio_before_resize = ratio
        for _ in range(doublings):
            doubled = CacheConfig(
                num_buckets=self.cache.config.num_buckets * 2,
                bucket_threshold=self.cache.config.bucket_threshold,
            )
            if doubled.memory_bytes > self.max_memory_bytes:
                self._saturated = True
                return
            self._grow()

    @property
    def saturated(self) -> bool:
        """Whether growth stopped (knee reached, target met, or capped)."""
        return self._saturated
