"""Analytic two-thread pipeline model (Figure 13, §6.2.2).

Projects parallel-OctoCache throughput from measured serial stage times.
CPython's GIL prevents two pure-Python threads from overlapping compute,
so the real :class:`repro.core.parallel.ParallelOctoCacheMap` demonstrates
the schedule and consistency; *this* model answers the paper's throughput
question — "how much does moving the octree update to thread 2 save?" —
by replaying the paper's own timeline (Figure 13b):

- thread 1, batch *i*: ray tracing → wait for octree update of batch
  *i−1* → cache insertion → cache eviction → buffer enqueue;
- thread 2, batch *i*: octree update, serialised after batch *i−1*'s
  update.

The paper's bound follows directly: per batch, parallelisation can save at
most ``min(T_raytracing + T_cache_eviction, T_octree_update)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.baselines.interface import BatchRecord

__all__ = ["PipelineModel", "SERIAL_STAGES"]

#: The stages one batch runs back to back in the serial workflow.
SERIAL_STAGES = (
    "ray_tracing",
    "cache_insertion",
    "cache_eviction",
    "octree_update",
)


@dataclass(frozen=True)
class PipelineTimeline:
    """Result of simulating the two-thread schedule."""

    serial_seconds: float
    parallel_seconds: float
    thread1_wait_seconds: float

    @property
    def speedup(self) -> float:
        """Serial / parallel makespan (1.0 when there is nothing to run)."""
        if self.parallel_seconds == 0.0:
            return 1.0
        return self.serial_seconds / self.parallel_seconds


class PipelineModel:
    """Simulates the serial and two-thread OctoCache timelines."""

    def __init__(self, batches: Iterable[BatchRecord]) -> None:
        #: Measured per-batch records (any pipeline's ``batches`` list).
        self.batches: List[BatchRecord] = list(batches)

    def simulate(self) -> PipelineTimeline:
        """Run both timelines; returns makespans and the thread-1 wait.

        The serial makespan sums every stage; the parallel makespan follows
        Figure 13(b): cache insertion of batch *i* waits for the octree
        update of batch *i−1*, and thread 2 serialises octree updates.
        """
        serial = sum(batch.seconds(SERIAL_STAGES) for batch in self.batches)
        thread1 = 0.0
        octree_done = 0.0
        total_wait = 0.0
        for batch in self.batches:
            thread1 += batch.ray_tracing
            if octree_done > thread1:
                total_wait += octree_done - thread1
                thread1 = octree_done
            thread1 += batch.cache_insertion
            # Eviction streams voxels through the shared buffer, so thread
            # 2's octree update starts as eviction starts (the
            # readerwriterqueue design, §4.4) — overlapping this batch's
            # eviction and the next batch's ray tracing.
            eviction_start = thread1
            thread1 += batch.cache_eviction + batch.enqueue
            start = max(eviction_start, octree_done)
            octree_done = start + batch.octree_update
        parallel = max(thread1, octree_done)
        return PipelineTimeline(
            serial_seconds=serial,
            parallel_seconds=parallel,
            thread1_wait_seconds=total_wait,
        )

    def max_theoretical_gain(self) -> float:
        """Paper's bound: ``min(T_raytracing + T_cacheeviction, T_octree)``.

        Octree updates can hide only behind ray tracing and cache eviction
        (cache insertion is mutex-excluded from octree writes), so the
        total saving is capped both by the octree work available to hide
        and by the room to hide it in.
        """
        hideable = sum(b.ray_tracing + b.cache_eviction for b in self.batches)
        octree = sum(b.octree_update for b in self.batches)
        return min(hideable, octree)
