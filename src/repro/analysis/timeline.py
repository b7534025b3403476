"""ASCII rendering of the serial / two-thread workflow timelines (Fig. 13).

The paper's Figure 13 explains OctoCache with stacked per-stage bars;
``render_serial_timeline`` and ``render_parallel_timeline`` reproduce that
visual from *measured* per-batch stage times, one character per time
quantum, so any run can print its own Figure 13.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.baselines.interface import BatchRecord
from repro.core.pipeline_model import SERIAL_STAGES

__all__ = ["render_serial_timeline", "render_parallel_timeline"]

#: Stage glyphs: ray tracing, cache insertion, cache eviction, octree
#: update, idle/waiting.
_GLYPHS = {"ray": "R", "insert": "I", "evict": "E", "octree": "O", "wait": "."}


def _bar(segments: Sequence[tuple], scale: float) -> str:
    chars: List[str] = []
    carry = 0.0
    for glyph, seconds in segments:
        carry += seconds * scale
        count = int(round(carry)) - len(chars)
        chars.extend(glyph * max(count, 0))
    return "".join(chars)


def render_serial_timeline(
    batches: Sequence[BatchRecord], width: int = 72
) -> str:
    """One-line serial timeline: stages of every batch back to back."""
    total = sum(batch.seconds(SERIAL_STAGES) for batch in batches)
    if total <= 0:
        return "(empty timeline)"
    scale = width / total
    segments = []
    for batch in batches:
        segments.extend(
            [
                (_GLYPHS["ray"], batch.ray_tracing),
                (_GLYPHS["insert"], batch.cache_insertion),
                (_GLYPHS["evict"], batch.cache_eviction),
                (_GLYPHS["octree"], batch.octree_update),
            ]
        )
    legend = "R ray tracing | I cache insert | E evict | O octree update | . wait"
    return f"serial : {_bar(segments, scale)}\n         ({legend})"


def render_parallel_timeline(
    batches: Sequence[BatchRecord], width: int = 72
) -> str:
    """Two-line timeline: thread 1 (critical path) and thread 2 (octree).

    Follows the schedule of
    :meth:`repro.core.pipeline_model.PipelineModel.simulate`: cache
    insertion of batch *i* waits for octree update *i−1*; octree update
    *i* streams from the start of eviction *i*.
    """
    if not batches:
        return "(empty timeline)"
    # Simulate to learn the makespan (for scaling) and the wait gaps.
    thread1_segments = []
    thread2_segments = []
    t1 = 0.0
    octree_done = 0.0
    for batch in batches:
        thread1_segments.append((_GLYPHS["ray"], batch.ray_tracing))
        t1 += batch.ray_tracing
        if octree_done > t1:
            thread1_segments.append((_GLYPHS["wait"], octree_done - t1))
            t1 = octree_done
        thread1_segments.append((_GLYPHS["insert"], batch.cache_insertion))
        t1 += batch.cache_insertion
        eviction_start = t1
        thread1_segments.append((_GLYPHS["evict"], batch.cache_eviction))
        t1 += batch.cache_eviction
        start = max(eviction_start, octree_done)
        thread2_segments.append((_GLYPHS["wait"], start - octree_done))
        thread2_segments.append((_GLYPHS["octree"], batch.octree_update))
        octree_done = start + batch.octree_update
    makespan = max(t1, octree_done)
    if makespan <= 0:
        return "(empty timeline)"
    scale = width / makespan
    legend = "R ray tracing | I cache insert | E evict | O octree update | . wait"
    return (
        f"thread1: {_bar(thread1_segments, scale)}\n"
        f"thread2: {_bar(thread2_segments, scale)}\n"
        f"         ({legend})"
    )
