"""Merging and comparing occupancy octrees.

Multi-session and multi-robot mapping combine maps of the same space:
``merge_tree`` folds a source tree into a destination, either by
accumulating log-odds evidence (two independent observation sets) or by
overwriting (the source is newer).  ``map_agreement`` measures how far
two maps agree, used by the test-suite and handy for regression checks
on serialised maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.octree.tree import OccupancyOctree

__all__ = ["merge_tree", "merge_many", "map_agreement", "AgreementReport"]

_STRATEGIES = ("accumulate", "overwrite")


def merge_tree(
    destination: OccupancyOctree,
    source: OccupancyOctree,
    strategy: str = "accumulate",
) -> int:
    """Fold ``source`` into ``destination``; returns voxels transferred.

    Args:
        destination: tree receiving the data (modified in place).
        source: tree to read (unchanged).  Must share resolution/depth
            with the destination.
        strategy: ``"accumulate"`` treats the source as independent
            evidence and adds its log-odds (clamped) onto the
            destination's; ``"overwrite"`` replaces destination values —
            appropriate when the source supersedes (e.g. a cache flush).
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"strategy must be one of {_STRATEGIES}, got {strategy!r}")
    if source.resolution != destination.resolution:
        raise ValueError(
            f"resolution mismatch: {source.resolution} vs {destination.resolution}"
        )
    if source.depth != destination.depth:
        raise ValueError(f"depth mismatch: {source.depth} vs {destination.depth}")
    keys, values = source.finest_leaf_arrays()
    if strategy == "accumulate":
        params = destination.params
        existing, found = destination.search_batch(keys)
        summed = np.minimum(
            np.maximum(existing + values, params.min_occ), params.max_occ
        )
        # Unknown to the destination: the source value goes in as is.
        values = np.where(found, summed, values)
    destination.set_leaves_bulk(keys, values)
    return len(values)


def merge_many(
    destination: OccupancyOctree,
    sources: Iterable[OccupancyOctree],
    strategy: str = "accumulate",
) -> int:
    """Fold several source trees into ``destination``; returns total voxels.

    Sources are merged in iteration order, so with ``"overwrite"`` a later
    source wins where sources overlap.
    """
    transferred = 0
    for source in sources:
        transferred += merge_tree(destination, source, strategy)
    return transferred


@dataclass(frozen=True)
class AgreementReport:
    """Outcome of comparing two maps voxel by voxel.

    Attributes:
        compared: voxels known to the reference map.
        matching: voxels with identical occupancy *decisions*.
        missing: reference voxels unknown to the other map.
        decision_agreement: ``matching / compared`` (1.0 when empty).
    """

    compared: int
    matching: int
    missing: int

    @property
    def decision_agreement(self) -> float:
        if self.compared == 0:
            return 1.0
        return self.matching / self.compared


def map_agreement(
    reference: OccupancyOctree, other: OccupancyOctree
) -> AgreementReport:
    """Compare occupancy decisions of ``other`` against ``reference``.

    Iterates the reference's finest leaves; a voxel matches when both
    maps make the same occupied/free decision.
    """
    compared = 0
    matching = 0
    missing = 0
    params = reference.params
    for key, value in reference.iter_finest_leaves():
        compared += 1
        other_value = other.search(key)
        if other_value is None:
            missing += 1
            continue
        if params.is_occupied(value) == other.params.is_occupied(other_value):
            matching += 1
    return AgreementReport(compared=compared, matching=matching, missing=missing)
