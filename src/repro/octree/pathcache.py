"""Path-caching batch insertion: the software twin of the cache effect.

On real hardware, Morton-ordered insertion wins because consecutive
root-to-leaf descents re-touch the same ancestor nodes while they are
still in the CPU caches (paper §3.2).  A software implementation can
exploit exactly the same structure explicitly: keep the previous
insertion's root-to-leaf path and restart the descent from the deepest
still-shared ancestor instead of the root.

The work saved per insertion is ``depth(LCA(prev, cur))`` node steps —
precisely the quantity the paper's locality functional ``F(S)`` sums.
Consequences, measurable in pure-Python wall-clock:

- Morton order minimises total descent work (the §4.3 theorem, now as an
  algorithmic statement rather than a hardware one);
- the speedup of path-cached insertion over plain insertion for a given
  ordering is predicted by that ordering's ``F``.

`benchmarks/test_ablation_pathcache.py` measures both.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.octree.key import VoxelKey, ancestor_level
from repro.octree.tree import OccupancyOctree

__all__ = ["PathCachingInserter"]


class PathCachingInserter:
    """Inserts voxel batches into an octree with LCA path reuse.

    Semantically identical to calling
    :meth:`~repro.octree.tree.OccupancyOctree.update_node` per item —
    every consistency test that holds for the tree holds here — but the
    descent restarts from the deepest ancestor shared with the previous
    key, and the max-of-children back-propagation is deferred to the
    stretch of the path actually abandoned.

    Pruning interacts with path reuse (a cached path may die when an
    ancestor collapses), so subtree pruning is applied lazily when a path
    segment is abandoned, exactly as the back-propagation is.
    """

    def __init__(self, tree: OccupancyOctree) -> None:
        self.tree = tree
        #: Root-first node slots of the previous insertion's path.
        self._path: List[int] = []
        self._key: Optional[VoxelKey] = None
        #: Node steps actually descended (the work measure F predicts).
        self.descent_steps = 0

    # ------------------------------------------------------------------
    # Batch API.
    # ------------------------------------------------------------------

    def insert(self, key: VoxelKey, occupied: bool) -> float:
        """Apply one observation, reusing the cached path prefix."""
        tree = self.tree
        tree._check_key(key)
        path = self._path
        if path:
            # Retract: back-propagate and prune the abandoned suffix.
            self._retract_to(tree.depth - ancestor_level(key, self._key))
        # The tree's own descent, resumed: the node it restarts from
        # pre-existed this descent, so a childless node met on the way
        # is a pruned (or expansion-inherited) leaf whose value its
        # descendants inherit.
        self.descent_steps += tree.depth + 1 - max(len(path), 1)
        leaf = tree._descend(key, path)[-1]
        values = tree._mv_values
        value = values[leaf] = tree.params.update(values[leaf], occupied)
        self._key = key
        return value

    def insert_batch(
        self, items: Iterable[Tuple[VoxelKey, bool]]
    ) -> None:
        """Insert a sequence of ``(key, occupied)`` observations."""
        for key, occupied in items:
            self.insert(key, occupied)

    def finish(self) -> None:
        """Flush pending back-propagation; call after the batch."""
        if self._path:
            self._retract_to(0)
        self._path = []
        self._key = None

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def __enter__(self) -> "PathCachingInserter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    def _retract_to(self, shared: int) -> None:
        """Back-propagate and prune along the abandoned path suffix."""
        self.tree._ascend(self._path, shared, revisit_leaf=False)
        del self._path[shared + 1:]
