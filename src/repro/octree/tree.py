"""Probabilistic occupancy octree (the OctoMap substrate).

The tree stores log-odds occupancy at the finest level and maintains
max-of-children values on inner nodes, with OctoMap's pruning rule
(8 equal-valued leaf children collapse into their parent).  Updates and
queries perform the root-to-leaf traversal the paper identifies as the
bottleneck (§2.2, Figure 5): an update visits up to ``2 * depth`` nodes
(down and back up), a query up to ``depth``.

Every node visit increments :attr:`OccupancyOctree.node_visits` and, when a
visit hook is installed, reports the node's id — this trace is what the
:mod:`repro.simcache` simulator replays to model CPU-cache behaviour that
pure-Python timing cannot expose.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.morton import morton_decode3_array
from repro.octree.key import (
    VoxelKey,
    child_index,
    coord_to_key,
    key_to_coord,
    keys_to_morton,
)
from repro.octree.node import OctreeNode
from repro.octree.occupancy import OccupancyParams

__all__ = ["OccupancyOctree"]

#: Approximate bytes per node, mirroring OctoMap's compact C++ node
#: (float value + children pointer): used for memory-overhead reporting.
NODE_BYTES = 16


class OccupancyOctree:
    """An OctoMap-style occupancy octree.

    Args:
        resolution: edge length of the finest voxel, in metres.
        depth: number of tree levels below the root; the mapping boundary
            is a cube of side ``resolution * 2**depth`` centred at the
            origin.  OctoMap's default (and the paper's "standard") is 16.
        params: occupancy-update parameters; defaults to OctoMap's.
        visit_hook: optional callable invoked with ``node_id`` on every
            node visit (used by the memory simulator).
    """

    def __init__(
        self,
        resolution: float,
        depth: int = 16,
        params: Optional[OccupancyParams] = None,
        visit_hook: Optional[Callable[[int], None]] = None,
    ) -> None:
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        if not 1 <= depth <= 21:
            raise ValueError(f"depth must be in [1, 21], got {depth}")
        self.resolution = resolution
        self.depth = depth
        self.params = params or OccupancyParams()
        self.visit_hook = visit_hook
        self.node_visits = 0
        self._root: Optional[OctreeNode] = None
        self._next_node_id = 0
        self._num_nodes = 0
        self._changed_keys: Optional[set] = None
        self._key_limit = 1 << depth

    def _check_key(self, key: VoxelKey) -> None:
        """Reject keys outside the map: bits above ``depth`` would be
        silently ignored by the traversal (aliasing distinct voxels)."""
        limit = self._key_limit
        if (
            not 0 <= key[0] < limit
            or not 0 <= key[1] < limit
            or not 0 <= key[2] < limit
        ):
            raise ValueError(
                f"key {key} outside the map (components must be in [0, {limit}))"
            )

    # ------------------------------------------------------------------
    # Node allocation and visit accounting.
    # ------------------------------------------------------------------

    def _alloc(self, value: float) -> OctreeNode:
        node = OctreeNode(value, self._next_node_id)
        self._next_node_id += 1
        self._num_nodes += 1
        return node

    def _visit(self, node: OctreeNode) -> None:
        self.node_visits += 1
        if self.visit_hook is not None:
            self.visit_hook(node.node_id)

    # ------------------------------------------------------------------
    # Coordinate helpers.
    # ------------------------------------------------------------------

    def coord_to_key(self, coord: Tuple[float, float, float]) -> VoxelKey:
        """Discretise a metric coordinate to a finest-level voxel key."""
        return coord_to_key(coord, self.resolution, self.depth)

    def key_to_coord(self, key: VoxelKey) -> Tuple[float, float, float]:
        """Metric centre of the voxel addressed by ``key``."""
        return key_to_coord(key, self.resolution, self.depth)

    # ------------------------------------------------------------------
    # Updates.
    # ------------------------------------------------------------------

    def update_node(self, key: VoxelKey, occupied: bool) -> float:
        """Apply one occupied/free observation to the voxel at ``key``.

        Performs the full root-to-leaf round trip: traverse down (expanding
        pruned subtrees as needed), apply the clamped log-odds update at the
        leaf, then propagate max-of-children values back to the root,
        pruning where possible.  Returns the leaf's new log-odds value.
        """
        self._check_key(key)
        path = self._descend(key, create=True)
        leaf = path[-1]
        old_value = leaf.value
        leaf.value = self.params.update(leaf.value, occupied)
        self._ascend(path)
        if self._changed_keys is not None and leaf.value != old_value:
            self._changed_keys.add(key)
        return leaf.value

    def set_leaf(self, key: VoxelKey, value: float) -> None:
        """Overwrite the voxel at ``key`` with an absolute log-odds value.

        This is the operation cache eviction uses: the cache cell holds the
        fully accumulated (already clamped) occupancy, which replaces the
        octree's stale copy (paper §4.2.1).
        """
        self._check_key(key)
        path = self._descend(key, create=True)
        leaf = path[-1]
        if self._changed_keys is not None and leaf.value != value:
            self._changed_keys.add(key)
        leaf.value = value
        self._ascend(path)

    # ------------------------------------------------------------------
    # Change tracking (OctoMap's changedKeys: incremental consumers).
    # ------------------------------------------------------------------

    def enable_change_tracking(self) -> None:
        """Start recording the finest-level keys whose value changes.

        Incremental consumers (re-planners, map diff streaming) call
        :meth:`pop_changed_keys` after each update batch instead of
        re-scanning the whole map.
        """
        if self._changed_keys is None:
            self._changed_keys = set()

    def disable_change_tracking(self) -> None:
        """Stop recording and drop any pending changed keys."""
        self._changed_keys = None

    def pop_changed_keys(self) -> "set[VoxelKey]":
        """Return and clear the set of keys changed since the last pop.

        Raises :class:`RuntimeError` when tracking was never enabled.
        """
        if self._changed_keys is None:
            raise RuntimeError(
                "change tracking is disabled; call enable_change_tracking()"
            )
        changed = self._changed_keys
        self._changed_keys = set()
        return changed

    def update_batch(
        self, items: List[Tuple[VoxelKey, bool]]
    ) -> None:
        """Apply a batch of (key, occupied) observations in sequence."""
        for key, occupied in items:
            self.update_node(key, occupied)

    def _check_keys_array(self, keys: np.ndarray) -> None:
        """Vectorised :meth:`_check_key` over ``(U, 3)`` keys.

        Raises for the first offending row (stream order) with the exact
        per-key message; unlike the scalar batch loops the check runs
        up-front, so a bulk call is all-or-nothing.
        """
        limit = self._key_limit
        bad = (keys < 0) | (keys >= limit)
        if bad.any():
            index = int(np.argmax(bad.any(axis=1)))
            self._check_key(tuple(keys[index].tolist()))

    def update_batch_bulk(self, keys: np.ndarray, occupied: np.ndarray) -> None:
        """Array form of :meth:`update_batch`: grouped fold + bulk write.

        ``keys`` is ``(M, 3)`` int64 and ``occupied`` ``(M,)`` bool.  The
        stream is grouped by unique voxel, each voxel's base is read in
        one shared-path sweep (:meth:`search_batch`), its observation run
        is folded with the vector log-odds kernel, and the finals are
        written with :meth:`set_leaves_bulk`.  The resulting tree —
        values, pruning structure and node count — is identical to the
        sequential loop: per-voxel folds replay the same clamped updates,
        and intermediate prunes/expansions are value-preserving, so only
        the final leaf values (equal by construction) determine the tree.
        """
        from repro.kernels.dedup import group_observations
        from repro.kernels.logodds import fold_logodds

        keys = np.asarray(keys, dtype=np.int64)
        if keys.shape[0] == 0:
            return
        self._check_keys_array(keys)
        occupied = np.asarray(occupied, dtype=bool)
        groups = group_observations(keys, occupied)
        bases_list = self.search_batch(groups.keys)
        threshold = self.params.threshold
        bases = np.fromiter(
            (threshold if value is None else value for value in bases_list),
            dtype=np.float64,
            count=len(bases_list),
        )
        finals = fold_logodds(
            bases, groups.occ_sorted, groups.seg_starts, groups.counts, self.params
        )
        self.set_leaves_bulk(groups.keys, finals)

    def set_leaves_bulk(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Bulk :meth:`set_leaf`: same final tree, one shared-path sweep.

        ``keys`` is ``(U, 3)`` int64 with *distinct* rows, ``values`` the
        absolute log-odds to store.  Keys are applied in Morton order, so
        consecutive descents share their common-prefix path (the
        traversal the paper's Morton-ordered eviction is designed to
        exploit); max-of-children propagation and pruning are deferred
        into one bottom-up pass over the touched interior nodes instead
        of a full root round-trip per key.  The final tree is identical
        to sequential :meth:`set_leaf` calls: a parent's value/prune
        state is a function of its children's final values, which this
        computes children-first.  Change tracking is preserved;
        node-visit accounting is aggregate (the visit hook, a
        scalar-path instrument, does not fire here).
        """
        count = len(values)
        if count == 0:
            return
        keys = np.asarray(keys, dtype=np.int64)
        self._check_keys_array(keys)
        codes = keys_to_morton(keys)
        order = np.argsort(codes, kind="stable")
        sorted_arr = keys[order]
        sorted_keys = sorted_arr.tolist()
        sorted_values = np.asarray(values, dtype=np.float64)[order].tolist()

        depth = self.depth
        # Descent octants come straight out of the Morton code — bits
        # [3L, 3L+3) are the level-L child slot — so one vectorised
        # shift/mask replaces per-level bit fiddling inside the walk.
        shifts = (3 * np.arange(depth - 1, -1, -1)).astype(np.uint64)
        digit_rows = (
            ((codes[order][:, None] >> shifts) & np.uint64(7))
            .astype(np.int64)
            .tolist()
        )
        resumes: List[int] = []
        if count > 1:
            # Shared-prefix depth of consecutive keys, vectorised: the
            # frexp exponent of an exactly-represented positive integer
            # is its bit length (coords are < 2**21, well inside float64
            # exactness; rows are distinct so the XOR is never zero).
            diff = sorted_arr[1:] ^ sorted_arr[:-1]
            ored = (diff[:, 0] | diff[:, 1] | diff[:, 2]).astype(np.float64)
            resumes = (depth - np.frexp(ored)[1]).tolist()
        changed = self._changed_keys
        threshold = self.params.threshold
        # Allocation inlined (same node-id sequence as _alloc): the bulk
        # walk creates thousands of nodes, and the per-call overhead of
        # the helper plus two counter increments is measurable here.
        node_cls = OctreeNode
        node_id = self._next_node_id
        fresh_root = False
        if self._root is None:
            self._root = node_cls(threshold, node_id)
            node_id += 1
            fresh_root = True
        path = [self._root]
        # touched[j]: interior nodes at descent index j (root = 0) whose
        # subtree gained new leaf values.  Morton order walks the key set
        # as a depth-first trie traversal, so a node leaves ``path`` for
        # good once passed — every interior node is appended exactly once
        # and recording at append time needs no dedup.
        touched: List[List[OctreeNode]] = [[] for _ in range(depth)]
        touched[0].append(self._root)
        depth_m1 = depth - 1
        visits = 1
        for index, value in enumerate(sorted_values):
            if index:
                resume = resumes[index - 1]
                if resume > len(path) - 1:
                    resume = len(path) - 1
                else:
                    del path[resume + 1:]
                fresh = False
            else:
                resume = 0
                fresh = fresh_root
            digits = digit_rows[index]
            node = path[resume]
            for level_index in range(resume, depth):
                children = node.children
                if children is None:
                    if fresh:
                        children = node.children = [None] * 8
                    else:
                        # Expand a pruned subtree: descendants inherit.
                        inherited = node.value
                        children = node.children = [
                            node_cls(inherited, node_id + s)
                            for s in range(8)
                        ]
                        node_id += 8
                slot = digits[level_index]
                child = children[slot]
                if child is None:
                    child = node_cls(threshold, node_id)
                    node_id += 1
                    children[slot] = child
                    fresh = True
                node = child
                path.append(node)
                if level_index < depth_m1:
                    touched[level_index + 1].append(node)
                visits += 1
            if changed is not None and node.value != value:
                changed.add(tuple(sorted_keys[index]))
            node.value = value
        self._num_nodes += node_id - self._next_node_id
        self._next_node_id = node_id

        # Deferred propagation: deepest interior level first, so every
        # node sees its children's final values (cascading prunes
        # included) exactly as the per-key ascend would have left them.
        try_prune = self._try_prune
        for level_nodes in reversed(touched):
            visits += len(level_nodes)
            for node in level_nodes:
                if try_prune(node):
                    continue
                node.value = max(
                    child.value for child in node.children if child is not None
                )
        self.node_visits += visits

    def _descend(self, key: VoxelKey, create: bool) -> List[OctreeNode]:
        """Walk root→leaf along ``key``; return the visited node path.

        With ``create=True`` the finest-level leaf is guaranteed to exist on
        return.  Two distinct cases arise when a node has no children:

        - The node *pre-existed* this call: it is a pruned leaf whose value
          covers its whole subtree, so it is **expanded** — all 8 children
          are created with the parent's value (OctoMap's ``expandNode``).
        - The node was *created during this descent*: its siblings are
          genuinely unknown, so only the on-path child is created,
          initialised at the threshold (the paper's stated initial value).
        """
        fresh = False
        if self._root is None:
            if not create:
                return []
            self._root = self._alloc(self.params.threshold)
            fresh = True
        node = self._root
        self._visit(node)
        path = [node]
        for level in range(self.depth - 1, -1, -1):
            if node.children is None:
                if not create:
                    break
                if fresh:
                    node.children = [None] * 8
                else:
                    # Expand a pruned subtree: descendants inherit its value.
                    node.children = [self._alloc(node.value) for _ in range(8)]
            slot = child_index(key, level)
            child = node.children[slot]
            if child is None:
                if not create:
                    break
                child = self._alloc(self.params.threshold)
                node.children[slot] = child
                fresh = True
            node = child
            self._visit(node)
            path.append(node)
        return path

    def _ascend(self, path: List[OctreeNode]) -> None:
        """Propagate max-of-children upward along ``path`` and prune.

        Matches the paper's update path (Figure 5): the leaf and each
        ancestor are visited again on the way back to the root.
        """
        self._visit(path[-1])
        for index in range(len(path) - 2, -1, -1):
            parent = path[index]
            self._visit(parent)
            if self._try_prune(parent):
                continue
            parent.value = max(
                child.value for child in parent.children if child is not None
            )

    def _try_prune(self, node: OctreeNode) -> bool:
        """Collapse ``node``'s children when all 8 are equal-valued leaves."""
        if not node.has_all_children():
            return False
        children = node.children
        first = children[0]
        if first.children is not None:
            return False
        value = first.value
        for child in children[1:]:
            if child.children is not None or child.value != value:
                return False
        node.children = None
        node.value = value
        self._num_nodes -= 8
        return True

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def search(self, key: VoxelKey) -> Optional[float]:
        """Log-odds occupancy of the voxel at ``key``, or ``None`` if unknown.

        Traverses root-to-leaf; stops early at a pruned node, whose value
        covers all its descendants.
        """
        self._check_key(key)
        node = self._root
        if node is None:
            return None
        self._visit(node)
        for level in range(self.depth - 1, -1, -1):
            if node.children is None:
                return node.value  # pruned subtree: uniform occupancy
            child = node.children[child_index(key, level)]
            if child is None:
                return None
            node = child
            self._visit(node)
        return node.value

    def search_batch(self, keys: np.ndarray) -> List[Optional[float]]:
        """:meth:`search` for a whole ``(U, 3)`` key batch, in input order.

        Keys are walked in Morton order so consecutive descents reuse
        their common-prefix path instead of restarting at the root.
        Results are bit-exact with per-key :meth:`search` (pruned-node
        value, ``None`` for unknown, leaf value otherwise); node-visit
        accounting is aggregate and the visit hook does not fire.
        """
        keys = np.asarray(keys, dtype=np.int64)
        count = keys.shape[0]
        out: List[Optional[float]] = [None] * count
        if count == 0:
            return out
        self._check_keys_array(keys)
        if self._root is None:
            return out
        codes = keys_to_morton(keys)
        order = np.argsort(codes, kind="stable")
        sorted_keys = keys[order].tolist()
        positions = order.tolist()
        depth = self.depth
        path = [self._root]
        prev_x = prev_y = prev_z = -1
        prev_value: Optional[float] = None
        visits = 1
        for position, (kx, ky, kz) in zip(positions, sorted_keys):
            if prev_x >= 0:
                diff = (kx ^ prev_x) | (ky ^ prev_y) | (kz ^ prev_z)
                if diff == 0:
                    out[position] = prev_value
                    continue
                resume = depth - diff.bit_length()
                if resume > len(path) - 1:
                    resume = len(path) - 1
                else:
                    del path[resume + 1:]
            else:
                resume = 0
            node = path[resume]
            value: Optional[float] = None
            for level in range(depth - 1 - resume, -1, -1):
                children = node.children
                if children is None:
                    value = node.value  # pruned subtree: uniform occupancy
                    break
                child = children[
                    (((kx >> level) & 1) << 2)
                    | (((ky >> level) & 1) << 1)
                    | ((kz >> level) & 1)
                ]
                if child is None:
                    break
                node = child
                path.append(node)
                visits += 1
            else:
                value = node.value
            out[position] = value
            prev_x, prev_y, prev_z = kx, ky, kz
            prev_value = value
        self.node_visits += visits
        return out

    def search_at_level(self, key: VoxelKey, level: int) -> Optional[float]:
        """Occupancy of the size-``2**level`` voxel containing ``key``.

        Multi-resolution query (OctoMap's depth-limited ``search``):
        stops the root-to-leaf descent ``level`` levels early and returns
        that node's value — for an inner node the max over its subtree,
        i.e. a conservative occupancy summary of the whole block.  Used by
        hierarchical planners that clear large free regions in one query.
        """
        if not 0 <= level <= self.depth:
            raise ValueError(f"level must be in [0, {self.depth}], got {level}")
        node = self._root
        if node is None:
            return None
        self._visit(node)
        for current in range(self.depth - 1, level - 1, -1):
            if node.children is None:
                return node.value  # pruned subtree: uniform occupancy
            child = node.children[child_index(key, current)]
            if child is None:
                return None
            node = child
            self._visit(node)
        return node.value

    def query(self, coord: Tuple[float, float, float]) -> Optional[float]:
        """Log-odds occupancy at a metric coordinate (``None`` if unknown)."""
        return self.search(self.coord_to_key(coord))

    def is_occupied(self, coord: Tuple[float, float, float]) -> Optional[bool]:
        """Occupancy decision at a metric coordinate; ``None`` if unknown."""
        value = self.query(coord)
        if value is None:
            return None
        return self.params.is_occupied(value)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of allocated nodes currently in the tree."""
        return self._num_nodes

    def memory_bytes(self) -> int:
        """Estimated memory footprint using OctoMap's compact node size."""
        return self._num_nodes * NODE_BYTES

    def node_census(self) -> List[Tuple[int, int]]:
        """Exact per-depth ``(leaf, interior)`` node counts via a walk.

        Depth 0 is the root.  The summed census must equal
        :attr:`num_nodes` (the counter ``_alloc``/``_try_prune``
        maintain incrementally) — the memsight drift gate checks that.
        """
        census: List[List[int]] = []
        if self._root is None:
            return []
        stack: List[Tuple[OctreeNode, int]] = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            while len(census) <= depth:
                census.append([0, 0])
            if node.children is None:
                census[depth][0] += 1
                continue
            census[depth][1] += 1
            for child in node.children:
                if child is not None:
                    stack.append((child, depth + 1))
        return [(leaf, interior) for leaf, interior in census]

    def recount_nodes(self) -> int:
        """Total allocated nodes recounted by walking the tree (exact)."""
        return sum(leaf + interior for leaf, interior in self.node_census())

    def memory_breakdown(self, exact: bool = False, deep: bool = False):
        """Hierarchical footprint at :data:`NODE_BYTES` per node.

        The default is O(1) — ``nodes`` carries the incrementally
        maintained count.  ``exact=True`` recounts by walking the tree
        (same report shape, so drift against the default is meaningful).
        ``deep=True`` swaps the flat ``nodes`` leaf for a per-depth
        drill-down split into leaf vs interior nodes (always walked).
        """
        from repro.memsight.report import MemoryReport

        if deep:
            depths = []
            for depth, (leaves, interior) in enumerate(self.node_census()):
                children = []
                if leaves:
                    children.append(
                        MemoryReport("leaf", leaves * NODE_BYTES, leaves)
                    )
                if interior:
                    children.append(
                        MemoryReport(
                            "interior", interior * NODE_BYTES, interior
                        )
                    )
                if children:
                    depths.append(
                        MemoryReport(f"depth{depth:02d}", children=children)
                    )
            nodes = MemoryReport("nodes", children=depths)
        else:
            count = self.recount_nodes() if exact else self._num_nodes
            nodes = MemoryReport("nodes", count * NODE_BYTES, count)
        return MemoryReport("octree", children=[nodes])

    def iter_leaves(self) -> Iterator[Tuple[VoxelKey, int, float]]:
        """Yield ``(min_key, level, value)`` for every leaf node.

        ``level`` is 0 for finest-resolution leaves; a pruned leaf at level
        ``l`` covers a cube of ``2**l`` voxels per axis starting at
        ``min_key``.
        """
        if self._root is None:
            return
        stack: List[Tuple[OctreeNode, int, int, int, int]] = [
            (self._root, self.depth, 0, 0, 0)
        ]
        while stack:
            node, level, kx, ky, kz = stack.pop()
            if node.children is None:
                yield ((kx, ky, kz), level, node.value)
                continue
            half = 1 << (level - 1)
            for slot in range(8):
                child = node.children[slot]
                if child is None:
                    continue
                stack.append(
                    (
                        child,
                        level - 1,
                        kx + (half if slot & 4 else 0),
                        ky + (half if slot & 2 else 0),
                        kz + (half if slot & 1 else 0),
                    )
                )

    def iter_finest_leaves(self) -> Iterator[Tuple[VoxelKey, float]]:
        """Yield ``(key, value)`` for every finest-resolution voxel.

        Pruned subtrees are expanded on the fly (can be large for coarse
        pruned regions; intended for tests and small maps).
        """
        for (kx, ky, kz), level, value in self.iter_leaves():
            span = 1 << level
            for dx in range(span):
                for dy in range(span):
                    for dz in range(span):
                        yield ((kx + dx, ky + dy, kz + dz), value)

    def finest_leaf_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The voxels of :meth:`iter_finest_leaves` as ``(N, 3)`` int64
        keys and ``(N,)`` float64 log-odds, in ascending Morton order.

        Distinct rows, the input :meth:`set_leaves_bulk` takes: how a
        whole map is written into another tree.  Every checkpoint passes
        its map through here, so the walk fills two flat typed buffers,
        never a list of ``(tuple, float)`` pairs.
        """
        codes, values = array("Q"), array("d")

        def walk(node: OctreeNode, level: int, code: int) -> None:
            if level == 0:
                codes.append(code)
                values.append(node.value)
                return
            # A pruned node stands for eight children holding its value.
            for slot, child in enumerate(node.children or (node,) * 8):
                if child is not None:
                    walk(child, level - 1, code << 3 | slot)

        if self._root is not None:
            walk(self._root, self.depth, 0)
        keys = np.stack(morton_decode3_array(np.frombuffer(codes, dtype=np.uint64)), 1)
        # Components are < 2**21: reinterpreting as int64 needs no copy.
        return keys.view(np.int64), np.frombuffer(values, dtype=np.float64)

    def __len__(self) -> int:
        return self._num_nodes
