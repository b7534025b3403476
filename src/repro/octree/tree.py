"""Probabilistic occupancy octree (the OctoMap substrate).

The tree stores log-odds occupancy at the finest level and maintains
max-of-children values on inner nodes, with OctoMap's pruning rule
(8 equal-valued leaf children collapse into their parent).  Updates and
queries perform the root-to-leaf traversal the paper identifies as the
bottleneck (§2.2, Figure 5): an update visits up to ``2 * depth`` nodes
(down and back up), a query up to ``depth``.

Nodes live in growable numpy arrays, not objects: ``values`` (float64
log-odds), ``children`` (``(N, 8)`` int32 slots, −1 = absent) and a leaf
flag, with a free list recycling the slots pruning releases.  A node *is*
its slot index (the root is slot 0).  The scalar operations walk
``memoryview``s of the arrays one key at a time; the bulk operations
(:meth:`OccupancyOctree.set_leaves_bulk`, :meth:`~OccupancyOctree.search_batch`)
walk them one *tree level* per numpy pass.

Every node visit increments :attr:`OccupancyOctree.node_visits` and, when a
visit hook is installed, reports the node's slot — this trace is what the
:mod:`repro.simcache` simulator replays to model CPU-cache behaviour that
pure-Python timing cannot expose.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.morton import morton_decode3_array, morton_encode3
from repro.octree.key import (
    VoxelKey,
    ancestor_level,
    coord_to_key,
    key_to_coord,
    keys_to_morton,
)
from repro.octree.occupancy import OccupancyParams

__all__ = ["OccupancyOctree"]

#: Approximate bytes per node, mirroring OctoMap's compact C++ node
#: (float value + children pointer): used for memory-overhead reporting.
NODE_BYTES = 16

_INITIAL_CAPACITY = 256
_NO_CHILDREN = memoryview(np.full(8, -1, dtype=np.int32))
_SLOTS = np.arange(8, dtype=np.uint64)


class OccupancyOctree:
    """An OctoMap-style occupancy octree.

    Args:
        resolution: edge length of the finest voxel, in metres.
        depth: number of tree levels below the root; the mapping boundary
            is a cube of side ``resolution * 2**depth`` centred at the
            origin.  OctoMap's default (and the paper's "standard") is 16.
        params: occupancy-update parameters; defaults to OctoMap's.
        visit_hook: optional callable invoked with the node's slot on
            every node visit (used by the memory simulator).  Slots are
            recycled after a prune.
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
        self._num_nodes = 0
        #: Slots ever handed out; the root is slot 0, so 0 = empty tree.
        self._size = 0
        self._free: List[int] = []
        self._changed_keys: Optional[set] = None
        self._key_limit = 1 << depth
        self._reserve(_INITIAL_CAPACITY)

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
    # Node storage.  Unused slots always read "leaf, no children", so an
    # allocation only has to write the value.
    # ------------------------------------------------------------------

    def _reserve(self, capacity: int) -> None:
        """(Re)allocate the node arrays and re-take their memoryviews."""
        size = self._size
        values = np.empty(capacity, dtype=np.float64)
        children = np.full((capacity, 8), -1, dtype=np.int32)
        leaf = np.ones(capacity, dtype=bool)
        if size:
            values[:size] = self._values[:size]
            children[:size] = self._children[:size]
            leaf[:size] = self._leaf[:size]
        self._values, self._children, self._leaf = values, children, leaf
        self._children_flat = children.reshape(-1)
        self._mv_values = memoryview(values)
        self._mv_children = memoryview(self._children_flat)
        self._mv_leaf = memoryview(leaf)

    def _alloc(self, value: float) -> int:
        """One node slot holding ``value`` (the caller reserved room)."""
        self._num_nodes += 1
        if self._free:
            node = self._free.pop()
        else:
            node = self._size
            self._size = node + 1
        self._mv_values[node] = value
        return node

    def _alloc_many(self, count: int) -> np.ndarray:
        """``count`` node slots, recycled ones first; may re-allocate the
        arrays, so callers re-read ``self._values`` etc. afterwards."""
        self._num_nodes += count
        free = self._free
        reused = min(count, len(free))
        fresh = count - reused
        if self._size + fresh > len(self._values):
            self._reserve(max(2 * len(self._values), self._size + fresh))
        slots = np.arange(self._size, self._size + fresh, dtype=np.intp)
        self._size += fresh
        if reused:
            slots = np.concatenate(
                [np.array(free[len(free) - reused:], dtype=np.intp), slots]
            )
            del free[len(free) - reused:]
        return slots

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
        path = self._descend(key, [])
        values = self._mv_values
        leaf = path[-1]
        old_value = values[leaf]
        new_value = values[leaf] = self.params.update(old_value, occupied)
        self._ascend(path)
        if self._changed_keys is not None and new_value != old_value:
            self._changed_keys.add(key)
        return new_value

    def set_leaf(self, key: VoxelKey, value: float) -> None:
        """Overwrite the voxel at ``key`` with an absolute log-odds value.

        This is the operation cache eviction uses: the cache cell holds the
        fully accumulated (already clamped) occupancy, which replaces the
        octree's stale copy (paper §4.2.1).
        """
        self._check_key(key)
        path = self._descend(key, [])
        values = self._mv_values
        leaf = path[-1]
        if self._changed_keys is not None and values[leaf] != value:
            self._changed_keys.add(key)
        values[leaf] = value
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
        one level-wise sweep (:meth:`search_batch`), its observation run
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
        bases, found = self.search_batch(groups.keys)
        bases[~found] = self.params.threshold
        finals = fold_logodds(
            bases, groups.occ_sorted, groups.seg_starts, groups.counts, self.params
        )
        self.set_leaves_bulk(groups.keys, finals)

    def set_leaves_bulk(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Bulk :meth:`set_leaf`: same final tree, one pass per tree level.

        ``keys`` is ``(U, 3)`` int64 with *distinct* rows (a repeated key
        raises :class:`ValueError` before anything is written), ``values``
        the absolute log-odds to store.  Keys are sorted by Morton code,
        so the keys under one node are one contiguous run; each level then
        handles the *distinct* path nodes at that depth in one vectorised
        step — expand the pruned blocks met on the way into 8 inheriting
        children, allocate the missing on-path children at the threshold,
        gather the child slots — and after the leaf write one bottom-up
        pass per level does max-of-children and the 8-equal-leaves prune.
        The final tree is identical to sequential :meth:`set_leaf` calls:
        a parent's value/prune state is a function of its children's
        final values, which this computes children-first.  Change
        tracking is preserved; node-visit accounting is aggregate (the
        visit hook, a scalar-path instrument, does not fire here).
        """
        count = len(values)
        if count == 0:
            return
        keys = np.asarray(keys, dtype=np.int64)
        self._check_keys_array(keys)
        codes = keys_to_morton(keys)
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        keys = keys[order]
        repeated = codes[1:] == codes[:-1]
        if repeated.any():
            key = tuple(keys[int(np.argmax(repeated))].tolist())
            raise ValueError(f"set_leaves_bulk needs distinct keys; {key} repeats")
        new_values = np.asarray(values, dtype=np.float64)[order]

        depth = self.depth
        # shared[i]: tree levels key i's path shares with key i-1's (-1
        # for the first), so key i starts a new node at every depth
        # beyond it.  The frexp exponent of an exactly-represented
        # positive integer is its bit length (coordinates are < 2**21).
        shared = np.full(count, -1, dtype=np.int64)
        if count > 1:
            differing = keys[1:] ^ keys[:-1]
            differing = differing[:, 0] | differing[:, 1] | differing[:, 2]
            shared[1:] = depth - np.frexp(differing.astype(np.float64))[1]

        threshold = self.params.threshold
        fresh = np.array([self._size == 0])
        if fresh[0]:
            self._alloc_many(1)
            self._values[0] = threshold
        nodes = np.zeros(1, dtype=np.intp)
        interior = []
        for level in range(depth):
            interior.append(nodes)
            # A pre-existing leaf on the path is a pruned block: its
            # descendants inherit its value.  A node this call created
            # has genuinely unknown siblings, so gets no such children.
            blocks = nodes[self._leaf[nodes] & ~fresh]
            if blocks.size:
                inherited = np.repeat(self._values[blocks], 8)
                kids = self._alloc_many(8 * blocks.size)
                self._values[kids] = inherited
                self._children[blocks] = kids.reshape(-1, 8)
            self._leaf[nodes] = False
            starts = np.flatnonzero(shared <= level)
            parents = nodes[np.cumsum(shared[starts] < level) - 1]
            digits = (codes[starts] >> np.uint64(3 * (depth - 1 - level))) & np.uint64(7)
            cells = parents * 8 + digits.astype(np.intp)
            nodes = self._children_flat[cells].astype(np.intp)
            fresh = nodes < 0
            if fresh.any():
                created = self._alloc_many(int(fresh.sum()))
                self._values[created] = threshold
                self._children_flat[cells[fresh]] = created
                nodes[fresh] = created
        # Distinct keys: ``nodes`` is now one finest leaf per key.
        if self._changed_keys is not None:
            moved = self._values[nodes] != new_values
            self._changed_keys.update(map(tuple, keys[moved].tolist()))
        self._values[nodes] = new_values

        visits = count
        for level in reversed(range(depth)):
            nodes = interior[level]
            visits += 2 * nodes.size
            kids = self._children[nodes]
            present = kids >= 0
            child_values = np.where(present, self._values[kids], -np.inf)
            # argmax keeps the first of equal maxima, as ``max()`` does:
            # the sign of a zero survives exactly as on the scalar path.
            first_max = child_values.argmax(axis=1)
            self._values[nodes] = child_values[np.arange(nodes.size), first_max]
            prune = (
                present.all(axis=1)
                & self._leaf[kids].all(axis=1)
                & (child_values == child_values[:, :1]).all(axis=1)
            )
            if prune.any():
                pruned = nodes[prune]
                self._children[pruned] = -1
                self._leaf[pruned] = True
                self._free.extend(kids[prune].ravel().tolist())
                self._num_nodes -= 8 * pruned.size
        self.node_visits += visits

    def _descend(self, key: VoxelKey, path: List[int]) -> List[int]:
        """Extend ``path`` down to ``key``'s finest leaf, creating it.

        ``path`` is empty (start at the root) or a root-first node path
        already on the way to ``key`` (the path-caching inserter resumes
        from the deepest shared ancestor).  Two distinct cases arise when
        a node has no children:

        - The node *pre-existed* this call: it is a pruned leaf whose value
          covers its whole subtree, so it is **expanded** — all 8 children
          are created with the parent's value (OctoMap's ``expandNode``).
        - The node was *created during this descent*: its siblings are
          genuinely unknown, so only the on-path child is created,
          initialised at the threshold (the paper's stated initial value).
        """
        depth = self.depth
        if self._size + 8 * depth + 1 > len(self._values):
            self._reserve(2 * len(self._values) + 8 * depth)
        values, children, leaf = self._mv_values, self._mv_children, self._mv_leaf
        alloc = self._alloc
        hook = self.visit_hook
        threshold = self.params.threshold
        fresh = False
        if not path:
            if not self._size:
                alloc(threshold)
                fresh = True
            path.append(0)
        node = path[-1]
        if hook is not None:
            hook(node)
        kx, ky, kz = key
        self.node_visits += depth + 2 - len(path)
        for level in range(depth - len(path), -1, -1):
            base = node << 3
            if leaf[node]:
                leaf[node] = False
                if not fresh:
                    inherited = values[node]
                    for cell in range(base, base + 8):
                        children[cell] = alloc(inherited)
            cell = (
                base
                | (((kx >> level) & 1) << 2)
                | (((ky >> level) & 1) << 1)
                | ((kz >> level) & 1)
            )
            node = children[cell]
            if node < 0:
                node = children[cell] = alloc(threshold)
                fresh = True
            if hook is not None:
                hook(node)
            path.append(node)
        return path

    def _ascend(self, path: List[int], stop: int = 0, revisit_leaf: bool = True) -> None:
        """Propagate max-of-children from ``path``'s leaf up to
        ``path[stop]``, pruning nodes whose 8 children are equal leaves.

        Matches the paper's update path (Figure 5): the leaf and each
        ancestor are visited again on the way back to the root.
        """
        values, children, leaf = self._mv_values, self._mv_children, self._mv_leaf
        hook = self.visit_hook
        self.node_visits += len(path) - 1 - stop + revisit_leaf
        if revisit_leaf and hook is not None:
            hook(path[-1])
        for index in range(len(path) - 2, stop - 1, -1):
            parent = path[index]
            if hook is not None:
                hook(parent)
            base = parent << 3
            kids = children[base:base + 8].tolist()
            child_values = [values[kid] for kid in kids if kid >= 0]
            # ``max`` keeps the first of equal maxima: after a prune the
            # parent holds its first child's value, as OctoMap's does.
            best = values[parent] = max(child_values)
            if (
                len(child_values) == 8
                and min(child_values) == best
                and all([leaf[kid] for kid in kids])
            ):
                children[base:base + 8] = _NO_CHILDREN
                leaf[parent] = True
                self._free.extend(kids)
                self._num_nodes -= 8

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def search(self, key: VoxelKey) -> Optional[float]:
        """Log-odds occupancy of the voxel at ``key``, or ``None`` if unknown.

        Traverses root-to-leaf; stops early at a pruned node, whose value
        covers all its descendants.
        """
        self._check_key(key)
        return self._walk(morton_encode3(key[0], key[1], key[2]), 0)

    def _walk(self, code: int, stop: int) -> Optional[float]:
        """Value of the node ``stop`` levels above the finest voxel with
        Morton code ``code``, whose 3-bit groups are the child slots of
        the root-to-leaf path."""
        if not self._size:
            return None
        children, leaf = self._mv_children, self._mv_leaf
        hook = self.visit_hook
        node = 0
        visits = 1
        if hook is not None:
            hook(0)
        for shift in range(3 * self.depth - 3, 3 * stop - 1, -3):
            if leaf[node]:
                break  # pruned subtree: uniform occupancy
            node = children[(node << 3) | ((code >> shift) & 7)]
            if node < 0:
                self.node_visits += visits
                return None
            visits += 1
            if hook is not None:
                hook(node)
        self.node_visits += visits
        return self._mv_values[node]

    def search_batch(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`search` for a whole ``(U, 3)`` key batch, in input order.

        Returns ``(values, found)``: ``found[i]`` is false where
        :meth:`search` would return ``None`` (and ``values[i]`` is NaN),
        otherwise ``values[i]`` is bit-exact with it (pruned-node value
        or leaf value).  All keys step down one tree level per numpy
        pass, a key dropping out of the active set where its path ends.
        Node-visit accounting is aggregate and the visit hook does not
        fire.
        """
        keys = np.asarray(keys, dtype=np.int64)
        count = keys.shape[0]
        found = np.zeros(count, dtype=bool)
        if count == 0:
            return np.empty(0, dtype=np.float64), found
        self._check_keys_array(keys)
        if not self._size:
            return np.full(count, np.nan), found
        found[:] = True
        codes = keys_to_morton(keys)
        depth = self.depth
        nodes = np.zeros(count, dtype=np.intp)
        active = np.arange(count)
        visits = count
        for level in range(depth):
            at = nodes[active]
            inner = ~self._leaf[at]  # a pruned block answers for its subtree
            active, at = active[inner], at[inner]
            if not active.size:
                break
            digits = (codes[active] >> np.uint64(3 * (depth - 1 - level))) & np.uint64(7)
            child = self._children_flat[at * 8 + digits.astype(np.intp)]
            known = child >= 0
            found[active[~known]] = False
            active = active[known]
            nodes[active] = child[known]
            visits += active.size
        self.node_visits += visits
        values = self._values[nodes]
        values[~found] = np.nan
        return values, found

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
        return self._walk(morton_encode3(key[0], key[1], key[2]), level)

    def cursor(self) -> Callable[[VoxelKey], Optional[float]]:
        """A :meth:`search` for a run of nearby keys (one ray's voxels) that
        resumes where its last call stopped.

        Same answers and ``ValueError`` as :meth:`search`, but a key inside
        the block that answered last — a pruned leaf or an absent child at
        level ``L`` covers every key agreeing with the last one above bit
        ``L`` — costs one :func:`~repro.octree.key.ancestor_level`, and any
        other descends from the deepest ancestor it shares with the last
        key.  Only newly entered nodes count as visits and reach the hook.
        Dead after any write to the tree: take one per ray.
        """
        depth = self.depth
        children, leaf, values = self._mv_children, self._mv_leaf, self._mv_values
        hook = self.visit_hook
        path = [0] * (depth + 1)  # path[level]: node last entered there; root on top
        # No key shares bit ``depth``: the first read starts above the root.
        previous: VoxelKey = (1 << depth,) * 3
        # Keys within ``block`` levels of ``previous`` have ``value``; an
        # empty tree is one absent block.
        block = depth + 1 if not self._size else -1
        value: Optional[float] = None

        def search(key: VoxelKey) -> Optional[float]:
            nonlocal previous, block, value
            kx, ky, kz = key
            if (kx | ky | kz) >> depth:  # a component < 0 or >= 2**depth
                self._check_key(key)
            level = ancestor_level(key, previous)
            if level <= block:
                return value
            previous = key
            visits = 0
            if level > depth:
                level, visits = depth, 1
                if hook is not None:
                    hook(0)
            node = path[level]
            while not leaf[node]:
                level -= 1
                node = children[
                    (node << 3)
                    | (((kx >> level) & 1) << 2)
                    | (((ky >> level) & 1) << 1)
                    | ((kz >> level) & 1)
                ]
                if node < 0:
                    break
                path[level] = node
                visits += 1
                if hook is not None:
                    hook(node)
            self.node_visits += visits
            block = level
            value = values[node] if node >= 0 else None
            return value

        return search

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

    def _levels(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """``(nodes, codes)`` of every node at depth 0, 1, … — each level
        in ascending Morton-prefix order, gathered in one pass."""
        nodes = np.zeros(min(self._size, 1), dtype=np.intp)
        codes = np.zeros(nodes.size, dtype=np.uint64)
        while nodes.size:
            yield nodes, codes
            kids = self._children[nodes]
            present = kids >= 0
            nodes = kids[present].astype(np.intp)
            codes = ((codes[:, None] << np.uint64(3)) | _SLOTS)[present]

    def node_census(self) -> List[Tuple[int, int]]:
        """Exact per-depth ``(leaf, interior)`` node counts via a walk.

        Depth 0 is the root.  The summed census must equal
        :attr:`num_nodes` (the counter allocation and pruning maintain
        incrementally) — the memsight drift gate checks that.
        """
        census = []
        for nodes, _codes in self._levels():
            leaves = int(self._leaf[nodes].sum())
            census.append((leaves, nodes.size - leaves))
        return census

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

    def iter_leaves(
        self,
        min_key: VoxelKey = (0, 0, 0),
        max_key: Optional[VoxelKey] = None,
    ) -> Iterator[Tuple[VoxelKey, int, float]]:
        """Yield ``(min_key, level, value)`` for every leaf node.

        ``level`` is 0 for finest-resolution leaves; a pruned leaf at level
        ``l`` covers a cube of ``2**l`` voxels per axis starting at
        ``min_key``.  With a key box (inclusive on both ends) only leaves
        intersecting it are yielded, and subtrees wholly outside are
        culled without descent.
        """
        if not self._size:
            return
        values, children, leaf = self._mv_values, self._mv_children, self._mv_leaf
        lo_x, lo_y, lo_z = min_key
        hi_x, hi_y, hi_z = max_key or (self._key_limit,) * 3
        stack = [(0, self.depth, 0, 0, 0)]
        while stack:
            node, level, kx, ky, kz = stack.pop()
            last = (1 << level) - 1
            if (
                kx > hi_x or ky > hi_y or kz > hi_z
                or kx + last < lo_x or ky + last < lo_y or kz + last < lo_z
            ):
                continue
            if leaf[node]:
                yield ((kx, ky, kz), level, values[node])
                continue
            half = 1 << (level - 1)
            # One int per axis and half, shared by the children it locates.
            xs, ys, zs = (kx, kx + half), (ky, ky + half), (kz, kz + half)
            for slot, child in enumerate(children[node << 3:(node << 3) + 8]):
                if child >= 0:
                    coords = xs[slot >> 2], ys[(slot >> 1) & 1], zs[slot & 1]
                    stack.append((child, level - 1, *coords))

    def iter_finest_leaves(self) -> Iterator[Tuple[VoxelKey, float]]:
        """Yield ``(key, value)`` for every finest-resolution voxel.

        Pruned subtrees are expanded on the fly (can be large for coarse
        pruned regions; intended for tests and small maps).
        """
        for key, level, value in self.iter_leaves():
            if not level:
                yield (key, value)
                continue
            (kx, ky, kz), span = key, 1 << level
            for dx in range(span):
                for dy in range(span):
                    for dz in range(span):
                        yield ((kx + dx, ky + dy, kz + dz), value)

    def finest_leaf_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The voxels of :meth:`iter_finest_leaves` as ``(N, 3)`` int64
        keys and ``(N,)`` float64 log-odds, in ascending Morton order.

        Distinct rows, the input :meth:`set_leaves_bulk` takes: how a
        whole map is written into another tree.  One gather per level:
        the frontier steps from every node to its children, a pruned
        block standing for eight children that hold its value.
        """
        nodes = np.zeros(min(self._size, 1), dtype=np.intp)
        codes = np.zeros(nodes.size, dtype=np.uint64)
        for _ in range(self.depth):
            kids = np.where(
                self._leaf[nodes][:, None], nodes[:, None], self._children[nodes]
            )
            present = kids >= 0
            nodes = kids[present]
            codes = ((codes[:, None] << np.uint64(3)) | _SLOTS)[present]
        keys = np.stack(morton_decode3_array(codes), 1)
        # Components are < 2**21: reinterpreting as int64 needs no copy.
        return keys.view(np.int64), self._values[nodes]

    def __len__(self) -> int:
        return self._num_nodes
