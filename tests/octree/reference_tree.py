"""Test-side reference: the scalar pointer octree the array tree replaced.

One Python object per node, one ``set_leaf`` round trip per key — the
tree as it stood before nodes moved into numpy arrays, kept so the
differential suites compare the production tree with code that shares
none of its storage or its level-wise passes.  Only the semantics are
here (descend with expand-or-create, ascend with max-of-children and
the 8-equal-leaves prune, change tracking, the v2 byte stream); no
bulk fast paths, no instrumentation beyond the visit trace.
"""

import struct
import zlib

from repro.octree.key import child_index
from repro.octree.occupancy import OccupancyParams

_HEADER = struct.Struct("<4sBdB5d")
_NODE = struct.Struct("<dB")


class ReferenceNode:
    __slots__ = ("value", "children")

    def __init__(self, value):
        self.value = value
        self.children = None


class ReferenceOctree:
    def __init__(self, resolution, depth=16, params=None):
        self.resolution = resolution
        self.depth = depth
        self.params = params or OccupancyParams()
        self.num_nodes = 0
        self.root = None
        self.changed = None
        self.visits = 0

    def _alloc(self, value):
        self.num_nodes += 1
        return ReferenceNode(value)

    # -- updates --------------------------------------------------------

    def update_node(self, key, occupied):
        path = self._descend(key)
        leaf = path[-1]
        old = leaf.value
        leaf.value = self.params.update(old, occupied)
        self._ascend(path)
        if self.changed is not None and leaf.value != old:
            self.changed.add(key)
        return leaf.value

    def set_leaf(self, key, value):
        path = self._descend(key)
        leaf = path[-1]
        if self.changed is not None and leaf.value != value:
            self.changed.add(key)
        leaf.value = value
        self._ascend(path)

    def set_leaves_bulk(self, keys, values):
        for key, value in zip(keys, values):
            self.set_leaf(tuple(int(c) for c in key), float(value))

    def _descend(self, key):
        fresh = False
        if self.root is None:
            self.root = self._alloc(self.params.threshold)
            fresh = True
        node = self.root
        path = [node]
        for level in range(self.depth - 1, -1, -1):
            if node.children is None:
                if fresh:
                    node.children = [None] * 8
                else:
                    # A pruned block: its descendants inherit its value.
                    node.children = [self._alloc(node.value) for _ in range(8)]
            slot = child_index(key, level)
            child = node.children[slot]
            if child is None:
                child = self._alloc(self.params.threshold)
                node.children[slot] = child
                fresh = True
            node = child
            path.append(node)
        self.visits += len(path)
        return path

    def _ascend(self, path):
        self.visits += len(path)
        for parent in reversed(path[:-1]):
            if self._try_prune(parent):
                continue
            parent.value = max(
                child.value for child in parent.children if child is not None
            )

    def _try_prune(self, node):
        children = node.children
        if any(child is None for child in children):
            return False
        first = children[0]
        for child in children:
            if child.children is not None or child.value != first.value:
                return False
        node.children = None
        node.value = first.value
        self.num_nodes -= 8
        return True

    # -- reads ----------------------------------------------------------

    def search(self, key):
        return self.search_at_level(key, 0)

    def search_at_level(self, key, stop):
        node = self.root
        if node is None:
            return None
        self.visits += 1
        for level in range(self.depth - 1, stop - 1, -1):
            if node.children is None:
                return node.value
            node = node.children[child_index(key, level)]
            if node is None:
                return None
            self.visits += 1
        return node.value

    def pop_changed_keys(self):
        changed, self.changed = self.changed, set()
        return changed

    def iter_leaves(self):
        """``(min_key, level, value)`` per leaf node, unordered."""
        stack = [(self.root, self.depth, 0, 0, 0)] if self.root else []
        while stack:
            node, level, kx, ky, kz = stack.pop()
            if node.children is None:
                yield (kx, ky, kz), level, node.value
                continue
            half = 1 << (level - 1)
            for slot, child in enumerate(node.children):
                if child is not None:
                    stack.append(
                        (
                            child,
                            level - 1,
                            kx + (half if slot & 4 else 0),
                            ky + (half if slot & 2 else 0),
                            kz + (half if slot & 1 else 0),
                        )
                    )

    def finest_leaves(self):
        """Sorted ``(key, value)`` of every finest voxel (blocks expanded)."""
        out = []
        for (kx, ky, kz), level, value in self.iter_leaves():
            span = range(1 << level)
            out.extend(
                ((kx + dx, ky + dy, kz + dz), value)
                for dx in span
                for dy in span
                for dz in span
            )
        return sorted(out)

    def node_census(self):
        census = []
        stack = [(self.root, 0)] if self.root else []
        while stack:
            node, depth = stack.pop()
            while len(census) <= depth:
                census.append([0, 0])
            census[depth][node.children is not None] += 1
            for child in node.children or ():
                if child is not None:
                    stack.append((child, depth + 1))
        return [tuple(row) for row in census]

    def to_bytes(self):
        """The version-2 blob ``repro.octree.serialize`` must produce."""
        params = self.params
        chunks = [
            _HEADER.pack(
                b"ROCT", 2, self.resolution, self.depth, params.threshold,
                params.delta_occupied, params.delta_free,
                params.min_occ, params.max_occ,
            ),
            bytes([self.root is not None]),
        ]

        def write(node):
            children = node.children or ()
            mask = sum(1 << s for s, c in enumerate(children) if c is not None)
            chunks.append(_NODE.pack(node.value, mask))
            for child in children:
                if child is not None:
                    write(child)

        if self.root is not None:
            write(self.root)
        payload = b"".join(chunks)
        return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
