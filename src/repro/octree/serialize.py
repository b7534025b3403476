"""Binary serialisation of occupancy octrees.

A compact recursive format in the spirit of OctoMap's ``.ot`` files: a
header with resolution/depth/occupancy parameters, then a pre-order stream
where each node contributes its float value and an 8-bit child mask.
Round-tripping preserves the exact tree topology (including pruning state)
and all log-odds values.

Version 2 (current) appends a CRC-32 of everything before it, so a blob
corrupted in flight — the crash-recovery checkpoints in
:mod:`repro.resilience.recovery` ride on this format — fails loudly at
load time instead of silently reconstructing a wrong map.  Version 1
blobs (no checksum) still load.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.octree.occupancy import OccupancyParams
from repro.octree.tree import OccupancyOctree

__all__ = ["tree_to_bytes", "tree_from_bytes", "leaf_count", "save_tree", "load_tree"]

_MAGIC = b"ROCT"
_VERSION = 2
_HEADER = struct.Struct("<4sBdB5d")
# Doubles rather than OctoMap's float32: Python trees hold float64
# log-odds, and the round trip must be lossless.
_NODE = struct.Struct("<dB")
_NODE_DTYPE = np.dtype([("value", "<f8"), ("mask", "u1")])
_CRC = struct.Struct("<I")
#: Child slots present in each 8-bit mask, last first (a stack pops them
#: in ascending order).
_SLOTS_DESCENDING = [
    [slot for slot in range(7, -1, -1) if mask >> slot & 1] for mask in range(256)
]


def tree_to_bytes(tree: OccupancyOctree) -> bytes:
    """Serialise ``tree`` to a compact binary blob (CRC-32 protected)."""
    params = tree.params
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        tree.resolution,
        tree.depth,
        params.threshold,
        params.delta_occupied,
        params.delta_free,
        params.min_occ,
        params.max_occ,
    )
    payload = header + bytes([tree.num_nodes > 0]) + _node_records(tree)
    return payload + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)


def _node_records(tree: OccupancyOctree) -> bytes:
    """Every node's ``(value, child mask)`` record, in pre-order.

    The nodes are gathered level by level with their Morton prefixes;
    padding each prefix to full length and sorting by ``(prefix, depth)``
    is the pre-order walk — a node sorts before its descendants (same
    padded prefix or greater, deeper) and siblings sort by slot.
    """
    levels = list(tree._levels())
    if not levels:
        return b""
    nodes = np.concatenate([nodes for nodes, _codes in levels])
    padded = np.concatenate(
        [
            codes << np.uint64(3 * (tree.depth - depth))
            for depth, (_nodes, codes) in enumerate(levels)
        ]
    )
    depths = np.repeat(np.arange(len(levels)), [n.size for n, _codes in levels])
    nodes = nodes[np.lexsort((depths, padded))]
    records = np.empty(nodes.size, dtype=_NODE_DTYPE)
    records["value"] = tree._values[nodes]
    records["mask"] = np.packbits(
        tree._children[nodes] >= 0, axis=1, bitorder="little"
    ).ravel()
    return records.tobytes()


def leaf_count(blob: bytes) -> int:
    """Leaf records in a version-2 blob — the voxels it stores, a pruned
    block counting once — from one strided pass over the child masks."""
    return blob[_HEADER.size + _NODE.size : -_CRC.size : _NODE.size].count(0)


def tree_from_bytes(data: bytes) -> OccupancyOctree:
    """Reconstruct a tree serialised by :func:`tree_to_bytes`."""
    if len(data) < _HEADER.size + 1:
        raise ValueError("truncated octree blob")
    (
        magic,
        version,
        resolution,
        depth,
        threshold,
        delta_occupied,
        delta_free,
        min_occ,
        max_occ,
    ) = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}; not an octree blob")
    if version == _VERSION:
        if len(data) < _HEADER.size + 1 + _CRC.size:
            raise ValueError("truncated octree blob")
        (stored_crc,) = _CRC.unpack_from(data, len(data) - _CRC.size)
        data = data[: -_CRC.size]
        actual_crc = zlib.crc32(data) & 0xFFFFFFFF
        if stored_crc != actual_crc:
            raise ValueError(
                f"corrupt octree blob: CRC-32 mismatch "
                f"(stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            )
    elif version != 1:
        raise ValueError(f"unsupported octree blob version {version}")
    params = OccupancyParams(
        threshold=threshold,
        delta_occupied=delta_occupied,
        delta_free=delta_free,
        min_occ=min_occ,
        max_occ=max_occ,
    )
    tree = OccupancyOctree(resolution=resolution, depth=depth, params=params)
    offset = _HEADER.size
    (has_root,) = struct.unpack_from("<B", data, offset)
    offset += 1
    if has_root:
        offset += _read_nodes(tree, data, offset)
    if offset != len(data):
        raise ValueError(f"trailing bytes in octree blob ({len(data) - offset})")
    return tree


def _read_nodes(tree: OccupancyOctree, data: bytes, offset: int) -> int:
    """Load the pre-order node stream at ``offset``; returns bytes read.

    Node slots are handed out in stream order (the root is record 0),
    so only the child links need the walk: a stack of the child cells
    still waiting for their node, the next record always filling the
    top one.
    """
    records = np.frombuffer(
        data, dtype=_NODE_DTYPE, offset=offset,
        count=(len(data) - offset) // _NODE.size,
    )
    waiting: list = []
    used = 0
    links = np.full(8 * len(records), -1, dtype=np.int32)
    cells = memoryview(links)
    for node, mask in enumerate(records["mask"].tolist()):
        if node:
            if not waiting:
                break  # the tree is complete: what follows is trailing
            cells[waiting.pop()] = node
        used = node + 1
        if mask:
            base = node << 3
            waiting.extend([base + slot for slot in _SLOTS_DESCENDING[mask]])
    if waiting or not used:
        raise ValueError("truncated octree blob")
    slots = tree._alloc_many(used)
    tree._values[slots] = records["value"][:used]
    tree._children[slots] = links.reshape(-1, 8)[:used]
    tree._leaf[slots] = records["mask"][:used] == 0
    return used * _NODE.size


def save_tree(tree: OccupancyOctree, path: str) -> None:
    """Write ``tree`` to ``path`` in the binary format."""
    with open(path, "wb") as handle:
        handle.write(tree_to_bytes(tree))


def load_tree(path: str) -> OccupancyOctree:
    """Load a tree previously written by :func:`save_tree`."""
    with open(path, "rb") as handle:
        return tree_from_bytes(handle.read())
