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

from repro.octree.node import OctreeNode
from repro.octree.occupancy import OccupancyParams
from repro.octree.tree import OccupancyOctree

__all__ = ["tree_to_bytes", "tree_from_bytes", "leaf_count", "save_tree", "load_tree"]

_MAGIC = b"ROCT"
_VERSION = 2
_HEADER = struct.Struct("<4sBdB5d")
# Doubles rather than OctoMap's float32: Python trees hold float64
# log-odds, and the round trip must be lossless.
_NODE = struct.Struct("<dB")
_CRC = struct.Struct("<I")


def tree_to_bytes(tree: OccupancyOctree) -> bytes:
    """Serialise ``tree`` to a compact binary blob (CRC-32 protected)."""
    params = tree.params
    chunks = [
        _HEADER.pack(
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
    ]
    root = tree._root
    chunks.append(struct.pack("<B", 1 if root is not None else 0))
    if root is not None:
        _write_node(root, chunks)
    payload = b"".join(chunks)
    return payload + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)


def _write_node(node: OctreeNode, chunks: list) -> None:
    mask = 0
    if node.children is not None:
        for slot in range(8):
            if node.children[slot] is not None:
                mask |= 1 << slot
    chunks.append(_NODE.pack(node.value, mask))
    if node.children is not None:
        for slot in range(8):
            child = node.children[slot]
            if child is not None:
                _write_node(child, chunks)


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
        root, offset = _read_node(tree, data, offset)
        tree._root = root
    if offset != len(data):
        raise ValueError(f"trailing bytes in octree blob ({len(data) - offset})")
    return tree


def _read_node(
    tree: OccupancyOctree, data: bytes, offset: int
) -> "tuple[OctreeNode, int]":
    value, mask = _NODE.unpack_from(data, offset)
    offset += _NODE.size
    node = tree._alloc(value)
    if mask:
        node.children = [None] * 8
        for slot in range(8):
            if mask & (1 << slot):
                child, offset = _read_node(tree, data, offset)
                node.children[slot] = child
    return node, offset


def save_tree(tree: OccupancyOctree, path: str) -> None:
    """Write ``tree`` to ``path`` in the binary format."""
    with open(path, "wb") as handle:
        handle.write(tree_to_bytes(tree))


def load_tree(path: str) -> OccupancyOctree:
    """Load a tree previously written by :func:`save_tree`."""
    with open(path, "rb") as handle:
        return tree_from_bytes(handle.read())
