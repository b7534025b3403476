"""Morton-prefix spatial sharding.

A shard owns a set of coarse octree subtrees: the router takes the leading
3-bit groups of a voxel's Morton code — exactly the top levels of its
root-to-leaf path (see :mod:`repro.core.morton`) — and maps that prefix to
a shard.  Two consequences make this the right partition for the service:

1. **Disjoint ownership** — every voxel has exactly one shard, so shard
   octrees never overlap and the global snapshot is a plain union.
2. **Locality preserved** — voxels in the same coarse block share a prefix
   and land on the same shard, so each shard's cache sees the same
   spatial-locality regime the paper's single cache exploits (§4.3).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.morton import morton_encode3
from repro.octree.key import VoxelKey, keys_to_morton, validate_key
from repro.sensor.scaninsert import ScanBatch

__all__ = ["ShardRouter"]


class ShardRouter:
    """Routes voxel keys to shards by Morton-code prefix.

    Args:
        num_shards: shard count (>= 1).
        depth: octree depth; Morton codes of finest-level keys have
            ``3 * depth`` bits.
        prefix_levels: how many top octree levels form the routing prefix.
            Defaults to about two thirds of the tree depth (but always
            enough cells for ``8 * num_shards``): prefix blocks a few
            voxels wide spread even a scene occupying one corner of the
            map cube across all shards, while a contiguous surface patch
            still spans few enough blocks that shard caches keep their
            locality.  Fewer levels = coarser blocks (more per-shard
            locality, worse balance on concentrated scenes).
        salt: a 64-bit value XORed into the prefix before the mix.
            Distinct salts give distinct-but-deterministic placements of
            the same spatial blocks — this is how the tenant layer
            consistent-hashes ``(tenant_id, voxel_key)`` onto the shared
            shard pool: each tenant routes with
            ``salt = stable_hash(tenant_id)``, so identically shaped
            maps from different tenants do not all pile their hot
            blocks onto the same shards.  ``salt=0`` (default) is the
            single-tenant layout, unchanged.

    Raises:
        ValueError: when the tree is too shallow to give the modulo room
            to balance — even the full key (``prefix_levels = depth``,
            ``8**depth`` routing cells) yields fewer than
            ``8 * num_shards`` cells, which would collapse routing onto a
            fraction of the shards.  Use a deeper tree or fewer shards
            (at most ``8**depth // 8``).
    """

    def __init__(
        self,
        num_shards: int,
        depth: int,
        prefix_levels: "int | None" = None,
        salt: int = 0,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if num_shards > 1 and (8 ** depth) < 8 * num_shards:
            # Even routing on full keys cannot spread the map: with fewer
            # than 8 cells per shard the modulo leaves some shards nearly
            # (or completely) empty, silently serialising the service.
            raise ValueError(
                f"depth {depth} is too shallow for {num_shards} shards: "
                f"8**{depth} = {8 ** depth} routing cells < "
                f"8 * num_shards = {8 * num_shards}; use a deeper tree or "
                f"at most {max(1, (8 ** depth) // 8)} shard(s)"
            )
        if prefix_levels is None:
            prefix_levels = 1
            # 8**levels cells must give the modulo room to balance.
            while (8 ** prefix_levels) < 8 * num_shards:
                prefix_levels += 1
            # Prefer ~2/3 of the depth for locality, but never clamp back
            # below the balance requirement established above.
            prefix_levels = max(
                prefix_levels, min(depth, (2 * depth + 2) // 3)
            )
            prefix_levels = min(depth, prefix_levels)
        if not 1 <= prefix_levels <= depth:
            raise ValueError(
                f"prefix_levels must be in [1, {depth}], got {prefix_levels}"
            )
        self.num_shards = num_shards
        self.depth = depth
        self.prefix_levels = prefix_levels
        self.salt = salt & 0xFFFFFFFFFFFFFFFF
        self._shift = 3 * (depth - prefix_levels)

    def prefix_of(self, key: VoxelKey) -> int:
        """The routing prefix: the top ``prefix_levels`` 3-bit groups.

        A key outside the map raises (key and bounds named): bits above
        ``depth`` would otherwise alias it onto another block's prefix.
        """
        validate_key(key, self.depth)
        return morton_encode3(key[0], key[1], key[2]) >> self._shift

    def shard_of(self, key: VoxelKey) -> int:
        """Shard index owning ``key`` (deterministic, 0-based).

        The prefix is passed through a Fibonacci multiplicative mix
        before the modulo: the low bits of an interleaved prefix belong
        to single axes (a flat indoor scene barely varies its z bits, so
        ``prefix % n`` would collapse onto a fraction of the shards),
        whereas the mixed high bits depend on every axis.  Same prefix →
        same shard still holds, which is all disjointness needs.  The
        per-router ``salt`` lands before the multiply, so it perturbs
        every output bit rather than just shifting the modulo.
        """
        mixed = (
            (self.prefix_of(key) ^ self.salt) * 0x9E3779B97F4A7C15
        ) & 0xFFFFFFFFFFFFFFFF
        return (mixed >> 32) % self.num_shards

    def partition(self, batch: ScanBatch) -> List[ScanBatch]:
        """Split a batch into one batch per shard (empty ones included).

        :meth:`shard_of` as one array pass over the batch's keys, then a
        boolean mask per shard.  A mask keeps stream order, so all
        updates to one voxel stay on one shard in their original order —
        which is what makes the sharded map's accumulated values
        identical to a serially built map's.  A key outside the map
        raises as :meth:`prefix_of` does, before anything is split off.
        """
        keys = batch.keys_array()
        bad = (keys < 0) | (keys >> self.depth != 0)
        if bad.any():
            first = int(np.argmax(bad.any(axis=1)))
            validate_key(tuple(keys[first].tolist()), self.depth)
        # uint64 arithmetic wraps, which is shard_of's 64-bit mask.
        mixed = (
            (keys_to_morton(keys) >> np.uint64(self._shift))
            ^ np.uint64(self.salt)
        ) * np.uint64(0x9E3779B97F4A7C15)
        shard_ids = (mixed >> np.uint64(32)) % np.uint64(self.num_shards)
        return [
            batch.take(shard_ids == shard) for shard in range(self.num_shards)
        ]
