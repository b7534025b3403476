"""Tests for Morton-prefix shard routing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sensor.scaninsert import ScanBatch
from repro.service.sharding import ShardRouter

DEPTH = 8


class TestRouter:
    def test_single_shard_takes_everything(self):
        router = ShardRouter(1, DEPTH)
        for key in [(0, 0, 0), (255, 255, 255), (17, 3, 99)]:
            assert router.shard_of(key) == 0

    def test_deterministic_and_in_range(self):
        router = ShardRouter(4, DEPTH)
        for x in range(0, 256, 37):
            for y in range(0, 256, 41):
                key = (x, y, 5)
                shard = router.shard_of(key)
                assert 0 <= shard < 4
                assert router.shard_of(key) == shard

    def test_same_prefix_same_shard(self):
        """Keys inside one prefix block always co-locate (disjointness)."""
        router = ShardRouter(4, DEPTH, prefix_levels=4)
        block = 1 << (DEPTH - 4)
        base = (3 * block, 5 * block, 2 * block)
        shard = router.shard_of(base)
        for dx in range(block):
            key = (base[0] + dx, base[1], base[2])
            assert router.prefix_of(key) == router.prefix_of(base)
            assert router.shard_of(key) == shard

    def test_partition_preserves_order_and_covers_all(self):
        router = ShardRouter(3, DEPTH)
        observations = [((i, 2 * i % 256, 7), i % 2 == 0) for i in range(64)]
        parts = router.partition(ScanBatch.coerce(observations))
        assert len(parts) == 3
        assert sum(len(part) for part in parts) == len(observations)
        for shard_id, part in enumerate(parts):
            for key, _occ in part.observations:
                assert router.shard_of(key) == shard_id
            # Original (per-voxel) order preserved within the shard.
            indices = [key[0] for key, _occ in part.observations]
            assert indices == sorted(indices)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_partition_equals_the_scalar_router(self, data):
        """The array pass computes ``shard_of`` key for key, and each
        part keeps stream order: re-joined by original index the parts
        give the input back (repeated keys included)."""
        depth = data.draw(st.sampled_from([3, 6, 12, 16, 21]))
        router = ShardRouter(
            data.draw(st.integers(1, 5)),
            depth,
            salt=data.draw(st.sampled_from([0, 1, (1 << 64) - 1, 0x9E3779B9])),
        )
        component = st.integers(0, (1 << depth) - 1)
        keys = data.draw(
            st.lists(st.tuples(component, component, component), max_size=40)
        )
        observations = [
            (keys[index % len(keys)], index % 3 == 0)
            for index in range(2 * len(keys))
        ]
        parts = router.partition(ScanBatch.coerce(observations))
        assert [part.observations for part in parts] == [
            [obs for obs in observations if router.shard_of(obs[0]) == shard]
            for shard in range(router.num_shards)
        ]

    @pytest.mark.parametrize(
        "bad", [(3, -1, 0), (0, 0, 1 << DEPTH), ((1 << 21) - 1, 0, 0)]
    )
    def test_partition_rejects_a_key_outside_the_map(self, bad):
        """Array and scalar routing raise the same error — the key and
        the bounds, named — for the same keys, including a component in
        ``[2**depth, 2**21)`` that the encoder alone would alias."""
        router = ShardRouter(4, DEPTH)
        batch = ScanBatch.coerce([((1, 2, 3), True), (bad, False)])
        errors = []
        for route in (
            lambda: router.partition(batch),
            lambda: router.shard_of(bad),
            lambda: router.prefix_of(bad),
        ):
            with pytest.raises(ValueError, match=r"outside the map bounds") as info:
                route()
            errors.append(str(info.value))
        assert len(set(errors)) == 1
        assert str(bad) in errors[0] and "[0, 256)" in errors[0]

    def test_spread_on_flat_scene(self):
        """A flat (constant-z) scene must still reach every shard."""
        router = ShardRouter(4, DEPTH)
        touched = {
            router.shard_of((x, y, 3))
            for x in range(0, 256, 8)
            for y in range(0, 256, 8)
        }
        assert touched == {0, 1, 2, 3}

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRouter(0, DEPTH)
        with pytest.raises(ValueError):
            ShardRouter(2, 0)
        with pytest.raises(ValueError):
            ShardRouter(2, DEPTH, prefix_levels=DEPTH + 1)
        with pytest.raises(ValueError):
            ShardRouter(2, DEPTH, prefix_levels=0)

    def test_default_prefix_levels_scale_with_depth(self):
        assert ShardRouter(4, 12).prefix_levels <= 12
        assert ShardRouter(4, 3).prefix_levels <= 3
        # Huge shard counts force enough prefix cells.
        router = ShardRouter(512, 12)
        assert 8 ** router.prefix_levels >= 8 * 512

    def test_shallow_tree_many_shards_rejected(self):
        """depth=2 offers 64 routing cells; 64 shards would collapse
        routing onto a fraction of them — must be a clear error."""
        with pytest.raises(ValueError, match="too shallow"):
            ShardRouter(64, 2)
        with pytest.raises(ValueError, match="too shallow"):
            ShardRouter(9, 2)  # 8*9 = 72 > 64 cells

    def test_shallow_tree_boundary_balances(self):
        """The largest legal shard count for a shallow tree still routes
        work onto every shard (the shallow-tree/many-shards corner)."""
        depth = 2
        num_shards = 8  # 8 * 8 = 64 == 8**depth: exactly at the bound
        router = ShardRouter(num_shards, depth)
        assert 8 ** router.prefix_levels >= 8 * num_shards
        counts = [0] * num_shards
        limit = 1 << depth
        for x in range(limit):
            for y in range(limit):
                for z in range(limit):
                    counts[router.shard_of((x, y, z))] += 1
        assert all(count > 0 for count in counts)
        # The heaviest shard holds at most 4x its fair share.
        fair = (limit ** 3) / num_shards
        assert max(counts) <= 4 * fair

    def test_out_of_bounds_key_names_key_and_bounds(self):
        router = ShardRouter(4, DEPTH)
        with pytest.raises(ValueError, match=r"\(-1, 0, 0\).*\[0, 256\)"):
            router.shard_of((-1, 0, 0))
        with pytest.raises(ValueError, match=r"outside the map bounds"):
            router.shard_of((1 << 22, 0, 0))
