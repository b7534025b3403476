"""Tests for the OctoCache voxel cache: insertion, query, eviction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import VoxelCache
from repro.core.config import CacheConfig
from repro.core.morton import morton_encode3
from repro.octree.occupancy import OccupancyParams
from repro.octree.tree import OccupancyOctree

keys = st.tuples(
    st.integers(min_value=0, max_value=31),
    st.integers(min_value=0, max_value=31),
    st.integers(min_value=0, max_value=31),
)


def make_cache(num_buckets=16, tau=2, morton=True, backend=None):
    return VoxelCache(
        CacheConfig(
            num_buckets=num_buckets,
            bucket_threshold=tau,
            use_morton_indexing=morton,
        ),
        backend=backend,
    )


class TestInsertion:
    def test_miss_then_hit(self):
        cache = make_cache()
        cache.insert((1, 1, 1), True)
        cache.insert((1, 1, 1), True)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_ratio == 0.5

    def test_accumulates_like_octomap(self):
        cache = make_cache()
        params = cache.params
        value = params.threshold
        for occupied in (True, True, False, True):
            cache.insert((2, 3, 4), occupied)
            value = params.update(value, occupied)
        assert cache.lookup((2, 3, 4)) == pytest.approx(value)

    def test_miss_seeds_from_backend(self):
        backend = OccupancyOctree(resolution=0.1, depth=5)
        backend.update_node((1, 1, 1), True)
        octree_value = backend.search((1, 1, 1))
        cache = make_cache(backend=backend)
        cache.insert((1, 1, 1), True)
        expected = cache.params.update(octree_value, True)
        assert cache.lookup((1, 1, 1)) == pytest.approx(expected)
        assert cache.stats.octree_fills == 1

    def test_miss_without_backend_record_starts_at_threshold(self):
        cache = make_cache(backend=OccupancyOctree(resolution=0.1, depth=5))
        cache.insert((9, 9, 9), False)
        expected = cache.params.update(cache.params.threshold, False)
        assert cache.lookup((9, 9, 9)) == pytest.approx(expected)
        assert cache.stats.octree_fills == 0

    def test_bucket_can_exceed_tau_within_batch(self):
        cache = make_cache(num_buckets=1, tau=1)
        for i in range(5):
            cache.insert((i, 0, 0), True)
        assert cache.resident_voxels == 5  # growth allowed until eviction

    def test_insert_batch(self):
        cache = make_cache()
        cache.insert_batch([((1, 1, 1), True), ((2, 2, 2), False)])
        assert cache.resident_voxels == 2


class TestIndexing:
    def test_morton_indexing_uses_morton_code(self):
        cache = make_cache(num_buckets=16, morton=True)
        key = (3, 5, 7)
        assert cache.bucket_index(key) == morton_encode3(3, 5, 7) % 16

    def test_hash_indexing_within_range(self):
        cache = make_cache(num_buckets=16, morton=False)
        for key in [(1, 2, 3), (30, 20, 10), (0, 0, 0)]:
            assert 0 <= cache.bucket_index(key) < 16

    def test_morton_adjacent_voxels_share_buckets_more(self):
        """Morton indexing clusters near voxels; generic hashing scatters."""
        near = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
        morton_cache = make_cache(num_buckets=1024, morton=True)
        morton_buckets = {morton_cache.bucket_index(k) for k in near}
        # The 8 voxels of one octant span 8 consecutive Morton codes.
        assert max(morton_buckets) - min(morton_buckets) == 7


class TestQuery:
    def test_query_hit_from_cache(self):
        cache = make_cache()
        cache.insert((1, 1, 1), True)
        assert cache.query((1, 1, 1)) is not None
        assert cache.stats.query_hits == 1

    def test_query_miss_falls_through_to_octree(self):
        backend = OccupancyOctree(resolution=0.1, depth=5)
        backend.update_node((7, 7, 7), True)
        cache = make_cache(backend=backend)
        assert cache.query((7, 7, 7)) == pytest.approx(backend.search((7, 7, 7)))
        assert cache.stats.query_misses == 1

    def test_query_unknown_returns_none(self):
        cache = make_cache(backend=OccupancyOctree(resolution=0.1, depth=5))
        assert cache.query((9, 9, 9)) is None

    def test_is_occupied(self):
        cache = make_cache()
        cache.insert((1, 1, 1), True)
        cache.insert((2, 2, 2), False)
        assert cache.is_occupied((1, 1, 1)) is True
        assert cache.is_occupied((2, 2, 2)) is False
        assert cache.is_occupied((3, 3, 3)) is None

    def test_contains(self):
        cache = make_cache()
        cache.insert((1, 1, 1), True)
        assert (1, 1, 1) in cache
        assert (2, 2, 2) not in cache


class TestEviction:
    def test_trims_to_tau(self):
        cache = make_cache(num_buckets=1, tau=2)
        for i in range(5):
            cache.insert((i, 0, 0), True)
        evicted = cache.evict()
        assert len(evicted) == 3
        assert cache.resident_voxels == 2

    def test_evicts_earliest_inserted(self):
        cache = make_cache(num_buckets=1, tau=1)
        cache.insert((0, 0, 0), True)
        cache.insert((1, 0, 0), True)
        evicted = cache.evict()
        assert [key for key, _v in evicted] == [(0, 0, 0)]
        assert (1, 0, 0) in cache

    def test_eviction_carries_accumulated_value(self):
        cache = make_cache(num_buckets=1, tau=0 + 1)
        for _ in range(3):
            cache.insert((0, 0, 0), True)
        cache.insert((1, 0, 0), True)  # force overflow
        evicted = dict(iter(cache.evict()))
        expected = cache.params.threshold
        for _ in range(3):
            expected = cache.params.update(expected, True)
        assert evicted[(0, 0, 0)] == pytest.approx(expected)

    def test_underfull_buckets_untouched(self):
        cache = make_cache(num_buckets=16, tau=4)
        cache.insert((1, 1, 1), True)
        assert len(cache.evict()) == 0
        assert cache.resident_voxels == 1

    def test_morton_eviction_order_within_window(self):
        """With Morton indexing, evicted voxels of one Morton window come
        out in Morton order (the §4.3 property)."""
        cache = make_cache(num_buckets=64, tau=1, morton=True)
        voxels = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
        # Insert twice so every bucket holds 2 > tau cells.
        for v in voxels:
            cache.insert(v, True)
        for v in reversed(voxels):
            # Re-insert hits the same cells; add a neighbour to overflow.
            cache.insert((v[0] + 2, v[1], v[2]), True)
        evicted_codes = [morton_encode3(*key) % 64 for key, _v in cache.evict()]
        assert evicted_codes == sorted(evicted_codes)

    def test_flush_empties_cache(self):
        cache = make_cache()
        for i in range(10):
            cache.insert((i, 0, 0), True)
        evicted = cache.flush()
        assert len(evicted) == 10
        assert cache.resident_voxels == 0
        assert len(cache) == 0

    def test_memory_bound_after_eviction(self):
        config = CacheConfig(num_buckets=8, bucket_threshold=2)
        cache = VoxelCache(config)
        for x in range(16):
            for y in range(8):
                cache.insert((x, y, 0), True)
        cache.evict()
        assert cache.resident_voxels <= config.capacity
        assert cache.memory_bytes() <= config.memory_bytes


class TestStatsProperties:
    @given(st.lists(st.tuples(keys, st.booleans()), min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_counters_consistent(self, items):
        cache = make_cache(num_buckets=8, tau=2)
        for key, occupied in items:
            cache.insert(key, occupied)
        stats = cache.stats
        assert stats.insertions == len(items)
        assert stats.misses == cache.resident_voxels  # nothing evicted yet
        assert 0.0 <= stats.hit_ratio <= 1.0

    @given(st.lists(st.tuples(keys, st.booleans()), min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_eviction_conserves_cells(self, items):
        cache = make_cache(num_buckets=4, tau=1)
        for key, occupied in items:
            cache.insert(key, occupied)
        resident_before = cache.resident_voxels
        evicted = cache.evict()
        assert cache.resident_voxels + len(evicted) == resident_before
