"""Tests for cache occupancy diagnostics (the §6.2.4 measurement)."""

from repro.core.cache import VoxelCache
from repro.core.config import CacheConfig
from repro.core.morton import morton_decode3


def make_cache(buckets=16, tau=4):
    return VoxelCache(CacheConfig(num_buckets=buckets, bucket_threshold=tau))


class TestCollisionHistogram:
    def test_empty_cache(self):
        cache = make_cache()
        histogram = cache.collision_histogram()
        assert histogram == {0: 16}

    def test_counts_sum_to_buckets(self):
        cache = make_cache(buckets=8)
        for i in range(20):
            cache.insert((i, 0, 0), True)
        histogram = cache.collision_histogram()
        assert sum(histogram.values()) == 8
        assert sum(size * count for size, count in histogram.items()) == 20

    def test_quantiles_empty(self):
        assert make_cache().occupancy_quantiles() == (0.0, 0.0, 0.0)

    def test_quantiles_ordered(self):
        cache = make_cache(buckets=8)
        for i in range(40):
            cache.insert((i, i % 3, 0), True)
        median, p90, largest = cache.occupancy_quantiles()
        assert 0 < median <= p90 <= largest

    def test_quantiles_nearest_rank_exact(self):
        """Nearest-rank quantiles for 1-, 2-, 10-, and 11-element lists.

        Regression for the p90 off-by-one: ``(10 * 9) // 10`` indexed the
        maximum (rank 10) instead of the nearest-rank p90 (rank 9), and
        the even-length median picked the upper middle.
        """

        def quantiles_of(sizes):
            cache = make_cache(buckets=16)
            for index, size in enumerate(sizes):
                # Morton codes congruent to ``index`` mod 16 share bucket ``index``.
                for cell in range(size):
                    cache.insert(morton_decode3(index + 16 * cell), True)
            assert cache.bucket_sizes()[: len(sizes)] == sizes
            return cache.occupancy_quantiles()

        # n=1: every quantile is the single value.
        assert quantiles_of([3]) == (3.0, 3.0, 3.0)
        # n=2: median rank ceil(0.5*2)=1 -> lower middle; p90 rank 2.
        assert quantiles_of([1, 5]) == (1.0, 5.0, 5.0)
        # n=10: median rank 5 -> 5; p90 rank 9 -> 9 (not the max, 10).
        assert quantiles_of(list(range(1, 11))) == (5.0, 9.0, 10.0)
        # n=11: median rank 6 -> 6; p90 rank ceil(9.9)=10 -> 10.
        assert quantiles_of(list(range(1, 12))) == (6.0, 10.0, 11.0)

    def test_paper_claim_most_buckets_small(self):
        """§6.2.4: with w near the non-duplicate count, most buckets hold
        <=4 voxels thanks to the Morton spreading."""
        import numpy as np

        rng = np.random.default_rng(0)
        n = 2000
        keys = set()
        while len(keys) < n:
            keys.add(
                (int(rng.integers(0, 64)), int(rng.integers(0, 64)), int(rng.integers(0, 64)))
            )
        cache = VoxelCache(CacheConfig(num_buckets=2048, bucket_threshold=4))
        for key in keys:
            cache.insert(key, True)
        histogram = cache.collision_histogram()
        small = sum(count for size, count in histogram.items() if size <= 4)
        assert small / sum(histogram.values()) > 0.9
