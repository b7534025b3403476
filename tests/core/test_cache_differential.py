"""The columnar voxel cache against the bucket-list cache it replaced.

``reference_cache.ReferenceCache`` keeps ``w`` Python lists of cells.
For Morton and hash indexing and τ ∈ {1, 4, 8}, random interleavings of
scalar and bulk inserts, lookups, the three eviction forms and bucket
growth must produce the same evicted *sequences* (order included), the
same resident cells in the same bucket order, and the same counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adaptive import AdaptiveOctoCacheMap
from repro.core.cache import VoxelCache
from repro.core.config import CacheConfig
from repro.octree.occupancy import OccupancyParams
from repro.octree.tree import OccupancyOctree

from .reference_cache import ReferenceCache

DEPTH = 5
SIDE = 1 << DEPTH
NUM_BUCKETS = 8

coordinate = st.integers(min_value=0, max_value=SIDE - 1)
keys = st.tuples(coordinate, coordinate, coordinate)
observations = st.lists(st.tuples(keys, st.booleans()), min_size=1, max_size=60)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), observations),
        st.tuples(st.just("bulk"), observations),
        st.tuples(st.just("lookup"), st.lists(keys, min_size=1, max_size=10)),
        st.tuples(st.sampled_from(["evict", "iter_evict", "flush", "grow"]), st.none()),
    ),
    min_size=1,
    max_size=14,
)

SHAPES = [(morton, tau) for morton in (True, False) for tau in (1, 4, 8)]


def make_pair(morton, tau):
    """The cache and its reference, each over its own (identical) octree."""
    config = CacheConfig(
        num_buckets=NUM_BUCKETS, bucket_threshold=tau, use_morton_indexing=morton
    )
    params = OccupancyParams()
    cache = VoxelCache(config, params, OccupancyOctree(0.1, DEPTH, params))
    reference = ReferenceCache(config, params, OccupancyOctree(0.1, DEPTH, params))
    return cache, reference


def write_back(cache, reference, batch, cells):
    """What the pipeline does with an evicted batch: into the octree, so
    later misses are filled from it."""
    assert list(batch) == cells
    if len(batch):
        cache.backend.set_leaves_bulk(batch.keys, batch.values)
    for key, value in cells:
        reference.backend.set_leaf(key, value)


def step(cache, reference, op, argument):
    if op == "insert":
        for key, occupied in argument:
            assert cache.insert(key, occupied) == reference.insert(key, occupied)
    elif op == "bulk":
        cache.update_batch_bulk(
            np.array([key for key, _ in argument], dtype=np.int64),
            np.array([occupied for _, occupied in argument], dtype=bool),
        )
        for key, occupied in argument:
            reference.insert(key, occupied)
    elif op == "lookup":
        for key in argument:
            assert cache.lookup(key) == reference.lookup(key)
            assert (key in cache) == (reference.lookup(key) is not None)
    elif op == "evict":
        write_back(cache, reference, cache.evict(), reference.evict())
    elif op == "iter_evict":
        per_bucket = list(reference.iter_evict())
        expected = [cell for bucket in per_bucket for cell in bucket]
        bucket_ends = set(np.cumsum([len(bucket) for bucket in per_bucket]).tolist())
        taken = 0
        for chunk in cache.iter_evict():
            cells = expected[taken : taken + len(chunk)]
            taken += len(chunk)
            assert taken in bucket_ends  # chunks never split a bucket
            write_back(cache, reference, chunk, cells)
        assert taken == len(expected)
    elif op == "flush":
        write_back(cache, reference, cache.flush(), reference.flush())
    else:
        doubled = CacheConfig(
            num_buckets=cache.config.num_buckets * 2,
            bucket_threshold=cache.config.bucket_threshold,
            use_morton_indexing=cache.config.use_morton_indexing,
        )
        cache.rebucket(doubled.num_buckets)
        reference.rebucket(doubled)
        assert cache.config == doubled


def assert_same_cache(cache, reference):
    assert list(cache.iter_cells()) == reference.iter_cells()
    assert list(cache.cells()) == reference.iter_cells()
    assert cache.bucket_sizes() == reference.bucket_sizes()
    assert cache.resident_voxels == cache.recount_resident() == reference.resident()
    assert len(cache) == reference.resident()
    stats = cache.stats_dict()
    assert (
        stats["hits"], stats["misses"], stats["octree_fills"], stats["evictions"],
        stats["resident_voxels"],
    ) == (
        reference.hits, reference.misses, reference.octree_fills, reference.evicted,
        reference.resident(),
    )
    report = cache.memory_breakdown()
    assert report.drift_bytes(cache.memory_breakdown(exact=True)) == 0
    assert report.child("morton_index").count == reference.resident()


@pytest.mark.parametrize("morton,tau", SHAPES)
@given(ops=operations)
@settings(max_examples=60, deadline=None)
def test_interleaved_operations(morton, tau, ops):
    cache, reference = make_pair(morton, tau)
    for op, argument in ops:
        step(cache, reference, op, argument)
        assert_same_cache(cache, reference)
    step(cache, reference, "flush", None)
    assert_same_cache(cache, reference)
    assert sorted(cache.backend.iter_finest_leaves()) == sorted(
        reference.backend.iter_finest_leaves()
    )


@pytest.mark.parametrize("morton,tau", SHAPES)
def test_streamed_eviction_chunks_whole_buckets(morton, tau):
    """Enough over-full buckets that ``iter_evict`` yields several chunks;
    abandoning it mid-stream leaves the rest resident."""
    rng = np.random.default_rng(11)
    config = CacheConfig(
        num_buckets=256, bucket_threshold=tau, use_morton_indexing=morton
    )
    params = OccupancyParams()
    cache = VoxelCache(config, params)
    reference = ReferenceCache(config, params)
    points = np.unique(rng.integers(0, 64, size=(6000, 3)), axis=0)
    cache.update_batch_bulk(points, np.ones(len(points), dtype=bool))
    for key in points.tolist():
        reference.insert(tuple(key), True)
    expected = reference.evict()

    stream = cache.iter_evict()
    first = next(stream)
    stream.close()
    assert 0 < len(first) < len(expected)
    assert list(first) == expected[: len(first)]
    assert cache.resident_voxels == cache.recount_resident() == len(points) - len(first)
    chunks = list(cache.iter_evict())
    assert len(chunks) > 1
    assert [cell for chunk in chunks for cell in chunk] == expected[len(first):]
    assert list(cache.iter_cells()) == reference.iter_cells()


@pytest.mark.parametrize("morton", [True, False])
def test_adaptive_growth_rebuckets_like_the_reference(morton):
    """``AdaptiveOctoCacheMap._grow`` re-buckets in place: same cells, same
    bucket order, same later evictions as re-hashing the bucket lists."""
    config = CacheConfig(num_buckets=4, bucket_threshold=2, use_morton_indexing=morton)
    adaptive = AdaptiveOctoCacheMap(resolution=0.1, depth=DEPTH, cache_config=config)
    reference = ReferenceCache(config, adaptive.params)
    rng = np.random.default_rng(2)
    for round_ in range(3):
        for key in rng.integers(0, SIDE, size=(40, 3)).tolist():
            adaptive.cache.insert(tuple(key), True)
            reference.insert(tuple(key), True)
        stats_before = adaptive.cache.stats
        adaptive._grow()
        reference.rebucket(
            CacheConfig(
                num_buckets=reference.config.num_buckets * 2,
                bucket_threshold=2,
                use_morton_indexing=morton,
            )
        )
        assert adaptive.cache.stats is stats_before  # lifetime counters carry on
        assert adaptive.cache.config == reference.config
        assert list(adaptive.cache.iter_cells()) == reference.iter_cells()
        assert adaptive.cache.bucket_sizes() == reference.bucket_sizes()
        assert list(adaptive.cache.evict()) == reference.evict()
    assert adaptive.resize_events == [8, 16, 32]
