"""Every producer of a leaf batch hands ``set_leaves_bulk`` distinct keys.

The level-wise bulk write rejects a repeated key (it cannot give "last
write wins" a meaning), so each in-repo source of ``(keys, values)`` is
held to the precondition here: cache eviction and flush, a tree's own
leaf export, a shard slot's cache-over-octree overlay, and both merge
strategies.
"""

import numpy as np
import pytest

from repro.core.config import CacheConfig
from repro.core.octocache import OctoCacheMap
from repro.octree.merge import merge_tree
from repro.octree.tree import OccupancyOctree
from repro.sensor.pointcloud import PointCloud
from repro.service.shard_slots import ShardSlots

RES, DEPTH = 0.2, 8
SHAPE = dict(
    resolution=RES, depth=DEPTH, max_range=10.0, kernel="vector",
    cache_config=CacheConfig(num_buckets=32, bucket_threshold=2),
)


def clouds(seed, count=4):
    rng = np.random.default_rng(seed)
    return [
        PointCloud(rng.uniform(-4.0, 4.0, (60, 3)), origin=(0.0, 0.0, 0.5))
        for _ in range(count)
    ]


def assert_distinct(keys, values):
    assert keys.shape == (len(values), 3) and len(values) > 0
    assert len(np.unique(keys, axis=0)) == len(keys)
    OccupancyOctree(RES, DEPTH).set_leaves_bulk(keys, values)  # accepted


def test_evict_and_flush_batches():
    pipeline = OctoCacheMap(**SHAPE)
    for cloud in clouds(seed=1):
        batch = pipeline.trace(cloud)
        pipeline.cache.update_batch_bulk(batch.keys_array(), batch.occupied_array())
        evicted = pipeline.cache.evict()
        assert_distinct(evicted.keys, evicted.values)
        pipeline.octree.set_leaves_bulk(evicted.keys, evicted.values)
    flushed = pipeline.cache.flush()
    assert_distinct(flushed.keys, flushed.values)


def test_tree_export_and_slot_overlay():
    slots = ShardSlots([0], **SHAPE)
    for cloud in clouds(seed=2):
        slots.apply(0, 0, slots.get(0).trace(cloud))
    pipeline = slots.get(0)
    assert pipeline.cache.resident_voxels and pipeline.octree.num_nodes
    assert_distinct(*pipeline.octree.finest_leaf_arrays())
    # Resident cells shadow the octree's copies of the same voxels.
    assert_distinct(*slots.leaf_arrays(0, 0))


@pytest.mark.parametrize("strategy", ["accumulate", "overwrite"])
def test_merge_writes_distinct_keys(strategy):
    trees = []
    for seed in (3, 4):  # overlapping maps of the same room
        pipeline = OctoCacheMap(**SHAPE)
        for cloud in clouds(seed):
            pipeline.insert_point_cloud(cloud)
        pipeline.finalize()
        trees.append(pipeline.octree)
    destination, source = trees
    written = []
    bulk = destination.set_leaves_bulk
    destination.set_leaves_bulk = lambda keys, values: (
        written.append((keys, values)), bulk(keys, values)
    )
    assert merge_tree(destination, source, strategy) > 0
    assert_distinct(*written[0])
