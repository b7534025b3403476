"""One map-backend contract, two transports.

``ShardedMap`` (shards in this process) and ``ProcessShardedMap`` (shards
in worker processes) are the two transports of
``repro.service.sharded_map.MapBackend``.  Fed the same scans they must
give the same answers — not merely equivalent ones: the same ray hits,
the same box keys, byte-identical snapshots and checkpoint blobs, one
``shard_stats`` shape, one memory tree.  Every test runs against both
backends; each compares its backend with the in-process one, so a drift
in either direction fails here, on the PR that introduces it.
"""

import numpy as np
import pytest

from repro.core.config import CacheConfig
from repro.mp.backend import ProcessShardedMap
from repro.octree import rayquery
from repro.octree.serialize import tree_to_bytes
from repro.sensor.pointcloud import PointCloud
from repro.sensor.scaninsert import ScanBatch, trace_scan
from repro.service.sharded_map import ShardedMap

RES = 0.2
DEPTH = 8
NUM_SHARDS = 2
TENANT = 1
BACKENDS = {"thread": ShardedMap, "process": ProcessShardedMap}
WALL_BOX = ((2.5, -2.0, 0.2), (3.5, 2.0, 2.0))


def wall_scan(seed):
    """The traced batch of a wall at x = 3 m seen from the origin."""
    rng = np.random.default_rng(seed)
    points = np.column_stack(
        [
            np.full(60, 3.0),
            rng.uniform(-2, 2, 60),
            rng.uniform(0.2, 2, 60),
        ]
    )
    cloud = PointCloud(points, origin=(0.0, 0.0, 1.0))
    return trace_scan(cloud, RES, DEPTH, max_range=10.0)


def build(backend_cls):
    """A map that has state everywhere a transport could lose it: evicted
    voxels in the octrees, resident cells in the caches, a cached-free
    voxel over an occupied octree leaf, and a live tenant slot."""
    backend = backend_cls(
        resolution=RES,
        depth=DEPTH,
        num_shards=NUM_SHARDS,
        max_range=10.0,
        # Small enough that every scan evicts into the octrees.
        cache_config=CacheConfig(num_buckets=64, bucket_threshold=2),
    )
    backend.fresh_tenant_bytes = backend.tenant_memory_bytes()
    for seed in range(3):
        backend.insert_observations(wall_scan(seed))
    # Flush, then drive one wall voxel free: its octree leaf still says
    # occupied while the (authoritative) resident cache cell says free.
    backend.finalize()
    backend.flipped = backend.occupied_in_box(*WALL_BOX)[0]
    backend.insert_observations([(backend.flipped, False)] * 8)
    for shard_id, part in enumerate(backend.router.partition(wall_scan(7))):
        if part:
            backend.apply_to_shard(shard_id, part, tenant=TENANT)
    return backend


@pytest.fixture(scope="module")
def maps():
    built = {name: build(cls) for name, cls in BACKENDS.items()}
    yield built
    for backend in built.values():
        backend.close()


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, maps):
    return maps[request.param]


@pytest.fixture
def reference(maps):
    return maps["thread"]


class TestCastRay:
    def cast(self, backend, reference, *args, **kwargs):
        hit = backend.cast_ray(*args, **kwargs)
        assert hit == reference.cast_ray(*args, **kwargs)
        return hit

    def test_hits_the_wall(self, backend, reference):
        target = backend._coord_of(backend.occupied_in_box(*WALL_BOX)[0])
        hit = self.cast(
            backend, reference, (0.0, target[1], target[2]), (1.0, 0.0, 0.0), 8.0
        )
        assert hit.hit
        assert hit.endpoint[0] == pytest.approx(3.0, abs=4 * RES)

    def test_misses_into_free_space(self, backend, reference):
        hit = self.cast(backend, reference, (0.0, 0.0, 1.0), (-1.0, 0.0, 0.0), 4.0)
        assert not hit.hit
        assert not hit.blocked_by_unknown

    def test_unknown_blocks_when_asked(self, backend, reference):
        hit = self.cast(
            backend,
            reference,
            (0.0, 0.0, 1.0),
            (0.0, 0.0, -1.0),
            30.0,
            ignore_unknown=False,
        )
        assert not hit.hit
        assert hit.blocked_by_unknown

    def test_clamps_to_the_map_boundary(self, backend, reference):
        # A range far beyond the map cube must not raise.
        hit = self.cast(backend, reference, (0.0, 0.0, 1.0), (-1.0, -1.0, 0.0), 1e6)
        assert not hit.hit

    def test_zero_direction_raises(self, backend):
        with pytest.raises(ValueError, match="non-zero"):
            backend.cast_ray((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), 4.0)

    def test_answers_as_the_serial_walk_over_its_snapshot(self, backend):
        """Sharded = serial, field for field, with cells still in the caches."""
        assert backend.resident_voxels() > 0
        snapshot = backend.snapshot()
        rng = np.random.default_rng(23)
        origins = rng.uniform((-1.0, -2.0, 0.2), (2.5, 2.0, 2.0), (500, 3)).tolist()
        directions = rng.normal(size=(500, 3)).tolist()
        outcomes = set()
        for origin, direction in zip(origins, directions):
            for ignore_unknown in (True, False):
                hit = backend.cast_ray(origin, direction, 3.0, ignore_unknown)
                assert hit == rayquery.cast_ray(
                    snapshot, origin, direction, 3.0, ignore_unknown
                )
                outcomes.add((hit.hit, hit.blocked_by_unknown))
        assert len(outcomes) == 3


class TestOccupiedInBox:
    def test_cached_free_voxel_is_excluded(self, backend, reference):
        # The premise, checked where the pipelines are reachable: the
        # octree alone would report the voxel, the cache overrules it.
        key = backend.flipped
        assert key == reference.flipped
        home = reference.shards[reference.router.shard_of(key)]
        assert reference.params.is_occupied(home.octree.search(key))
        assert not reference.params.is_occupied(home.cache.lookup(key))
        keys = backend.occupied_in_box(*WALL_BOX)
        assert key not in keys
        assert keys
        assert keys == reference.occupied_in_box(*WALL_BOX)

    def test_whole_map_box_matches(self, backend, reference):
        # Keys 0..255 map to [-25.6, 25.6) metres.
        box = ((-25.6,) * 3, (25.5,) * 3)
        assert backend.occupied_in_box(*box) == reference.occupied_in_box(*box)

    def test_min_beyond_max_raises(self, backend):
        with pytest.raises(ValueError, match="exceeds max_coord"):
            backend.occupied_in_box((1.0, 0.0, 0.0), (0.0, 1.0, 1.0))


class TestSnapshots:
    @pytest.mark.parametrize("tenant", [0, TENANT])
    def test_snapshot_bytes_are_identical(self, backend, reference, tenant):
        blob = tree_to_bytes(backend.snapshot(tenant=tenant))
        assert blob == tree_to_bytes(reference.snapshot(tenant=tenant))
        assert backend.snapshot(tenant=tenant).num_nodes > 1

    @pytest.mark.parametrize("tenant", [0, TENANT])
    def test_shard_blobs_are_identical_per_slot(self, backend, reference, tenant):
        for shard_id in range(NUM_SHARDS):
            blob = backend.shard_snapshot_blob(shard_id, tenant=tenant)
            assert blob == reference.shard_snapshot_blob(shard_id, tenant=tenant)
            assert blob == tree_to_bytes(
                backend.shard_snapshot_tree(shard_id, tenant=tenant)
            )

    def test_snapshot_answers_like_live_queries(self, backend):
        snapshot = backend.snapshot()
        keys = sorted({key for key, _occupied in wall_scan(0).observations})[:50]
        assert keys
        for key, value in zip(keys, backend.query_keys(keys)):
            assert snapshot.search(key) == value


class TestIntrospection:
    def test_shard_stats_have_one_shape(self, backend, reference):
        for shard_id in range(NUM_SHARDS):
            stats = backend.shard_stats(shard_id)
            expected = reference.shard_stats(shard_id)
            assert set(stats) == set(expected) == {
                "hit_ratio",
                "resident_voxels",
                "octree_nodes",
                "batches",
                "cache",
                "memory",
            }
            assert set(stats["cache"]) == set(expected["cache"])
            # The write path is deterministic; read counters depend on
            # how often each backend was queried above.
            for counter in ("hits", "misses", "evictions", "resident_voxels"):
                assert stats["cache"][counter] == expected["cache"][counter]
            assert stats["memory"] == expected["memory"]

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_a_slot_counts_its_slices_and_keeps_no_records(self, name):
        """A slot lives as long as the service: one ``BatchRecord`` kept
        per applied slice would grow without bound."""
        part = ScanBatch.coerce([((130, 130, 130), True)])
        with BACKENDS[name](resolution=RES, depth=DEPTH, num_shards=1) as backend:
            for _ in range(1000):
                assert backend.apply_to_shard(0, part) >= 0.0
            assert backend.shard_stats(0)["batches"] == 1000
            if name == "thread":  # a worker process keeps the same table
                assert len(backend.shards[0].batches) <= 1

    def test_rollups_follow_shard_stats(self, backend, reference):
        stats = [backend.shard_stats(shard) for shard in range(NUM_SHARDS)]
        assert backend.hit_ratios() == [s["hit_ratio"] for s in stats]
        assert backend.resident_voxels() == reference.resident_voxels() > 0
        assert backend.octree_nodes() == reference.octree_nodes() > 0

    @pytest.mark.parametrize("exact", [False, True])
    def test_memory_tree_has_one_shape(self, backend, reference, exact):
        leaves = backend.memory_breakdown(exact=exact).leaf_totals()
        assert leaves == reference.memory_breakdown(exact=exact).leaf_totals()
        for shard_id in range(NUM_SHARDS):
            for slot in ("default", f"tenant{TENANT}"):
                prefix = f"map/shard{shard_id}/{slot}/"
                assert any(path.startswith(prefix + "cache") for path in leaves)
                assert any(path.startswith(prefix + "octree") for path in leaves)

    def test_tenant_memory_bytes_always_reports_slot_zero(
        self, backend, reference
    ):
        # Even before anything was applied (or relayed by a worker).
        assert set(backend.fresh_tenant_bytes) == {0}
        assert backend.fresh_tenant_bytes == reference.fresh_tenant_bytes
        totals = backend.tenant_memory_bytes()
        assert set(totals) == {0, TENANT}
        assert totals == reference.tenant_memory_bytes()
        assert sum(totals.values()) == backend.memory_breakdown().total_bytes

    def test_inert_seams_exist_on_every_backend(self, backend):
        assert backend.relay_tracer is None
        assert backend.recovery_source(0) == (None, [])
        assert backend.recovery_source(0, TENANT) == (None, [])
        assert callable(backend.kill_shard_process)


class TestTenantSlots:
    def test_default_slot_cannot_be_dropped(self, backend):
        with pytest.raises(ValueError, match="cannot be dropped"):
            backend.drop_tenant(0)

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_finalize_flushes_live_tenant_slots(self, name):
        with build(BACKENDS[name]) as backend:
            keys = sorted({key for key, _occupied in wall_scan(7).observations})
            before = backend.query_keys(keys, tenant=TENANT)
            assert any(value is not None for value in before)
            backend.finalize()
            leaves = backend.memory_breakdown(exact=True).leaf_totals()
            cells = {
                path: nbytes
                for path, nbytes in leaves.items()
                if path.endswith("/cache/resident_cells")
            }
            assert any(f"tenant{TENANT}" in path for path in cells)
            assert set(cells.values()) == {0}, cells
            assert backend.query_keys(keys, tenant=TENANT) == before

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_drop_frees_the_slot_everywhere(self, name):
        with build(BACKENDS[name]) as backend:
            backend.drop_tenant(TENANT)
            assert set(backend.tenant_memory_bytes()) == {0}
            leaves = backend.memory_breakdown(exact=True).leaf_totals()
            assert not any(f"tenant{TENANT}" in path for path in leaves)
