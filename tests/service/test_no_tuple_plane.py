"""No per-observation Python between the tracer and the shard sink, and
no per-voxel Python between a shard and anything built from it.

Under the vector kernel a scan crosses the platform as one
:class:`~repro.sensor.scaninsert.ScanBatch` of arrays: sliced, queued,
coalesced, journaled, shipped, replayed and applied without anyone
asking for its tuples.  The tests make ``ScanBatch.observations`` raise
and then drive every hop — coalesced submits, a shard crash with journal
replay, a tenant lane with a live subscription — on both backends,
against a serially built map.  On the way out a slot's map leaves as
leaf arrays and is written in bulk: the same drive with
``OccupancyOctree.set_leaf`` raising covers snapshot, checkpoint,
recovery and tenant persist / evict / restore.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import CacheConfig
from repro.core.octocache import OctoCacheMap
from repro.octree.serialize import tree_to_bytes
from repro.octree.tree import OccupancyOctree
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.sensor.pointcloud import PointCloud
from repro.sensor.scaninsert import ScanBatch, trace_scan
from repro.service.server import OccupancyMapService, ServiceConfig
from repro.service.sharded_map import ShardedMap
from repro.tenancy import TenantRegistry

BACKENDS = ("thread", "process")
RES, DEPTH, MAX_RANGE = 0.2, 8, 10.0


def clouds(seed, count=8):
    rng = np.random.default_rng(seed)
    return [
        PointCloud(rng.uniform(-4.0, 4.0, (50, 3)), origin=(0.0, 0.0, 0.5))
        for _ in range(count)
    ]


def serial_bytes(scans):
    serial = OctoCacheMap(
        resolution=RES, depth=DEPTH, max_range=MAX_RANGE, kernel="vector"
    )
    for cloud in scans:
        serial.insert_point_cloud(cloud)
    serial.finalize()
    return tree_to_bytes(serial.octree)


def crashing_service(workers, crash_after, **overrides):
    """A two-shard vector service whose shard 0 crashes once mid-run and
    checkpoints every three slices."""
    plan = FaultPlan(
        [FaultSpec(site="shard.apply", mode="crash", shard=0, after=crash_after)]
    )
    config = ServiceConfig(
        resolution=RES,
        depth=DEPTH,
        num_shards=2,
        max_range=MAX_RANGE,
        kernel="vector",
        workers=workers,
        snapshot_interval=3,
        **overrides,
    )
    return OccupancyMapService(config, fault_plan=plan), plan


def submit_all(service, registry, scans, tenant_scans):
    """Each scan into the default map, its twin into tenant ``robot``."""
    for cloud, tenant_cloud in zip(scans, tenant_scans):
        service.submit(cloud, must_accept=True)
        registry.submit_observations(
            "robot",
            trace_scan(tenant_cloud, RES, DEPTH, MAX_RANGE, kernel="vector"),
            must_accept=True,
        )
    service.flush()


@pytest.fixture
def no_tuples(monkeypatch):
    def refuse(_batch):
        raise AssertionError("ScanBatch.observations was materialised")

    monkeypatch.setattr(ScanBatch, "observations", property(refuse))


@pytest.mark.parametrize("workers", BACKENDS)
def test_vector_service_never_materialises_tuples(workers, no_tuples):
    scans, tenant_scans = clouds(seed=3), clouds(seed=4)
    expected = serial_bytes(scans)
    expected_tenant = serial_bytes(tenant_scans)

    service, plan = crashing_service(workers, crash_after=2, coalesce=4)
    with service:
        with TenantRegistry(service) as registry:
            registry.create("robot")
            subscription = registry.subscribe("robot")
            submit_all(service, registry, scans, tenant_scans)
            counters = service.metrics.to_dict()["counters"]
            assert plan.fired_at("shard.apply") > 0
            assert counters["shard.recoveries"] >= 1
            assert counters["shard.batches_coalesced"] >= 1
            assert subscription.poll(), "the subscription saw no deltas"
            subscription.close()
            assert tree_to_bytes(service.snapshot()) == expected
            assert tree_to_bytes(registry.snapshot("robot")) == expected_tenant


@pytest.fixture
def no_per_key_writes(monkeypatch):
    """Worker processes are forked after this, so they inherit it."""

    def refuse(_tree, key, _value):
        raise AssertionError(f"set_leaf({key}) on an export path")

    monkeypatch.setattr(OccupancyOctree, "set_leaf", refuse)


@pytest.mark.parametrize("workers", BACKENDS)
def test_vector_service_exports_without_per_key_writes(workers, no_per_key_writes):
    scans, tenant_scans = clouds(seed=6), clouds(seed=7)
    expected = serial_bytes(scans)
    expected_tenant = serial_bytes(tenant_scans)

    service, _plan = crashing_service(
        workers,
        crash_after=4,
        # One turn per slice: when the crash and the cadence checkpoints
        # fire does not depend on how a backlog happened to coalesce.
        coalesce=1,
        # Small enough to evict: exports overlay cells on octree leaves.
        cache_config=CacheConfig(num_buckets=64, bucket_threshold=2),
    )
    with service:
        with TenantRegistry(service) as registry:
            registry.create("robot")
            submit_all(service, registry, scans, tenant_scans)
            assert registry.persist("robot") == 2
            registry.evict("robot")
            registry.restore("robot")

            counters = service.metrics.to_dict()["counters"]
            assert counters["shard.recoveries"] >= 1
            # Cadence checkpoints on both lanes, then persist and evict.
            assert counters["shard.snapshots"] >= 6
            assert "shard.snapshot_failures" not in counters
            assert service.store.recovery_state(0)[0] is not None
            assert tree_to_bytes(service.snapshot()) == expected
            assert tree_to_bytes(registry.snapshot("robot")) == expected_tenant


def test_checkpoint_blob_bytes_are_pinned():
    """"Same bytes as before the bulk export" as a test: the SHA-256 of
    one checkpoint blob for a fixed (arithmetic, RNG-free) input, taken
    at commit 115ebe5 where the export was one ``set_leaf`` per voxel."""
    ys, zs = -2.0 + 0.13 * np.arange(30), 0.2 + 0.11 * np.arange(16)
    backend = ShardedMap(
        resolution=RES, depth=DEPTH, num_shards=2, max_range=MAX_RANGE,
        kernel="vector",
        cache_config=CacheConfig(num_buckets=64, bucket_threshold=2),
    )
    for step in range(4):
        wall = np.array([(3.0 + 0.05 * step, y, z) for y in ys for z in zs])
        backend.insert_point_cloud(wall, origin=(0.1 * step, 0.0, 1.0))
    # Both halves of the overlay are in the blob.
    assert backend.resident_voxels() == 256 and backend.octree_nodes() == 945
    blob = backend.shard_snapshot_blob(0)
    assert len(blob) == 4577
    assert hashlib.sha256(blob).hexdigest() == (
        "25b76e63751861b36d19d2b3cc826df8735c387cf1d1659a77e789f07323dac6"
    )


def test_queued_and_journaled_batches_are_read_only():
    """Queue, journal and sink share one batch without copies, so an
    in-place write anywhere would corrupt the others: it must raise."""
    config = ServiceConfig(
        resolution=RES, depth=DEPTH, num_shards=2, kernel="vector",
        snapshot_interval=0,
    )
    batch = trace_scan(clouds(seed=5, count=1)[0], RES, DEPTH, kernel="vector")
    with OccupancyMapService(config) as service:
        applied = []
        apply_to_shard = service.map.apply_to_shard

        def recording(shard_id, part, tenant=0):
            applied.append(part)
            return apply_to_shard(shard_id, part, tenant=tenant)

        service.map.apply_to_shard = recording
        service.submit_observations(batch, must_accept=True)
        service.flush()
        journaled = [
            entry
            for shard in range(2)
            for entry in service.store.recovery_state(shard)[1]
        ]
    # What was applied is what was journaled: the same object, not a copy.
    assert applied and {id(part) for part in applied} == {
        id(entry) for entry in journaled
    }
    for held in [batch] + journaled:
        with pytest.raises(ValueError, match="read-only"):
            held.keys_array()[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            held.occupied_array()[0] = True
