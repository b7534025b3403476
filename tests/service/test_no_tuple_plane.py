"""No per-observation Python between the tracer and the shard sink.

Under the vector kernel a scan crosses the platform as one
:class:`~repro.sensor.scaninsert.ScanBatch` of arrays: sliced, queued,
coalesced, journaled, shipped, replayed and applied without anyone
asking for its tuples.  The tests make ``ScanBatch.observations`` raise
and then drive every hop — coalesced submits, a shard crash with journal
replay, a tenant lane with a live subscription — on both backends,
against a serially built map.
"""

import numpy as np
import pytest

from repro.core.octocache import OctoCacheMap
from repro.octree.serialize import tree_to_bytes
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.sensor.pointcloud import PointCloud
from repro.sensor.scaninsert import ScanBatch, trace_scan
from repro.service.server import OccupancyMapService, ServiceConfig
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

    plan = FaultPlan(
        [FaultSpec(site="shard.apply", mode="crash", shard=0, after=2)]
    )
    config = ServiceConfig(
        resolution=RES,
        depth=DEPTH,
        num_shards=2,
        max_range=MAX_RANGE,
        kernel="vector",
        workers=workers,
        coalesce=4,
        snapshot_interval=3,
    )
    with OccupancyMapService(config, fault_plan=plan) as service:
        with TenantRegistry(service) as registry:
            registry.create("robot")
            subscription = registry.subscribe("robot")
            for cloud, tenant_cloud in zip(scans, tenant_scans):
                service.submit(cloud, must_accept=True)
                registry.submit_observations(
                    "robot",
                    trace_scan(
                        tenant_cloud, RES, DEPTH, MAX_RANGE, kernel="vector"
                    ),
                    must_accept=True,
                )
            service.flush()
            counters = service.metrics.to_dict()["counters"]
            assert plan.fired_at("shard.apply") > 0
            assert counters["shard.recoveries"] >= 1
            assert counters["shard.batches_coalesced"] >= 1
            assert subscription.poll(), "the subscription saw no deltas"
            subscription.close()
            assert tree_to_bytes(service.snapshot()) == expected
            assert tree_to_bytes(registry.snapshot("robot")) == expected_tenant


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
