"""Tenant lifecycle: isolation, quotas, and bit-exact evict/restore.

The property under test throughout: a tenant's map must answer exactly
as a dedicated single-tenant map would — across backend choice, across
evict/restore round trips, and across worker-process death — and a
quota rejection must leave it byte-identical.
"""

import random

import pytest

from repro.octree.serialize import tree_to_bytes
from repro.sensor.scaninsert import ScanBatch
from repro.service.server import OccupancyMapService, ServiceConfig
from repro.service.sharding import ShardRouter
from repro.tenancy import (
    TenantQuota,
    TenantQuotaExceeded,
    TenantRegistry,
    TenantState,
    tenant_salt,
)

BACKENDS = ("thread", "process")


def make_service(workers: str, **overrides) -> OccupancyMapService:
    config = ServiceConfig(
        resolution=0.2,
        depth=8,
        num_shards=2,
        workers=workers,
        snapshot_interval=0,
        **overrides,
    )
    return OccupancyMapService(config)


def random_batches(seed: int, batches: int = 5, size: int = 40):
    rng = random.Random(seed)
    out = []
    for _ in range(batches):
        out.append(
            [
                (
                    (rng.randrange(256), rng.randrange(256), rng.randrange(256)),
                    rng.random() < 0.7,
                )
                for _ in range(size)
            ]
        )
    return out


class TestRoutingSalt:
    def test_distinct_tenants_place_blocks_differently(self):
        base = ShardRouter(4, 10)
        salted = ShardRouter(4, 10, salt=tenant_salt("robot-7"))
        keys = [(i * 13 % 1024, i * 7 % 1024, i * 3 % 1024) for i in range(200)]
        assert any(base.shard_of(k) != salted.shard_of(k) for k in keys)

    def test_salt_is_stable_and_deterministic(self):
        assert tenant_salt("robot-7") == tenant_salt("robot-7")
        assert tenant_salt("robot-7") != tenant_salt("robot-8")
        a = ShardRouter(4, 10, salt=tenant_salt("x"))
        b = ShardRouter(4, 10, salt=tenant_salt("x"))
        keys = [(i, i, i) for i in range(100)]
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]


@pytest.mark.parametrize("workers", BACKENDS)
class TestLifecycle:
    def test_evict_restore_is_bit_exact(self, workers):
        with make_service(workers) as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                for batch in random_batches(seed=1):
                    receipt = registry.submit_observations("robot-a", batch)
                    assert receipt.accepted
                registry.flush("robot-a")
                expected = tree_to_bytes(registry.snapshot("robot-a"))

                registry.evict("robot-a")
                assert registry.get("robot-a").state is TenantState.EVICTED
                with pytest.raises(RuntimeError):
                    registry.query_key("robot-a", (1, 1, 1))

                registry.restore("robot-a")
                assert tree_to_bytes(registry.snapshot("robot-a")) == expected

    def test_restore_survives_more_traffic_after(self, workers):
        # The restored slots must be live pipelines, not frozen copies.
        with make_service(workers) as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                first, second = random_batches(seed=2, batches=2)
                registry.submit_observations("robot-a", first)
                registry.flush("robot-a")
                registry.evict("robot-a")
                registry.restore("robot-a")
                registry.submit_observations("robot-a", second)
                registry.flush("robot-a")

                # Reference: the same two batches through a dedicated map.
                with make_service(workers) as ref_service:
                    with TenantRegistry(ref_service) as ref_registry:
                        ref_registry.create("robot-a")
                        ref_registry.submit_observations("robot-a", first)
                        ref_registry.submit_observations("robot-a", second)
                        ref_registry.flush("robot-a")
                        expected = tree_to_bytes(
                            ref_registry.snapshot("robot-a")
                        )
                assert (
                    tree_to_bytes(registry.snapshot("robot-a")) == expected
                )

    def test_tenants_are_isolated(self, workers):
        # Same voxel keys, opposite occupancy: each tenant must see only
        # its own accumulated values.
        with make_service(workers) as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                registry.create("robot-b")
                keys = [(i, 2 * i % 256, 3 * i % 256) for i in range(50)]
                registry.submit_observations(
                    "robot-a", [(key, True) for key in keys]
                )
                registry.submit_observations(
                    "robot-b", [(key, False) for key in keys]
                )
                registry.flush()
                values_a = registry.query_keys("robot-a", keys)
                values_b = registry.query_keys("robot-b", keys)
                assert all(value > 0 for value in values_a)
                assert all(value < 0 for value in values_b)

    def test_evicted_tenant_frees_slots_without_touching_others(self, workers):
        with make_service(workers) as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                registry.create("robot-b")
                batch = random_batches(seed=3, batches=1)[0]
                registry.submit_observations("robot-a", batch)
                registry.submit_observations("robot-b", batch)
                registry.flush()
                expected_b = tree_to_bytes(registry.snapshot("robot-b"))
                registry.evict("robot-a")
                assert (
                    tree_to_bytes(registry.snapshot("robot-b")) == expected_b
                )


@pytest.mark.parametrize("workers", BACKENDS)
class TestQuota:
    def test_slot_rejection_is_all_or_nothing(self, workers):
        with make_service(workers) as service:
            with TenantRegistry(service) as registry:
                registry.create(
                    "constrained", quota=TenantQuota(queue_slots=1)
                )
                keys = [(i, i, i) for i in range(64)]
                batch = [(key, True) for key in keys]
                tenant = registry.get("constrained")
                # The batch spans both shards, so it needs 2 slots and
                # the 1-slot quota must reject it atomically.
                assert (
                    sum(
                        1
                        for part in tenant.router.partition(
                            ScanBatch.coerce(batch)
                        )
                        if part
                    )
                    > 1
                )
                receipt = registry.submit_observations("constrained", batch)
                assert not receipt.accepted
                assert receipt.reason == "slots"
                assert receipt.enqueued == 0
                registry.flush()
                # Nothing reached the map or the journal.
                assert all(
                    value is None
                    for value in registry.query_keys("constrained", keys)
                )
                assert all(
                    tenant.store.journal_length(shard) == 0
                    for shard in range(registry.num_shards)
                )

    def test_must_accept_rejection_raises_and_leaves_map_untouched(
        self, workers
    ):
        with make_service(workers) as service:
            with TenantRegistry(service) as registry:
                registry.create(
                    "constrained", quota=TenantQuota(queue_slots=1)
                )
                batch = [((i, i, i), True) for i in range(64)]
                with pytest.raises(TenantQuotaExceeded):
                    registry.submit_observations(
                        "constrained", batch, must_accept=True
                    )
                registry.flush()
                assert registry.get("constrained").served_observations == 0

    def test_rate_quota_rejects_burst_overflow(self, workers):
        with make_service(workers) as service:
            with TenantRegistry(service) as registry:
                registry.create(
                    "metered",
                    quota=TenantQuota(scans_per_sec=1.0, burst=2.0),
                )
                batch = [((1, 2, 3), True)]
                assert registry.submit_observations("metered", batch).accepted
                assert registry.submit_observations("metered", batch).accepted
                third = registry.submit_observations("metered", batch)
                assert not third.accepted
                assert third.reason == "rate"


class TestProcessCrashRecovery:
    def test_sigkill_mid_evict_is_recoverable_from_the_journal(self):
        # Kill a worker process after the tenant's batches were applied
        # but before evict snapshots it: persist degrades to
        # journal-only durability and restore still rebuilds the exact
        # map by replaying the journal.
        with make_service("process") as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                for batch in random_batches(seed=4, batches=3):
                    registry.submit_observations("robot-a", batch)
                registry.flush("robot-a")
                expected = tree_to_bytes(registry.snapshot("robot-a"))

                for shard_id in range(service.config.num_shards):
                    service.map.kill_shard_process(shard_id)
                registry.evict("robot-a")
                registry.restore("robot-a")
                assert tree_to_bytes(registry.snapshot("robot-a")) == expected

    def test_process_death_lazily_restores_tenant_slots(self):
        # No evict at all: a SIGKILLed worker must transparently rebuild
        # the tenant slots it hosted (map.recovery_source) before
        # serving the next request.
        with make_service("process") as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                batch = random_batches(seed=5, batches=1, size=60)[0]
                registry.submit_observations("robot-a", batch)
                registry.flush("robot-a")
                expected = tree_to_bytes(registry.snapshot("robot-a"))
                for shard_id in range(service.config.num_shards):
                    service.map.kill_shard_process(shard_id)
                assert tree_to_bytes(registry.snapshot("robot-a")) == expected


class TestIntrospection:
    def test_tenants_dict_shape(self):
        with make_service("thread") as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                batch = [((1, 2, 3), True), ((4, 5, 6), False)]
                registry.submit_observations("robot-a", batch)
                registry.flush()
                payload = registry.tenants_dict()
                assert payload["enabled"] is True
                assert payload["count"] == 1
                entry = payload["tenants"]["robot-a"]
                assert entry["state"] == "active"
                assert entry["submitted_observations"] == 2
                assert entry["served_observations"] == 2
                assert entry["quota"]["queue_slots"] >= 1
                assert entry["journal_entries"] >= 1

    def test_per_tenant_metrics_land_in_the_service_registry(self):
        with make_service("thread") as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                registry.submit_observations(
                    "robot-a", [((1, 2, 3), True)]
                )
                registry.flush()
                metrics = service.metrics.to_dict()
                assert metrics["counters"]["tenant.submitted.robot-a"] == 1
                assert metrics["counters"]["tenant.served.robot-a"] == 1
                assert (
                    metrics["states"]["tenant_state.robot-a"]["state"]
                    == "active"
                )

    def test_admin_tenants_route_serves_fleet_state(self):
        import json
        import urllib.request

        with make_service("thread") as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                registry.submit_observations("robot-a", [((1, 2, 3), True)])
                registry.flush()
                admin = service.serve_admin(port=0)
                try:
                    with urllib.request.urlopen(admin.url + "/tenants") as resp:
                        payload = json.loads(resp.read())
                finally:
                    admin.close()
                assert payload["enabled"] is True
                assert payload["tenants"]["robot-a"]["state"] == "active"

    def test_duplicate_and_unknown_tenants(self):
        with make_service("thread") as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                with pytest.raises(ValueError):
                    registry.create("robot-a")
                with pytest.raises(KeyError):
                    registry.get("nope")
