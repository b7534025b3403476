"""Tenant traffic inherits the service's resilience contract.

Hosted tenants ride the service's one ingest plane, so everything the
default map is promised holds per lane: transient apply errors are
retried, a crashed shard rebuilds *every* map it hosts exactly, an
enqueue drop is reported and leaves nothing behind, and the shard
workers share turns fairly.  The oracle throughout is a fault-free build
of the same traffic, compared byte for byte.
"""

import random
import sys
import threading

import pytest

from repro.octree.serialize import tree_to_bytes
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.service.server import OccupancyMapService, ServiceConfig
from repro.tenancy import TenantQuota, TenantRegistry

BACKENDS = ("thread", "process")
TENANTS = ("robot-a", "robot-b", "robot-c")
DEFAULT = "<default>"


def make_service(workers, plan=None, **overrides):
    settings = dict(
        resolution=0.2,
        depth=8,
        num_shards=2,
        workers=workers,
        coalesce=2,
        snapshot_interval=3,
        retry_base_delay=0.0,
        retry_max_delay=0.0,
    )
    settings.update(overrides)
    return OccupancyMapService(ServiceConfig(**settings), fault_plan=plan)


def random_batches(seed, batches=6, size=40):
    rng = random.Random(seed)
    return [
        [
            (
                (rng.randrange(256), rng.randrange(256), rng.randrange(256)),
                rng.random() < 0.7,
            )
            for _ in range(size)
        ]
        for _ in range(batches)
    ]


def traffic():
    """Per-map batch lists: three tenants plus the default map."""
    names = TENANTS + (DEFAULT,)
    return {name: random_batches(seed=11 + i) for i, name in enumerate(names)}


def drive(service, registry, per_map):
    """Interleave every map's batches, then drain."""
    for name in TENANTS:
        registry.create(name)
    for round_ in zip(*(per_map[name] for name in per_map)):
        for name, batch in zip(per_map, round_):
            if name == DEFAULT:
                service.submit_observations(batch, must_accept=True)
            else:
                registry.submit_observations(name, batch, must_accept=True)
    service.flush()


def snapshots(service, registry):
    out = {name: tree_to_bytes(registry.snapshot(name)) for name in TENANTS}
    out[DEFAULT] = tree_to_bytes(service.snapshot())
    return out


def fault_free(workers, per_map):
    with make_service(workers) as service:
        with TenantRegistry(service) as registry:
            drive(service, registry, per_map)
            return snapshots(service, registry)


def counters_of(service):
    return service.metrics.to_dict()["counters"]


@pytest.mark.parametrize("workers", BACKENDS)
class TestTenantResilience:
    def test_transient_apply_error_is_retried_and_map_stays_exact(
        self, workers
    ):
        batches = random_batches(seed=5)
        with make_service(workers) as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                for batch in batches:
                    registry.submit_observations("robot-a", batch)
                registry.flush("robot-a")
                expected = tree_to_bytes(registry.snapshot("robot-a"))

        plan = FaultPlan(
            [FaultSpec(site="octree.update", mode="error", after=2, times=1)]
        )
        with make_service(workers, plan) as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                for batch in batches:
                    registry.submit_observations("robot-a", batch)
                registry.flush("robot-a")
                assert plan.fired_at("octree.update") > 0
                assert counters_of(service)["shard.retries"] == 1
                assert service.ready()
                assert tree_to_bytes(registry.snapshot("robot-a")) == expected

    def test_shard_crash_rebuilds_every_hosted_map_exactly(self, workers):
        """A shard dies mid-ingest (a real SIGKILL in process mode, one
        process hosting both shards, so the sibling shard's slots go
        too): every tenant's map and the default map come back
        byte-identical to the fault-free build."""
        per_map = traffic()
        procs = {"num_procs": 1} if workers == "process" else {}
        expected = fault_free(workers, per_map)

        plan = FaultPlan(
            [FaultSpec(site="shard.apply", mode="crash", shard=0, after=3)]
        )
        with make_service(workers, plan, **procs) as service:
            ready_during_restore = []
            restore_shard = service.map.restore_shard

            def watching(*args, **kwargs):
                ready_during_restore.append(service.ready())
                return restore_shard(*args, **kwargs)

            service.map.restore_shard = watching
            with TenantRegistry(service) as registry:
                drive(service, registry, per_map)
                assert plan.fired_at("shard.apply") > 0
                assert counters_of(service)["shard.recoveries"] >= 1
                # One restore per lane with data on the crashed shard,
                # each while /readyz says "not ready".
                assert len(ready_during_restore) >= 2
                assert not any(ready_during_restore)
                assert service.ready()
                assert snapshots(service, registry) == expected

    def test_enqueue_drop_is_reported_and_leaves_nothing_behind(
        self, workers
    ):
        plan = FaultPlan(
            [FaultSpec(site="queue.enqueue", mode="drop", times=1)]
        )
        batch = random_batches(seed=9, batches=1)[0]
        keys = [key for key, _occupied in batch]
        with make_service(workers, plan) as service:
            with TenantRegistry(service) as registry:
                tenant = registry.create("robot-a")
                receipt = registry.submit_observations("robot-a", batch)
                assert plan.fired_at("queue.enqueue") > 0
                assert not receipt.accepted
                assert receipt.reason == "shard"
                assert (receipt.enqueued, receipt.rejected) == (0, len(batch))
                registry.flush()
                assert registry.query_keys("robot-a", keys) == [None] * len(keys)
                assert all(
                    tenant.store.journal_length(shard) == 0
                    for shard in range(registry.num_shards)
                )
                assert tenant.outstanding == 0
                # The next submission is unaffected.
                assert registry.submit_observations("robot-a", batch).accepted
                registry.flush()
                assert tenant.served_observations == len(batch)


class TestLaneFairness:
    @pytest.mark.parametrize("coalesce", (1, 4))
    def test_backlogged_tenant_delays_a_light_one_by_one_turn_per_round(
        self, coalesce
    ):
        """200 queued slices of one tenant against 5 of another: the
        worker alternates turns, so the light tenant is done after its
        own turns plus at most as many of the heavy one's."""
        with make_service(
            "thread", num_shards=1, coalesce=coalesce, snapshot_interval=0
        ) as service:
            gate = threading.Event()
            turns = []  # (tenant slot, slices' observations) per apply
            apply_to_shard = service.map.apply_to_shard

            def recording(shard_id, observations, tenant=0):
                assert gate.wait(timeout=30.0), "gate never released"
                turns.append((tenant, len(observations)))
                return apply_to_shard(shard_id, observations, tenant=tenant)

            service.map.apply_to_shard = recording
            with TenantRegistry(
                service, default_quota=TenantQuota(queue_slots=256)
            ) as registry:
                heavy = registry.create("heavy").slot
                light = registry.create("light").slot
                for i in range(200):
                    registry.submit_observations(
                        "heavy", [((i, 1, 1), True)], must_accept=True
                    )
                for i in range(5):
                    registry.submit_observations(
                        "light", [((i, 2, 2), True)], must_accept=True
                    )
                gate.set()
                registry.flush()

            assert sum(n for slot, n in turns if slot == heavy) == 200
            assert sum(n for slot, n in turns if slot == light) == 5
            light_turns = [i for i, (slot, _n) in enumerate(turns) if slot == light]
            assert len(light_turns) == -(-5 // coalesce)
            # The first apply was already parked in the gate when the
            # light tenant queued; after it, never two heavy turns in a row
            # while the light tenant still has work.
            assert light_turns[0] <= 2
            gaps = [b - a for a, b in zip(light_turns, light_turns[1:])]
            assert all(gap <= 2 for gap in gaps)
            assert light_turns[-1] <= 2 * len(light_turns)


class TestConcurrentLanes:
    def test_one_submitter_per_lane_stays_exact_under_contention(self):
        """More submitter threads than cores, a shortened switch
        interval, every lane (default map included) fed concurrently: a
        lost slice or a slice applied to the wrong slot would change a
        snapshot."""
        per_map = traffic()
        expected = fault_free("thread", per_map)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_service("thread") as service:
                with TenantRegistry(service) as registry:
                    for name in TENANTS:
                        registry.create(name)
                    errors = []

                    def submitter(name):
                        try:
                            for batch in per_map[name]:
                                if name == DEFAULT:
                                    service.submit_observations(
                                        batch, must_accept=True
                                    )
                                else:
                                    registry.submit_observations(
                                        name, batch, must_accept=True
                                    )
                        except BaseException as error:  # noqa: BLE001
                            errors.append(error)

                    threads = [
                        threading.Thread(target=submitter, args=(name,))
                        for name in per_map
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60.0)
                    assert not any(thread.is_alive() for thread in threads)
                    assert not errors
                    service.flush()
                    assert service.default_lane.outstanding == 0
                    assert all(
                        registry.get(name).outstanding == 0 for name in TENANTS
                    )
                    assert snapshots(service, registry) == expected
        finally:
            sys.setswitchinterval(interval)
