"""Incremental counters vs. exact recount: zero drift, both backends.

The accounting contract: every stateful structure maintains O(1) byte
counters on its hot path AND can recount by walking its storage, and the
two must agree byte-for-byte on any quiescent (flushed) state.  These
tests drive ingest, tenant churn, eviction, restore, and checkpoint
compaction through both worker backends and fold the trees with
``drift_bytes`` after each phase.
"""

import random
import threading
import time

import pytest

from repro.core.config import CELL_BYTES
from repro.memsight.costs import DELTA_BYTES, OBS_BYTES
from repro.resilience.recovery import CheckpointStore
from repro.sensor.scaninsert import ScanBatch
from repro.service.server import OccupancyMapService, ServiceConfig
from repro.tenancy.changelog import ChangeLog
from repro.tenancy.registry import TenantRegistry

BACKENDS = ("thread", "process")


def make_service(workers, **overrides):
    config = ServiceConfig(
        resolution=0.2,
        depth=8,
        num_shards=2,
        workers=workers,
        snapshot_interval=0,
        **overrides,
    )
    return OccupancyMapService(config)


def random_batches(seed, batches=5, size=40):
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


def assert_zero_drift(service):
    incremental = service.memory_report()
    exact = service.memory_report(exact=True)
    assert incremental.drift_bytes(exact) == 0, (
        f"incremental:\n{incremental.render()}\nexact:\n{exact.render()}"
    )
    return incremental


@pytest.mark.parametrize("workers", BACKENDS)
class TestServiceAccounting:
    def test_empty_service_accounts_exactly(self, workers):
        with make_service(workers) as service:
            assert_zero_drift(service)

    def test_ingest_grows_and_stays_exact(self, workers):
        with make_service(workers) as service:
            baseline = service.memory_report().total_bytes
            previous = baseline
            for batch in random_batches(seed=3):
                service.submit_observations(batch, must_accept=True)
                service.flush()
                report = assert_zero_drift(service)
                assert report.total_bytes >= previous
                previous = report.total_bytes
            assert previous > baseline

    def test_map_component_carries_per_shard_children(self, workers):
        with make_service(workers) as service:
            for batch in random_batches(seed=4, batches=2):
                service.submit_observations(batch, must_accept=True)
            service.flush()
            map_report = service.memory_report().child("map")
            assert map_report is not None
            names = {child.name for child in map_report.children}
            assert names == {"shard0", "shard1"}
            assert map_report.total_bytes > 0

    def test_components_present_and_disjoint(self, workers):
        with make_service(workers) as service:
            report = service.memory_report()
            names = [child.name for child in report.children]
            assert names.count("map") == 1
            for expected in ("map", "queues", "durability", "telemetry"):
                assert expected in names
            # Totals are the sum of the (disjoint) components.
            assert report.total_bytes == sum(
                child.total_bytes for child in report.children
            )

    def test_backends_account_identically(self, workers):
        # The modeled constants are backend-independent: the same
        # workload must cost the same bytes on threads and processes.
        batches = random_batches(seed=5, batches=3)
        totals = {}
        for backend in BACKENDS:
            with make_service(backend) as service:
                for batch in batches:
                    service.submit_observations(batch, must_accept=True)
                service.flush()
                totals[backend] = (
                    service.memory_report().child("map").total_bytes
                )
        assert totals["thread"] == totals["process"]


@pytest.mark.parametrize("workers", BACKENDS)
class TestTenantAccounting:
    def test_tenant_churn_stays_exact(self, workers):
        with make_service(workers) as service:
            with TenantRegistry(service) as registry:
                for name in ("robot-a", "robot-b"):
                    registry.create(name)
                for index, batch in enumerate(random_batches(seed=6)):
                    registry.submit_observations(
                        ("robot-a", "robot-b")[index % 2],
                        batch,
                        must_accept=True,
                    )
                registry.flush()
                report = assert_zero_drift(service)
                tenancy = report.child("tenancy")
                assert tenancy is not None
                assert {c.name for c in tenancy.children} == {
                    "tenant1",
                    "tenant2",
                }

    def test_attribution_covers_every_tenant(self, workers):
        with make_service(workers) as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                registry.create("robot-b")
                for batch in random_batches(seed=7, batches=3):
                    registry.submit_observations(
                        "robot-a", batch, must_accept=True
                    )
                registry.flush()
                attributed = service.tenant_memory_bytes()
                assert set(attributed) == {"robot-a", "robot-b"}
                assert attributed["robot-a"] > attributed["robot-b"]

    def test_evict_restore_cycle_stays_exact(self, workers):
        with make_service(workers) as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                for batch in random_batches(seed=8, batches=3):
                    registry.submit_observations(
                        "robot-a", batch, must_accept=True
                    )
                registry.flush()
                registry.evict("robot-a")
                assert_zero_drift(service)
                registry.restore("robot-a")
                assert_zero_drift(service)


    def test_queued_tenant_slices_are_accounted_under_queues(self, workers):
        """Slices waiting behind a stalled shard are bytes the service
        holds: they show under ``queues`` (incremental == exact) until
        applied, whichever map they belong to."""
        batches = random_batches(seed=9, batches=4)
        with make_service(workers, coalesce=1) as service:
            gate = threading.Event()
            parked = {}  # shard id -> observations held in the gate
            apply_to_shard = service.map.apply_to_shard

            def gated(shard_id, observations, tenant=0):
                parked[shard_id] = len(observations)
                assert gate.wait(timeout=30.0), "gate never released"
                return apply_to_shard(shard_id, observations, tenant=tenant)

            service.map.apply_to_shard = gated
            with TenantRegistry(service) as registry:
                try:
                    registry.create("robot-a")
                    for batch in batches:
                        registry.submit_observations(
                            "robot-a", batch, must_accept=True
                        )
                    deadline = time.monotonic() + 10.0
                    while len(parked) < 2 and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert len(parked) == 2, "both shard workers should park"
                    queues = assert_zero_drift(service).child("queues")
                    waiting = sum(len(batch) for batch in batches) - sum(
                        parked.values()
                    )
                    assert waiting > 0
                    assert queues.total_bytes == waiting * OBS_BYTES
                finally:
                    gate.set()
                registry.flush()
                queues = assert_zero_drift(service).child("queues")
                assert queues.total_bytes == 0


class TestChangeLogAccounting:
    def test_ring_bytes_track_buffered_deltas(self):
        log = ChangeLog(capacity=8)
        with log.subscribe():
            log.record([((i, i, i), 0.5) for i in range(5)])
            report = log.memory_breakdown()
            assert report.total_bytes == 5 * DELTA_BYTES
            # Overflow: bounded ring keeps only `capacity` deltas.
            log.record([((i, 0, 0), 0.5) for i in range(10)])
            assert log.memory_breakdown().total_bytes == 8 * DELTA_BYTES

    def test_clear_empties_but_keeps_cursors_monotone(self):
        log = ChangeLog(capacity=8)
        sub = log.subscribe()
        log.record([((1, 1, 1), 0.5)])  # never polled — dropped by clear
        log.clear()
        assert log.memory_breakdown().total_bytes == 0
        log.record([((2, 2, 2), 0.5)])
        deltas = sub.poll()
        # The cleared delta is reported as truncation, never silently
        # skipped, and cursors keep climbing across the clear.
        assert sub.truncated
        assert [d.key for d in deltas] == [(2, 2, 2)]
        assert deltas[0].cursor == 2
        sub.close()


class TestCheckpointAccounting:
    def test_journal_bytes_and_compaction(self):
        store = CheckpointStore(num_shards=1)
        store.append(0, ScanBatch.coerce([((1, 1, 1), True), ((2, 2, 2), False)]))
        store.append(0, ScanBatch.coerce([((3, 3, 3), True)]))
        report = store.memory_breakdown()
        assert report.find("shard0/journal").total_bytes == 3 * OBS_BYTES
        assert report.drift_bytes(store.memory_breakdown(exact=True)) == 0

        store.write_snapshot_blob(0, b"snapshot", upto=store.journal_length(0))
        dropped = store.compact(0)
        assert dropped == 2
        report = store.memory_breakdown()
        assert report.find("shard0/journal").total_bytes == 0
        assert report.find("shard0/snapshot").total_bytes == len(b"snapshot")
        assert report.drift_bytes(store.memory_breakdown(exact=True)) == 0

    def test_compaction_preserves_absolute_indexing(self):
        store = CheckpointStore(num_shards=1)
        store.append(0, ScanBatch.coerce([((1, 1, 1), True)]))
        store.append(0, ScanBatch.coerce([((2, 2, 2), True)]))
        store.write_snapshot_blob(0, b"s", upto=2)
        store.compact(0)
        # Absolute length survives compaction; new appends continue it.
        assert store.journal_length(0) == 2
        store.append(0, ScanBatch.coerce([((3, 3, 3), True)]))
        assert store.journal_length(0) == 3
        checkpoint, tail = store.recovery_state(0)
        assert checkpoint.upto == 2
        assert len(tail) == 1


@pytest.mark.parametrize("workers", BACKENDS)
class TestQueueAccounting:
    def test_queue_bytes_drain_to_zero(self, workers):
        with make_service(workers) as service:
            for batch in random_batches(seed=9, batches=4, size=60):
                service.submit_observations(batch, must_accept=True)
            service.flush()
            queues = service.memory_report().child("queues")
            assert queues is not None
            assert queues.total_bytes == 0

    def test_cell_constant_anchors_cache_accounting(self, workers):
        # One voxel inserted → at least one resident cell accounted at
        # the paper's 7-byte packed-cell cost.
        with make_service(workers) as service:
            service.submit_observations([((1, 2, 3), True)], must_accept=True)
            service.flush()
            map_bytes = service.memory_report().child("map").total_bytes
            assert map_bytes >= CELL_BYTES
