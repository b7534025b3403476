"""Chaos tests for the crash-resilient occupancy-map service.

These drive a real :class:`OccupancyMapService` with deterministic fault
injection and verify the headline resilience guarantees:

- a crashed shard worker is restarted and its shard rebuilt to *exactly*
  the fault-free map (snapshot + journal replay);
- ``must_accept`` ingest is all-or-nothing — a rejected submission leaves
  every queue and the map untouched;
- deadlines, retries, dead shards, and stale reads behave as documented.
"""

import random
import threading

import pytest

from repro.core.octocache import OctoCacheMap
from repro.octree.merge import map_agreement
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.policy import DeadlineExceeded
from repro.resilience.recovery import ShardHealth
from repro.sensor.scaninsert import ScanBatch
from repro.service.server import (
    BackpressureError,
    OccupancyMapService,
    ServiceConfig,
)

RESOLUTION = 0.1
DEPTH = 6


def make_config(**overrides):
    defaults = dict(
        resolution=RESOLUTION,
        depth=DEPTH,
        num_shards=2,
        queue_capacity=8,
        coalesce=1,
        snapshot_interval=2,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def make_batches(num_batches=8, per_batch=60, seed=23):
    """Deterministic observation batches spread across the key grid."""
    rng = random.Random(seed)
    batches = []
    for _ in range(num_batches):
        batch = []
        for _ in range(per_batch):
            key = (rng.randrange(64), rng.randrange(64), rng.randrange(64))
            batch.append((key, rng.random() < 0.6))
        batches.append(batch)
    return batches


def build_serial(batches):
    """Fault-free single-threaded reference build of the same batches."""
    serial = OctoCacheMap(resolution=RESOLUTION, depth=DEPTH)
    for batch in batches:
        serial.insert_batch(ScanBatch(observations=list(batch), num_rays=0))
    return serial


def keys_for_shard(router, shard_id, count, start=0):
    """Distinct voxel keys that all route to ``shard_id``."""
    found = []
    for x in range(start, 64):
        for y in range(64):
            key = (x, y, 7)
            if router.shard_of(key) == shard_id:
                found.append(key)
                if len(found) == count:
                    return found
    raise AssertionError(f"could not find {count} keys for shard {shard_id}")


def counters_of(service):
    return service.stats_dict()["metrics"]["counters"]


class GatedApply:
    """Monkeypatch helper: blocks applies to one shard until released."""

    def __init__(self, service, shard_id):
        self.original = service.map.apply_to_shard
        self.shard_id = shard_id
        self.entered = threading.Event()
        self.gate = threading.Event()

    def __call__(self, shard_id, observations, tenant=0):
        if shard_id == self.shard_id:
            self.entered.set()
            assert self.gate.wait(timeout=10.0), "gate never released"
        return self.original(shard_id, observations, tenant=tenant)


class TestCrashRecovery:
    def test_shard_crash_recovers_to_exact_map(self):
        """THE headline guarantee: crash a shard worker mid-workload and
        the recovered service converges on the identical map a fault-free
        serial build produces (agreement 1.0, zero missing voxels)."""
        batches = make_batches()
        plan = FaultPlan(
            [FaultSpec(site="shard.apply", mode="crash", shard=0, after=2)]
        )
        with OccupancyMapService(make_config(), fault_plan=plan) as service:
            for batch in batches:
                receipt = service.submit_observations(batch)
                assert receipt.rejected == 0
            service.flush()
            # The crash fired exactly once and the shard healed.
            assert plan.fired_at("shard.apply") == 1
            counters = counters_of(service)
            assert counters["shard.worker_restarts"] == 1
            assert counters["shard.recoveries"] == 1
            assert service.shard_health(0) is ShardHealth.HEALTHY
            # Exactness, value by value: every observed voxel carries the
            # same accumulated occupancy as the fault-free build.
            serial = build_serial(batches)
            observed = {key for batch in batches for key, _ in batch}
            for key in sorted(observed):
                assert service.map.query_key(key) == pytest.approx(
                    serial.query_key(key)
                ), f"voxel {key} diverged after recovery"
            # And as a map-level verdict: full decision agreement.
            snapshot = service.snapshot()
            serial.finalize()
            agreement = map_agreement(serial.octree, snapshot)
            assert agreement.missing == 0
            assert agreement.decision_agreement == 1.0

    def test_crash_with_checkpoints_disabled_replays_whole_journal(self):
        """snapshot_interval=0 still recovers exactly — pure journal replay."""
        batches = make_batches(num_batches=5, seed=31)
        plan = FaultPlan(
            [FaultSpec(site="shard.apply", mode="crash", shard=1, after=1)]
        )
        config = make_config(snapshot_interval=0)
        with OccupancyMapService(config, fault_plan=plan) as service:
            for batch in batches:
                service.submit_observations(batch)
            service.flush()
            assert counters_of(service)["shard.worker_restarts"] == 1
            serial = build_serial(batches)
            observed = {key for batch in batches for key, _ in batch}
            for key in sorted(observed):
                assert service.map.query_key(key) == pytest.approx(
                    serial.query_key(key)
                )

    def test_snapshot_write_failure_is_survivable(self):
        """A failing checkpoint never loses data: the journal covers it."""
        batches = make_batches(num_batches=4, seed=37)
        plan = FaultPlan(
            [
                FaultSpec(site="snapshot.write", mode="error", times=100),
                FaultSpec(site="shard.apply", mode="crash", shard=0, after=1),
            ]
        )
        config = make_config(snapshot_interval=1)
        with OccupancyMapService(config, fault_plan=plan) as service:
            for batch in batches:
                service.submit_observations(batch)
            service.flush()
            counters = counters_of(service)
            assert counters["shard.snapshot_failures"] >= 1
            assert counters.get("shard.snapshots", 0) == 0
            serial = build_serial(batches)
            observed = {key for batch in batches for key, _ in batch}
            for key in sorted(observed):
                assert service.map.query_key(key) == pytest.approx(
                    serial.query_key(key)
                )

    def test_checkpoints_persisted_to_directory(self, tmp_path):
        config = make_config(num_shards=1, snapshot_interval=1,
                             checkpoint_dir=str(tmp_path))
        with OccupancyMapService(config) as service:
            for batch in make_batches(num_batches=2, seed=41):
                service.submit_observations(batch)
            service.flush()
            assert counters_of(service)["shard.snapshots"] >= 1
        assert (tmp_path / "shard-0.oct").exists()


class TestMustAcceptAtomicity:
    def test_rejected_must_accept_enqueues_nothing(self):
        """THE all-or-nothing regression: when one slice of a must_accept
        submission cannot be placed, already-reserved capacity on other
        shards is rolled back and no slice reaches any queue."""
        config = make_config(
            queue_capacity=1, backpressure="reject", snapshot_interval=0
        )
        service = OccupancyMapService(config)
        try:
            router = service.map.router
            k1 = keys_for_shard(router, 1, 3)
            k0 = keys_for_shard(router, 0, 1)
            gated = GatedApply(service, shard_id=1)
            service.map.apply_to_shard = gated
            # Fill shard 1: first batch is dequeued and parks in the
            # gated apply; second batch occupies the single queue slot.
            service.submit_observations([(k1[0], True)])
            assert gated.entered.wait(timeout=10.0)
            receipt = service.submit_observations([(k1[1], True)])
            assert receipt.enqueued == 1
            # Mixed must_accept submission: shard 0 has room, shard 1
            # does not -> atomic rejection.
            with pytest.raises(BackpressureError, match="nothing was enqueued"):
                service.submit_observations(
                    [(k0[0], True), (k1[2], True)], must_accept=True
                )
            assert service._queues[0].qsize() == 0
            # Shard 0's reservation was rolled back: with capacity 1,
            # this plain submit only succeeds if the slot was released.
            receipt = service.submit_observations([(k0[0], False)])
            assert receipt.enqueued == 1
            gated.gate.set()
            service.flush()
            # The map holds exactly the accepted submissions; the
            # rejected must_accept slices never landed.
            expected = build_serial(
                [[(k1[0], True)], [(k1[1], True)], [(k0[0], False)]]
            )
            for key in (k1[0], k1[1], k0[0]):
                assert service.map.query_key(key) == pytest.approx(
                    expected.query_key(key)
                )
            assert service.map.query_key(k1[2]) is None
            counters = counters_of(service)
            assert counters["ingest.rejected_observations"] == 2
        finally:
            gated.gate.set()
            service.close()

    def test_must_accept_succeeds_when_capacity_exists(self):
        config = make_config(queue_capacity=2, backpressure="reject")
        with OccupancyMapService(config) as service:
            batch = make_batches(num_batches=1, per_batch=30, seed=43)[0]
            receipt = service.submit_observations(batch, must_accept=True)
            assert receipt.enqueued == len(batch)
            assert receipt.rejected == 0
            service.flush()


class TestDeadlines:
    def test_blocked_submit_times_out_without_leaking_capacity(self):
        config = make_config(
            num_shards=1, queue_capacity=1, backpressure="block",
            snapshot_interval=0,
        )
        service = OccupancyMapService(config)
        try:
            gated = GatedApply(service, shard_id=0)
            service.map.apply_to_shard = gated
            service.submit_observations([((1, 1, 1), True)])
            assert gated.entered.wait(timeout=10.0)
            service.submit_observations([((2, 2, 2), True)])  # takes the slot
            with pytest.raises(DeadlineExceeded):
                service.submit_observations(
                    [((3, 3, 3), True)], deadline=0.2
                )
            assert counters_of(service)["ingest.deadline_exceeded"] == 1
            gated.gate.set()
            service.flush()
            # The timed-out attempt must not have leaked the queue slot.
            receipt = service.submit_observations([((4, 4, 4), True)])
            assert receipt.enqueued == 1
            service.flush()
            assert service.map.query_key((3, 3, 3)) is None
            assert service.map.query_key((4, 4, 4)) is not None
        finally:
            gated.gate.set()
            service.close()

    def test_default_deadline_from_config(self):
        config = make_config(
            num_shards=1, queue_capacity=1, backpressure="block",
            snapshot_interval=0, default_deadline=0.2,
        )
        service = OccupancyMapService(config)
        try:
            gated = GatedApply(service, shard_id=0)
            service.map.apply_to_shard = gated
            service.submit_observations([((1, 1, 1), True)])
            assert gated.entered.wait(timeout=10.0)
            service.submit_observations([((2, 2, 2), True)])
            with pytest.raises(DeadlineExceeded):
                service.submit_observations([((3, 3, 3), True)])
        finally:
            gated.gate.set()
            service.close()


class TestRetries:
    def test_transient_apply_errors_are_retried(self):
        batch = make_batches(num_batches=1, seed=47)[0]
        plan = FaultPlan(
            [FaultSpec(site="shard.apply", mode="error", times=2)]
        )
        config = make_config(
            num_shards=1, retry_attempts=3, retry_base_delay=0.001,
            retry_max_delay=0.005,
        )
        with OccupancyMapService(config, fault_plan=plan) as service:
            service.submit_observations(batch)
            service.flush()  # retries absorbed the faults: no error raised
            counters = counters_of(service)
            assert counters["shard.retries"] == 2
            assert counters.get("shard.recoveries", 0) == 0
            serial = build_serial([batch])
            for key, _occ in batch:
                assert service.map.query_key(key) == pytest.approx(
                    serial.query_key(key)
                )

    def test_exhausted_retries_surface_on_flush_without_data_loss(self):
        batch = make_batches(num_batches=1, seed=53)[0]
        plan = FaultPlan(
            [FaultSpec(site="shard.apply", mode="error", times=2)]
        )
        config = make_config(
            num_shards=1, retry_attempts=2, retry_base_delay=0.001,
            retry_max_delay=0.005,
        )
        service = OccupancyMapService(config, fault_plan=plan)
        try:
            service.submit_observations(batch)
            with pytest.raises(RuntimeError, match="shard worker error"):
                service.flush()
            # The batch was journaled before the failed apply, so the
            # in-place rebuild re-applied it: nothing was lost.
            assert service.shard_health(0) is ShardHealth.HEALTHY
            serial = build_serial([batch])
            for key, _occ in batch:
                assert service.map.query_key(key) == pytest.approx(
                    serial.query_key(key)
                )
        finally:
            service.close()


class TestDeadShards:
    def test_exhausted_recovery_budget_kills_the_shard(self):
        plan = FaultPlan(
            [FaultSpec(site="shard.apply", mode="crash", shard=0)]
        )
        config = make_config(num_shards=1, max_recoveries=0)
        with OccupancyMapService(config, fault_plan=plan) as service:
            service.submit_observations([((1, 1, 1), True)])
            service.flush()
            assert service.shard_health(0) is ShardHealth.DEAD
            counters = counters_of(service)
            assert counters["shard.deaths"] == 1
            # Reads against a dead shard are flagged stale.
            result = service.query_key_detailed((1, 1, 1))
            assert result.health == "dead"
            assert result.stale
            # New traffic routed to the dead shard is counted rejected.
            receipt = service.submit_observations([((2, 2, 2), True)])
            assert receipt.rejected == 1
            assert receipt.enqueued == 0
            assert counters_of(service)["ingest.dead_shard_observations"] == 1

    def test_healthy_reads_are_not_stale(self):
        with OccupancyMapService(make_config(num_shards=1)) as service:
            service.submit_observations([((1, 1, 1), True)])
            service.flush()
            result = service.query_key_detailed((1, 1, 1))
            assert result.health == "healthy"
            assert not result.stale
            assert result.occupied is True


class TestEnqueueDrops:
    def test_injected_enqueue_drop_is_reported_in_receipt(self):
        plan = FaultPlan(
            [FaultSpec(site="queue.enqueue", mode="drop", times=1)]
        )
        with OccupancyMapService(
            make_config(num_shards=1), fault_plan=plan
        ) as service:
            receipt = service.submit_observations([((1, 1, 1), True)])
            assert receipt.enqueued == 0
            assert receipt.rejected == 1
            service.flush()
            assert service.map.query_key((1, 1, 1)) is None
            # The next submission is unaffected.
            receipt = service.submit_observations([((1, 1, 1), True)])
            assert receipt.enqueued == 1
