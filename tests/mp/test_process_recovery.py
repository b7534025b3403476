"""Real process death, exact recovery.

The thread backend simulates crashes; the process backend gives us the
real thing.  These tests SIGKILL actual worker processes mid-workload —
either directly or by letting an injected ``shard.apply`` crash be made
real by the service — and verify the service converges on the identical
map a fault-free serial build produces (checkpoint + journal-tail
replay, no double-applied batches, no lost ones).
"""

import os
import signal
import time

from repro.mp.backend import ProcessShardedMap
from repro.octree.merge import map_agreement
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.sensor.scaninsert import ScanBatch
from repro.service.server import OccupancyMapService

from tests.mp.test_process_backend import (
    RESOLUTION,
    DEPTH,
    build_serial,
    make_batches,
    make_config,
)


class TestSigkillRecovery:
    def test_sigkill_mid_workload_recovers_exactly(self):
        """SIGKILL a live worker process between submissions; the service
        transparently respawns it, replays checkpoint + journal tail, and
        the final snapshot agrees 1.0 with the serial oracle."""
        batches = make_batches(num_batches=10, per_batch=50, seed=41)
        with OccupancyMapService(make_config(num_shards=2)) as service:
            supervisor = service.map.supervisor
            for index, batch in enumerate(batches):
                if index == 4:
                    service.flush()
                    victim = supervisor.pid_of(0)
                    assert victim is not None
                    os.kill(victim, signal.SIGKILL)
                    # Wait for the child to actually die before feeding
                    # more work through it.
                    deadline = time.time() + 10.0
                    while supervisor.alive(0) and time.time() < deadline:
                        time.sleep(0.01)
                    assert not supervisor.alive(0)
                service.submit_observations(batch, must_accept=True)
            service.flush()
            snapshot = service.snapshot()
            assert supervisor.pid_of(0) != victim
        serial = build_serial(batches)
        serial.finalize()
        agreement = map_agreement(serial.octree, snapshot)
        assert agreement.decision_agreement == 1.0
        assert agreement.missing == 0
        assert agreement.compared > 0

    def test_injected_crash_kills_real_process(self):
        """An injected shard.apply crash in process mode SIGKILLs the
        real worker process (not a simulated death), and recovery still
        converges exactly."""
        batches = make_batches(num_batches=8, per_batch=40, seed=43)
        plan = FaultPlan(
            [FaultSpec(site="shard.apply", mode="crash", shard=0, after=2)]
        )
        with OccupancyMapService(
            make_config(num_shards=2), fault_plan=plan
        ) as service:
            first_pid = service.map.supervisor.pid_of(0)
            for batch in batches:
                service.submit_observations(batch, must_accept=True)
            service.flush()
            snapshot = service.snapshot()
            stats = service.stats_dict()
            respawned_pid = service.map.supervisor.pid_of(0)
        counters = stats["metrics"]["counters"]
        assert counters.get("shard.worker_restarts", 0) >= 1
        assert respawned_pid != first_pid
        serial = build_serial(batches)
        serial.finalize()
        agreement = map_agreement(serial.octree, snapshot)
        assert agreement.decision_agreement == 1.0
        assert agreement.missing == 0

    def test_checkpoints_disabled_replays_whole_journal(self):
        batches = make_batches(num_batches=6, per_batch=30, seed=47)
        with OccupancyMapService(
            make_config(num_shards=2, snapshot_interval=0)
        ) as service:
            for index, batch in enumerate(batches):
                if index == 3:
                    service.flush()
                    assert service.map.kill_shard_process(0)
                service.submit_observations(batch, must_accept=True)
            service.flush()
            snapshot = service.snapshot()
        serial = build_serial(batches)
        serial.finalize()
        assert map_agreement(serial.octree, snapshot).decision_agreement == 1.0


class TestSupervisorLiveness:
    def test_kill_and_respawn_bumps_generation(self):
        with ProcessShardedMap(
            resolution=RESOLUTION, depth=DEPTH, num_shards=2
        ) as pmap:
            supervisor = pmap.supervisor
            gen_before = supervisor.generation(0)
            assert supervisor.ping(0)
            assert pmap.kill_shard_process(0)
            assert not supervisor.alive(0)
            # Next apply transparently respawns the worker.
            pmap.apply_to_shard(0, ScanBatch.coerce([((1, 1, 1), True)]))
            assert supervisor.alive(0)
            assert supervisor.generation(0) > gen_before
            assert supervisor.restarts >= 1

    def test_query_on_dead_shard_degrades_to_unknown(self):
        """Queries never resurrect a dead worker: they degrade to None
        (unknown) and leave recovery to the ingest path."""
        with ProcessShardedMap(
            resolution=RESOLUTION, depth=DEPTH, num_shards=2
        ) as pmap:
            key = (1, 1, 1)
            shard = pmap.router.shard_of(key)
            pmap.apply_to_shard(shard, ScanBatch.coerce([(key, True)]))
            assert pmap.query_key(key) is not None
            assert pmap.kill_shard_process(shard)
            assert pmap.query_key(key) is None

    def test_standalone_recovery_source_replays_tail(self):
        """The backend's lazy restore replays exactly the applied prefix
        of the journal tail — the in-flight entry (journal appends before
        apply) must not be double-counted."""
        applied = []

        def recovery_source(shard_id, tenant=0):
            return None, list(applied)

        pmap = ProcessShardedMap(
            resolution=RESOLUTION, depth=DEPTH, num_shards=1
        )
        try:
            pmap.recovery_source = recovery_source
            batches = make_batches(num_batches=5, per_batch=25, seed=53)
            for batch in batches[:3]:
                applied.append(ScanBatch.coerce(batch))
                pmap.apply_to_shard(0, applied[-1])
            assert pmap.kill_shard_process(0)
            for batch in batches[3:]:
                applied.append(ScanBatch.coerce(batch))
                pmap.apply_to_shard(0, applied[-1])
            pmap.finalize()
            snapshot = pmap.snapshot()
        finally:
            pmap.close()
        serial = build_serial(batches)
        serial.finalize()
        agreement = map_agreement(serial.octree, snapshot)
        assert agreement.decision_agreement == 1.0
        assert agreement.missing == 0
