"""Process backend vs. the serial oracle and the thread backend.

The multiprocess engine must be semantically invisible: the same batches
through a process-backed service produce the *identical* map a serial
build produces, queries answer the same, and the bounded-queue
backpressure contract (reject vs. block, two-phase ``must_accept``)
behaves exactly as it does on the thread backend.
"""

import random
import threading

import pytest

from repro.core.octocache import OctoCacheMap
from repro.mp.backend import ProcessShardedMap
from repro.octree.merge import map_agreement
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
        workers="process",
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def make_batches(num_batches=8, per_batch=60, seed=23):
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
    serial = OctoCacheMap(resolution=RESOLUTION, depth=DEPTH)
    for batch in batches:
        serial.insert_batch(ScanBatch(observations=list(batch), num_rays=0))
    return serial


def keys_for_shard(router, shard_id, count, start=0):
    found = []
    for x in range(start, 64):
        for y in range(64):
            key = (x, y, 7)
            if router.shard_of(key) == shard_id:
                found.append(key)
                if len(found) == count:
                    return found
    raise AssertionError(f"could not find {count} keys for shard {shard_id}")


class GatedApply:
    """Blocks applies to one shard until released (parent-side in both
    backends, so the same gate exercises both queue implementations)."""

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


class TestBitExactAgreement:
    def test_process_service_matches_serial_build(self):
        """The headline invariant: a process-backed service converges on
        the identical map a fault-free serial build produces."""
        batches = make_batches()
        with OccupancyMapService(make_config()) as service:
            for batch in batches:
                service.submit_observations(batch, must_accept=True)
            service.flush()
            snapshot = service.snapshot()
        serial = build_serial(batches)
        serial.finalize()
        agreement = map_agreement(serial.octree, snapshot)
        assert agreement.decision_agreement == 1.0
        assert agreement.missing == 0
        assert agreement.compared > 0

    def test_standalone_backend_matches_serial_build(self):
        batches = make_batches(num_batches=4, per_batch=40, seed=7)
        with ProcessShardedMap(
            resolution=RESOLUTION, depth=DEPTH, num_shards=2
        ) as pmap:
            for batch in batches:
                for shard_id in range(pmap.num_shards):
                    share = [
                        obs
                        for obs in batch
                        if pmap.router.shard_of(obs[0]) == shard_id
                    ]
                    if share:
                        pmap.apply_to_shard(
                            shard_id, ScanBatch.coerce(share)
                        )
            pmap.finalize()
            snapshot = pmap.snapshot()
        serial = build_serial(batches)
        serial.finalize()
        agreement = map_agreement(serial.octree, snapshot)
        assert agreement.decision_agreement == 1.0
        assert agreement.missing == 0

    def test_num_procs_fewer_than_shards(self):
        """Shards multiplex onto fewer processes without changing the map."""
        batches = make_batches(num_batches=4, per_batch=40, seed=11)
        with OccupancyMapService(
            make_config(num_shards=4, num_procs=2)
        ) as service:
            assert service.map.num_procs == 2
            for batch in batches:
                service.submit_observations(batch, must_accept=True)
            service.flush()
            snapshot = service.snapshot()
        serial = build_serial(batches)
        serial.finalize()
        assert map_agreement(serial.octree, snapshot).decision_agreement == 1.0


class TestQueryParity:
    def test_queries_match_serial_answers(self):
        batches = make_batches(num_batches=3, per_batch=50, seed=5)
        serial = build_serial(batches)
        with OccupancyMapService(make_config(snapshot_interval=0)) as service:
            for batch in batches:
                service.submit_observations(batch, must_accept=True)
            service.flush()
            seen = {key for batch in batches for key, _occ in batch}
            for key in sorted(seen)[:40]:
                assert service.map.query_key(key) == pytest.approx(
                    serial.query_key(key)
                )
            assert service.map.query_key((63, 63, 63)) == serial.query_key(
                (63, 63, 63)
            )


class TestBackpressureParity:
    @pytest.mark.parametrize("workers", ["thread", "process"])
    def test_reject_policy_and_must_accept_rollback(self, workers):
        """Reject + two-phase must_accept behave identically on both
        backends: partial capacity -> atomic rejection, slot released."""
        config = make_config(
            queue_capacity=1,
            backpressure="reject",
            snapshot_interval=0,
            workers=workers,
        )
        service = OccupancyMapService(config)
        gated = GatedApply(service, shard_id=1)
        try:
            router = service.map.router
            k1 = keys_for_shard(router, 1, 3)
            k0 = keys_for_shard(router, 0, 1)
            service.map.apply_to_shard = gated
            service.submit_observations([(k1[0], True)])
            assert gated.entered.wait(timeout=10.0)
            receipt = service.submit_observations([(k1[1], True)])
            assert receipt.enqueued == 1
            with pytest.raises(BackpressureError, match="nothing was enqueued"):
                service.submit_observations(
                    [(k0[0], True), (k1[2], True)], must_accept=True
                )
            receipt = service.submit_observations([(k0[0], False)])
            assert receipt.enqueued == 1
            gated.gate.set()
            service.flush()
            expected = build_serial(
                [[(k1[0], True)], [(k1[1], True)], [(k0[0], False)]]
            )
            for key in (k1[0], k1[1], k0[0]):
                assert service.map.query_key(key) == pytest.approx(
                    expected.query_key(key)
                )
            assert service.map.query_key(k1[2]) is None
        finally:
            gated.gate.set()
            service.close()

    @pytest.mark.parametrize("workers", ["thread", "process"])
    def test_block_policy_drains_everything(self, workers):
        config = make_config(
            queue_capacity=1,
            backpressure="block",
            snapshot_interval=0,
            workers=workers,
        )
        batches = make_batches(num_batches=6, per_batch=20, seed=31)
        with OccupancyMapService(config) as service:
            for batch in batches:
                receipt = service.submit_observations(batch)
                assert receipt.rejected == 0
            service.flush()
            snapshot = service.snapshot()
        serial = build_serial(batches)
        serial.finalize()
        agreement = map_agreement(serial.octree, snapshot)
        assert agreement.decision_agreement == 1.0
        assert agreement.missing == 0


class TestConfigValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ServiceConfig(resolution=0.1, workers="fiber")

    def test_num_procs_requires_process_backend(self):
        with pytest.raises(ValueError, match="num_procs"):
            ServiceConfig(resolution=0.1, workers="thread", num_procs=2)

    def test_num_procs_bounds(self):
        with pytest.raises(ValueError, match="num_procs"):
            ServiceConfig(
                resolution=0.1, num_shards=2, workers="process", num_procs=3
            )
