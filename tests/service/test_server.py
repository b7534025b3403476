"""Tests for the concurrent occupancy-map service."""

import threading
import time

import numpy as np
import pytest

from repro.octree.merge import map_agreement
from repro.octree.serialize import tree_from_bytes
from repro.sensor.pointcloud import PointCloud
from repro.service.server import (
    BackpressureError,
    OccupancyMapService,
    ServiceConfig,
)
from repro.telemetry import RingBufferSink, tracing

RES = 0.2
DEPTH = 8


def wall_cloud(seed=0, points=50):
    rng = np.random.default_rng(seed)
    pts = np.column_stack(
        [
            np.full(points, 3.0),
            rng.uniform(-2, 2, points),
            rng.uniform(0.2, 2, points),
        ]
    )
    return PointCloud(pts, origin=(0.0, 0.0, 1.0))


def make_service(**overrides):
    defaults = dict(
        resolution=RES, depth=DEPTH, num_shards=2, max_range=10.0
    )
    defaults.update(overrides)
    return OccupancyMapService(ServiceConfig(**defaults))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(resolution=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(resolution=0.1, num_shards=0)
        with pytest.raises(ValueError):
            ServiceConfig(resolution=0.1, queue_capacity=0)
        with pytest.raises(ValueError):
            ServiceConfig(resolution=0.1, backpressure="drop-oldest")
        with pytest.raises(ValueError):
            ServiceConfig(resolution=0.1, coalesce=0)


class TestIngestAndQuery:
    def test_submit_flush_query_roundtrip(self):
        with make_service() as service:
            receipt = service.submit(wall_cloud())
            assert receipt.accepted
            assert receipt.observations > 0
            service.flush()
            hits = sum(
                service.is_occupied((3.05, y, 1.0)) is True
                for y in np.linspace(-1.5, 1.5, 13)
            )
            assert hits > 0
            assert service.is_occupied((-20.0, -20.0, -20.0)) is None

    def test_metrics_populated(self):
        with make_service() as service:
            service.submit(wall_cloud())
            service.flush()
            service.is_occupied((0.5, 0.0, 1.0))
            service.cast_ray((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), max_range=8.0)
            service.occupied_in_box((2.5, -2.0, 0.2), (3.5, 2.0, 2.0))
            stats = service.stats_dict()
        counters = stats["metrics"]["counters"]
        assert counters["ingest.scans"] == 1
        assert counters["ingest.observations"] > 0
        assert counters["query.points"] == 1
        assert counters["query.rays"] == 1
        assert counters["query.boxes"] == 1
        assert counters["shard.batches_applied"] >= 1
        histograms = stats["metrics"]["histograms"]
        assert histograms["ingest.trace_seconds"]["count"] == 1
        assert histograms["query.point_seconds"]["count"] == 1
        assert len(stats["shards"]) == 2
        report = service.stats_report()
        assert "hit ratio" in report
        assert "p99" in report

    def test_concurrent_producers_and_consumers(self):
        with make_service(num_shards=4) as service:
            errors = []

            def produce(seed):
                try:
                    for i in range(3):
                        service.submit(wall_cloud(seed * 10 + i))
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            def consume():
                try:
                    rng = np.random.default_rng(7)
                    for _ in range(40):
                        coord = tuple(rng.uniform(-2, 4, 3))
                        value = service.query(coord)
                        assert value is None or isinstance(value, float)
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=produce, args=(s,)) for s in range(3)
            ] + [threading.Thread(target=consume) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            service.flush()
            assert not errors
            snapshot = service.snapshot()
            assert snapshot.num_nodes > 0

    def test_snapshot_matches_live_queries_when_idle(self):
        with make_service() as service:
            service.submit(wall_cloud())
            service.flush()
            snapshot = service.snapshot()
            report = map_agreement(snapshot, service.map.snapshot())
            assert report.decision_agreement == 1.0


class TestBackpressure:
    def _slow_apply(self, service, delay=0.05):
        """Make every shard apply slow so queues actually fill."""
        original = service.map.apply_to_shard

        def slowed(shard_id, observations, tenant=0):
            time.sleep(delay)
            return original(shard_id, observations, tenant=tenant)

        service.map.apply_to_shard = slowed

    def test_reject_policy_drops_and_counts(self):
        service = make_service(
            num_shards=1,
            queue_capacity=1,
            backpressure="reject",
            coalesce=1,
        )
        try:
            self._slow_apply(service)
            receipts = [service.submit(wall_cloud(seed)) for seed in range(6)]
            rejected = sum(receipt.rejected for receipt in receipts)
            assert rejected > 0
            counters = service.metrics.to_dict()["counters"]
            assert counters["ingest.rejected_observations"] == rejected
        finally:
            service.close()

    def test_must_accept_raises_on_reject(self):
        service = make_service(
            num_shards=1, queue_capacity=1, backpressure="reject", coalesce=1
        )
        try:
            self._slow_apply(service, delay=0.2)
            with pytest.raises(BackpressureError):
                for seed in range(6):
                    service.submit(wall_cloud(seed), must_accept=True)
        finally:
            service.close()

    def test_block_policy_never_drops(self):
        service = make_service(
            num_shards=1, queue_capacity=1, backpressure="block", coalesce=1
        )
        try:
            self._slow_apply(service, delay=0.01)
            receipts = [service.submit(wall_cloud(seed)) for seed in range(5)]
            assert all(receipt.accepted for receipt in receipts)
            service.flush()
            applied = service.metrics.counter("shard.batches_applied").value
            assert applied >= 1
        finally:
            service.close()


class TestLifecycle:
    def test_close_is_idempotent(self):
        service = make_service()
        service.submit(wall_cloud())
        service.close()
        service.close()  # second close must be a clean no-op
        with pytest.raises(RuntimeError):
            service.submit(wall_cloud())

    def test_close_flushes_shard_caches(self):
        service = make_service()
        service.submit(wall_cloud())
        service.close()
        assert service.map.resident_voxels() == 0
        assert service.map.octree_nodes() > 0

    def test_worker_error_surfaces_on_flush_not_hang(self):
        service = make_service(num_shards=1, coalesce=1)

        def explode(shard_id, observations, tenant=0):
            raise RuntimeError("shard apply failed")

        service.map.apply_to_shard = explode
        service.submit(wall_cloud())
        with pytest.raises(RuntimeError, match="shard worker error"):
            service.flush()
        service.close()  # close after error is clean

    def test_context_manager_closes(self):
        with make_service() as service:
            service.submit(wall_cloud())
        assert service._closed
        with pytest.raises(RuntimeError):
            service.submit(wall_cloud())

    def test_coalescing_merges_backlogged_batches(self):
        service = make_service(num_shards=1, queue_capacity=16, coalesce=8)
        try:
            # Stall the worker so a backlog builds, then release it.
            gate = threading.Event()
            original = service.map.apply_to_shard

            def gated(shard_id, observations, tenant=0):
                gate.wait(timeout=5.0)
                return original(shard_id, observations, tenant=tenant)

            service.map.apply_to_shard = gated
            for seed in range(6):
                service.submit(wall_cloud(seed))
            gate.set()
            service.flush()
            coalesced = service.metrics.counter(
                "shard.batches_coalesced"
            ).value
            assert coalesced > 0
        finally:
            service.close()

    @pytest.mark.parametrize("coalesce", (1, 8))
    def test_checkpoint_cadence_counts_slices_not_turns(self, coalesce):
        """How a backlog splits into turns is timing; when the shard is
        checkpointed must not be: six slices at ``snapshot_interval=6``
        are one checkpoint whether they were applied in six turns or two."""
        service = make_service(
            num_shards=1, queue_capacity=16, coalesce=coalesce,
            snapshot_interval=6,
        )
        try:
            gate = threading.Event()
            original = service.map.apply_to_shard

            def gated(shard_id, observations, tenant=0):
                gate.wait(timeout=5.0)
                return original(shard_id, observations, tenant=tenant)

            service.map.apply_to_shard = gated
            for seed in range(6):
                service.submit(wall_cloud(seed))
            gate.set()
            service.flush()
            counters = service.metrics.to_dict()["counters"]
            turns = counters["shard.batches_applied"]
            assert turns == 6 if coalesce == 1 else turns < 6
            assert counters["shard.snapshots"] == 1
        finally:
            service.close()

    @pytest.mark.parametrize("workers", ("thread", "process"))
    def test_checkpoint_span_covers_export_serialize_and_store(self, workers):
        """``shard.snapshot`` is what the trace, ``/slo`` and
        ``trace-bench`` attribute a checkpoint to: it has to span the
        export (the expensive part), not only the store."""
        ring = RingBufferSink()
        service = make_service(
            num_shards=1, snapshot_interval=0, workers=workers, kernel="vector",
            resolution=0.1,
        )
        try:
            for seed in range(8):
                service.submit(wall_cloud(seed, points=1500), must_accept=True)
            service.flush()
            export = service.map.shard_snapshot_blob
            exports, walls = [], []

            def timed_export(shard_id, tenant=0):
                start = time.perf_counter()
                blob = export(shard_id, tenant=tenant)
                exports.append((time.perf_counter() - start, blob))
                return blob

            service.map.shard_snapshot_blob = timed_export
            with tracing(ring):
                for _ in range(3):
                    start = time.perf_counter()
                    assert service.checkpoint(0, service.default_lane)
                    walls.append(time.perf_counter() - start)
        finally:
            service.close()
        spans = [s for s in ring.spans if s.name == "shard.snapshot"]
        assert len(spans) == 3
        for span, (export_s, blob), wall in zip(spans, exports, walls):
            assert export_s <= span.duration <= wall
            assert span.attributes["bytes"] == len(blob)
            assert span.attributes["voxels"] == sum(
                1 for _ in tree_from_bytes(blob).iter_leaves()
            ) > 100
        # Outside the span checkpoint() only reads a journal length and
        # bumps a counter; the best of three is free of scheduler noise.
        assert max(s.duration / wall for s, wall in zip(spans, walls)) >= 0.9
