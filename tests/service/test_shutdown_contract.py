"""The shutdown contract both worker backends share.

``close()`` must be idempotent, safe to call concurrently, safe from the
atexit hook during interpreter teardown, and must leave nothing running:
worker threads joined, and (process mode) every child process dead.  A
service used as a context manager and then closed again must not raise.

With a tenant registry mounted the contract covers every lane: the
service's workers are the only ingest threads, either close order drains
tenant slices before the map goes away, and a parked worker error is
raised — once — by whichever close runs first.
"""

import os
import subprocess
import sys
import threading

import pytest

from repro.service.server import OccupancyMapService, ServiceConfig
from repro.tenancy import TenantRegistry

BACKENDS = ["thread", "process"]


def make_config(workers):
    return ServiceConfig(
        resolution=0.1,
        depth=6,
        num_shards=2,
        queue_capacity=4,
        coalesce=1,
        snapshot_interval=0,
        workers=workers,
    )


def submit_some(service):
    service.submit_observations(
        [((1, 2, 3), True), ((40, 40, 40), False), ((7, 9, 11), True)]
    )
    service.flush()


class TestCloseContract:
    @pytest.mark.parametrize("workers", BACKENDS)
    def test_close_is_idempotent(self, workers):
        service = OccupancyMapService(make_config(workers))
        submit_some(service)
        service.close()
        service.close()
        service.close()

    @pytest.mark.parametrize("workers", BACKENDS)
    def test_context_manager_then_explicit_close(self, workers):
        with OccupancyMapService(make_config(workers)) as service:
            submit_some(service)
        service.close()

    @pytest.mark.parametrize("workers", BACKENDS)
    def test_concurrent_close_races_cleanly(self, workers):
        service = OccupancyMapService(make_config(workers))
        submit_some(service)
        errors = []

        def closer():
            try:
                service.close()
            except BaseException as error:  # noqa: BLE001 - recording all
                errors.append(error)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)

    @pytest.mark.parametrize("workers", BACKENDS)
    def test_atexit_hook_is_reentrant_and_silent(self, workers):
        """The atexit fallback swallows everything (interpreter teardown
        is no place to raise) and is a no-op after a normal close."""
        service = OccupancyMapService(make_config(workers))
        submit_some(service)
        service._close_at_exit()
        service._close_at_exit()
        service.close()

    def test_process_children_dead_after_close(self):
        service = OccupancyMapService(make_config("process"))
        submit_some(service)
        supervisor = service.map.supervisor
        assert all(
            supervisor.alive(shard)
            for shard in range(service.config.num_shards)
        )
        service.close()
        assert not any(
            supervisor.alive(shard)
            for shard in range(service.config.num_shards)
        )

    def test_worker_threads_joined_after_close(self):
        service = OccupancyMapService(make_config("thread"))
        submit_some(service)
        service.close()
        assert not any(worker.is_alive() for worker in service._workers)

    @pytest.mark.parametrize("workers", BACKENDS)
    def test_interpreter_teardown_without_close(self, workers):
        """A script that abandons a live service must still exit 0 with a
        quiet stderr: the atexit hook (registered after multiprocessing
        initialises, so it runs before mp's own teardown) drains and
        closes instead of racing dying daemon children."""
        script = (
            "from repro.service.server import OccupancyMapService, "
            "ServiceConfig\n"
            "service = OccupancyMapService(ServiceConfig(resolution=0.1, "
            f"depth=6, num_shards=2, coalesce=1, workers={workers!r}))\n"
            "service.submit_observations([((1, 2, 3), True)])\n"
            "service.flush()\n"
            "# No close(): interpreter teardown must handle it.\n"
        )
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            "src",
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr, result.stderr

    def test_backend_close_is_idempotent_standalone(self):
        from repro.mp.backend import ProcessShardedMap
        from repro.sensor.scaninsert import ScanBatch

        pmap = ProcessShardedMap(resolution=0.1, depth=6, num_shards=2)
        pmap.apply_to_shard(0, ScanBatch.coerce([((1, 1, 1), True)]))
        pmap.close()
        pmap.close()
        with ProcessShardedMap(resolution=0.1, depth=6, num_shards=2) as other:
            other.apply_to_shard(0, ScanBatch.coerce([((2, 2, 2), True)]))
        other.close()


CLOSE_ORDERS = ["registry_first", "service_first"]


def in_close_order(order, service, registry):
    if order == "registry_first":
        return registry, service
    return service, registry


class TestCloseWithTenants:
    @pytest.mark.parametrize("workers", BACKENDS)
    @pytest.mark.parametrize("order", CLOSE_ORDERS)
    def test_either_close_order_drains_every_lane(self, workers, order):
        service = OccupancyMapService(make_config(workers))
        threads_before = threading.active_count()
        registry = TenantRegistry(service)
        tenant = registry.create("robot-a")
        assert threading.active_count() == threads_before
        # Hold every apply so the slices are still queued when close runs.
        gate = threading.Event()
        apply_to_shard = service.map.apply_to_shard

        def gated(shard_id, observations, tenant=0):
            assert gate.wait(timeout=30.0), "gate never released"
            return apply_to_shard(shard_id, observations, tenant=tenant)

        service.map.apply_to_shard = gated
        keys = [(i, 2 * i, 3 * i) for i in range(1, 13)]
        for key in keys:
            assert registry.submit_observations("robot-a", [(key, True)]).accepted
        service.submit_observations([((5, 5, 5), True)])
        assert tenant.outstanding == len(keys)
        assert not any(
            thread.name.startswith("octocache-tenant")
            for thread in threading.enumerate()
        )
        threading.Timer(0.2, gate.set).start()
        for closing in in_close_order(order, service, registry):
            closing.close()
        assert tenant.outstanding == 0
        assert tenant.served_observations == len(keys)
        assert sum(
            tenant.store.journal_length(shard)
            for shard in range(service.config.num_shards)
        ) == len(keys)
        assert service.tenant_registry is None
        assert not any(worker.is_alive() for worker in service._workers)

    @pytest.mark.parametrize("order", CLOSE_ORDERS)
    def test_parked_tenant_error_is_raised_by_the_first_close(self, order):
        service = OccupancyMapService(make_config("thread"))
        registry = TenantRegistry(service)
        registry.create("robot-a")

        def explode(shard_id, observations, tenant=0):
            raise RuntimeError("tenant apply failed")

        service.map.apply_to_shard = explode
        registry.submit_observations("robot-a", [((1, 2, 3), True)])
        first, second = in_close_order(order, service, registry)
        with pytest.raises(RuntimeError, match="shard worker error"):
            first.close()
        second.close()  # the error was reported once; this one is quiet
        assert service.closed
        assert service.tenant_registry is None
