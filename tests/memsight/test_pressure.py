"""Pressure watermarks: gauge transitions, log events, advisory hooks."""

import logging

import pytest

from repro.memsight.pressure import PressureConfig, PressureMonitor
from repro.service.metrics import MetricsRegistry
from repro.service.server import OccupancyMapService, ServiceConfig
from repro.tenancy.registry import TenantRegistry


class TestConfig:
    def test_disabled_by_default(self):
        assert not PressureConfig().enabled

    def test_rejects_inverted_watermarks(self):
        with pytest.raises(ValueError):
            PressureConfig(soft_bytes=100, hard_bytes=50)
        with pytest.raises(ValueError):
            PressureConfig(tenant_soft_bytes=100, tenant_hard_bytes=50)

    def test_rejects_negative_watermarks(self):
        with pytest.raises(ValueError):
            PressureConfig(soft_bytes=-1)

    def test_service_config_validates_watermarks(self):
        with pytest.raises(ValueError):
            ServiceConfig(
                resolution=0.2,
                pressure=PressureConfig(soft_bytes=100, hard_bytes=50),
            )


class TestMonitor:
    def test_levels_classify_against_watermarks(self):
        monitor = PressureMonitor(
            PressureConfig(soft_bytes=100, hard_bytes=200)
        )
        assert monitor.evaluate(50).level == "ok"
        assert monitor.evaluate(150).level == "soft_pressure"
        assert monitor.evaluate(250).level == "hard_pressure"
        assert monitor.evaluate(10).level == "ok"

    def test_gauge_follows_the_level(self):
        metrics = MetricsRegistry()
        monitor = PressureMonitor(
            PressureConfig(soft_bytes=100, hard_bytes=200), metrics=metrics
        )
        monitor.evaluate(150)
        assert metrics.state("mem_pressure").state == "soft_pressure"
        monitor.evaluate(10)
        assert metrics.state("mem_pressure").state == "ok"

    def test_tenant_watermarks_flag_offenders(self):
        monitor = PressureMonitor(
            PressureConfig(tenant_soft_bytes=100, tenant_hard_bytes=200)
        )
        decision = monitor.evaluate(
            0, {"small": 10, "warm": 150, "hot": 500}
        )
        assert decision.tenant_levels == {
            "warm": "soft_pressure",
            "hot": "hard_pressure",
        }
        # The overall level reflects the worst tenant.
        assert decision.level == "hard_pressure"

    def test_transitions_emit_log_events(self, caplog):
        monitor = PressureMonitor(PressureConfig(soft_bytes=100))
        with caplog.at_level(logging.WARNING, logger="repro.memsight"):
            monitor.evaluate(150)
            monitor.evaluate(150)  # no transition, no second event
        events = [r for r in caplog.records if "pressure" in r.message]
        assert len(events) == 1
        assert events[0].to == "soft_pressure"

    def test_hook_fires_on_change_including_clears(self):
        calls = []
        monitor = PressureMonitor(
            PressureConfig(soft_bytes=100),
            on_pressure=lambda level, tenants: calls.append(level),
        )
        monitor.evaluate(150)
        monitor.evaluate(160)  # still soft — no new call
        monitor.evaluate(10)
        assert calls == ["soft_pressure", "ok"]

    def test_hook_errors_never_break_evaluation(self):
        def broken(level, tenants):
            raise RuntimeError("boom")

        monitor = PressureMonitor(
            PressureConfig(soft_bytes=100), on_pressure=broken
        )
        assert monitor.evaluate(150).level == "soft_pressure"


class TestServiceIntegration:
    def test_watermarked_service_reports_pressure(self):
        config = ServiceConfig(
            resolution=0.2,
            depth=8,
            num_shards=2,
            snapshot_interval=0,
            # anything nonzero trips immediately
            pressure=PressureConfig(soft_bytes=1),
        )
        with OccupancyMapService(config) as service:
            service.submit_observations([((1, 1, 1), True)], must_accept=True)
            service.flush()
            payload = service.memory_dict()
            assert payload["pressure"]["level"] == "soft_pressure"
            assert (
                service.metrics.state("mem_pressure").state == "soft_pressure"
            )

    def test_tenant_flags_surface_in_tenants_dict(self):
        config = ServiceConfig(
            resolution=0.2,
            depth=8,
            num_shards=2,
            snapshot_interval=0,
            pressure=PressureConfig(tenant_soft_bytes=1),
        )
        with OccupancyMapService(config) as service:
            with TenantRegistry(service) as registry:
                registry.create("robot-a")
                registry.submit_observations(
                    "robot-a", [((1, 1, 1), True)], must_accept=True
                )
                registry.flush()
                service.refresh_memory_metrics()
                entry = registry.tenants_dict()["tenants"]["robot-a"]
                assert entry["memory_pressure"] == "soft_pressure"
                assert entry["memory"]["total_bytes"] > 0

    def test_unwatermarked_service_stays_ok(self):
        config = ServiceConfig(
            resolution=0.2, depth=8, num_shards=2, snapshot_interval=0
        )
        with OccupancyMapService(config) as service:
            service.submit_observations([((1, 1, 1), True)], must_accept=True)
            service.flush()
            assert service.memory_dict()["pressure"]["level"] == "ok"
