"""Operational observability: exposition, admin endpoints, correlation, watchdog.

The service layer already *collects* everything an operator needs —
:class:`~repro.service.metrics.MetricsRegistry` counters/gauges/
histograms, telemetry spans, resilience health states.  This package
makes those internals *operational*:

- :mod:`repro.obs.exposition` — the registry rendered in the Prometheus
  text format (``MetricsRegistry.to_prometheus_text()`` delegates here).
- :mod:`repro.obs.admin` — a stdlib-``http.server`` admin endpoint
  (``/metrics``, ``/healthz``, ``/readyz``, ``/slo``, ``/snapshot``)
  mounted next to an :class:`~repro.service.OccupancyMapService`.
- :mod:`repro.obs.slo` — declarative service-level objectives evaluated
  over rolling windows: SLIs, multi-window burn-rate alerts, error
  budgets, and the end-to-end latency waterfall.
- :mod:`repro.obs.logging` — structured JSON log records stamped with
  the active telemetry span id/category, so traces, logs, and metric
  deltas from the same batch join on one key.
- :mod:`repro.obs.perf` — the append-only ``BENCH_<host>.json`` time
  series ``load-bench`` / ``mem-bench`` write, and the ``perf-check``
  regression gate over it.

See ``docs/observability.md`` for the operating guide.
"""

from repro.obs.admin import AdminServer, liveness, readiness
from repro.obs.exposition import render_prometheus
from repro.obs.logging import (
    JsonLogFormatter,
    SpanContextFilter,
    configure_json_logging,
)
from repro.obs.perf import (
    CheckResult,
    append_bench_entry,
    bench_path_for_host,
    check_regressions,
    load_latest_entry,
    write_baseline,
)
from repro.obs.slo import (
    SLOEngine,
    SLObjective,
    default_objectives,
    latency_waterfall,
)

__all__ = [
    "AdminServer",
    "CheckResult",
    "JsonLogFormatter",
    "SLOEngine",
    "SLObjective",
    "SpanContextFilter",
    "append_bench_entry",
    "bench_path_for_host",
    "check_regressions",
    "configure_json_logging",
    "default_objectives",
    "latency_waterfall",
    "liveness",
    "load_latest_entry",
    "readiness",
    "render_prometheus",
    "write_baseline",
]
