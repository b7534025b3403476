"""Open-loop load generation: find where the service's SLOs start burning.

``load-bench`` (:mod:`repro.loadgen.bench`) ramps concurrent synthetic
clients against a live :class:`~repro.service.OccupancyMapService` —
open-loop, so offered load is independent of service latency — and
evaluates the stock SLOs per ramp step.  The first step where an
objective burns is the **saturation knee**; the last clean step's
throughput is the machine's ``capacity_scans_per_s``, gated by
``perf-check --metrics capacity_scans_per_s,ingest_p99_ms``.

See ``docs/observability.md`` ("Capacity curves") for how to read the
output.
"""

from repro.loadgen.bench import (
    LoadBenchReport,
    LoadStep,
    run_load_bench,
)

__all__ = ["LoadBenchReport", "LoadStep", "run_load_bench"]
