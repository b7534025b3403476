"""The bench series and its regression gate: ``perf-check``.

``load-bench`` and ``mem-bench`` each reduce a run to a few named
metrics; this module is where those entries are recorded and gated:

- ``capacity_scans_per_s`` / ``ingest_p99_ms`` — the saturation knee
  from a :func:`repro.loadgen.run_load_bench` open-loop ramp: the
  fastest SLO-clean throughput step and its end-to-end p99.  The floor
  gate that catches "still correct, but the machine saturates at half
  the load it used to".
- ``tenant_fairness_ratio`` — the same ramp in fleet mode: max/min
  per-tenant served throughput at the capacity step.
- ``bytes_per_voxel`` / ``mem_accounting_drift`` — the memory
  observability gate (:func:`repro.memsight.bench.run_mem_bench`):
  accounted map bytes per distinct observed voxel, and the worst
  incremental-vs-exact-recount disagreement across growth, tenant
  churn, eviction, and restore.  Drift is baselined at exactly zero —
  a single leaked or double-counted byte in the O(1) counters fails.

``append_bench_entry`` writes each run into an append-only
``BENCH_<host>.json`` time series (with an environment fingerprint, so
numbers from different machines are never naively compared), and
``check_regressions`` compares the latest entry against a committed
baseline with per-metric direction + tolerance.  Throughput, hit
ratios and map agreement are measured by the repo benchmark
(``python3 -m bench``), not here.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = [
    "CheckResult",
    "MetricCheck",
    "append_bench_entry",
    "bench_path_for_host",
    "check_regressions",
    "default_baseline",
    "load_latest_entry",
    "write_baseline",
]

#: Default per-metric relative tolerances for ``--update-baseline``.
#: Wall-clock numbers swing with machine load; the byte ledger must not
#: drift at all.
_DEFAULT_TOLERANCE = {
    "capacity_scans_per_s": 0.45,
    "ingest_p99_ms": 0.45,
    "bytes_per_voxel": 0.45,
    "mem_accounting_drift": 0.0,
}


def environment_fingerprint(
    workers: Optional[str] = None, num_procs: Optional[int] = None
) -> Dict[str, object]:
    """Who/where produced a measurement (never compare across these).

    ``workers``/``num_procs`` record the service worker backend a run
    drove, next to ``cpu_count`` — a process-mode number on a 1-core
    runner and a thread-mode number on a 16-core box must never be
    naively compared any more than two different hosts.
    """
    env: Dict[str, object] = {
        "host": socket.gethostname(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    if workers is not None:
        env["workers"] = workers
        env["num_procs"] = num_procs
    try:
        env["commit"] = (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            ).stdout.strip()
            or None
        )
    except (OSError, subprocess.SubprocessError):
        env["commit"] = None
    return env


# ----------------------------------------------------------------------
# The BENCH_<host>.json time series.
# ----------------------------------------------------------------------


def bench_path_for_host(directory: str = ".") -> str:
    """The default series file for this machine: ``BENCH_<host>.json``."""
    host = "".join(
        char if (char.isalnum() or char in "-_") else "_"
        for char in socket.gethostname()
    )
    return os.path.join(directory, f"BENCH_{host or 'unknown'}.json")


def append_bench_entry(entry: Dict[str, object], path: str) -> int:
    """Append one entry to the series file; returns the new length.

    ``entry`` is what a driver's ``to_bench_entry()`` returns.  The file
    is a JSON array ordered oldest-first.  Entries are only ever
    appended — rewriting history would defeat the point of a regression
    record.
    """
    if "metrics" not in entry:
        raise ValueError("bench entry must carry a 'metrics' mapping")
    series: List[Dict[str, object]] = []
    if os.path.exists(path):
        with open(path) as handle:
            series = json.load(handle)
        if not isinstance(series, list):
            raise ValueError(f"{path} is not a BENCH series (expected a list)")
    series.append(entry)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(series, handle, indent=2)
        handle.write("\n")
    os.replace(tmp, path)
    return len(series)


def load_latest_entry(path: str) -> Dict[str, object]:
    """The newest entry of a series file (raises if empty/missing)."""
    with open(path) as handle:
        series = json.load(handle)
    if not isinstance(series, list) or not series:
        raise ValueError(f"{path} holds no bench entries")
    return series[-1]


# ----------------------------------------------------------------------
# Baseline comparison (the regression gate).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MetricCheck:
    """Verdict for one metric against the baseline."""

    name: str
    measured: Optional[float]
    baseline: float
    tolerance: float
    direction: str
    regressed: bool

    @property
    def allowed(self) -> float:
        """The worst acceptable measured value."""
        if self.direction == "lower":
            return self.baseline * (1.0 + self.tolerance)
        return self.baseline * (1.0 - self.tolerance)


@dataclass
class CheckResult:
    """Outcome of one ``perf-check`` run."""

    checks: List[MetricCheck] = field(default_factory=list)
    missing_baseline: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricCheck]:
        return [check for check in self.checks if check.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "checks": [
                {
                    "name": check.name,
                    "measured": check.measured,
                    "baseline": check.baseline,
                    "allowed": check.allowed,
                    "tolerance": check.tolerance,
                    "direction": check.direction,
                    "regressed": check.regressed,
                }
                for check in self.checks
            ],
            "unbaselined_metrics": list(self.missing_baseline),
        }


def check_regressions(
    entry: Dict[str, object],
    baseline: Dict[str, object],
    only: Optional[Sequence[str]] = None,
) -> CheckResult:
    """Compare one series entry against a committed baseline.

    The baseline maps metric name → ``{"value", "tolerance",
    "direction"}``.  A metric the baseline names but the entry lacks is a
    regression (a driver silently dropping a measurement is exactly the
    failure mode a watchdog exists for); a measured metric the baseline
    doesn't know is reported but never fails the check (new metrics land
    before their baselines do).

    ``only`` restricts the gate to those metric names — every entry
    carries a subset (a ``load-bench`` entry holds only the capacity
    metrics; checking it against the full baseline would flag
    ``mem-bench``'s as dropped).  Naming a metric the baseline lacks is
    an error, not a silent pass.
    """
    measured: Dict[str, float] = {
        name: float(info["value"])
        for name, info in entry.get("metrics", {}).items()  # type: ignore[union-attr]
    }
    baseline_metrics = baseline.get("metrics", baseline)
    if only is not None:
        unknown = sorted(set(only) - set(baseline_metrics))  # type: ignore[arg-type]
        if unknown:
            raise ValueError(
                f"metrics not in baseline: {', '.join(unknown)}"
            )
        baseline_metrics = {
            name: spec
            for name, spec in baseline_metrics.items()  # type: ignore[union-attr]
            if name in set(only)
        }
        measured = {
            name: value for name, value in measured.items()
            if name in set(only)
        }
    result = CheckResult()
    for name, spec in sorted(baseline_metrics.items()):  # type: ignore[union-attr]
        target = float(spec["value"])
        tolerance = float(spec.get("tolerance", 0.25))
        direction = str(spec.get("direction", "higher"))
        value = measured.get(name)
        if value is None:
            regressed = True
        elif direction == "lower":
            regressed = value > target * (1.0 + tolerance)
        else:
            regressed = value < target * (1.0 - tolerance)
        result.checks.append(
            MetricCheck(
                name=name,
                measured=value,
                baseline=target,
                tolerance=tolerance,
                direction=direction,
                regressed=regressed,
            )
        )
    result.missing_baseline = sorted(
        set(measured) - set(baseline_metrics)  # type: ignore[arg-type]
    )
    return result


def default_baseline() -> str:
    """The committed baseline path (relative to the repo root)."""
    return os.path.join("benchmarks", "perf_baseline.json")


def write_baseline(
    entry: Dict[str, object],
    path: str,
    tolerances: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """(Re)write the baseline from a series entry; returns the payload.

    Per-metric tolerances default to :data:`_DEFAULT_TOLERANCE` —
    generous for wall-clock numbers (machines differ), zero for the
    deterministic drift.
    """
    chosen = dict(_DEFAULT_TOLERANCE)
    chosen.update(tolerances or {})
    payload = {
        "generated_from": {
            "timestamp": entry.get("timestamp"),
            "env": entry.get("env"),
            "quick": entry.get("quick"),
        },
        "metrics": {
            name: {
                "value": info["value"],
                "direction": info.get("direction", "higher"),
                "tolerance": chosen.get(name, 0.25),
            }
            for name, info in sorted(
                entry.get("metrics", {}).items()  # type: ignore[union-attr]
            )
        },
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload
