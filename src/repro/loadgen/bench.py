"""``load-bench``: an open-loop ramp that finds the saturation knee.

Closed-loop load tests (``serve-bench``'s clients submit, wait, repeat)
measure *sustainable* throughput but hide saturation: when the service
slows down, a closed-loop client slows down with it, and the measured
latency stays flat while real capacity is long gone (coordinated
omission).  This bench is **open-loop**: each synthetic client submits
pre-traced scans on a fixed wall-clock schedule regardless of how the
previous submission fared, under ``reject`` backpressure — so offered
load is a controlled input, and overload shows up exactly the way it
does in production: queue-wait latency climbs, then slots run out and
submissions bounce.

The ramp holds each client count for a fixed step, drains the queues,
and evaluates the stock SLOs (:func:`repro.obs.slo.default_objectives`)
over that step's reset-safe histogram/counter window.  The first step
where any objective burns (burn rate ≥ 1) is the **knee**; the fastest
clean step defines ``capacity_scans_per_s`` and ``ingest_p99_ms`` — the
two numbers ``perf-check`` gates.  Every step goes into the capacity
curve (clients × scans/s × p99 × staleness) appended to the
``BENCH_<host>.json`` series.

Ray tracing is done **once, up front** (clients replay traced
observation batches): the generator must stay far cheaper than the
service under test, or the bench measures its own tracing throughput.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.datasets.workload import load_bench_workload
from repro.obs.slo import SLObjective, default_objectives, sli_from_window
from repro.sensor.scaninsert import trace_scan
from repro.service.server import OccupancyMapService, ServiceConfig

__all__ = ["LoadBenchReport", "LoadStep", "run_load_bench"]

#: Default ramp: doubling client counts until something burns.
_DEFAULT_STEPS = (1, 2, 4, 8, 16, 32)
_QUICK_STEPS = (1, 2, 4, 8, 16)

_E2E = "ingest.e2e_seconds"
_FRESHNESS = "ingest.freshness_seconds"
_COUNTERS = (
    "ingest.requests",
    "ingest.rejected_batches",
    "ingest.deadline_exceeded",
)


@dataclass(frozen=True)
class LoadStep:
    """One rung of the ramp: offered load in, SLI verdicts out.

    Attributes:
        clients: concurrent open-loop clients this step.
        offered_scans_per_s: the schedule (clients × per-client rate).
        achieved_scans_per_s: fully accepted scans per wall-clock second
            (submission through queue drain).
        submitted / accepted / rejected: client-side request tallies; a
            request with any rejected slice counts as rejected.
        availability: ``1 - bad/total`` over the step window.
        p99_ms / staleness_p99_ms: windowed ``ingest.e2e_seconds`` /
            ``ingest.freshness_seconds`` 99th percentiles.
        burning: objective names whose burn rate reached 1 this step.
        elapsed_seconds: step wall time including the queue drain.
    """

    clients: int
    offered_scans_per_s: float
    achieved_scans_per_s: float
    submitted: int
    accepted: int
    rejected: int
    availability: float
    p99_ms: float
    staleness_p99_ms: float
    burning: Tuple[str, ...]
    elapsed_seconds: float
    #: Fleet mode only (``tenants > 0``): max/min per-tenant served
    #: observation throughput over the step — 1.0 is perfectly fair,
    #: ``inf`` means some offered-to tenant was fully starved.
    tenant_fairness: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "clients": self.clients,
            "offered_scans_per_s": self.offered_scans_per_s,
            "achieved_scans_per_s": self.achieved_scans_per_s,
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "availability": self.availability,
            "p99_ms": self.p99_ms,
            "staleness_p99_ms": self.staleness_p99_ms,
            "burning": list(self.burning),
            "elapsed_seconds": self.elapsed_seconds,
            "tenant_fairness": self.tenant_fairness,
        }


@dataclass
class LoadBenchReport:
    """The full ramp: capacity curve, knee, and the two gated numbers."""

    dataset: str
    shards: int
    workers: str
    kernel: str
    rate_per_client: float
    steps: List[LoadStep] = field(default_factory=list)
    knee_clients: Optional[int] = None
    capacity_scans_per_s: float = 0.0
    ingest_p99_ms: float = 0.0
    elapsed_seconds: float = 0.0
    quick: bool = False
    num_procs: Optional[int] = None
    #: Fleet mode: tenant count (0 = classic single-map bench) and the
    #: fairness ratio at the step that defined capacity (pre-knee).
    tenants: int = 0
    tenant_fairness_ratio: Optional[float] = None

    @property
    def saturated(self) -> bool:
        """Whether the ramp actually found a burning step."""
        return self.knee_clients is not None

    def to_dict(self) -> Dict[str, object]:
        return {
            "dataset": self.dataset,
            "shards": self.shards,
            "workers": self.workers,
            "kernel": self.kernel,
            "rate_per_client": self.rate_per_client,
            "quick": self.quick,
            "knee_clients": self.knee_clients,
            "saturated": self.saturated,
            "capacity_scans_per_s": self.capacity_scans_per_s,
            "ingest_p99_ms": self.ingest_p99_ms,
            "elapsed_seconds": self.elapsed_seconds,
            "tenants": self.tenants,
            "tenant_fairness_ratio": self.tenant_fairness_ratio,
            "capacity_curve": [step.to_dict() for step in self.steps],
        }

    def to_bench_entry(self) -> Dict[str, object]:
        """A ``BENCH_<host>.json`` entry (metrics + the curve).

        Carries only the two load metrics, so gate it with
        ``perf-check --metrics capacity_scans_per_s,ingest_p99_ms`` —
        a full-baseline check against this entry would flag
        ``mem-bench``'s metrics as missing.
        """
        from repro.obs.perf import environment_fingerprint

        env = environment_fingerprint(
            workers=self.workers, num_procs=self.num_procs
        )
        env["kernel"] = self.kernel
        metrics: Dict[str, object] = {
            "capacity_scans_per_s": {
                "value": self.capacity_scans_per_s,
                "unit": "scans/s",
                "direction": "higher",
                "samples": [self.capacity_scans_per_s],
            },
            "ingest_p99_ms": {
                "value": self.ingest_p99_ms,
                "unit": "ms",
                "direction": "lower",
                "samples": [self.ingest_p99_ms],
            },
        }
        if self.tenants and self.tenant_fairness_ratio is not None:
            # max/min per-tenant served throughput at the capacity step;
            # gate with perf-check --metrics tenant_fairness_ratio.
            metrics["tenant_fairness_ratio"] = {
                "value": self.tenant_fairness_ratio,
                "unit": "ratio",
                "direction": "lower",
                "samples": [self.tenant_fairness_ratio],
            }
        entry = {
            "timestamp": time.time(),
            "kind": "load-bench",
            "quick": self.quick,
            "repeats": 1,
            "elapsed_seconds": self.elapsed_seconds,
            "env": env,
            "metrics": metrics,
            "capacity_curve": [step.to_dict() for step in self.steps],
        }
        if self.tenants:
            entry["tenants"] = self.tenants
        return entry

    def table(self) -> str:
        fleet = self.tenants > 0
        rows = []
        for step in self.steps:
            row = [
                step.clients,
                f"{step.offered_scans_per_s:.0f}",
                f"{step.achieved_scans_per_s:.1f}",
                f"{step.availability:.4f}",
                f"{step.p99_ms:.1f}",
                f"{step.staleness_p99_ms:.1f}",
                ",".join(step.burning) or "-",
            ]
            if fleet:
                row.append(
                    "-"
                    if step.tenant_fairness is None
                    else f"{step.tenant_fairness:.2f}"
                )
            rows.append(row)
        headers = [
            "clients",
            "offered/s",
            "achieved/s",
            "avail",
            "p99 ms",
            "stale p99 ms",
            "burning",
        ]
        if fleet:
            headers.append("fairness")
        return format_table(headers, rows)


class _ClientStats:
    __slots__ = ("submitted", "accepted", "rejected")

    def __init__(self) -> None:
        self.submitted = 0
        self.accepted = 0
        self.rejected = 0


def _client_loop(
    submit,
    batches: Sequence[Sequence],
    offset: int,
    rate: float,
    stop: threading.Event,
    stats: _ClientStats,
    errors: List[BaseException],
) -> None:
    """One open-loop client: submit on schedule until told to stop.

    The schedule is absolute (``start + k / rate``): a slow submission
    does not push later ones back, it eats into their slack — the
    defining property of an open-loop generator.  ``submit`` takes one
    observation batch and returns a receipt with a ``rejected`` count
    (the service's or a tenant registry's).
    """
    interval = 1.0 / rate
    start = time.perf_counter()
    k = 0
    try:
        while not stop.is_set():
            target = start + k * interval
            delay = target - time.perf_counter()
            if delay > 0 and stop.wait(timeout=delay):
                return
            observations = batches[(offset + k) % len(batches)]
            receipt = submit(observations)
            stats.submitted += 1
            if receipt.rejected:
                stats.rejected += 1
            else:
                stats.accepted += 1
            k += 1
    except BaseException as error:  # surfaced by the driver, not lost
        errors.append(error)


def _tenant_submit(registry, name: str):
    """A client submit function bound to one tenant."""

    def submit(observations):
        return registry.submit_observations(name, observations)

    return submit


def _fairness_ratio(
    registry,
    served_before: Dict[str, int],
    offered_to: "set",
) -> float:
    """Max/min per-tenant served observations over one step.

    Computed only over tenants the step's clients actually offered load
    to (a ramp rung with fewer clients than tenants leaves some tenants
    legitimately idle).  1.0 is perfectly fair; ``inf`` means a tenant
    that was offered load got nothing served — starvation.
    """
    served = [
        registry.get(name).served_observations - served_before[name]
        for name in offered_to
    ]
    if not served:
        return 1.0
    low, high = min(served), max(served)
    if high <= 0:
        return 1.0
    if low <= 0:
        return float("inf")
    return high / low


def _state(service: OccupancyMapService) -> Dict[str, object]:
    registry = service.metrics
    return {
        "hist": {
            name: registry.histogram(name).state_snapshot()
            for name in (_E2E, _FRESHNESS)
        },
        "counters": {
            name: registry.counter(name).value for name in _COUNTERS
        },
    }


def _evaluate_step(
    before: Dict[str, object],
    after: Dict[str, object],
    objectives: Sequence[SLObjective],
) -> Tuple[float, float, float, Tuple[str, ...]]:
    """(availability, p99_ms, staleness_p99_ms, burning) for one step."""
    windows = {
        name: after["hist"][name].since(before["hist"][name])  # type: ignore[index]
        for name in (_E2E, _FRESHNESS)
    }
    deltas = {
        name: after["counters"][name] - before["counters"][name]  # type: ignore[index]
        for name in _COUNTERS
    }
    total = deltas["ingest.requests"]
    bad = (
        deltas["ingest.rejected_batches"]
        + deltas["ingest.deadline_exceeded"]
    )
    availability = max(0.0, 1.0 - bad / total) if total > 0 else 1.0
    burning: List[str] = []
    for objective in objectives:
        if objective.kind == "availability":
            sli = sli_from_window(objective, total=total, bad=bad)
        elif objective.kind == "latency":
            sli = sli_from_window(objective, window=windows[_E2E])
        else:
            sli = sli_from_window(objective, window=windows[_FRESHNESS])
        if (1.0 - sli) / (1.0 - objective.target) >= 1.0:
            burning.append(objective.name)
    return (
        availability,
        windows[_E2E].percentile(0.99) * 1e3,
        windows[_FRESHNESS].percentile(0.99) * 1e3,
        tuple(burning),
    )


def run_load_bench(
    dataset_name: str = "fr079_corridor",
    shards: int = 2,
    resolution: float = 0.3,
    depth: int = 10,
    max_batches: Optional[int] = 6,
    ray_scale: float = 0.3,
    queue_capacity: int = 4,
    coalesce: int = 4,
    workers: str = "thread",
    num_procs: Optional[int] = None,
    kernel: str = "scalar",
    client_steps: Optional[Sequence[int]] = None,
    rate_per_client: float = 40.0,
    step_seconds: float = 2.0,
    objectives: Optional[Sequence[SLObjective]] = None,
    quick: bool = False,
    stop_after_knee: int = 1,
    admin_port: Optional[int] = None,
    admin_hold: float = 0.0,
    tenants: int = 0,
) -> LoadBenchReport:
    """Ramp open-loop clients until an SLO burns; return the curve.

    Args:
        client_steps: ascending client counts to hold, one step each
            (default doubling 1→32; quick 1→16).
        rate_per_client: each client's offered scans/s (open-loop
            schedule), so offered load = ``clients × rate``.
        step_seconds: how long each rung is held before the queues are
            drained and the window evaluated (quick runs shrink this).
        objectives: SLOs deciding "burning"
            (:func:`~repro.obs.slo.default_objectives` when omitted).
        quick: CI smoke shape — shorter steps, smaller ramp.
        stop_after_knee: keep climbing this many steps past the first
            burning one (to show the curve bending), then stop — the
            far side of saturation is all rejections and tells us
            nothing new.
        admin_port: when set, mount the admin endpoint (``/slo`` and
            friends) for the duration of the run; ``admin_hold`` keeps
            it (and the service) up that many seconds after the ramp so
            an external prober can scrape a *loaded* service.
        tenants: fleet mode — host this many tenants on the service
            (one :class:`~repro.tenancy.TenantRegistry`), round-robin
            the clients over them, and record per-step **fairness**:
            max/min per-tenant served observation throughput, computed
            over the tenants the step actually offered load to.  The
            registry feeds the same ingest SLO surface, so knee
            detection works unchanged; ``0`` is the classic
            single-map bench.
    """
    if tenants < 0:
        raise ValueError(f"tenants must be >= 0, got {tenants}")
    if step_seconds <= 0:
        raise ValueError(f"step_seconds must be positive, got {step_seconds}")
    if rate_per_client <= 0:
        raise ValueError(
            f"rate_per_client must be positive, got {rate_per_client}"
        )
    if quick:
        step_seconds = min(step_seconds, 1.0)
    steps = tuple(
        client_steps
        if client_steps is not None
        else (_QUICK_STEPS if quick else _DEFAULT_STEPS)
    )
    if not steps or list(steps) != sorted(steps) or steps[0] < 1:
        raise ValueError(
            f"client_steps must be ascending positive counts, got {steps}"
        )
    chosen = tuple(
        objectives if objectives is not None else default_objectives()
    )

    workload = load_bench_workload(
        dataset_name, ray_scale=ray_scale, max_batches=max_batches
    )
    # Trace once; clients replay. The generator must outrun the service.
    traced = [
        trace_scan(
            cloud,
            resolution,
            depth,
            max_range=workload.max_range,
            kernel=kernel,
        )
        for cloud in workload
    ]
    config = ServiceConfig(
        resolution=resolution,
        depth=depth,
        num_shards=shards,
        queue_capacity=queue_capacity,
        backpressure="reject",  # open-loop needs non-blocking submits
        coalesce=coalesce,
        max_range=workload.max_range,
        kernel=kernel,
        snapshot_interval=0,
        workers=workers,
        num_procs=num_procs,
    )
    report = LoadBenchReport(
        dataset=workload.name,
        shards=shards,
        workers=workers,
        kernel=kernel,
        rate_per_client=rate_per_client,
        quick=quick,
        num_procs=num_procs,
        tenants=tenants,
    )
    bench_start = time.perf_counter()
    with OccupancyMapService(config) as service:
        registry = None
        tenant_names: List[str] = []
        if tenants:
            from repro.tenancy import TenantQuota, TenantRegistry

            registry = TenantRegistry(service)
            tenant_names = [f"fleet-{index}" for index in range(tenants)]
            for name in tenant_names:
                # Queue-slot quota mirrors the service's own per-shard
                # capacity; rate stays unlimited so the open-loop ramp
                # (not the bucket) decides offered load.
                registry.create(
                    name,
                    quota=TenantQuota(queue_slots=queue_capacity * shards),
                )
        admin = (
            service.serve_admin(port=admin_port)
            if admin_port is not None
            else None
        )
        try:
            past_knee = 0
            for clients in steps:
                before = _state(service)
                stop = threading.Event()
                errors: List[BaseException] = []
                tallies = [_ClientStats() for _ in range(clients)]
                if registry is not None:
                    served_before = {
                        name: registry.get(name).served_observations
                        for name in tenant_names
                    }
                    submits = [
                        _tenant_submit(
                            registry, tenant_names[index % tenants]
                        )
                        for index in range(clients)
                    ]
                else:
                    served_before = {}
                    submits = [
                        service.submit_observations for _ in range(clients)
                    ]
                threads = [
                    threading.Thread(
                        target=_client_loop,
                        args=(
                            submits[index],
                            traced,
                            index,
                            rate_per_client,
                            stop,
                            tallies[index],
                            errors,
                        ),
                        name=f"loadgen-{index}",
                        daemon=True,
                    )
                    for index in range(clients)
                ]
                step_start = time.perf_counter()
                for thread in threads:
                    thread.start()
                time.sleep(step_seconds)
                stop.set()
                for thread in threads:
                    thread.join()
                if errors:
                    raise errors[0]
                # Drain (every tenant's lane too) so the window owns its
                # backlog.
                service.flush()
                elapsed = time.perf_counter() - step_start
                after = _state(service)
                availability, p99_ms, stale_ms, burning = _evaluate_step(
                    before, after, chosen
                )
                fairness = None
                if registry is not None:
                    offered_to = {
                        tenant_names[index % tenants]
                        for index in range(clients)
                    }
                    fairness = _fairness_ratio(
                        registry, served_before, offered_to
                    )
                submitted = sum(t.submitted for t in tallies)
                accepted = sum(t.accepted for t in tallies)
                step = LoadStep(
                    clients=clients,
                    offered_scans_per_s=clients * rate_per_client,
                    achieved_scans_per_s=(
                        accepted / elapsed if elapsed > 0 else 0.0
                    ),
                    submitted=submitted,
                    accepted=accepted,
                    rejected=sum(t.rejected for t in tallies),
                    availability=availability,
                    p99_ms=p99_ms,
                    staleness_p99_ms=stale_ms,
                    burning=burning,
                    elapsed_seconds=elapsed,
                    tenant_fairness=fairness,
                )
                report.steps.append(step)
                if burning:
                    if report.knee_clients is None:
                        report.knee_clients = clients
                    past_knee += 1
                    if past_knee > stop_after_knee:
                        break
            # Publish the SLO gauges from the loaded registry, so a
            # scrape during admin_hold sees the run's burn state.
            service.slo_engine(chosen).evaluate()
            if admin is not None and admin_hold > 0:
                time.sleep(admin_hold)
        finally:
            if admin is not None:
                admin.close()
            if registry is not None:
                registry.close()
    clean = [step for step in report.steps if not step.burning]
    if clean:
        best = max(clean, key=lambda step: step.achieved_scans_per_s)
        report.capacity_scans_per_s = best.achieved_scans_per_s
        report.ingest_p99_ms = best.p99_ms
        report.tenant_fairness_ratio = best.tenant_fairness
    elif report.steps:
        report.capacity_scans_per_s = report.steps[0].achieved_scans_per_s
        report.ingest_p99_ms = report.steps[0].p99_ms
        report.tenant_fairness_ratio = report.steps[0].tenant_fairness
    report.elapsed_seconds = time.perf_counter() - bench_start
    return report
