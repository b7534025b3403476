"""``mem-bench``: grow maps and prove the byte accounting stays honest.

The accounting contract has three legs, and this bench exercises all of
them against a real ingest workload (same datasets / tracing as the perf
suite):

1. **Incremental == exact.**  Every structure keeps O(1) byte counters
   on its hot path *and* can recount by walking its storage.  After each
   growth step (and after the tenant-fleet churn) the bench folds the
   two trees with :meth:`MemoryReport.drift_bytes`; the series metric
   ``mem_accounting_drift`` is the worst observed drift and is baselined
   at **zero** — a single leaked or double-counted byte fails CI.
2. **Modeled vs. measured.**  The accounted bytes are modeled constants
   (:mod:`repro.memsight.costs`), deliberately *not* Python object
   sizes — they answer "what would this map cost in the paper's packed
   C++ layout", the number ``bytes_per_voxel`` tracks in the series.
   The bench still cross-checks the model against reality: accounted
   growth must move *with* ``tracemalloc`` growth (thread backend only —
   the tracer cannot see worker processes), and the ratio is recorded so
   a drifting model shows up in review even though only its direction is
   asserted.
3. **Eviction returns to baseline.**  A tenant fleet is created, grown,
   and one tenant evicted: its map slots, journal entries, and changelog
   ring must account to exactly zero afterwards (snapshots remain — they
   are the durable copy eviction exists to keep).

Run it as ``python -m repro mem-bench``; the entry appends to the same
``BENCH_<host>.json`` series ``load-bench`` writes and is gated by
``perf-check --metrics bytes_per_voxel,mem_accounting_drift``.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.memsight.rss import process_rss_bytes

__all__ = ["MemBenchReport", "MemBenchStep", "run_mem_bench"]


@dataclass(frozen=True)
class MemBenchStep:
    """One growth-step measurement."""

    scans: int
    distinct_voxels: int
    accounted_bytes: int
    map_bytes: int
    drift_bytes: int
    rss_bytes: Optional[int]
    traced_bytes: Optional[int]

    def to_dict(self) -> Dict[str, object]:
        return {
            "scans": self.scans,
            "distinct_voxels": self.distinct_voxels,
            "accounted_bytes": self.accounted_bytes,
            "map_bytes": self.map_bytes,
            "drift_bytes": self.drift_bytes,
            "rss_bytes": self.rss_bytes,
            "traced_bytes": self.traced_bytes,
        }


@dataclass
class MemBenchReport:
    """Everything one ``mem-bench`` run measured."""

    dataset: str
    workers: str
    quick: bool
    steps: List[MemBenchStep] = field(default_factory=list)
    tenants: int = 0
    tenant_bytes: Dict[str, int] = field(default_factory=dict)
    evict_released_bytes: int = 0
    evict_residual_bytes: int = 0
    restore_drift_bytes: int = 0
    bytes_per_voxel: float = 0.0
    mem_accounting_drift: float = 0.0
    traced_ratio: Optional[float] = None
    pressure_level: str = "ok"
    elapsed_seconds: float = 0.0
    timestamp: float = 0.0
    env: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """The pass verdict CI asserts: zero drift, eviction clean."""
        return self.mem_accounting_drift == 0 and self.evict_residual_bytes == 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "dataset": self.dataset,
            "workers": self.workers,
            "quick": self.quick,
            "ok": self.ok,
            "steps": [step.to_dict() for step in self.steps],
            "tenants": self.tenants,
            "tenant_bytes": dict(self.tenant_bytes),
            "evict_released_bytes": self.evict_released_bytes,
            "evict_residual_bytes": self.evict_residual_bytes,
            "restore_drift_bytes": self.restore_drift_bytes,
            "bytes_per_voxel": self.bytes_per_voxel,
            "mem_accounting_drift": self.mem_accounting_drift,
            "traced_ratio": self.traced_ratio,
            "pressure_level": self.pressure_level,
            "elapsed_seconds": self.elapsed_seconds,
            "timestamp": self.timestamp,
            "env": dict(self.env),
        }

    def to_bench_entry(self) -> Dict[str, object]:
        """A ``BENCH_<host>.json`` series entry carrying the mem metrics.

        Deliberately a *subset* entry (like ``load-bench``'s): gate it
        with ``perf-check --metrics bytes_per_voxel,mem_accounting_drift``
        so ``load-bench``'s metrics are not flagged as dropped.
        """
        metrics = {
            "bytes_per_voxel": {
                "value": self.bytes_per_voxel,
                "unit": "B/voxel",
                "direction": "lower",
                "samples": [self.bytes_per_voxel],
            },
            "mem_accounting_drift": {
                "value": float(self.mem_accounting_drift),
                "unit": "bytes",
                "direction": "lower",
                "samples": [float(self.mem_accounting_drift)],
            },
        }
        return {
            "timestamp": self.timestamp,
            "quick": self.quick,
            "repeats": 1,
            "elapsed_seconds": self.elapsed_seconds,
            "kind": "mem-bench",
            "env": dict(self.env),
            "metrics": metrics,
        }

    def table(self) -> str:
        from repro.analysis.report import format_table

        rows = [
            [
                step.scans,
                step.distinct_voxels,
                step.accounted_bytes,
                step.drift_bytes,
                "-" if step.rss_bytes is None else step.rss_bytes,
            ]
            for step in self.steps
        ]
        return format_table(
            ["scans", "voxels", "accounted B", "drift B", "rss B"], rows
        )


def run_mem_bench(
    dataset_name: str = "fr079_corridor",
    quick: bool = False,
    resolution: float = 0.3,
    depth: int = 10,
    shards: int = 2,
    workers: str = "thread",
    num_procs: Optional[int] = None,
    tenants: int = 3,
    growth_steps: int = 3,
) -> MemBenchReport:
    """Grow a map (then a tenant fleet) and validate the accounting.

    The drift gate holds on *quiescent* states: every measurement runs
    after ``flush()``, when queues are drained and (on the process
    backend) every worker has relayed its current per-slot rollup.
    """
    from repro.datasets.workload import load_bench_workload
    from repro.obs.perf import environment_fingerprint
    from repro.sensor.scaninsert import trace_scan
    from repro.service.server import OccupancyMapService, ServiceConfig
    from repro.tenancy.registry import TenantRegistry

    report = MemBenchReport(
        dataset=dataset_name, workers=workers, quick=quick, tenants=tenants
    )
    report.timestamp = time.time()
    report.env = environment_fingerprint(workers=workers, num_procs=num_procs)
    start = time.perf_counter()

    workload = load_bench_workload(
        dataset_name,
        ray_scale=0.3 if quick else 0.5,
        max_batches=4 if quick else 10,
    )
    batches = [
        trace_scan(
            cloud, resolution, depth, max_range=workload.max_range
        )
        for cloud in workload
    ]

    # tracemalloc sees only this process's allocations; worker processes
    # hold the map on the process backend, so the cross-check is
    # thread-only.
    trace_python = workers == "thread" and not tracemalloc.is_tracing()
    if trace_python:
        tracemalloc.start()

    config = ServiceConfig(
        resolution=resolution,
        depth=depth,
        num_shards=shards,
        max_range=workload.max_range,
        snapshot_interval=0,
        workers=workers,
        num_procs=num_procs,
    )
    drifts: List[int] = []
    try:
        with OccupancyMapService(config) as service:
            base_accounted = service.memory_report().total_bytes
            if trace_python:
                base_traced, _peak = tracemalloc.get_traced_memory()
            distinct: set = set()
            per_step = max(1, len(batches) // max(1, growth_steps))
            scans = 0
            for offset in range(0, len(batches), per_step):
                for batch in batches[offset : offset + per_step]:
                    service.submit_observations(batch, must_accept=True)
                    distinct.update(batch.unique_keys())
                    scans += 1
                service.flush()
                incremental, decision = service.refresh_memory_metrics()
                exact = service.memory_report(exact=True)
                drift = incremental.drift_bytes(exact)
                drifts.append(drift)
                traced = None
                if trace_python:
                    now_traced, _peak = tracemalloc.get_traced_memory()
                    traced = now_traced - base_traced
                map_child = incremental.child("map")
                report.steps.append(
                    MemBenchStep(
                        scans=scans,
                        distinct_voxels=len(distinct),
                        accounted_bytes=incremental.total_bytes,
                        map_bytes=(
                            map_child.total_bytes if map_child else 0
                        ),
                        drift_bytes=drift,
                        rss_bytes=process_rss_bytes(),
                        traced_bytes=traced,
                    )
                )
                report.pressure_level = decision.level
            last = report.steps[-1]
            if last.distinct_voxels:
                report.bytes_per_voxel = last.map_bytes / last.distinct_voxels
            if trace_python and last.traced_bytes:
                report.traced_ratio = (
                    (last.accounted_bytes - base_accounted) / last.traced_bytes
                )

            # ---- tenant fleet: attribution, evict-to-zero, restore ----
            if tenants > 0:
                registry = TenantRegistry(service)
                try:
                    names = [f"tenant-{index:02d}" for index in range(tenants)]
                    for name in names:
                        registry.create(name)
                    for index, name in enumerate(names):
                        for observations in batches[index :: tenants]:
                            registry.submit_observations(
                                name, observations, must_accept=True
                            )
                    registry.flush()
                    incremental, decision = service.refresh_memory_metrics()
                    drifts.append(
                        incremental.drift_bytes(
                            service.memory_report(exact=True)
                        )
                    )
                    report.tenant_bytes = service.tenant_memory_bytes()
                    report.pressure_level = decision.level

                    victim = registry.get(names[0])
                    before = report.tenant_bytes.get(names[0], 0)
                    registry.evict(names[0])
                    after = service.tenant_memory_bytes().get(names[0], 0)
                    report.evict_released_bytes = before - after
                    residual = victim.memory_breakdown(exact=True)
                    # Snapshot blobs are the durable copy eviction exists
                    # to keep; everything else must account to zero.
                    report.evict_residual_bytes = sum(
                        nbytes
                        for path, nbytes in residual.leaf_totals().items()
                        if "snapshot" not in path
                    ) + service.map.tenant_memory_bytes().get(victim.slot, 0)
                    drifts.append(
                        service.memory_report().drift_bytes(
                            service.memory_report(exact=True)
                        )
                    )

                    registry.restore(names[0])
                    report.restore_drift_bytes = service.memory_report(
                    ).drift_bytes(service.memory_report(exact=True))
                    drifts.append(report.restore_drift_bytes)
                finally:
                    registry.close()
    finally:
        if trace_python:
            tracemalloc.stop()
    report.mem_accounting_drift = float(max(drifts)) if drifts else 0.0
    report.elapsed_seconds = time.perf_counter() - start
    return report
