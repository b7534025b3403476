"""Disabled-tracing overhead budget for the insert hot path.

The telemetry design promise (DESIGN.md / docs/observability.md): with
tracing disabled, instrumentation costs one attribute check plus a shared
no-op context manager per *stage* — never per voxel.  This benchmark
pins that promise to a number: the instrumented insert path over
pre-traced batches must stay within 1.1x of an uninstrumented twin, on
the scalar kernel (the figure suite's) and on the vector kernel (the one
``bench/`` and the service run).
"""

import time

from repro.analysis.report import format_table
from repro.baselines.interface import StageClock
from repro.core.octocache import OctoCacheMap
from repro.sensor.scaninsert import trace_scan
from repro.telemetry import NULL_SPAN, get_tracer

from .conftest import BENCH_DEPTH

RESOLUTION = 0.2
BATCHES = 6
REPEATS = 5
BUDGET = 1.1
KERNELS = ("scalar", "vector")


class _BareClock(StageClock):
    """The stage clock's measurement with the telemetry taken out."""

    __slots__ = ()

    def count(self, name, value):
        pass


class UninstrumentedOctoCacheMap(OctoCacheMap):
    """The serial pipeline with the stage clock's telemetry stripped.

    It overrides only the clock — same stopwatch, same ledger entries, no
    span asked of the tracer and no counter sent to it — so the stage
    sequence it runs is ``OctoCacheMap``'s own and cannot drift from it.
    (The one ``insert_batch`` envelope span per batch is not a stage and
    stays in both arms.)
    """

    name = "OctoCache (untraced)"

    def stage(self, name, record, category, **attributes):
        return _BareClock(self, name, record, category, NULL_SPAN)


def _insert_all(factory, batches):
    """Fresh map, insert every pre-traced batch; return elapsed seconds."""
    mapping = factory()
    start = time.perf_counter()
    for batch in batches:
        mapping.insert_batch(batch)
    return time.perf_counter() - start


def test_disabled_tracing_overhead(benchmark, corridor, emit):
    assert not get_tracer().enabled  # the benchmark measures the off path

    scans = []
    for cloud in corridor.scans():
        scans.append(cloud)
        if len(scans) == BATCHES:
            break

    def measure(kernel):
        batches = [
            trace_scan(
                cloud,
                RESOLUTION,
                BENCH_DEPTH,
                max_range=corridor.sensor.max_range,
                kernel=kernel,
            )
            for cloud in scans
        ]

        def instrumented():
            return OctoCacheMap(
                resolution=RESOLUTION, depth=BENCH_DEPTH, kernel=kernel
            )

        def untraced():
            return UninstrumentedOctoCacheMap(
                resolution=RESOLUTION, depth=BENCH_DEPTH, kernel=kernel
            )

        # Interleave and keep the min of each: min-of-N cancels scheduler
        # noise, interleaving cancels thermal/cache drift between arms.
        traced_best, untraced_best = float("inf"), float("inf")
        for _ in range(REPEATS):
            untraced_best = min(untraced_best, _insert_all(untraced, batches))
            traced_best = min(traced_best, _insert_all(instrumented, batches))
        return traced_best, untraced_best

    def run():
        return {kernel: measure(kernel) for kernel in KERNELS}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows, over_budget = [], []
    for kernel, (traced_best, untraced_best) in results.items():
        ratio = traced_best / untraced_best
        rows.append([f"{kernel}: uninstrumented", f"{untraced_best:.4f}", "1.000"])
        rows.append(
            [
                f"{kernel}: instrumented, tracing off",
                f"{traced_best:.4f}",
                f"{ratio:.3f}",
            ]
        )
        if ratio > BUDGET:
            over_budget.append(
                f"{kernel} kernel {ratio:.3f}x: traced {traced_best:.4f}s "
                f"vs untraced {untraced_best:.4f}s"
            )
    emit(
        "tracing_overhead",
        format_table(["insert path", "best of %d (s)" % REPEATS, "ratio"], rows)
        + f"\nbudget: <= {BUDGET:.2f}x",
    )

    assert not over_budget, (
        f"disabled tracing costs more than the {BUDGET}x budget: {over_budget}"
    )
