"""Ablation: serial vs real-two-thread vs modeled-two-thread OctoCache.

Three views of §4.4's parallelisation on identical workloads:

- **serial** — the single-thread pipeline (ground truth for stage costs);
- **threaded** — the real two-thread implementation.  Under CPython's GIL
  it cannot gain throughput, but it must stay functionally identical,
  keep queue overheads negligible (Table 3), and not collapse under
  synchronisation cost;
- **modeled** — the analytic timeline fed with the serial run's measured
  stage times (the projection DESIGN.md §1 uses for two-core speedup),
  which must respect the paper's bound
  ``gain ≤ min(T_raytrace + T_evict, T_octree)``.
"""

from repro.analysis.report import format_table
from repro.analysis.sweeps import run_construction, suggest_cache_config
from repro.core.pipeline_model import PipelineModel

from .conftest import BENCH_DEPTH, BENCH_MAX_BATCHES, pipeline_factory

RESOLUTION = 0.15


def test_ablation_parallel_designs(benchmark, corridor, emit):
    config = suggest_cache_config(corridor, RESOLUTION, BENCH_DEPTH)

    def run():
        serial = run_construction(
            corridor,
            RESOLUTION,
            pipeline_factory("octocache", corridor, cache_config=config),
            depth=BENCH_DEPTH,
            max_batches=BENCH_MAX_BATCHES,
        )
        threaded = run_construction(
            corridor,
            RESOLUTION,
            pipeline_factory("octocache_parallel", corridor, cache_config=config),
            depth=BENCH_DEPTH,
            max_batches=BENCH_MAX_BATCHES,
        )
        return serial, threaded

    serial, threaded = benchmark.pedantic(run, rounds=1, iterations=1)

    timeline = serial.timeline
    rows = [
        ["serial (measured)", f"{serial.total_seconds:.2f}", "-"],
        [
            "threaded (measured, GIL)",
            f"{threaded.total_seconds:.2f}",
            f"{serial.total_seconds / threaded.total_seconds:.2f}x",
        ],
        [
            "two-core (modeled)",
            f"{timeline.parallel_seconds:.2f}",
            f"{timeline.speedup:.2f}x",
        ],
    ]
    emit(
        "ablation_parallel_designs",
        format_table(["design", "generation time(s)", "vs serial"], rows),
    )

    # Functional equivalence: identical final maps and hit ratios.
    assert threaded.octree_nodes == serial.octree_nodes
    assert abs(threaded.cache_hit_ratio - serial.cache_hit_ratio) < 1e-9

    # Modeled two-core timeline: faster than serial, within the bound.
    assert timeline.parallel_seconds <= timeline.serial_seconds + 1e-9
    model = PipelineModel([])
    gain = timeline.serial_seconds - timeline.parallel_seconds
    hideable = serial.stage_seconds.get("ray_tracing", 0.0) + serial.stage_seconds.get(
        "cache_eviction", 0.0
    )
    octree = serial.stage_seconds.get("octree_update", 0.0)
    assert gain <= min(hideable, octree) + 1e-6

    # The GIL-bound threaded run stays within 2x of serial (scheduling
    # and queue overhead do not blow up), and Table 3's point holds:
    # enqueue overhead is a negligible slice.
    assert threaded.total_seconds < 2.0 * serial.total_seconds
    assert (
        threaded.stage_seconds.get("enqueue", 0.0)
        < 0.05 * threaded.total_seconds
    )
