"""Command-line interface: run the paper's experiments from the shell.

Subcommands mirror the main experiment families, plus the service layer::

    python -m repro construct   --dataset fr079_corridor --pipeline octocache
    python -m repro mission     --environment room --pipeline octomap
    python -m repro ordering    --keys 20000
    python -m repro stats       --dataset new_college --resolution 0.2
    python -m repro serve-bench --shards 4 --clients 8 --admin-port 9464
    python -m repro trace-bench --chrome-trace out.trace.json
    python -m repro chaos-bench --crash-shard 0 --report-out chaos.json
    python -m repro load-bench  --quick --json
    python -m repro mem-bench   --quick --tenants 3
    python -m repro perf-check  --baseline benchmarks/perf_baseline.json

Each prints the same style of table the benchmark harness writes to
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.analysis.report import format_table
from repro.baselines.octomap import OctoMapPipeline
from repro.baselines.octomap_rt import OctoMapRTPipeline
from repro.core.octocache import OctoCacheMap, OctoCacheRTMap
from repro.core.parallel import ParallelOctoCacheMap

__all__ = ["main", "build_parser"]

PIPELINES = {
    "octomap": OctoMapPipeline,
    "octomap-rt": OctoMapRTPipeline,
    "octocache": OctoCacheMap,
    "octocache-rt": OctoCacheRTMap,
    "octocache-parallel": ParallelOctoCacheMap,
}

_DATASETS = ("fr079_corridor", "freiburg_campus", "new_college")


def _add_bench_workload_args(
    parser: argparse.ArgumentParser,
    resolution: float = 0.3,
    depth: int = 10,
    ray_scale: float = 0.5,
    batches=None,
    include_batches: bool = True,
) -> None:
    """The workload knobs every ``*-bench`` command shares.

    One definition keeps ``serve-bench`` / ``trace-bench`` /
    ``chaos-bench`` / ``load-bench`` in lock-step about what a workload
    is (dataset choices, truncation, ray scaling) — they all feed
    :func:`repro.datasets.workload.load_bench_workload`.
    """
    parser.add_argument("--dataset", default="fr079_corridor", choices=_DATASETS)
    parser.add_argument("--resolution", type=float, default=resolution)
    parser.add_argument("--depth", type=int, default=depth)
    parser.add_argument("--ray-scale", type=float, default=ray_scale)
    if include_batches:
        parser.add_argument("--batches", type=int, default=batches)
    parser.add_argument(
        "--workers",
        default="thread",
        choices=("thread", "process"),
        help="service worker backend: shard pipelines on threads (default) "
        "or one child process per worker (see docs/parallelism.md)",
    )
    parser.add_argument(
        "--num-procs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --workers process (default: one per "
        "shard)",
    )
    parser.add_argument(
        "--kernel",
        default="scalar",
        choices=("scalar", "vector"),
        help="ingest kernel: per-ray scalar reference (default) or "
        "numpy batch array passes — bit-identical maps (docs/kernels.md)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OctoCache reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser(
        "construct", help="3-D environment construction (Figs 20-22)"
    )
    construct.add_argument(
        "--dataset",
        default="fr079_corridor",
        choices=("fr079_corridor", "freiburg_campus", "new_college"),
    )
    construct.add_argument(
        "--pipeline", default="octocache", choices=sorted(PIPELINES)
    )
    construct.add_argument("--resolution", type=float, default=0.2)
    construct.add_argument("--depth", type=int, default=12)
    construct.add_argument("--batches", type=int, default=None)
    construct.add_argument("--ray-scale", type=float, default=0.8)

    mission = sub.add_parser(
        "mission", help="closed-loop UAV navigation (Figs 16-19)"
    )
    mission.add_argument(
        "--environment",
        default="room",
        choices=("openland", "farm", "room", "factory"),
    )
    mission.add_argument(
        "--pipeline", default="octocache", choices=sorted(PIPELINES)
    )
    mission.add_argument("--uav", default="pelican", choices=("pelican", "spark"))
    mission.add_argument("--resolution", type=float, default=None)
    mission.add_argument("--sensing-range", type=float, default=None)
    mission.add_argument("--max-cycles", type=int, default=900)

    ordering = sub.add_parser(
        "ordering", help="voxel-ordering study (Fig 10)"
    )
    ordering.add_argument("--keys", type=int, default=20000)
    ordering.add_argument("--resolution", type=float, default=0.1)
    ordering.add_argument("--depth", type=int, default=12)

    stats = sub.add_parser("stats", help="dataset statistics (Table 2)")
    stats.add_argument(
        "--dataset",
        default="fr079_corridor",
        choices=("fr079_corridor", "freiburg_campus", "new_college"),
    )
    stats.add_argument("--resolution", type=float, default=0.2)
    stats.add_argument("--depth", type=int, default=12)

    report = sub.add_parser(
        "report", help="compact tour of the headline experiments"
    )
    report.add_argument(
        "--dataset",
        default="fr079_corridor",
        choices=("fr079_corridor", "freiburg_campus", "new_college"),
    )
    report.add_argument("--resolution", type=float, default=0.2)
    report.add_argument("--output", default=None, help="write markdown here")

    serve = sub.add_parser(
        "serve-bench",
        help="sharded concurrent map service under synthetic multi-client load",
    )
    _add_bench_workload_args(serve)
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument("--clients", type=int, default=8)
    serve.add_argument("--queue-capacity", type=int, default=8)
    serve.add_argument(
        "--backpressure", default="block", choices=("block", "reject")
    )
    serve.add_argument("--coalesce", type=int, default=4)
    serve.add_argument("--queries-per-scan", type=int, default=4)
    serve.add_argument(
        "--admin-port",
        type=int,
        default=None,
        metavar="PORT",
        help="mount the /metrics //healthz //readyz //snapshot admin "
        "endpoint on this port during the run (0 = ephemeral)",
    )
    serve.add_argument(
        "--admin-hold",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the admin endpoint (and service) up this long after "
        "the workload drains, so an external scraper can probe it",
    )
    serve.add_argument(
        "--verify",
        action="store_true",
        help="also build the map serially and report snapshot agreement",
    )
    serve.add_argument(
        "--json", action="store_true", help="emit the stats dict as JSON"
    )

    trace = sub.add_parser(
        "trace-bench",
        help="traced pipeline+service+simcache run with stage decomposition",
    )
    _add_bench_workload_args(trace, batches=6)
    trace.add_argument("--shards", type=int, default=2)
    trace.add_argument("--queries-per-scan", type=int, default=2)
    trace.add_argument(
        "--trace-out",
        default=None,
        metavar="PROFILE.JSON",
        help="write the aggregated profile as JSON",
    )
    trace.add_argument(
        "--chrome-trace",
        default=None,
        metavar="OUT.TRACE.JSON",
        help="write a chrome://tracing / Perfetto trace_event file",
    )
    trace.add_argument(
        "--json", action="store_true", help="emit the report dict as JSON"
    )

    chaos = sub.add_parser(
        "chaos-bench",
        help="crash a shard worker mid-workload and verify exact recovery",
    )
    _add_bench_workload_args(chaos, batches=12)
    chaos.add_argument("--shards", type=int, default=4)
    chaos.add_argument(
        "--crash-shard", type=int, default=0,
        help="shard whose worker the fault plan kills",
    )
    chaos.add_argument(
        "--crash-after", type=int, default=2,
        help="applies on that shard before the crash fires",
    )
    chaos.add_argument("--snapshot-interval", type=int, default=3)
    chaos.add_argument("--queue-capacity", type=int, default=8)
    chaos.add_argument("--coalesce", type=int, default=2)
    chaos.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="extra injection, e.g. site=shard.apply,mode=error,shard=1 "
        "(repeatable)",
    )
    chaos.add_argument(
        "--report-out",
        default=None,
        metavar="REPORT.JSON",
        help="write the chaos report as JSON (the CI artifact)",
    )
    chaos.add_argument(
        "--json", action="store_true", help="emit the report dict as JSON"
    )

    load = sub.add_parser(
        "load-bench",
        help="open-loop client ramp to the SLO-burning saturation knee",
    )
    _add_bench_workload_args(load, batches=6, ray_scale=0.3)
    load.add_argument("--shards", type=int, default=2)
    load.add_argument("--queue-capacity", type=int, default=4)
    load.add_argument("--coalesce", type=int, default=4)
    load.add_argument(
        "--steps",
        default=None,
        metavar="N,N,...",
        help="ascending client counts to hold (default 1,2,4,...,32; "
        "quick stops at 16)",
    )
    load.add_argument(
        "--rate",
        type=float,
        default=40.0,
        metavar="SCANS/S",
        help="per-client open-loop submit rate (offered = clients x rate)",
    )
    load.add_argument(
        "--step-seconds",
        type=float,
        default=2.0,
        help="how long each client count is held before evaluation",
    )
    load.add_argument(
        "--quick",
        action="store_true",
        help="shorter steps and a smaller ramp (the CI smoke profile)",
    )
    load.add_argument(
        "--tenants",
        type=int,
        default=0,
        metavar="N",
        help="fleet mode: host N tenants on one service, round-robin "
        "clients over them, and record the per-step fairness ratio "
        "(max/min per-tenant served throughput; 0 = single map)",
    )
    load.add_argument(
        "--admin-port",
        type=int,
        default=None,
        metavar="PORT",
        help="mount the admin endpoint (/slo included) during the ramp "
        "(0 = ephemeral)",
    )
    load.add_argument(
        "--admin-hold",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the admin endpoint (and service) up this long after "
        "the ramp, so an external prober can scrape /slo",
    )
    load.add_argument(
        "--out",
        default=None,
        metavar="BENCH.JSON",
        help="append to this file instead of benchmarks/BENCH_<host>.json",
    )
    load.add_argument(
        "--no-append",
        action="store_true",
        help="skip the BENCH series append (exploratory runs)",
    )
    load.add_argument(
        "--json", action="store_true", help="emit the report dict as JSON"
    )

    mem = sub.add_parser(
        "mem-bench",
        help="grow maps and validate the hierarchical byte accounting",
    )
    _add_bench_workload_args(mem, include_batches=False)
    mem.add_argument(
        "--quick",
        action="store_true",
        help="smaller workload (the CI smoke profile)",
    )
    mem.add_argument(
        "--shards", type=int, default=2, help="service shard count"
    )
    mem.add_argument(
        "--tenants",
        type=int,
        default=3,
        metavar="N",
        help="fleet size for the attribution / evict-to-zero stage "
        "(0 skips it)",
    )
    mem.add_argument(
        "--growth-steps",
        type=int,
        default=3,
        metavar="N",
        help="how many drift checkpoints the ingest is split into",
    )
    mem.add_argument(
        "--out",
        default=None,
        metavar="BENCH.JSON",
        help="append to this file instead of benchmarks/BENCH_<host>.json",
    )
    mem.add_argument(
        "--no-append",
        action="store_true",
        help="skip the BENCH series append (exploratory runs)",
    )
    mem.add_argument(
        "--json", action="store_true", help="emit the report dict as JSON"
    )

    check = sub.add_parser(
        "perf-check",
        help="compare the latest BENCH entry against the committed baseline",
    )
    check.add_argument(
        "--bench",
        default=None,
        metavar="BENCH.JSON",
        help="time-series file to read (default benchmarks/BENCH_<host>.json)",
    )
    check.add_argument(
        "--baseline",
        default=None,
        metavar="BASELINE.JSON",
        help="baseline to gate against (default benchmarks/perf_baseline.json)",
    )
    check.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the latest entry instead of checking",
    )
    check.add_argument(
        "--metrics",
        default=None,
        metavar="NAME,NAME,...",
        help="gate only these baseline metrics (for entries that carry "
        "a subset, e.g. load-bench: capacity_scans_per_s,ingest_p99_ms)",
    )
    check.add_argument(
        "--json", action="store_true", help="emit the check results as JSON"
    )

    return parser


def _cmd_construct(args: argparse.Namespace) -> int:
    from repro.analysis.sweeps import run_construction, suggest_cache_config
    from repro.datasets import make_dataset

    dataset = make_dataset(args.dataset, pose_scale=1.0, ray_scale=args.ray_scale)
    cls = PIPELINES[args.pipeline]
    kwargs = {"depth": args.depth, "max_range": dataset.sensor.max_range}
    if issubclass(cls, OctoCacheMap):
        kwargs["cache_config"] = suggest_cache_config(
            dataset, args.resolution, args.depth
        )
    result = run_construction(
        dataset,
        args.resolution,
        lambda res: cls(resolution=res, **kwargs),
        depth=args.depth,
        max_batches=args.batches,
    )
    rows = [
        ["total generation time", f"{result.total_seconds:.3f}s"],
        ["critical-path time", f"{result.critical_seconds:.3f}s"],
        ["cache hit ratio", f"{result.cache_hit_ratio:.3f}"],
        ["octree voxel writes", result.octree_voxels_written],
        ["octree nodes", result.octree_nodes],
        ["modeled 2-core time", f"{result.timeline.parallel_seconds:.3f}s"],
    ]
    print(f"{result.pipeline} on {result.dataset} @ {result.resolution}m")
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_mission(args: argparse.Namespace) -> int:
    from repro.uav import (
        ASCTEC_PELICAN,
        DJI_SPARK,
        MissionConfig,
        make_environment,
        run_mission,
    )

    env = make_environment(args.environment)
    uav = ASCTEC_PELICAN if args.uav == "pelican" else DJI_SPARK
    config = MissionConfig(
        environment=env,
        uav=uav,
        resolution=args.resolution,
        sensing_range=args.sensing_range,
        max_cycles=args.max_cycles,
        model_octree_offload=True,
    )
    cls = PIPELINES[args.pipeline]
    result = run_mission(
        config,
        lambda res: cls(resolution=res, depth=12, max_range=config.sensing_range),
    )
    rows = [
        ["outcome", "reached goal" if result.success else
         ("CRASHED" if result.crashed else "timed out")],
        ["completion time", f"{result.completion_time:.1f}s"],
        ["mean velocity", f"{result.mean_velocity:.2f} m/s"],
        ["response latency", f"{result.mean_response_latency * 1000:.0f}ms"],
        ["cycles", result.cycles],
        ["map queries", result.map_queries],
    ]
    print(f"{args.pipeline} flying {uav.name} in {env.name}")
    print(format_table(["metric", "value"], rows))
    return 0 if result.success else 1


def _cmd_ordering(args: argparse.Namespace) -> int:
    from repro.analysis.orderings import run_ordering_experiment
    from repro.datasets import make_dataset
    from repro.sensor.scaninsert import trace_scan

    dataset = make_dataset("fr079_corridor", pose_scale=1.0, ray_scale=0.6)
    keys = []
    for cloud in dataset.scans():
        batch = trace_scan(
            cloud, args.resolution, args.depth, max_range=dataset.sensor.max_range
        )
        keys.extend(key for key, _occ in batch.observations)
        if len(keys) >= args.keys:
            break
    keys = keys[: args.keys]
    results = run_ordering_experiment(
        keys, resolution=args.resolution, depth=args.depth
    )
    rows = [
        [r.name, r.locality, f"{r.modeled_cycles_per_voxel:.1f}", f"{r.l1_hit_ratio:.3f}"]
        for r in sorted(results, key=lambda r: r.modeled_cycles_per_voxel)
    ]
    print(format_table(["ordering", "F(S)", "cycles/voxel", "L1 hits"], rows))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.datasets import dataset_statistics, make_dataset

    dataset = make_dataset(args.dataset, pose_scale=1.0, ray_scale=0.8)
    stats = dataset_statistics(dataset, args.resolution, args.depth)
    rows = [
        ["point clouds", stats.num_point_clouds],
        ["non-duplicate voxels", stats.distinct_voxels],
        ["duplicate voxels", stats.total_observations],
        ["duplication ratio", f"{stats.duplication_ratio:.2f}"],
        [
            "per-batch duplication",
            f"{stats.min_batch_duplication:.2f}-{stats.max_batch_duplication:.2f}",
        ],
    ]
    print(f"{stats.name} @ {stats.resolution}m")
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import quick_report, render_markdown

    sections = quick_report(
        dataset_name=args.dataset, resolution=args.resolution
    )
    document = render_markdown(sections)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(document)
        print(f"report written to {args.output}")
    else:
        print(document)
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.service import run_serve_bench

    result = run_serve_bench(
        dataset_name=args.dataset,
        shards=args.shards,
        clients=args.clients,
        resolution=args.resolution,
        depth=args.depth,
        max_batches=args.batches,
        queue_capacity=args.queue_capacity,
        backpressure=args.backpressure,
        coalesce=args.coalesce,
        queries_per_scan=args.queries_per_scan,
        ray_scale=args.ray_scale,
        verify_snapshot=args.verify,
        admin_port=args.admin_port,
        admin_hold=args.admin_hold,
        workers=args.workers,
        num_procs=args.num_procs,
        kernel=args.kernel,
    )
    if args.json:
        import json

        print(json.dumps(result.stats, indent=2))
        return 0
    print(
        f"serve-bench: {result.dataset} through {result.shards} shard(s), "
        f"{result.clients} client(s), {result.workers} workers"
    )
    rows = [
        ["scans submitted", result.scans],
        ["observations", result.observations],
        ["rejected observations", result.rejected_observations],
        [
            "queries (point/ray/box)",
            f"{result.point_queries}/{result.ray_queries}/{result.box_queries}",
        ],
        ["wall-clock", f"{result.elapsed_seconds:.3f}s"],
    ]
    if result.agreement is not None:
        rows.append(
            [
                "snapshot agreement",
                f"{result.agreement.decision_agreement:.3f} "
                f"({result.agreement.missing} missing)",
            ]
        )
    print(format_table(["metric", "value"], rows))
    print()
    print(result.report_text)
    return 0


def _cmd_trace_bench(args: argparse.Namespace) -> int:
    from repro.telemetry.bench import run_trace_bench

    report = run_trace_bench(
        dataset_name=args.dataset,
        batches=args.batches,
        resolution=args.resolution,
        depth=args.depth,
        shards=args.shards,
        queries_per_scan=args.queries_per_scan,
        ray_scale=args.ray_scale,
        workers=args.workers,
        num_procs=args.num_procs,
        kernel=args.kernel,
    )
    profile = report.profile
    if args.trace_out:
        import json

        with open(args.trace_out, "w") as handle:
            json.dump(profile.to_dict(), handle, indent=2)
    if args.chrome_trace:
        report.chrome.write(args.chrome_trace)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.consistent else 1
    print(
        f"trace-bench: {report.dataset}, {report.batches} batch(es) through "
        f"pipeline + service + simcache"
    )
    print(f"categories traced: {', '.join(profile.categories)}")
    print()
    print(profile.table())
    counts = profile.counts_table()
    if counts:
        print()
        print(counts)
    cache = profile.cache_summary()
    print()
    print(
        f"cache: {cache['hits']:g} hits / {cache['misses']:g} misses "
        f"(hit ratio {cache['hit_ratio']:.3f}), "
        f"{cache['evictions']:g} evictions"
    )
    print(
        f"simcache: {report.sim_accesses} node visits replayed, "
        f"{report.sim_mean_cycles:.2f} cycles/access"
    )
    rows = [
        [name, f"{metric:g}", f"{spans:g}", "ok" if metric == spans else "MISMATCH"]
        for name, (metric, spans) in sorted(report.consistency.items())
    ]
    if rows:
        print()
        print(format_table(["event", "metrics total", "span count", ""], rows))
    if args.trace_out:
        print(f"\nprofile written to {args.trace_out}")
    if args.chrome_trace:
        print(
            f"chrome trace written to {args.chrome_trace} "
            "(load in chrome://tracing or ui.perfetto.dev)"
        )
    return 0 if report.consistent else 1


def _cmd_load_bench(args: argparse.Namespace) -> int:
    from repro.loadgen import run_load_bench
    from repro.obs.perf import append_bench_entry, bench_path_for_host

    steps = None
    if args.steps:
        steps = [int(part) for part in args.steps.split(",") if part.strip()]
    report = run_load_bench(
        dataset_name=args.dataset,
        shards=args.shards,
        resolution=args.resolution,
        depth=args.depth,
        max_batches=args.batches,
        ray_scale=args.ray_scale,
        queue_capacity=args.queue_capacity,
        coalesce=args.coalesce,
        workers=args.workers,
        num_procs=args.num_procs,
        kernel=args.kernel,
        client_steps=steps,
        rate_per_client=args.rate,
        step_seconds=args.step_seconds,
        quick=args.quick,
        admin_port=args.admin_port,
        admin_hold=args.admin_hold,
        tenants=args.tenants,
    )
    appended_to = None
    if not args.no_append:
        appended_to = args.out or bench_path_for_host("benchmarks")
        append_bench_entry(report.to_bench_entry(), appended_to)
    if args.json:
        import json

        payload = report.to_dict()
        payload["appended_to"] = appended_to
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"load-bench: {report.dataset} through {report.shards} shard(s), "
        f"{report.workers} workers, {report.kernel} kernel, "
        f"{report.rate_per_client:g} scans/s per client"
    )
    print()
    print(report.table())
    print()
    if report.saturated:
        print(
            f"saturation knee at {report.knee_clients} client(s); "
            f"capacity {report.capacity_scans_per_s:.1f} scans/s "
            f"@ p99 {report.ingest_p99_ms:.1f} ms"
        )
    else:
        print(
            "no SLO burned on this ramp; capacity (fastest step) "
            f"{report.capacity_scans_per_s:.1f} scans/s "
            f"@ p99 {report.ingest_p99_ms:.1f} ms"
        )
    if report.tenants and report.tenant_fairness_ratio is not None:
        print(
            f"fleet of {report.tenants} tenant(s): fairness ratio "
            f"{report.tenant_fairness_ratio:.2f} at the capacity step "
            "(max/min served throughput; 1.0 = perfectly fair)"
        )
    if appended_to:
        print(f"capacity curve appended to {appended_to}")
    return 0


def _cmd_chaos_bench(args: argparse.Namespace) -> int:
    from repro.resilience.chaosbench import parse_fault_spec, run_chaos_bench

    report = run_chaos_bench(
        dataset_name=args.dataset,
        shards=args.shards,
        resolution=args.resolution,
        depth=args.depth,
        max_batches=args.batches,
        crash_shard=args.crash_shard,
        crash_after=args.crash_after,
        snapshot_interval=args.snapshot_interval,
        queue_capacity=args.queue_capacity,
        coalesce=args.coalesce,
        ray_scale=args.ray_scale,
        extra_specs=[parse_fault_spec(spec) for spec in args.fault],
        workers=args.workers,
        num_procs=args.num_procs,
        kernel=args.kernel,
    )
    if args.report_out:
        import json

        with open(args.report_out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.recovered_exactly else 1
    print(
        f"chaos-bench: {report.dataset} through {report.shards} shard(s), "
        f"{report.workers} workers, crash on shard {args.crash_shard}"
    )
    fired = ", ".join(
        f"{site}×{count}" for site, count in sorted(report.faults_fired.items())
    ) or "none"
    agreement = report.agreement
    rows = [
        ["scans submitted", report.scans],
        ["observations", report.observations],
        ["rejected observations", report.rejected_observations],
        ["faults fired", fired],
        ["recoveries", report.recoveries],
        ["worker restarts", report.worker_restarts],
        ["apply retries", report.retries],
        ["checkpoints written", report.snapshots],
        ["dead shards", report.dead_shards],
        [
            "snapshot agreement",
            f"{agreement.decision_agreement:.3f} "
            f"({agreement.missing} missing of {agreement.compared})",
        ],
        [
            "recovered exactly",
            "YES" if report.recovered_exactly else "NO",
        ],
        ["wall-clock", f"{report.elapsed_seconds:.3f}s"],
    ]
    print(format_table(["metric", "value"], rows))
    print()
    print(report.report_text)
    if args.report_out:
        print(f"\nchaos report written to {args.report_out}")
    return 0 if report.recovered_exactly else 1


def _cmd_mem_bench(args: argparse.Namespace) -> int:
    from repro.memsight.bench import run_mem_bench
    from repro.obs.perf import append_bench_entry, bench_path_for_host

    report = run_mem_bench(
        dataset_name=args.dataset,
        quick=args.quick,
        resolution=args.resolution,
        depth=args.depth,
        shards=args.shards,
        workers=args.workers,
        num_procs=args.num_procs,
        tenants=args.tenants,
        growth_steps=args.growth_steps,
    )
    appended_to = None
    if not args.no_append:
        appended_to = args.out or bench_path_for_host("benchmarks")
        append_bench_entry(report.to_bench_entry(), appended_to)
    if args.json:
        import json

        payload = report.to_dict()
        payload["appended_to"] = appended_to
        print(json.dumps(payload, indent=2))
        return 0 if report.ok else 1
    print(
        f"mem-bench: {report.dataset} through {args.shards} shard(s), "
        f"{report.workers} workers, {report.tenants} tenant(s)"
    )
    print()
    print(report.table())
    print()
    rows = [
        ["bytes / voxel", f"{report.bytes_per_voxel:.2f}"],
        ["accounting drift", f"{report.mem_accounting_drift:g} B"],
        ["evict released", f"{report.evict_released_bytes} B"],
        ["evict residual", f"{report.evict_residual_bytes} B"],
        ["post-restore drift", f"{report.restore_drift_bytes} B"],
        [
            "accounted / traced",
            "-"
            if report.traced_ratio is None
            else f"{report.traced_ratio:.3f}",
        ],
        ["pressure", report.pressure_level],
        ["wall-clock", f"{report.elapsed_seconds:.2f}s"],
    ]
    print(format_table(["metric", "value"], rows))
    if report.tenant_bytes:
        print()
        print(
            format_table(
                ["tenant", "attributed bytes"],
                [
                    [name, nbytes]
                    for name, nbytes in sorted(report.tenant_bytes.items())
                ],
            )
        )
    if appended_to:
        print(f"\nentry appended to {appended_to}")
    if not report.ok:
        print("\nACCOUNTING DRIFT — incremental counters disagree with recount")
    return 0 if report.ok else 1


def _cmd_perf_check(args: argparse.Namespace) -> int:
    import json

    from repro.obs.perf import (
        bench_path_for_host,
        check_regressions,
        default_baseline,
        load_latest_entry,
        write_baseline,
    )

    bench_path = args.bench or bench_path_for_host("benchmarks")
    baseline_path = args.baseline or default_baseline()
    entry = load_latest_entry(bench_path)
    if args.update_baseline:
        write_baseline(entry, baseline_path)
        print(f"baseline rewritten at {baseline_path} from {bench_path}")
        return 0
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    only = None
    if args.metrics:
        only = [part.strip() for part in args.metrics.split(",") if part.strip()]
    result = check_regressions(entry, baseline, only=only)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0 if result.ok else 1
    rows = [
        [
            check.name,
            "-" if check.measured is None else f"{check.measured:g}",
            f"{check.baseline:g}",
            f"{check.allowed:g}",
            check.direction,
            "REGRESSED" if check.regressed else "ok",
        ]
        for check in result.checks
    ]
    print(f"perf-check: {bench_path} vs {baseline_path}")
    print(
        format_table(
            ["metric", "measured", "baseline", "allowed", "better", ""], rows
        )
    )
    if result.missing_baseline:
        print(
            "\nunbaselined metrics (measured, not gated): "
            + ", ".join(result.missing_baseline)
        )
    if result.ok:
        print("\nno regressions")
        return 0
    names = ", ".join(check.name for check in result.regressions)
    print(f"\nREGRESSION in: {names}")
    return 1


_COMMANDS = {
    "construct": _cmd_construct,
    "mission": _cmd_mission,
    "ordering": _cmd_ordering,
    "stats": _cmd_stats,
    "report": _cmd_report,
    "serve-bench": _cmd_serve_bench,
    "trace-bench": _cmd_trace_bench,
    "chaos-bench": _cmd_chaos_bench,
    "load-bench": _cmd_load_bench,
    "mem-bench": _cmd_mem_bench,
    "perf-check": _cmd_perf_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
