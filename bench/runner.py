"""Run one workload: repetitions, noise policy, verification, metrics.

A run is repetitions of a 2–5 s unit, each on a fresh map or service
with ``gc.collect()`` before it, until ``--seconds`` of timed work are
done.  Around every repetition the host-speed probe
(:mod:`bench.hostspeed`) measures how much slower than nominal the host
is; the repetition's times are divided by that slowdown, and the run
reports the **mean over its repetitions**.  Every metric keeps its
per-repetition values, median and quartiles.

A traced run alternates untraced and traced repetitions, so its
``bench.trace_overhead_ratio`` compares like with like in one process.
Its untraced repetitions also carry the client-side read latencies,
``snapshot_s`` and the pooled tail percentiles, which are per-layer
metrics here: on this host they do not repeat well enough to carry a
bound (see ``bench/README.md``).
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from typing import Dict, List, Optional

from repro.octree.key import coord_to_key
from repro.sensor import scaninsert

from bench import golden, layers, metrics, spans, workloads
from bench.hostspeed import NOMINAL_S, HostSpeedProbe
from bench.inputs import build_inputs

#: Repetitions whose set-up (input generation + construction) is timed.
SETUP_SAMPLES = 5
#: ``--smoke`` keeps this many scans, sets up once and runs one repetition.
SMOKE_SCANS = 5
#: Scans re-traced after a traced repetition to measure duplication.
DUP_RATIO_SCANS = 6

perf = time.perf_counter


def _done(reps, traced: bool, smoke: bool, seconds: float) -> bool:
    if traced and len(reps) % 2:
        return False  # a traced run ends on a traced repetition
    return smoke or sum(rep.client_wall_s for rep in reps) >= seconds


def _verify(rep: workloads.Rep, distinct: Dict[str, tuple]) -> str:
    """Digest the built map, check the post-build answers; returns the SHA."""
    tree = rep.tree
    leaves = golden.sorted_leaves(tree.iter_finest_leaves())
    digest = golden.digest_leaves(leaves, tree.params)
    distinct.setdefault(digest.sha256, (digest, leaves))
    for coord, answer in zip(rep.answer_coords, rep.answers):
        if answer is workloads.RAISED:
            continue  # already counted as a failed call
        expected = tree.search(coord_to_key(coord, golden.RESOLUTION, golden.DEPTH))
        if answer != expected:
            rep.failed += 1
            rep.errors.append(f"query {coord}: got {answer}, map holds {expected}")
    rep.facts["voxels"] = digest.leaves
    rep.tree = None
    rep.answers = rep.answer_coords = []
    return digest.sha256


def _dup_ratio(inputs) -> float:
    """Observations per distinct voxel over a few evenly spaced scans."""
    step = max(1, len(inputs.scans) // DUP_RATIO_SCANS)
    observations = voxels = 0.0
    for scan in inputs.scans[::step]:
        batch = scaninsert.trace_scan(
            scan,
            golden.RESOLUTION,
            golden.DEPTH,
            max_range=inputs.max_range,
            kernel=workloads.KERNEL,
        )
        observations += len(batch)
        voxels += len(batch) / batch.duplication_ratio if len(batch) else 0
    return observations / voxels if voxels else 0.0


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus its waited-for children, in MiB."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool = False,
    trace_path: Optional[str] = None,
) -> dict:
    """Run one workload in one mode; returns its results record.

    A traced run writes its spans to ``trace_path`` as Chrome-trace JSON.
    """
    spec = workloads.WORKLOADS[name]
    started = perf()
    probe = HostSpeedProbe()
    recorder = spans.SpanRecorder() if traced else None
    reps: List[workloads.Rep] = []
    traced_flags: List[bool] = []
    rep_shas: List[str] = []
    distinct: Dict[str, tuple] = {}
    setup_s: List[float] = []
    layer_rows: List[Dict[str, float]] = []
    errors: List[str] = []
    # Set-up is measured first, on its own, so that every repetition then
    # runs on the same inputs in the same allocator state.
    inputs = None
    for _ in range(1 if smoke else SETUP_SAMPLES):
        gc.collect()
        probed = probe.seconds()
        start = perf()
        fresh = build_inputs(spec, seed, SMOKE_SCANS if smoke else 0)
        system = workloads.construct(spec, fresh)
        setup_s.append((perf() - start) * NOMINAL_S / probed)
        workloads.dispose(spec, system)
        system = None
        if inputs is not None and fresh.digest != inputs.digest:
            errors.append("the same seed generated different inputs")
        inputs = fresh
    while True:
        index = len(reps)
        gc.collect()
        # Probed before any worker is forked: pages the probe touches
        # after a fork are copied first, which is not the host's speed.
        probe_before = probe.seconds()
        system = workloads.construct(spec, inputs)
        # Workers are forked before the wrappers go in: the parent is
        # traced, the children run the code as it is.
        trace_this = traced and index % 2 == 1
        if trace_this:
            recorder.rep = index
            before = len(recorder.spans)
            with layers.traced_layers(recorder) as payloads:
                rep = workloads.drive(spec, inputs, system, recorder)
        else:
            rep = workloads.drive(spec, inputs, system, None)
        system = None
        rep.slowdown = (probe_before + probe.seconds()) / 2 / NOMINAL_S
        rep_shas.append(_verify(rep, distinct))
        if trace_this:
            rep.facts["replay_s"] = layers.replay_decode_s(payloads)
            rep.facts["dup_ratio"] = _dup_ratio(inputs)
            row = layers.layer_metrics(recorder.spans[before:], rep.facts)
            row.update(layers.memory_metrics(rep.memory, rep.facts["voxels"]))
            layer_rows.append(row)
        reps.append(rep)
        traced_flags.append(trace_this)
        if _done(reps, traced, smoke, seconds):
            break
    peak_rss = peak_rss_mib()

    reference, source = golden.reference_digest(name, inputs)
    agreement = 1.0
    failing_reps = 0
    for sha, (digest, leaves) in distinct.items():
        if digest == reference:
            continue
        share, detail = golden.leafwise_agreement(inputs, leaves)
        agreement = min(agreement, share)
        failing_reps += rep_shas.count(sha)
        errors.append(f"map differs from the {source} reference: {detail}")
    attempted = sum(rep.attempted for rep in reps) + len(reps)
    failed = sum(rep.failed for rep in reps) + failing_reps
    for rep in reps:
        errors.extend(rep.errors[:5])

    if traced:
        values = _per_layer(reps, traced_flags, layer_rows)
    else:
        values = _end_to_end(reps, setup_s, peak_rss, agreement, failed, attempted)
    if spec.workers == "process" and len(os.sched_getaffinity(0)) < 2:
        for metric in values.values():
            metric["valid"] = False
    record = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "smoke": smoke,
        "reps": len(reps),
        "seconds": seconds,
        "timed_s": sum(rep.client_wall_s for rep in reps),
        "wall_s": perf() - started,
        "host_slowdown_per_rep": [rep.slowdown for rep in reps],
        "input_digest": inputs.digest,
        "reference": source,
        "correct": failed == 0 and agreement == 1.0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": values,
    }
    if traced:
        record["layer_table"] = spans.layer_table(
            recorder.spans, recorder.thread_names
        )
        if trace_path:
            spans.write_chrome_trace(
                trace_path, recorder.spans, recorder.thread_names
            )
    return record


def _latency_per_rep(reps, samples: str, fraction: float, scale: float) -> List[float]:
    """One percentile per repetition, host-speed corrected, in ``scale`` units."""
    return [
        metrics.percentile(getattr(rep, samples), fraction) * scale / rep.slowdown
        for rep in reps
    ]


def _end_to_end(reps, setup_s, peak_rss, agreement, failed, attempted) -> Dict[str, dict]:
    """The end-to-end metrics: the mean of the corrected repetitions."""
    per_rep: Dict[str, List[float]] = {
        "setup_s": setup_s,
        "scans_per_s": [
            rep.loop_scans / rep.loop_s * rep.slowdown for rep in reps
        ],
        "scan_visible_ms_p50": _latency_per_rep(reps, "visible_s", 0.5, 1e3),
        "bytes_per_voxel": [
            sum(rep.memory.values()) / rep.facts["voxels"] for rep in reps
        ],
        "peak_rss_mb": [peak_rss],
        "map_agreement": [agreement],
        "failed_ratio": [failed / attempted],
    }
    # A repetition sits in one of a few modes (which CPU the client runs
    # on, relative to the one that built the map): the median of five
    # repetitions jumps between modes from run to run, their mean does not.
    # Set-up and the deterministic byte count keep the median.
    reduce = {"setup_s": statistics.median, "bytes_per_voxel": statistics.median}
    return {
        spec["name"]: metrics.metric_record(
            reduce.get(spec["name"], statistics.mean)(per_rep[spec["name"]]),
            spec["unit"],
            per_rep[spec["name"]],
        )
        for spec in metrics.end_to_end_metrics()
    }


def _per_layer(reps, traced_flags, layer_rows) -> Dict[str, dict]:
    """The per-layer metrics: the median over the traced repetitions.

    The pooled tails come from the run's untraced repetitions.
    """
    contract = metrics.load_manifest()["per_layer"]
    untraced = [rep for rep, was in zip(reps, traced_flags) if not was]
    walls: Dict[bool, List[float]] = {True: [], False: []}
    for rep, was_traced in zip(reps, traced_flags):
        walls[was_traced].append(rep.client_wall_s / rep.slowdown)
    single = {
        "bench.trace_overhead_ratio": statistics.median(walls[True])
        / statistics.median(walls[False]),
        "bench.reps": len(reps),
        "bench.rep_spread": (max(walls[True]) - min(walls[True]))
        / statistics.median(walls[True]),
        "bench.host_slowdown": statistics.median(rep.slowdown for rep in reps),
    }
    # Client-side latencies that do not repeat well enough on this host to
    # carry a bound: the mean over the untraced repetitions, like the
    # end-to-end metrics, but reported here.
    client = {
        "query_us_p50": _latency_per_rep(untraced, "query_s", 0.5, 1e6),
        "raycast_us_p50": _latency_per_rep(untraced, "raycast_s", 0.5, 1e6),
        "snapshot_s": [rep.snapshot_s / rep.slowdown for rep in untraced],
    }
    measured = set(layer_rows[0]) | set(single) | set(client) | set(metrics.TAILS)
    listed = {spec["name"] for spec in contract}
    if measured != listed:
        raise RuntimeError(
            f"per-layer metrics differ from BENCHMARK.json: "
            f"unlisted {sorted(measured - listed)}, unmeasured {sorted(listed - measured)}"
        )
    records = {}
    for spec in contract:
        name = spec["name"]
        if name in metrics.TAILS:
            samples, fraction, scale = metrics.TAILS[name]
            pool = [
                sample / rep.slowdown * scale
                for rep in untraced
                for sample in getattr(rep, samples)
            ]
            records[name] = metrics.metric_record(
                metrics.percentile(pool, fraction),
                spec["unit"],
                _latency_per_rep(untraced, samples, fraction, scale),
                valid=metrics.tail_resolved(len(pool), fraction),
                samples=len(pool),
            )
            continue
        if name in client:
            records[name] = metrics.metric_record(
                statistics.mean(client[name]), spec["unit"], client[name]
            )
            continue
        per_rep = (
            [single[name]]
            if name in single
            else [float(row[name]) for row in layer_rows]
        )
        records[name] = metrics.metric_record(
            statistics.median(per_rep), spec["unit"], per_rep
        )
    return records


def print_record(record: dict) -> None:
    """Every metric by name and unit, then what was checked."""
    mode = "traced" if record["traced"] else "untraced"
    slowdown = statistics.median(record["host_slowdown_per_rep"])
    print(
        f"== {record['workload']} ({mode}, seed {record['seed']}, "
        f"{record['reps']} reps, {record['timed_s']:.1f} s timed, "
        f"{record['wall_s']:.1f} s wall, host slowdown {slowdown:.2f})"
    )
    for name, metric in record["metrics"].items():
        note = "" if metric["valid"] else "  [not valid]"
        if "samples" in metric:
            note += f"  ({metric['samples']} samples pooled)"
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}{note}")
    for row in record.get("layer_table", []):
        share = f"{row['share']:7.1%}" if "share" in row else "       "
        print(
            f"  {row['thread'][:18]:18s} {row['span']:26s} calls {row['calls']:6d} "
            f"busy {row['busy_s']:8.3f} s  self {row['self_s']:8.3f} s {share}"
        )
    status = "correct" if record["correct"] else "INCORRECT"
    print(
        f"-- {status}: {record['failed']} failed of {record['attempted']} "
        f"(reference: {record['reference']})"
    )
    for error in record["errors"][:10]:
        print(f"   ! {error}")
