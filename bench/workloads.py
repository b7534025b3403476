"""The five workloads: what each repetition builds, reads and times.

Every component runs the vector kernel at depth 12 and 0.2 m resolution.
The load generator is one closed-loop client thread: it issues its next
call when the previous one returned, so per-voxel update order is
deterministic and the final map can be checked exactly.  Why each
workload exists is recorded in ``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.octocache import OctoCacheMap
from repro.octree import rayquery
from repro.octree.key import coord_to_key
from repro.octree.tree import OccupancyOctree
from repro.service import OccupancyMapService, ServiceConfig

from bench.golden import DEPTH, RESOLUTION
from bench.inputs import RAYCAST_RANGE_M, Inputs, Probe
from bench.spans import CLIENT, SpanRecorder

KERNEL = "vector"
NUM_SHARDS = 2
SNAPSHOT_INTERVAL = 16

perf = time.perf_counter


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    ray_scale: float
    pose_scale: float
    #: Point queries and ray casts per probe.
    points: int
    rays: int
    #: Keep only the first N scans of the trajectory (0 = all).
    scans: int = 0
    #: Probe after every scan (reads beside writes) instead of once post-build.
    interleaved: bool = False
    #: "" drives a serial ``OctoCacheMap``; "thread"/"process" the service.
    workers: str = ""


WORKLOADS: Dict[str, Workload] = {
    spec.name: spec
    for spec in (
        Workload("corridor_dense", "fr079_corridor", 2.0, 2.0, 2000, 200),
        Workload("campus_sparse", "freiburg_campus", 0.5, 1.0, 2000, 200),
        Workload(
            "college_mixed", "new_college", 0.5, 1.0, 4000, 200,
            scans=20, interleaved=True,
        ),
        Workload(
            "service_thread", "fr079_corridor", 0.75, 2.0, 1000, 100,
            workers="thread",
        ),
        Workload(
            "service_process", "fr079_corridor", 0.75, 2.0, 1000, 100,
            workers="process",
        ),
    )
}


@dataclasses.dataclass
class Rep:
    """Raw measurements of one repetition."""

    #: Scans in, and wall of, the loop ``scans_per_s`` is taken over.
    loop_scans: int = 0
    loop_s: float = 0.0
    visible_s: List[float] = dataclasses.field(default_factory=list)
    query_s: List[float] = dataclasses.field(default_factory=list)
    raycast_s: List[float] = dataclasses.field(default_factory=list)
    snapshot_s: float = 0.0
    #: Sum of the timed sections (what a traced repetition is compared on).
    client_wall_s: float = 0.0
    #: Host-speed probe time around this repetition ÷ nominal (1.0 = quiet).
    slowdown: float = 1.0
    #: ``memory_breakdown().leaf_totals()`` after the build.
    memory: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Post-build point-query answers, checked against the final map.
    answers: List[Any] = dataclasses.field(default_factory=list)
    answer_coords: List[tuple] = dataclasses.field(default_factory=list)
    tree: Optional[OccupancyOctree] = None
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    #: End-of-build facts for the layer metrics (cache counters, nodes…).
    facts: Dict[str, float] = dataclasses.field(default_factory=dict)


class Clock:
    """Times the client's sections; under tracing each is a root span."""

    def __init__(self, recorder: Optional[SpanRecorder]) -> None:
        self.recorder = recorder
        self.wall = 0.0

    @contextmanager
    def section(self):
        span = self.recorder.begin(CLIENT) if self.recorder else None
        start = perf()
        try:
            yield
        finally:
            self.wall += perf() - start
            if span is not None:
                self.recorder.end(span)

    @contextmanager
    def burst(self, name: Optional[str]):
        if self.recorder is None or name is None:
            yield
        else:
            with self.recorder.span(name):
                yield


RAISED = object()


def _timed(rep: Rep, call: Callable, arguments: Sequence, durations: List[float]):
    """Call once per argument, timing each; a raise counts as a failure."""
    results = []
    for argument in arguments:
        start = perf()
        try:
            result = call(argument)
        except Exception as error:  # counted, reported, never hidden
            result = RAISED
            rep.failed += 1
            rep.errors.append(repr(error))
        durations.append(perf() - start)
        results.append(result)
    rep.attempted += len(arguments)
    return results


def _probe(
    rep: Rep,
    probe: Probe,
    query: Callable,
    cast: Callable,
    clock: Clock,
    burst: Optional[str] = None,
) -> List[Any]:
    """One read burst.  ``burst`` names a single span around all the point
    queries, for a query path too hot to wrap per call."""
    with clock.burst(burst):
        answers = _timed(rep, query, probe.points, rep.query_s)
    _timed(rep, cast, probe.rays, rep.raycast_s)
    return answers


def _direct_probe_us(call: Callable, keys: Sequence[tuple]) -> float:
    """Median µs of a hot per-key function called directly (never wrapped)."""
    durations = []
    for key in keys:
        start = perf()
        call(key)
        durations.append(perf() - start)
    return statistics.median(durations) * 1e6 if durations else 0.0


def construct(spec: Workload, inputs: Inputs):
    """The system under test: a serial map, or a service with its workers."""
    if not spec.workers:
        return OctoCacheMap(
            RESOLUTION, depth=DEPTH, max_range=inputs.max_range, kernel=KERNEL
        )
    return OccupancyMapService(
        ServiceConfig(
            resolution=RESOLUTION,
            depth=DEPTH,
            num_shards=NUM_SHARDS,
            snapshot_interval=SNAPSHOT_INTERVAL,
            max_range=inputs.max_range,
            kernel=KERNEL,
            workers=spec.workers,
            num_procs=NUM_SHARDS if spec.workers == "process" else None,
        )
    )


def dispose(spec: Workload, system) -> None:
    """Stop a service's workers and wait for them; a serial map owns none."""
    if spec.workers:
        system.close()


def drive(spec: Workload, inputs: Inputs, system, recorder: Optional[SpanRecorder]) -> Rep:
    """One repetition on a freshly constructed ``system``; disposes of it."""
    rep = Rep()
    clock = Clock(recorder)
    try:
        if spec.workers:
            _drive_service(spec, inputs, system, rep, clock)
        else:
            _drive_serial(spec, inputs, system, rep, clock)
    finally:
        dispose(spec, system)
    rep.client_wall_s = clock.wall
    return rep


def _insert(rep: Rep, call: Callable, scan) -> float:
    """Hand one scan over; returns the wall until ``call`` returned."""
    start = perf()
    try:
        receipt = call(scan)
        if getattr(receipt, "rejected", 0):
            rep.failed += 1
            rep.errors.append(f"scan rejected: {receipt}")
    except Exception as error:
        rep.failed += 1
        rep.errors.append(repr(error))
    rep.attempted += 1
    return perf() - start


def _probe_keys(probe: Probe) -> List[tuple]:
    return [coord_to_key(coord, RESOLUTION, DEPTH) for coord in probe.points]


def _drive_serial(spec, inputs, pipeline: OctoCacheMap, rep: Rep, clock: Clock) -> None:
    tree = pipeline.octree

    def cast(ray):
        # Looked up per call so a traced run's wrapper is the one called.
        return rayquery.cast_ray(tree, ray[0], ray[1], RAYCAST_RANGE_M)

    with clock.section():
        start = perf()
        for index, scan in enumerate(inputs.scans):
            rep.visible_s.append(_insert(rep, pipeline.insert_point_cloud, scan))
            if spec.interleaved:
                _probe(
                    rep, inputs.probes[index], pipeline.query, cast,
                    clock, "pipeline.query",
                )
        rep.loop_s = perf() - start
        if not spec.interleaved:
            rep.answer_coords = inputs.probes[0].points
            rep.answers = _probe(
                rep, inputs.probes[0], pipeline.query, cast,
                clock, "pipeline.query",
            )
    rep.memory = pipeline.memory_breakdown().leaf_totals()
    stats = pipeline.cache.stats_dict()
    rep.facts = {
        "hits": stats["hits"],
        "misses": stats["misses"],
        "resident": stats["resident_voxels"],
    }
    if clock.recorder is not None:
        keys = _probe_keys(inputs.probes[-1])
        rep.facts["lookup_us"] = _direct_probe_us(pipeline.cache.lookup, keys)
        rep.facts["search_us"] = _direct_probe_us(tree.search, keys)
    gc.collect()  # so a full collection does not land in the short section below
    with clock.section():
        start = perf()
        pipeline.finalize()
        rep.snapshot_s = perf() - start
    rep.loop_scans = len(inputs.scans)
    rep.loop_s += rep.snapshot_s
    rep.facts["nodes"] = tree.num_nodes
    rep.tree = tree


def _drive_service(spec, inputs, service: OccupancyMapService, rep: Rep, clock: Clock) -> None:
    back_to_back = len(inputs.scans) // 2
    probe = inputs.probes[0]

    def cast(ray):
        return service.cast_ray(ray[0], ray[1], RAYCAST_RANGE_M)

    def submit_accepted(scan):
        return service.submit(scan, must_accept=True)

    def submit_visible(scan):
        receipt = service.submit(scan)
        service.flush()
        return receipt

    with clock.section():
        # Phase A: throughput.  Scans back to back, one barrier at the end.
        start = perf()
        for scan in inputs.scans[:back_to_back]:
            _insert(rep, submit_accepted, scan)
        service.flush()
        rep.loop_s = perf() - start
        rep.loop_scans = back_to_back
        # Phase B: latency.  Each scan handed over and waited for.
        for scan in inputs.scans[back_to_back:]:
            rep.visible_s.append(_insert(rep, submit_visible, scan))
        rep.answer_coords = probe.points
        rep.answers = _probe(rep, probe, service.query, cast, clock)
    rep.memory = service.memory_report().leaf_totals()
    shards = [service.map.shard_stats(shard) for shard in range(NUM_SHARDS)]
    rep.facts = {
        "hits": sum(shard["cache"]["hits"] for shard in shards),
        "misses": sum(shard["cache"]["misses"] for shard in shards),
        "resident": sum(shard["resident_voxels"] for shard in shards),
    }
    if clock.recorder is not None and spec.workers == "thread":
        # Shard pipelines are reachable only in-process; a process
        # backend's per-key costs are not visible from the parent.
        shard_of = service.map.router.shard_of
        keys = [key for key in _probe_keys(probe) if shard_of(key) == 0]
        home = service.map.shards[0]
        rep.facts["lookup_us"] = _direct_probe_us(home.cache.lookup, keys)
        rep.facts["search_us"] = _direct_probe_us(home.octree.search, keys)
    gc.collect()
    with clock.section():
        start = perf()
        rep.tree = service.snapshot()
        rep.snapshot_s = perf() - start
    rep.facts["nodes"] = rep.tree.num_nodes
