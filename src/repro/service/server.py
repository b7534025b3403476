"""``OccupancyMapService``: the concurrent front door to a ShardedMap.

The ingestion path generalises the paper's two-thread schedule (§4.4) to
N shards: a producer's scan is traced once (the latency-critical stage),
partitioned by Morton prefix, and each slice is pushed onto its shard's
capacity-bounded queue; one worker thread per shard drains its queue,
coalescing adjacent sub-batches into a single cache-insert → evict →
octree-update cycle.  Queries never traverse the queues — they go
straight to the shard (cache first, octree under the shard lock), so a
queue backlog delays *map freshness*, never *query latency*.

This is the only ingest plane.  Every queued slice belongs to a *lane*
(:class:`IngestLane`): lane 0 is the default map, the tenant layer adds
one per hosted map.  A shard worker serves the lanes with queued slices
round-robin, one lane per turn, so every map gets the same journaling,
retries, checkpoints, recovery and spans, under one ``flush``/``close``.

Backpressure is explicit because queue capacity is reserved up front
(a per-shard semaphore guards a slot per queued sub-batch):

- ``"block"`` (default): ``submit`` waits for queue space — producers
  are throttled to the map's sustainable ingest rate.  A per-request
  :class:`~repro.resilience.Deadline` turns an unbounded wait into
  :class:`~repro.resilience.DeadlineExceeded`.
- ``"reject"``: ``submit`` drops the slice, counts it, and reports it in
  the receipt — producers that must not stall (a planner's control loop)
  trade completeness for latency.

``must_accept`` submissions are **all-or-nothing**: a slot is reserved
on *every* target shard before *any* slice is enqueued, so a rejected
must-accept submission leaves the map byte-identical — no partially
ingested scans.

The service is crash-resilient (see ``docs/resilience.md``): every
accepted batch is journaled before it is applied, shards are
checkpointed periodically (snapshot + journal position), transient apply
failures are retried with jittered backoff, and a crashed shard worker
is replaced by a fresh thread that rebuilds the shard *exactly* from its
last checkpoint plus journal replay.  While a shard rebuilds, the old
map keeps answering queries — stale but self-consistent reads, flagged
through :meth:`query_detailed`.  Shard health (``healthy`` /
``recovering`` / ``dead``) is surfaced through the metrics registry.

Every stage reports through one structured-telemetry path: the service
owns an always-on :class:`~repro.telemetry.Tracer` whose
:class:`~repro.telemetry.MetricsSink` feeds the
:class:`~repro.service.metrics.MetricsRegistry` (ingest/apply/query
latency histograms, per-shard counters) from the very spans a
:class:`~repro.telemetry.ForwardSink` mirrors into the global tracer
whenever pipeline tracing is enabled — so ``serve-bench`` metric totals
and ``trace-bench`` span counts agree by construction.  Queue-depth
gauges (not span-shaped) stay direct.
"""

from __future__ import annotations

import atexit
import logging
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import CacheConfig
from repro.kernels import validate_kernel
from repro.memsight.costs import OBS_BYTES
from repro.memsight.pressure import PressureConfig, PressureMonitor
from repro.memsight.report import MemoryReport
from repro.memsight.rss import peak_rss_bytes, process_rss_bytes
from repro.octree.key import VoxelKey
from repro.octree.occupancy import OccupancyParams
from repro.octree.rayquery import RayHit
from repro.octree.serialize import leaf_count
from repro.octree.tree import OccupancyOctree
from repro.resilience.faults import FaultPlan, InjectedCrash
from repro.resilience.policy import Deadline, DeadlineExceeded, RetryPolicy
from repro.resilience.recovery import CheckpointStore, ShardHealth
from repro.sensor.pointcloud import PointCloud
from repro.sensor.scaninsert import (
    Observation,
    ScanBatch,
    trace_scan,
    trace_scan_rt,
)
from repro.service.metrics import MetricsRegistry
from repro.service.sharded_map import ShardedMap
from repro.service.sharding import ShardRouter
from repro.telemetry import ForwardSink, MetricsSink, Tracer, get_tracer
from repro.telemetry.tracer import current_span_info

__all__ = [
    "BackpressureError",
    "IngestLane",
    "IngestReceipt",
    "OccupancyMapService",
    "QueryResult",
    "ServiceConfig",
]

_BACKPRESSURE_POLICIES = ("block", "reject")

_WORKER_BACKENDS = ("thread", "process")

#: Backoff-jitter RNG seed; each shard adds its id, so retries replay
#: identically and shards do not back off in lockstep.
_RETRY_JITTER_SEED = 0

#: Lifecycle events (crashes, recoveries, deaths) go through here; silent
#: until a handler is attached — ``repro.obs.configure_json_logging()``
#: renders them as span-correlated JSON lines (docs/observability.md).
_LOG = logging.getLogger("repro.service")


def _ambient_context() -> Tuple[int, float]:
    """``(request_span_id, submitted_at)`` for a submission that carries
    none: the caller's ambient span (0 = anonymous), stamped now."""
    info = current_span_info()
    return (info[0] if info else 0, time.perf_counter())


class BackpressureError(RuntimeError):
    """Raised when a submission that must succeed was rejected.

    Only ``submit(..., must_accept=True)`` raises this, and it is
    all-or-nothing: when it raises, *no* slice of the submission was
    enqueued and the map is untouched.
    """


@dataclass(frozen=True)
class ServiceConfig:
    """Shape and policy of the occupancy-map service.

    Attributes:
        resolution: finest voxel edge length (metres).
        depth: octree depth.
        num_shards: spatial shard count (worker thread per shard).
        queue_capacity: bound on each shard's ingest queue (sub-batches);
            enforced by per-shard slot reservation at submit time.
        backpressure: ``"block"`` or ``"reject"`` (see module docstring).
        coalesce: max queued sub-batches merged into one apply cycle;
            1 disables coalescing.
        max_range: sensor range clamp during ray tracing.
        rt: duplicate-free (OctoMap-RT) ray tracing.
        kernel: ``"scalar"`` or ``"vector"`` — the tracing/apply kernel
            for ingest tracing and every shard pipeline (see
            ``docs/kernels.md``; both kernels build bit-identical maps,
            the vector one batches each scan through numpy array
            passes).
        cache_config: per-shard cache shape (defaults per shard).
        default_deadline: default per-request deadline (seconds) applied
            to every submission that doesn't carry its own; ``None``
            (default) waits indefinitely under ``block`` backpressure.
        retry_attempts: total apply attempts per batch (1 = no retry).
        retry_base_delay / retry_max_delay: jittered exponential backoff
            shape between apply attempts.
        snapshot_interval: applied slices (however coalesced) between
            shard checkpoints; 0 disables checkpointing (recovery then
            replays the whole journal).
        max_recoveries: rebuilds a shard may undergo before it is
            declared ``dead`` and starts discarding its traffic.
        checkpoint_dir: when set, shard snapshots are also persisted as
            ``<dir>/shard-<id>.oct`` files.
        workers: ``"thread"`` (default — shard pipelines live in this
            process, workers contend on the GIL) or ``"process"`` —
            shard pipelines live in child processes behind
            :class:`~repro.mp.backend.ProcessShardedMap`, so shard
            compute runs on real cores.  Queueing, backpressure,
            journaling, and recovery semantics are identical.
        num_procs: worker process count for ``workers="process"``
            (default: one per shard); shards are assigned round-robin.
        pressure: the footprint watermarks, total and per tenant, as a
            :class:`~repro.memsight.pressure.PressureConfig` (accounted
            bytes, see ``docs/memory.md``); none set by default.
    """

    resolution: float
    depth: int = 12
    num_shards: int = 4
    queue_capacity: int = 8
    backpressure: str = "block"
    coalesce: int = 4
    max_range: float = float("inf")
    rt: bool = False
    kernel: str = "scalar"
    cache_config: Optional[CacheConfig] = None
    default_deadline: Optional[float] = None
    retry_attempts: int = 3
    retry_base_delay: float = 0.002
    retry_max_delay: float = 0.1
    snapshot_interval: int = 16
    max_recoveries: int = 3
    checkpoint_dir: Optional[str] = None
    workers: str = "thread"
    num_procs: Optional[int] = None
    pressure: PressureConfig = PressureConfig()

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.backpressure not in _BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure must be one of {_BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.coalesce < 1:
            raise ValueError(f"coalesce must be >= 1, got {self.coalesce}")
        validate_kernel(self.kernel)
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError(
                f"default_deadline must be positive, got {self.default_deadline}"
            )
        if self.retry_attempts < 1:
            raise ValueError(
                f"retry_attempts must be >= 1, got {self.retry_attempts}"
            )
        if self.retry_base_delay < 0 or self.retry_max_delay < 0:
            raise ValueError("retry delays must be >= 0")
        if self.snapshot_interval < 0:
            raise ValueError(
                f"snapshot_interval must be >= 0, got {self.snapshot_interval}"
            )
        if self.max_recoveries < 0:
            raise ValueError(
                f"max_recoveries must be >= 0, got {self.max_recoveries}"
            )
        if self.workers not in _WORKER_BACKENDS:
            raise ValueError(
                f"workers must be one of {_WORKER_BACKENDS}, "
                f"got {self.workers!r}"
            )
        if self.num_procs is not None:
            if self.workers != "process":
                raise ValueError(
                    "num_procs only applies to workers='process'"
                )
            if not 1 <= self.num_procs <= self.num_shards:
                raise ValueError(
                    f"num_procs must be in [1, num_shards="
                    f"{self.num_shards}], got {self.num_procs}"
                )


@dataclass(frozen=True)
class IngestReceipt:
    """What happened to one submitted scan.

    Attributes:
        observations: voxel observations the scan traced to.
        enqueued: observations accepted onto shard queues.
        rejected: observations dropped by the ``reject`` policy (or
            routed to a dead shard).
        trace_seconds: ray-tracing time (the critical-path stage).
    """

    observations: int
    enqueued: int
    rejected: int
    trace_seconds: float = 0.0

    @property
    def accepted(self) -> bool:
        return self.rejected == 0


@dataclass(frozen=True)
class QueryResult:
    """A point query answer plus the serving shard's health.

    ``stale`` is set while the owning shard is recovering (the old map
    keeps serving self-consistent but possibly out-of-date answers) or
    dead (the map stopped advancing entirely).
    """

    value: Optional[float]
    occupied: Optional[bool]
    shard: int
    health: str

    @property
    def stale(self) -> bool:
        return self.health != ShardHealth.HEALTHY.value


def _no_hook(*_args) -> None:
    """The default lane hook: nothing to release, nothing to account."""


@dataclass(eq=False)
class IngestLane:
    """One map's seat on the ingest plane: what a shard worker needs to
    know about a queued slice besides its batch.  Lanes differ
    only in this data, never in the code that serves them.

    Attributes:
        slot: the ``(shard, tenant)`` pipeline slot the lane applies to.
        name: label carried on the lane's spans (empty for lane 0).
        router: places the lane's voxels on shards.
        store: where the lane's slices are journaled and checkpointed.
        on_dequeue: ``(lane, shard_id, slices)``, called as a turn leaves
            the queue — frees capacity that bounds *queued* work.
        on_done: ``(lane, shard_id, batch, slices, applied)``,
            called once per turn after the apply (or its failure) and
            before ``flush`` is released — the lane's own accounting.
        outstanding: enqueued-but-unfinished slices (guarded by the
            service's flush condition variable); what ``flush(lane)``
            waits on and what a tenant's queue-slot quota bounds.
    """

    slot: int
    name: str
    router: ShardRouter
    store: CheckpointStore
    on_dequeue: Callable[..., None] = _no_hook
    on_done: Callable[..., None] = _no_hook
    outstanding: int = 0

    def __post_init__(self) -> None:
        self.span_attrs = {"tenant": self.name} if self.name else {}
        #: Per-shard slices applied since the lane's last checkpoint there.
        self.applied_since_snapshot = [0] * self.router.num_shards


class _ShardQueue:
    """One shard's ingest queue: a FIFO per lane plus the ring of lanes
    that have slices queued.

    The shard worker (the only consumer) takes a *turn*: up to ``limit``
    slices of the lane at the head of the ring, which rejoins the tail if
    it still has slices.  A backlogged lane therefore delays another by
    one turn per round; with a single lane the ring is a plain FIFO.
    """

    def __init__(self) -> None:
        self._cv = threading.Condition()
        self._slices: Dict[IngestLane, Deque[tuple]] = {}
        self._ring: Deque[IngestLane] = deque()
        self._size = 0
        self._stopped = False
        #: Observations queued right now — the O(1) counter behind the
        #: ``queues`` memory component (:meth:`items` is the recount).
        self.observations = 0

    def put(self, lane: IngestLane, item: tuple) -> None:
        with self._cv:
            queued = self._slices.get(lane)
            if queued is None:
                queued = self._slices[lane] = deque()
                self._ring.append(lane)
            queued.append(item)
            self._size += 1
            self.observations += len(item[0])
            self._cv.notify()

    def take(self, limit: int) -> Optional[Tuple[IngestLane, List[tuple]]]:
        """Block for the next turn; ``None`` once stopped *and* drained."""
        with self._cv:
            while not self._ring:
                if self._stopped:
                    return None
                self._cv.wait()
            lane = self._ring.popleft()
            queued = self._slices[lane]
            items = [queued.popleft() for _ in range(min(limit, len(queued)))]
            if queued:
                self._ring.append(lane)
            else:
                del self._slices[lane]
            self._size -= len(items)
            self.observations -= sum(len(item[0]) for item in items)
            return lane, items

    def stop(self) -> None:
        """Let the worker exit once every lane's slices are served."""
        with self._cv:
            self._stopped = True
            self._cv.notify_all()

    def qsize(self) -> int:
        return self._size

    def items(self) -> List[tuple]:
        with self._cv:
            return [item for queued in self._slices.values() for item in queued]


class OccupancyMapService:
    """A sharded, concurrent, crash-resilient occupancy-map server.

    Typical use::

        with OccupancyMapService(ServiceConfig(resolution=0.2)) as service:
            service.submit(points, origin=(0, 0, 0))   # producers
            service.is_occupied((1.0, 0.0, 0.5))       # consumers
            service.flush()                            # barrier
            print(service.stats_report())

    Args:
        config: service shape and policy.
        fault_plan: deterministic fault injection for chaos testing
            (inert empty plan by default — safe in production).
    """

    def __init__(
        self, config: ServiceConfig, fault_plan: Optional[FaultPlan] = None
    ) -> None:
        self.config = config
        self.fault_plan = fault_plan or FaultPlan()
        self.metrics = MetricsRegistry()
        #: Wall-clock start (``/healthz`` uptime) and the lazily built
        #: SLO engine (see :meth:`slo_engine`).
        self.started_at = time.time()
        self._slo = None
        self._slo_lock = threading.Lock()
        # The service's own always-on tracer: metrics work without global
        # tracing, and the ForwardSink mirrors the same spans/counts into
        # the global tracer's sinks whenever someone enables it.
        self.tracer = Tracer(
            sinks=[MetricsSink(self.metrics), ForwardSink(get_tracer())]
        )
        if config.workers == "process":
            # Imported lazily: the thread backend must not pay for (or
            # depend on) the multiprocessing machinery.
            from repro.mp.backend import ProcessShardedMap

            self.map = ProcessShardedMap(
                resolution=config.resolution,
                depth=config.depth,
                num_shards=config.num_shards,
                max_range=config.max_range,
                cache_config=config.cache_config,
                rt=config.rt,
                kernel=config.kernel,
                num_procs=config.num_procs,
            )
        else:
            self.map = ShardedMap(
                resolution=config.resolution,
                depth=config.depth,
                num_shards=config.num_shards,
                max_range=config.max_range,
                cache_config=config.cache_config,
                rt=config.rt,
                kernel=config.kernel,
            )
        self.map.fault_plan = self.fault_plan
        self.store = CheckpointStore(
            config.num_shards,
            directory=config.checkpoint_dir,
            fault_plan=self.fault_plan,
        )
        # The process transport's seams (inert on the thread backend):
        # child-process spans/counters relay into the service tracer
        # (registry + forward sinks), and a process that died taking
        # sibling shards with it lazily restores them from the store.
        self.map.relay_tracer = self.tracer
        self.map.recovery_source = self._recovery_state
        #: The mounted :class:`~repro.tenancy.registry.TenantRegistry`
        #: (it installs itself here and clears this on ``close()``).
        self.tenant_registry = None
        self._queues: List[_ShardQueue] = [
            _ShardQueue() for _ in range(config.num_shards)
        ]
        # One slot per queueable sub-batch; reserved at submit time,
        # released at dequeue.  Reserving before enqueueing is what makes
        # must_accept submissions all-or-nothing.
        self._slots: List[threading.Semaphore] = [
            threading.Semaphore(config.queue_capacity)
            for _ in range(config.num_shards)
        ]
        #: Lane 0, the default map; its queue capacity is ``_slots``.
        self.default_lane = IngestLane(
            0, "", self.map.router, self.store, on_dequeue=self._free_slots
        )
        #: Every lane served, by slot (tenants add theirs): what recovery
        #: rebuilds on a shard and ``map.recovery_source`` resolves.
        self.lanes: Dict[int, IngestLane] = {0: self.default_lane}
        self._outstanding_cv = threading.Condition()
        self._outstanding = 0
        #: Watermark evaluation over the accounted footprint; advisory
        #: (gauge + log + hook), refreshed by scrapes and benches.
        self.pressure = PressureMonitor(config.pressure, metrics=self.metrics)
        self._errors: List[BaseException] = []
        self._close_lock = threading.RLock()
        self._closed = False
        self._health: List[ShardHealth] = [
            ShardHealth.HEALTHY for _ in range(config.num_shards)
        ]
        self._recoveries = [0] * config.num_shards
        self._retry: List[RetryPolicy] = [
            RetryPolicy(
                max_attempts=config.retry_attempts,
                base_delay=config.retry_base_delay,
                max_delay=config.retry_max_delay,
                seed=_RETRY_JITTER_SEED + shard_id,
            )
            for shard_id in range(config.num_shards)
        ]
        for shard_id in range(config.num_shards):
            self.metrics.state(
                f"shard_health.shard{shard_id}",
                initial=ShardHealth.HEALTHY.value,
            )
        self._workers: List[threading.Thread] = [
            self._make_worker(shard_id)
            for shard_id in range(config.num_shards)
        ]
        for worker in self._workers:
            worker.start()
        # Last: close this service at interpreter exit if the owner never
        # did.  Registering *after* multiprocessing has initialised (the
        # process backend spawned its workers above) means atexit's LIFO
        # order runs our handler before multiprocessing's own teardown —
        # a clean drain/flush instead of racing dying daemon children.
        atexit.register(self._close_at_exit)

    def _make_worker(
        self,
        shard_id: int,
        generation: int = 0,
        recover_from: Optional[BaseException] = None,
    ) -> threading.Thread:
        suffix = f"-r{generation}" if generation else ""
        return threading.Thread(
            target=self._worker_main,
            args=(shard_id,),
            kwargs={"recover_from": recover_from},
            name=f"octocache-shard-{shard_id}{suffix}",
            daemon=True,
        )

    # ------------------------------------------------------------------
    # Ingestion path (producers).
    # ------------------------------------------------------------------

    def submit(
        self,
        points,
        origin: Tuple[float, float, float] = (0.0, 0.0, 0.0),
        must_accept: bool = False,
        deadline: Union[None, float, Deadline] = None,
    ) -> IngestReceipt:
        """Trace one scan and enqueue its per-shard slices.

        Tracing runs on the caller's thread (it is the latency-critical
        stage and needs no shard lock); the octree-bound work is deferred
        to the shard workers.  Under ``reject`` backpressure a full shard
        queue drops that shard's slice and the receipt reports it —
        unless ``must_accept`` is set, in which case the submission is
        all-or-nothing: a :class:`BackpressureError` guarantees nothing
        was enqueued.  ``deadline`` (seconds, or a
        :class:`~repro.resilience.Deadline`) bounds how long a blocked
        submission may wait for queue space.

        The whole call runs under an ``ingest.request`` root span whose
        id and start stamp ride every enqueued slice, so the downstream
        queue-wait / apply / end-to-end spans all parent to the request
        that produced them (the latency waterfall).
        """
        self._check_open()
        self._raise_worker_errors()
        if isinstance(points, PointCloud):
            cloud = points
        else:
            cloud = PointCloud(points, origin)
        trace_fn = trace_scan_rt if self.config.rt else trace_scan
        with self.tracer.span(
            "ingest.request", category="service", points=len(cloud.points)
        ) as request_span:
            with self.tracer.span(
                "ingest.trace", category="service", points=len(cloud.points)
            ) as span:
                batch = trace_fn(
                    cloud,
                    self.config.resolution,
                    self.config.depth,
                    max_range=self.config.max_range,
                    kernel=self.config.kernel,
                )
                span.set(observations=len(batch))
            trace_seconds = span.duration
            receipt = self.submit_observations(
                batch,
                trace_seconds=trace_seconds,
                must_accept=must_accept,
                deadline=deadline,
                request_context=(request_span.span_id, request_span.start),
            )
        self.tracer.count("ingest.scans", category="service")
        return receipt

    def submit_observations(
        self,
        observations: Union[ScanBatch, Sequence[Observation]],
        trace_seconds: float = 0.0,
        must_accept: bool = False,
        deadline: Union[None, float, Deadline] = None,
        request_context: Optional[Tuple[int, float]] = None,
    ) -> IngestReceipt:
        """Enqueue pre-traced observations (the post-trace half of submit).

        Capacity is reserved on **every** target shard before anything is
        enqueued.  For ``must_accept`` submissions this makes rejection
        atomic: if any shard has no room (or the deadline expires, or a
        slice routes to a dead shard), every reservation is rolled back,
        nothing is enqueued, and the map state is untouched.

        ``request_context`` is ``(request_span_id, submitted_at)`` — the
        client-submit stamp that flows with every enqueued slice so the
        shard workers can attribute queue-wait and end-to-end latency
        back to the request.  Defaults to the caller's ambient span (or
        an anonymous stamp taken now).
        """
        self._check_open()
        batch = ScanBatch.coerce(observations)
        if request_context is None:
            request_context = _ambient_context()
        if not isinstance(deadline, Deadline):
            timeout = (
                deadline if deadline is not None
                else self.config.default_deadline
            )
            deadline = Deadline(timeout)
        self.tracer.count("ingest.requests", category="service")
        enqueued = 0
        rejected = 0
        with self.tracer.span(
            "ingest.enqueue", category="service", observations=len(batch)
        ) as span:
            targets, failed = self.route(self.default_lane, batch)
            # Phase 1: reserve a queue slot on every live target shard.
            reserved: List[Tuple[int, ScanBatch]] = []
            try:
                for shard_id, part in targets:
                    if self._reserve_slot(shard_id, deadline):
                        reserved.append((shard_id, part))
                    else:
                        failed.append((shard_id, part))
                        if must_accept:
                            break  # all-or-nothing: stop reserving
            except BaseException as error:
                for shard_id, _part in reserved:
                    self._slots[shard_id].release()
                if isinstance(error, DeadlineExceeded):
                    self.tracer.count(
                        "ingest.deadline_exceeded", category="service"
                    )
                raise
            if failed and must_accept:
                # Roll back: not a single slice reaches a queue.
                for shard_id, _part in reserved:
                    self._slots[shard_id].release()
                rejected = sum(len(part) for _sid, part in failed)
                rejected += sum(len(part) for _sid, part in reserved)
                span.set(enqueued=0, rejected=rejected)
                self._count_rejected(len(batch), rejected)
                raise BackpressureError(
                    f"{rejected} observation(s) could not be accepted "
                    f"atomically ({len(failed)} shard slice(s) rejected); "
                    f"nothing was enqueued"
                )
            # Phase 2: enqueue the reserved slices (queues are unbounded;
            # the reservation *is* the capacity check, so this cannot fail).
            self.enqueue_slices(self.default_lane, reserved, request_context)
            enqueued = sum(len(part) for _sid, part in reserved)
            rejected = sum(len(part) for _sid, part in failed)
            span.set(enqueued=enqueued, rejected=rejected)
        self._count_rejected(len(batch), rejected)
        return IngestReceipt(
            observations=len(batch),
            enqueued=enqueued,
            rejected=rejected,
            trace_seconds=trace_seconds,
        )

    def route(self, lane: IngestLane, batch: ScanBatch) -> Tuple[list, list]:
        """Partition a submission by the lane's router into ``(targets,
        refused)`` lists of non-empty ``(shard_id, part)``.  A slice is
        refused when its shard is dead or the ``queue.enqueue`` fault
        site drops it — decided *before* the lane reserves capacity, so
        a refusal needs no rollback."""
        targets, refused = [], []
        for shard_id, part in enumerate(lane.router.partition(batch)):
            if not part:
                continue
            if self._health[shard_id] is ShardHealth.DEAD:
                self.tracer.count(
                    "ingest.dead_shard_observations",
                    len(part),
                    category="service",
                )
                refused.append((shard_id, part))
            elif self.fault_plan.check("queue.enqueue", shard=shard_id) == "drop":
                refused.append((shard_id, part))
            else:
                targets.append((shard_id, part))
        return targets, refused

    def _count_rejected(self, observations: int, rejected: int) -> None:
        self.tracer.count(
            "ingest.observations", observations, category="service"
        )
        if rejected:
            self.tracer.count(
                "ingest.rejected_observations", rejected, category="service"
            )
            self.tracer.count("ingest.rejected_batches", category="service")

    def _free_slots(self, _lane: IngestLane, shard_id: int, slices: int) -> None:
        self._slots[shard_id].release(slices)

    def _reserve_slot(self, shard_id: int, deadline: Deadline) -> bool:
        """Claim one queue slot; False means the slice is rejected."""
        slot = self._slots[shard_id]
        if self.config.backpressure == "reject":
            return slot.acquire(blocking=False)
        remaining = deadline.remaining()
        if remaining is None:
            slot.acquire()
            return True
        if not slot.acquire(timeout=remaining):
            raise DeadlineExceeded(
                f"deadline exceeded waiting for queue space on shard {shard_id}"
            )
        return True

    def enqueue_slices(
        self,
        lane: IngestLane,
        slices: Sequence[Tuple[int, ScanBatch]],
        request_context: Optional[Tuple[int, float]] = None,
        limit: Optional[int] = None,
    ) -> bool:
        """Queue the admitted ``(shard_id, part)`` slices of one lane's
        submission, all of them or (``False``) none.

        ``limit`` bounds the lane's enqueued-but-unfinished slices (a
        tenant's queue-slot quota; lane 0 reserved a slot per slice
        instead).  Items carry their enqueue timestamp plus the request
        context (span id + client-submit stamp) so the worker can parent
        the slice's queue-wait and end-to-end spans to its request.
        """
        if request_context is None:
            request_context = _ambient_context()
        with self._outstanding_cv:
            if limit is not None and lane.outstanding + len(slices) > limit:
                return False
            self._outstanding += len(slices)
            lane.outstanding += len(slices)
        for shard_id, part in slices:
            self._queues[shard_id].put(
                lane, (part, time.perf_counter(), request_context)
            )
            self.metrics.gauge(f"queue_depth.shard{shard_id}").set(
                self._queues[shard_id].qsize()
            )
        return True

    def _recovery_state(self, shard_id: int, tenant: int = 0):
        """``map.recovery_source``: the checkpoint + journal tail that
        rebuilds one lane's slot on a shard (nothing for an unknown slot)."""
        lane = self.lanes.get(tenant)
        if lane is None:
            return None, []
        return lane.store.recovery_state(shard_id)

    # ------------------------------------------------------------------
    # Shard workers.
    # ------------------------------------------------------------------

    def _worker_main(
        self, shard_id: int, recover_from: Optional[BaseException] = None
    ) -> None:
        if recover_from is not None:
            try:
                self._recover_shard(shard_id, recover_from)
            except BaseException as error:  # rebuild itself failed
                self._park_error(error)
                self._set_health(shard_id, ShardHealth.DEAD)
        try:
            self._worker_loop(shard_id)
        except InjectedCrash as error:
            # The worker thread dies with its shard; a replacement thread
            # rebuilds the shard from snapshot + journal, then takes over
            # the queue.
            self.tracer.count("shard.worker_restarts", category="service")
            _LOG.warning(
                "shard worker crashed; starting replacement",
                extra={"shard": shard_id, "cause": repr(error)},
            )
            replacement = self._make_worker(
                shard_id,
                generation=self._recoveries[shard_id] + 1,
                recover_from=error,
            )
            self._workers[shard_id] = replacement
            replacement.start()

    def _park_error(self, error: BaseException) -> None:
        """Keep a worker-side failure for ``flush``/``close`` to raise,
        and wake whoever is waiting there."""
        with self._outstanding_cv:
            self._errors.append(error)
            self._outstanding_cv.notify_all()

    def _worker_loop(self, shard_id: int) -> None:
        shard_queue = self._queues[shard_id]
        depth_gauge = self.metrics.gauge(f"queue_depth.shard{shard_id}")
        freshness_gauge = self.metrics.gauge("ingest.freshness_lag")
        while True:
            # One turn: what the next lane in the ring already has
            # queued, up to the coalesce limit — one lock acquisition and
            # eviction scan per several sub-batches, one slot, one journal.
            turn = shard_queue.take(self.config.coalesce)
            if turn is None:
                return
            lane, parts = turn
            # Dequeued sub-batches free their reserved slots immediately:
            # queue_capacity bounds *queued* work, not in-flight work.
            lane.on_dequeue(lane, shard_id, len(parts))
            depth_gauge.set(shard_queue.qsize())
            dequeued_at = time.perf_counter()
            for part, enqueued_at, (request_id, _submitted_at) in parts:
                self.tracer.record_span(
                    "shard.queue_wait",
                    "service",
                    start=enqueued_at,
                    duration=max(0.0, dequeued_at - enqueued_at),
                    parent_id=request_id or None,
                    shard=shard_id,
                    observations=len(part),
                    **lane.span_attrs,
                )
            batch = ScanBatch.concat([part for part, _ts, _ctx in parts])
            applied = False
            try:
                if self._health[shard_id] is ShardHealth.DEAD:
                    self.tracer.count(
                        "shard.discarded_batches", category="service"
                    )
                    continue
                # Journal before applying: a crash mid-apply rebuilds
                # from the journal, so accepted work is never lost.
                lane.store.append(shard_id, batch)
                with self.tracer.span(
                    "shard.apply",
                    category="service",
                    shard=shard_id,
                    parts=len(parts),
                    observations=len(batch),
                    **lane.span_attrs,
                ):
                    self._apply_with_retry(shard_id, batch, lane)
                applied = True
                self.tracer.count("shard.batches_applied", category="service")
                # The batch is visible to queries now: close each slice's
                # end-to-end latency (client submit -> applied) and its
                # ingest-freshness lag (accepted -> applied), both
                # parented to the originating request span.
                applied_at = time.perf_counter()
                for part, enqueued_at, (request_id, submitted_at) in parts:
                    self.tracer.record_span(
                        "ingest.e2e",
                        "service",
                        start=submitted_at,
                        duration=max(0.0, applied_at - submitted_at),
                        parent_id=request_id or None,
                        shard=shard_id,
                        observations=len(part),
                        **lane.span_attrs,
                    )
                    self.tracer.record_span(
                        "ingest.freshness",
                        "service",
                        start=enqueued_at,
                        duration=max(0.0, applied_at - enqueued_at),
                        parent_id=request_id or None,
                        shard=shard_id,
                        **lane.span_attrs,
                    )
                    freshness_gauge.set(max(0.0, applied_at - submitted_at))
                if len(parts) > 1:
                    self.tracer.count(
                        "shard.batches_coalesced",
                        len(parts) - 1,
                        category="service",
                    )
                # Slices, not turns: what a turn coalesces is timing, and
                # the checkpoint cadence must not depend on it.
                lane.applied_since_snapshot[shard_id] += len(parts)
                interval = self.config.snapshot_interval
                if interval and lane.applied_since_snapshot[shard_id] >= interval:
                    self.checkpoint(shard_id, lane)
            except InjectedCrash:
                # Flag the shard *before* outstanding work is released so
                # flush() keeps waiting until the rebuilt shard is
                # swapped in; then let the crash kill this worker.  In
                # process mode the crash is made *real*: the shard's
                # worker process is SIGKILLed, so recovery rebuilds an
                # actually-empty process, not a pretend-crashed one.
                self._set_health(shard_id, ShardHealth.RECOVERING)
                self._kill_worker_process(shard_id)
                raise
            except BaseException as error:
                # Repair the shard in place (the failed batch is journaled,
                # so the rebuild re-applies it), *then* surface the error:
                # parking it wakes flush(), which must not raise while the
                # shard is still mid-recovery.
                try:
                    self._recover_shard(shard_id, error)
                except BaseException as rebuild_error:
                    self._park_error(error)
                    self._park_error(rebuild_error)
                    self._set_health(shard_id, ShardHealth.DEAD)
                else:
                    self._park_error(error)
            finally:
                # The lane's books first: a flush that returns sees them.
                try:
                    lane.on_done(lane, shard_id, batch, len(parts), applied)
                except Exception as error:
                    self._park_error(error)
                with self._outstanding_cv:
                    self._outstanding -= len(parts)
                    lane.outstanding -= len(parts)
                    self._outstanding_cv.notify_all()

    def _apply_with_retry(
        self, shard_id: int, batch: ScanBatch, lane: IngestLane
    ) -> None:
        """Apply one batch to its lane's slot, retrying with backoff.

        :class:`InjectedCrash` is never retried — it models a fatal
        worker failure and escalates straight to recovery.
        """
        policy = self._retry[shard_id]
        attempt = 0
        while True:
            try:
                if (
                    self.fault_plan.check("shard.apply", shard=shard_id)
                    == "drop"
                ):
                    self.tracer.count(
                        "shard.dropped_batches", category="service"
                    )
                    return
                self.map.apply_to_shard(shard_id, batch, tenant=lane.slot)
                return
            except InjectedCrash:
                raise
            except BaseException:
                attempt += 1
                if attempt >= policy.max_attempts:
                    raise
                self.tracer.count("shard.retries", category="service")
                policy.sleep(attempt - 1)

    def _kill_worker_process(self, shard_id: int) -> None:
        """SIGKILL a shard's worker process, if the backend has one.

        No-op for the thread backend and for a process that already
        died (a real death *is* the crash being handled).
        """
        try:
            self.map.kill_shard_process(shard_id)
        except Exception:  # pragma: no cover - racing a dying process
            pass

    def checkpoint(self, shard_id: int, lane: IngestLane) -> bool:
        """Snapshot one lane's authoritative tree on a shard at a journal
        boundary; ``False`` when the snapshot could not be written.

        Call it where nothing is appending to the lane's journal on
        this shard — the shard's worker thread between turns, or after
        ``flush(lane)`` — so ``journal_length`` equals the entries already
        applied and the snapshot is a precise prefix of the history.  The
        map backend exports serialize-v2 bytes (in the worker process,
        for the process backend), stored verbatim.
        """
        upto = lane.store.journal_length(shard_id)
        try:
            # Export + serialise (the expensive part) + store: all inside.
            with self.tracer.span(
                "shard.snapshot",
                category="service",
                shard=shard_id,
                **lane.span_attrs,
            ) as span:
                blob = self.map.shard_snapshot_blob(shard_id, tenant=lane.slot)
                span.set(voxels=leaf_count(blob), bytes=len(blob))
                lane.store.write_snapshot_blob(shard_id, blob, upto)
        except InjectedCrash:
            raise
        except BaseException as error:
            # A failed checkpoint is not fatal: the previous snapshot
            # stays valid and the journal keeps growing, so recovery just
            # replays a longer tail.
            self.tracer.count("shard.snapshot_failures", category="service")
            _LOG.warning(
                "shard checkpoint failed; journal keeps growing",
                extra={"shard": shard_id, "cause": repr(error)},
            )
            return False
        lane.applied_since_snapshot[shard_id] = 0
        self.tracer.count("shard.snapshots", category="service")
        return True

    def restore_lane(self, shard_id: int, lane: IngestLane) -> Tuple[bool, int]:
        """Rebuild one lane's slot on a shard exactly: latest checkpoint
        plus the journal tail it does not cover.

        Returns ``(from_snapshot, replayed)``.  A lane with nothing
        durable there is left alone: no empty slot is created.
        """
        checkpoint, tail = lane.store.recovery_state(shard_id)
        if checkpoint is not None or tail:
            self.map.restore_shard(
                shard_id, checkpoint, tail, tenant=lane.slot
            )
            lane.applied_since_snapshot[shard_id] = 0
        return checkpoint is not None, len(tail)

    def _recover_shard(self, shard_id: int, cause: BaseException) -> None:
        """Rebuild every lane's slot on one shard: snapshot + journal replay.

        The rebuild runs off-lock — the old pipeline keeps serving
        (stale) queries — and the finished replacement is swapped in
        atomically under the shard lock.  A shard that exceeds its
        recovery budget is declared dead instead.
        """
        self._set_health(shard_id, ShardHealth.RECOVERING)
        self._recoveries[shard_id] += 1
        self.tracer.count("shard.recoveries", category="service")
        if self._recoveries[shard_id] > self.config.max_recoveries:
            self.tracer.count("shard.deaths", category="service")
            _LOG.error(
                "shard exhausted its recovery budget; declaring it dead",
                extra={
                    "shard": shard_id,
                    "recoveries": self._recoveries[shard_id],
                    "max_recoveries": self.config.max_recoveries,
                },
            )
            self._set_health(shard_id, ShardHealth.DEAD)
            return
        with self.tracer.span(
            "shard.recover", category="service", shard=shard_id
        ) as span:
            restored = [
                self.restore_lane(shard_id, lane)
                for lane in list(self.lanes.values())
            ]
            outcome = {
                "replayed": sum(replayed for _snap, replayed in restored),
                "from_snapshot": any(snap for snap, _replayed in restored),
                "cause": type(cause).__name__,
            }
            span.set(**outcome)
            _LOG.info(
                "shard rebuilt exactly from checkpoint + journal replay",
                extra={"shard": shard_id, **outcome},
            )
        self._set_health(shard_id, ShardHealth.HEALTHY)

    def _set_health(self, shard_id: int, health: ShardHealth) -> None:
        with self._outstanding_cv:
            self._health[shard_id] = health
            self._outstanding_cv.notify_all()
        self.metrics.state(f"shard_health.shard{shard_id}").set(health.value)

    def shard_health(self, shard_id: int) -> ShardHealth:
        """Current health of one shard."""
        return self._health[shard_id]

    def _raise_worker_errors(self) -> None:
        with self._outstanding_cv:
            if not self._errors:
                return
            errors, self._errors = self._errors, []
        raise RuntimeError(
            f"{len(errors)} shard worker error(s); first: {errors[0]!r}"
        ) from errors[0]

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (the liveness signal)."""
        return self._closed

    def ready(self) -> bool:
        """True while every shard is ``healthy`` (the readiness signal).

        A recovering shard serves stale answers and a dead shard frozen
        ones, so a load balancer should stop routing here until recovery
        completes — this is what ``/readyz`` (:mod:`repro.obs.admin`)
        reports.
        """
        return all(
            health is ShardHealth.HEALTHY for health in self._health
        )

    def queue_depths(self) -> Dict[str, int]:
        """Current per-shard ingest queue depths (``shard<i> -> items``).

        The instantaneous backlog a scan accepted *now* would wait
        behind — the readiness detail ``/readyz`` reports next to shard
        health.
        """
        return {
            f"shard{shard_id}": shard_queue.qsize()
            for shard_id, shard_queue in enumerate(self._queues)
        }

    @property
    def uptime_seconds(self) -> float:
        """Wall-clock seconds since the service was constructed."""
        return max(0.0, time.time() - self.started_at)

    def slo_engine(self, objectives=None):
        """This service's SLO engine (built lazily, one per service).

        Evaluates the default ingest objectives (or ``objectives``, a
        sequence of :class:`repro.obs.slo.SLObjective`, on first call)
        against the service's own metrics registry.  The admin
        endpoint's ``/slo`` route and the load-bench knee detector both
        read through here, so they always agree.
        """
        from repro.obs.slo import SLOEngine, default_objectives

        with self._slo_lock:
            if self._slo is None:
                self._slo = SLOEngine(
                    self.metrics,
                    objectives
                    if objectives is not None
                    else default_objectives(),
                )
            return self._slo

    # ------------------------------------------------------------------
    # Barriers and shutdown.
    # ------------------------------------------------------------------

    def flush(self, lane: Optional[IngestLane] = None) -> None:
        """Block until every enqueued sub-batch — of every lane, hosted
        tenants included, or of ``lane`` alone — has been applied and no
        shard is mid-recovery.

        Raises if any shard worker failed (the failed work is journaled
        and re-applied by recovery, so the error report never implies
        data loss — and the wait never hangs).
        """
        with self._outstanding_cv:
            while not self._errors and (
                (self._outstanding if lane is None else lane.outstanding) > 0
                or any(
                    health is ShardHealth.RECOVERING
                    for health in self._health
                )
            ):
                self._outstanding_cv.wait()
        self._raise_worker_errors()

    def close(self) -> None:
        """Drain every lane's queued slices, stop workers, release the
        map backend.

        Idempotent, concurrency-safe, and teardown-safe: the winner of
        the close race does the work, every other caller returns
        immediately, and the version atexit runs (when the owner never
        closed) survives interpreter teardown — stopping the queues is
        wrapped so a torn-down queue cannot wedge the handler before the
        worker processes are reaped.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        atexit.unregister(self._close_at_exit)
        for shard_queue in self._queues:
            try:
                shard_queue.stop()
            except BaseException:  # pragma: no cover - teardown only
                pass
        # A crashing worker hands its queue to a replacement thread, so
        # join until the roster is stable.
        while True:
            current = list(self._workers)
            for worker in current:
                worker.join()
            if list(self._workers) == current:
                break
        self.map.close()
        self._raise_worker_errors()

    def _close_at_exit(self) -> None:
        """atexit fallback close; never raises into interpreter exit."""
        try:
            self.close()
        except BaseException:  # pragma: no cover - teardown only
            pass

    def __enter__(self) -> "OccupancyMapService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Query path (consumers): shard-consistent, metered.
    # ------------------------------------------------------------------

    def query(self, coord: Tuple[float, float, float]) -> Optional[float]:
        """Log-odds occupancy at a metric coordinate."""
        with self.tracer.span("query.point", category="service"):
            value = self.map.query(coord)
        self.tracer.count("query.points", category="service")
        return value

    def query_detailed(self, coord: Tuple[float, float, float]) -> QueryResult:
        """Point query that also reports shard health and staleness."""
        return self.query_key_detailed(self.map._key_of(coord))

    def query_key_detailed(self, key: VoxelKey) -> QueryResult:
        """Keyed query with the serving shard's health and staleness."""
        with self.tracer.span("query.point", category="service"):
            shard_id = self.map.router.shard_of(key)
            value = self.map.query_key(key)
        self.tracer.count("query.points", category="service")
        health = self._health[shard_id]
        if health is not ShardHealth.HEALTHY:
            self.tracer.count("query.stale", category="service")
        occupied = (
            None if value is None else self.map.params.is_occupied(value)
        )
        return QueryResult(
            value=value,
            occupied=occupied,
            shard=shard_id,
            health=health.value,
        )

    def is_occupied(self, coord: Tuple[float, float, float]) -> Optional[bool]:
        """Occupancy decision at a metric coordinate (``None`` = unknown)."""
        value = self.query(coord)
        if value is None:
            return None
        return self.map.params.is_occupied(value)

    def cast_ray(
        self,
        origin: Tuple[float, float, float],
        direction: Tuple[float, float, float],
        max_range: float,
        ignore_unknown: bool = True,
    ) -> RayHit:
        """Metered ray query across shards."""
        with self.tracer.span("query.ray", category="service"):
            hit = self.map.cast_ray(
                origin, direction, max_range, ignore_unknown=ignore_unknown
            )
        self.tracer.count("query.rays", category="service")
        return hit

    def occupied_in_box(
        self,
        min_coord: Tuple[float, float, float],
        max_coord: Tuple[float, float, float],
    ) -> List[VoxelKey]:
        """Metered bounding-box occupancy query."""
        with self.tracer.span("query.box", category="service"):
            keys = self.map.occupied_in_box(min_coord, max_coord)
        self.tracer.count("query.boxes", category="service")
        return keys

    def snapshot(self) -> OccupancyOctree:
        """Global-snapshot export (see :meth:`ShardedMap.snapshot`)."""
        with self.tracer.span("query.snapshot", category="service"):
            tree = self.map.snapshot()
        return tree

    @property
    def params(self) -> OccupancyParams:
        return self.map.params

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------

    def memory_report(
        self, exact: bool = False, deep: bool = False
    ) -> MemoryReport:
        """The service's hierarchical footprint (``docs/memory.md``).

        Components: the sharded ``map`` (per-shard, per-tenant-slot
        cache + octree), the ingest ``queues`` (buffered observations of
        every lane),
        ``durability`` (retained journal entries + snapshot blobs),
        ``telemetry`` (buffering tracer sinks), and — when a tenant
        registry is mounted — ``tenancy`` (change-log rings, per-tenant
        journals).  The default reads incrementally-maintained counters
        (O(shards + tenants)); ``exact=True`` recounts every component
        by walking its storage — the drift gate compares the two.
        ``deep=True`` adds the per-depth octree drill-down.
        """
        children = [self.map.memory_breakdown(exact=exact, deep=deep)]
        shard_reports = []
        for shard_id in range(self.config.num_shards):
            if exact:
                obs = sum(
                    len(item[0]) for item in self._queues[shard_id].items()
                )
            else:
                obs = self._queues[shard_id].observations
            shard_reports.append(
                MemoryReport(f"shard{shard_id}", obs * OBS_BYTES, obs)
            )
        children.append(MemoryReport("queues", children=shard_reports))
        children.append(self.store.memory_breakdown(exact=exact))
        children.append(self.tracer.memory_breakdown(exact=exact))
        if self.tenant_registry is not None:
            children.append(self.tenant_registry.memory_breakdown(exact=exact))
        return MemoryReport("service", children=children)

    def tenant_memory_bytes(self) -> Dict[str, int]:
        """Attributed footprint per tenant name (empty without tenancy)."""
        if self.tenant_registry is None:
            return {}
        return self.tenant_registry.tenant_memory_bytes()

    def refresh_memory_metrics(
        self, exact: bool = False, deep: bool = False
    ):
        """Measure the footprint, publish ``mem.*`` gauges, evaluate
        pressure.

        Returns ``(report, decision)``.  Called by the ``/memory`` and
        ``/metrics`` admin routes (and the mem bench), so the gauges are
        fresh at every scrape while the ingest hot path pays only for
        counter increments.
        """
        report = self.memory_report(exact=exact, deep=deep)
        total = report.total_bytes
        self.metrics.gauge("mem.total_bytes").set(total)
        for component in report.children:
            self.metrics.gauge(f"mem.{component.name}_bytes").set(
                component.total_bytes
            )
        map_report = report.child("map")
        if map_report is not None:
            for shard in map_report.children:
                self.metrics.gauge(f"mem.shard_bytes.{shard.name}").set(
                    shard.total_bytes
                )
        rss = process_rss_bytes()
        if rss is not None:
            self.metrics.gauge("mem.process_rss_bytes").set(rss)
        tenant_bytes = self.tenant_memory_bytes()
        for name, nbytes in tenant_bytes.items():
            self.metrics.gauge(f"tenant.mem_bytes.{name}").set(nbytes)
        decision = self.pressure.evaluate(total, tenant_bytes)
        return report, decision

    def memory_dict(
        self, exact: bool = False, deep: bool = False
    ) -> Dict[str, object]:
        """The ``/memory`` route body: RSS, pressure, and the full tree."""
        report, decision = self.refresh_memory_metrics(
            exact=exact, deep=deep
        )
        out: Dict[str, object] = {
            "accounted_bytes": report.total_bytes,
            "process_rss_bytes": process_rss_bytes(),
            "peak_rss_bytes": peak_rss_bytes(),
            "pressure": decision.to_dict(),
            "report": report.to_dict(),
        }
        tenants = self.tenant_memory_bytes()
        if tenants:
            out["tenants"] = tenants
        return out

    def stats_dict(self) -> Dict[str, object]:
        """JSON-able service state: metrics plus per-shard map stats.

        Each shard entry embeds its voxel cache's full ``stats_dict()``
        (hits/misses/hit ratio, both paths, evictions, residency) so one
        scrape of ``/snapshot`` carries the paper's Fig-23 signal without
        a second call.
        """
        from repro.core.cache import aggregate_cache_stats

        shards = []
        for shard_id in range(self.config.num_shards):
            durability = self.store.stats(shard_id)
            shard_stats = self.map.shard_stats(shard_id)
            shards.append(
                {
                    "shard": shard_id,
                    "hit_ratio": shard_stats["hit_ratio"],
                    "resident_voxels": shard_stats["resident_voxels"],
                    "octree_nodes": shard_stats["octree_nodes"],
                    "batches": shard_stats["batches"],
                    "queue_depth": self._queues[shard_id].qsize(),
                    "health": self._health[shard_id].value,
                    "recoveries": self._recoveries[shard_id],
                    "cache": shard_stats["cache"],
                    **durability,
                }
            )
        report = self.memory_report()
        return {
            "metrics": self.metrics.to_dict(),
            "shards": shards,
            "cache_totals": aggregate_cache_stats(
                entry["cache"] for entry in shards
            ),
            "memory": {
                "accounted_bytes": report.total_bytes,
                "components": {
                    component.name: component.total_bytes
                    for component in report.children
                },
                "pressure": self.pressure.level,
            },
            "ready": self.ready(),
        }

    def serve_admin(
        self, host: str = "127.0.0.1", port: int = 0, namespace: str = "repro"
    ):
        """Mount the HTTP admin endpoint next to this service.

        Returns a started :class:`repro.obs.AdminServer` exposing
        ``/metrics`` (Prometheus text), ``/healthz``, ``/readyz``, and
        ``/snapshot``; the caller owns its lifetime (``close()`` or use
        it as a context manager).
        """
        from repro.obs.admin import AdminServer

        return AdminServer(self, host=host, port=port, namespace=namespace)

    def stats_report(self) -> str:
        """Human-readable report: metrics tables + per-shard table."""
        from repro.analysis.report import format_table

        stats = self.stats_dict()
        shard_rows = [
            [
                entry["shard"],
                f"{entry['hit_ratio']:.3f}",
                entry["resident_voxels"],
                entry["octree_nodes"],
                entry["batches"],
                entry["queue_depth"],
                entry["health"],
                entry["recoveries"],
            ]
            for entry in stats["shards"]
        ]
        shard_table = format_table(
            [
                "shard",
                "hit ratio",
                "resident",
                "octree nodes",
                "batches",
                "queue",
                "health",
                "recoveries",
            ],
            shard_rows,
        )
        return self.metrics.render() + "\n\n" + shard_table
