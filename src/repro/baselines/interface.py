"""The mapping-system interface shared by all pipelines.

The paper requires OctoCache to keep OctoMap's query API and results
(query consistency, §4.1); encoding the API as an abstract base makes that
a structural guarantee — the UAV simulator, harnesses, and examples are
written once against :class:`MappingSystem`.
"""

from __future__ import annotations

import abc
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.kernels import validate_kernel
from repro.telemetry import NULL_SPAN, get_tracer
from repro.octree.key import VoxelKey
from repro.octree.occupancy import OccupancyParams
from repro.octree.tree import OccupancyOctree
from repro.sensor.pointcloud import PointCloud
from repro.sensor.scaninsert import ScanBatch, trace_scan, trace_scan_rt

__all__ = ["MappingSystem", "BatchRecord", "StageClock"]


class BatchRecord:
    """The stage ledger: seconds per workflow stage, plus voxel counts.

    Every pipeline keeps one per batch (:attr:`MappingSystem.batches`) and
    one running total of the same type (:attr:`MappingSystem.totals`);
    :meth:`MappingSystem.stage` is the only clock that writes them.  The paper's
    decompositions (Figs 6, 13, 22; Table 3) and the analytic
    :class:`~repro.core.pipeline_model.PipelineModel` read these fields.
    Stages a pipeline does not run stay 0.0; SkiMap and the voxel grid
    book their index update under ``octree_update``, the slot it stands
    in for.  Buffer dequeue is not a field: it is not separable from the
    updater thread's blocking ``get()``.
    """

    #: Stage names in workflow order — also the stages' span names.
    STAGES = (
        "ray_tracing",
        "cache_insertion",
        "cache_eviction",
        "octree_update",
        "enqueue",
        "queue_wait",
        "thread1_wait",
    )
    __slots__ = STAGES + ("observations", "evicted", "chunks")

    def __init__(self, **amounts) -> None:
        for stage in self.STAGES:
            setattr(self, stage, 0.0)
        self.observations = 0
        self.evicted = 0
        #: Evicted chunks the updater thread took off the shared buffer.
        self.chunks = 0
        for field, amount in amounts.items():
            setattr(self, field, amount)

    def seconds(self, stages: Iterable[str] = STAGES) -> float:
        """Sum of the named stages (default: all of them)."""
        return sum(getattr(self, stage) for stage in stages)


class StageClock:
    """One open stage of one batch: span, stopwatch and ledger entry.

    What :meth:`MappingSystem.stage` returns.  With tracing on, the span's
    duration *is* the measurement; with tracing off the clock reads
    ``perf_counter`` itself.  Either way one number reaches the batch's
    record and the pipeline's totals.
    """

    __slots__ = ("_system", "_name", "_record", "_category", "_span", "_start")

    def __init__(self, system, name, record, category, span) -> None:
        self._system = system
        self._name = name
        self._record = record
        self._category = category
        self._span = span
        self._start = 0.0

    def __enter__(self) -> "StageClock":
        self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._span is NULL_SPAN:
            elapsed = time.perf_counter() - self._start
        else:
            self._span.__exit__(exc_type, exc, tb)
            elapsed = self._span.duration
        self._system._add(self._name, self._record, elapsed)

    def set(self, **attributes) -> None:
        """Attach attributes to the stage's span."""
        self._span.set(**attributes)

    def count(self, name: str, value: float) -> None:
        """Emit one counter increment in the stage's category."""
        self._system.tracer.count(name, value, category=self._category)


class MappingSystem(abc.ABC):
    """Abstract occupancy mapping pipeline (Figure 4 workflow).

    Concrete pipelines differ in what happens between ray tracing and the
    octree; the sensing front-end and the query API are common.

    Args:
        resolution: finest voxel edge length (metres).
        depth: octree depth (mapping boundary = ``resolution * 2**depth``).
        params: occupancy-update parameters.
        max_range: sensor range clamp applied during ray tracing.
        rt: use duplicate-free (OctoMap-RT style) ray tracing.
        kernel: ``"scalar"`` (per-ray Python reference) or ``"vector"``
            (the batched numpy kernels of :mod:`repro.kernels` — same
            map, bit for bit).  Selects both the tracer variant and, for
            pipelines that support it, the bulk apply path.
    """

    #: Human-readable pipeline name, set by subclasses.
    name: str = "abstract"

    #: Stages a query waits for (the critical path of Figure 13).  The
    #: baselines answer only after the octree update; cache-backed
    #: pipelines override this.
    RESPONSE_STAGES: Tuple[str, ...] = ("ray_tracing", "octree_update")
    #: Stages that keep the critical thread busy and so bound the cycle
    #: rate: the whole batch, unless a second thread takes some of it.
    BUSY_STAGES: Tuple[str, ...] = BatchRecord.STAGES

    def __init__(
        self,
        resolution: float,
        depth: int = 16,
        params: Optional[OccupancyParams] = None,
        max_range: float = float("inf"),
        rt: bool = False,
        kernel: str = "scalar",
    ) -> None:
        validate_kernel(kernel)
        self.resolution = resolution
        self.depth = depth
        self.params = params or OccupancyParams()
        self.max_range = max_range
        self.rt = rt
        self.kernel = kernel
        #: Running totals of every batch's record (same type, same fields).
        self.totals = BatchRecord()
        #: Telemetry tracer stage spans report to.  Defaults to the
        #: process-global tracer (disabled unless someone opts in, e.g.
        #: ``repro.telemetry.tracing`` or the ``trace-bench`` CLI);
        #: assign a private :class:`~repro.telemetry.Tracer` to isolate
        #: one pipeline's spans.
        self.tracer = get_tracer()
        self.batches: List[BatchRecord] = []
        #: When true, :meth:`insert_point_cloud` keeps the traced
        #: :class:`~repro.sensor.scaninsert.ScanBatch` in
        #: :attr:`last_batch` — incremental consumers (frontier
        #: exploration, change feeds) read the touched voxels from it
        #: without re-tracing the cloud.
        self.keep_last_batch = False
        self.last_batch: Optional[ScanBatch] = None
        self._tree = OccupancyOctree(
            resolution=resolution, depth=depth, params=self.params
        )

    # ------------------------------------------------------------------
    # Sensing front-end (shared).
    # ------------------------------------------------------------------

    def trace(self, cloud: PointCloud) -> ScanBatch:
        """Ray-trace one point cloud into a voxel observation batch."""
        tracer = trace_scan_rt if self.rt else trace_scan
        return tracer(
            cloud,
            self.resolution,
            self.depth,
            max_range=self.max_range,
            kernel=self.kernel,
        )

    # ------------------------------------------------------------------
    # Update path.
    # ------------------------------------------------------------------

    def insert_point_cloud(
        self,
        points,
        origin: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    ) -> BatchRecord:
        """Run the full per-batch workflow for one scan.

        ``points`` may be a :class:`PointCloud` (its own origin is used) or
        an ``(N, 3)`` array-like with ``origin`` supplied separately.
        Returns the batch's stage-duration record.
        """
        if isinstance(points, PointCloud):
            cloud = points
        else:
            cloud = PointCloud(points, origin)
        record = BatchRecord()
        with self.stage(
            "ray_tracing", record, "sensor", points=len(cloud.points)
        ) as stage:
            batch = self.trace(cloud)
            stage.set(rays=batch.num_rays, observations=len(batch))
        return self.insert_batch(batch, record=record)

    def insert_batch(
        self, batch: ScanBatch, record: Optional[BatchRecord] = None
    ) -> BatchRecord:
        """Apply one already-traced batch to the map.

        The sharded service traces a scan once, partitions the
        observations by shard, and feeds each shard its slice through this
        entry point — re-tracing per shard would multiply the front-end
        cost by the shard count.  ``record`` carries stage times accrued so
        far (ray tracing when the caller traced); a fresh record is created
        otherwise.  Returns the batch's stage-duration record.
        """
        if record is None:
            record = BatchRecord()
        self._add("observations", record, len(batch))
        if self.keep_last_batch:
            self.last_batch = batch
        with self.tracer.span(
            "insert_batch",
            category="pipeline",
            pipeline=self.name,
            observations=record.observations,
        ):
            self._process_batch(batch, record)
        self.batches.append(record)
        return record

    @abc.abstractmethod
    def _process_batch(self, batch: ScanBatch, record: BatchRecord) -> None:
        """Apply one traced batch to the map (pipeline-specific)."""

    # ------------------------------------------------------------------
    # The stage ledger: every stage of every pipeline is timed here.
    # ------------------------------------------------------------------

    def stage(
        self, name: str, record: BatchRecord, category: str, **attributes
    ) -> StageClock:
        """Context manager timing one stage of ``record``'s batch.

        Opens the stage's telemetry span (``name`` is both the span name
        and the record field) and books the elapsed seconds to ``record``
        and to :attr:`totals`.
        """
        span = self.tracer.span(name, category=category, **attributes)
        return StageClock(self, name, record, category, span)

    def _add(self, field: str, record: BatchRecord, amount: float) -> None:
        """Add ``amount`` to one ledger field of ``record`` and the totals."""
        for ledger in (record, self.totals):
            setattr(ledger, field, getattr(ledger, field) + amount)

    def finalize(self) -> None:
        """Flush any buffered state into the octree (no-op by default)."""

    # ------------------------------------------------------------------
    # Context-manager protocol: guaranteed cleanup for pipelines that
    # buffer state (caches) or own worker threads.  Service shards and
    # tests lean on this to never leak a half-flushed map.
    # ------------------------------------------------------------------

    def __enter__(self) -> "MappingSystem":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finalize()

    # ------------------------------------------------------------------
    # Query path (OctoMap-compatible API, paper §4.1).
    # ------------------------------------------------------------------

    @property
    def octree(self) -> OccupancyOctree:
        """The backend octree (after :meth:`finalize`, the full map)."""
        return self._tree

    def query_key(self, key: VoxelKey) -> Optional[float]:
        """Log-odds occupancy of the voxel at ``key`` (``None`` = unknown)."""
        return self._tree.search(key)

    def query(self, coord: Tuple[float, float, float]) -> Optional[float]:
        """Log-odds occupancy at a metric coordinate (``None`` = unknown)."""
        return self.query_key(self._tree.coord_to_key(coord))

    def is_occupied(self, coord: Tuple[float, float, float]) -> Optional[bool]:
        """Occupancy decision at a metric coordinate (``None`` = unknown)."""
        value = self.query(coord)
        if value is None:
            return None
        return self.params.is_occupied(value)

    # ------------------------------------------------------------------
    # Latency metrics.
    # ------------------------------------------------------------------

    def stage_seconds(self) -> Dict[str, float]:
        """Seconds per stage over all batches, for the stages that ran."""
        totals = self.totals
        return {
            stage: getattr(totals, stage)
            for stage in BatchRecord.STAGES
            if getattr(totals, stage)
        }

    def total_seconds(self) -> float:
        """Total mapping-system generation time across all stages."""
        return self.totals.seconds()

    def critical_path_seconds(self) -> float:
        """Time queries had to wait for, summed over all batches."""
        return self.totals.seconds(self.RESPONSE_STAGES)

    def record_response_seconds(self, record: BatchRecord) -> float:
        """One batch's query-response latency (per-cycle critical path)."""
        return record.seconds(self.RESPONSE_STAGES)

    def record_busy_seconds(self, record: BatchRecord) -> float:
        """One batch's compute on the critical thread (bounds cycle rate)."""
        return record.seconds(self.BUSY_STAGES)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(res={self.resolution}, depth={self.depth}, "
            f"batches={len(self.batches)})"
        )
