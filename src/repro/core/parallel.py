"""Parallel OctoCache: octree updates on a second thread (paper §4.4).

Thread 1 (the critical path) runs ray tracing, cache insertion, queries,
cache eviction, and enqueues evicted batches into a shared buffer.
Thread 2 dequeues batches and applies them to the octree.  A single mutex
makes octree reads (cache-insertion miss fills, query misses) and octree
writes (thread-2 updates) mutually exclusive, and thread 1 additionally
waits for all *pending* octree work before starting the next cache
insertion — eliminating the data races of Figure 5 exactly as the paper
prescribes (§4.1, §4.4).

Cache *hits* — both insert-path and query-path — never touch the octree
and therefore never wait: that is the design's latency win.

Note on throughput: under CPython's GIL the two threads do not overlap
pure-Python compute, so this class reproduces the *schedule, consistency,
and synchronisation behaviour* (including Table 3's buffer overhead —
enqueue, per-chunk queue wait and the thread-1 waiting gap are timed;
dequeue is not separable from the updater's blocking ``get()``), while
projected two-core throughput comes from
:class:`repro.core.pipeline_model.PipelineModel` fed with measured stage
times — see DESIGN.md §1.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Optional

from repro.core.cache import LeafBatch
from repro.core.octocache import OctoCacheMap
from repro.baselines.interface import BatchRecord
from repro.octree.key import VoxelKey
from repro.sensor.scaninsert import ScanBatch

__all__ = ["ParallelOctoCacheMap"]

#: Sentinel telling the worker thread to exit.
_STOP = object()


#: Default bound on the shared eviction buffer (chunks).  Large enough
#: that a healthy worker never stalls thread 1, small enough that a
#: stalled worker exerts backpressure instead of growing memory forever.
DEFAULT_BUFFER_CAPACITY = 256


class ParallelOctoCacheMap(OctoCacheMap):
    """Two-threaded OctoCache (Figure 14 workflow).

    Args:
        buffer_capacity: bound on the shared eviction buffer, in evicted
            chunks.  ``put`` blocks when the buffer is full (backpressure
            on thread 1), so a stalled octree updater can delay eviction
            but never grow memory without limit.  Must be >= 1.
    """

    name = "OctoCache (parallel)"

    #: Thread 1 also waits out the gap before cache insertion (Fig. 13b);
    #: the octree update and the buffer residency are thread 2's.
    RESPONSE_STAGES = ("ray_tracing", "thread1_wait", "cache_insertion")
    BUSY_STAGES = RESPONSE_STAGES + ("cache_eviction", "enqueue")

    def __init__(
        self, *args, buffer_capacity: int = DEFAULT_BUFFER_CAPACITY, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        if buffer_capacity < 1:
            raise ValueError(
                f"buffer_capacity must be >= 1, got {buffer_capacity}"
            )
        self.buffer_capacity = buffer_capacity
        self._buffer: "queue.Queue" = queue.Queue(maxsize=buffer_capacity)
        self._octree_lock = threading.Lock()
        self._pending_cv = threading.Condition()
        self._pending = 0
        self._worker: Optional[threading.Thread] = None
        self._worker_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Worker management.
    # ------------------------------------------------------------------

    def _ensure_worker(self) -> None:
        if self._worker is not None and self._worker.is_alive():
            return
        self._worker = threading.Thread(
            target=self._worker_loop, name="octocache-octree-updater", daemon=True
        )
        self._worker.start()

    def _worker_loop(self) -> None:
        while True:
            item = self._buffer.get()
            if item is _STOP:
                return
            evicted, record, enqueued_at = item
            # The chunk's buffer-residency time: enqueue on thread 1 to
            # dequeue here.  This is the measured queue-wait the analytic
            # pipeline model's schedule is validated against.
            queue_wait = max(0.0, time.perf_counter() - enqueued_at)
            self._add("queue_wait", record, queue_wait)
            self._add("chunks", record, 1)
            self.tracer.record_span(
                "queue_wait",
                "parallel",
                start=enqueued_at,
                duration=queue_wait,
                voxels=len(evicted),
            )
            try:
                with self._octree_lock, self.stage(
                    "octree_update", record, "octree", voxels=len(evicted)
                ):
                    self._apply_evicted(evicted)
            except BaseException as error:  # surfaced on thread 1
                # Publish the error under the condition so waiters blocked
                # in _wait_octree_idle wake even though batches enqueued
                # behind this one will never be applied.
                with self._pending_cv:
                    self._worker_error = error
                    self._pending_cv.notify_all()
                return
            finally:
                with self._pending_cv:
                    self._pending -= 1
                    self._pending_cv.notify_all()

    def _raise_worker_error(self) -> None:
        if self._worker_error is not None:
            error, self._worker_error = self._worker_error, None
            self._reset_after_error()
            raise RuntimeError("octree updater thread failed") from error

    def _reset_after_error(self) -> None:
        """Discard undelivered queue items so the pipeline stays usable.

        After a worker error the buffer may still hold batches (and a
        stale stop sentinel) that no thread will ever consume; draining
        them — and zeroing the pending count — is what makes a second
        ``finalize()``/``close()`` a clean no-op instead of a hang.  A
        worker restarted *after* the failure (recovery inserts) may still
        be alive and blocked on the queue, so it is stopped through the
        sentinel before the drain.
        """
        worker = self._worker
        if worker is not None and worker.is_alive():
            self._buffer.put(_STOP)
            worker.join()
        self._worker = None
        while True:
            try:
                self._buffer.get_nowait()
            except queue.Empty:
                break
        with self._pending_cv:
            self._pending = 0
            self._pending_cv.notify_all()

    def _wait_octree_idle(self) -> None:
        """Block until no octree updates are pending.

        This is the paper's thread-1 "waiting gap" (Figure 13b).  Returns
        early (and then raises) when the worker died: items queued behind
        the failing batch will never be applied, so waiting on the pending
        count alone would deadlock.
        """
        with self._pending_cv:
            while self._pending > 0 and self._worker_error is None:
                self._pending_cv.wait()
        self._raise_worker_error()

    # ------------------------------------------------------------------
    # Update path (thread 1).
    # ------------------------------------------------------------------

    def _process_batch(self, batch: ScanBatch, record: BatchRecord) -> None:
        with self.stage("thread1_wait", record, "parallel"):
            self._wait_octree_idle()
        with self._octree_lock:  # insertion misses read the octree
            self._insert_stage(batch, record)
        # Eviction streams bucket-aligned chunks into the shared buffer so
        # the octree updater overlaps the rest of the hand-over (§4.4).
        with self._eviction_stage(record):
            for chunk in self.cache.iter_evict():
                self._enqueue(chunk, record)

    def _enqueue(self, evicted: LeafBatch, record: BatchRecord) -> None:
        self._ensure_worker()
        with self._pending_cv:
            self._pending += 1
        with self.stage("enqueue", record, "parallel", voxels=len(evicted)):
            self._buffer.put((evicted, record, time.perf_counter()))

    def finalize(self) -> None:
        """Flush the cache, drain the octree updater, and stop the worker.

        On return the octree holds the complete map and no worker thread is
        running; inserting further point clouds restarts it transparently.
        Idempotent and exception-safe: calling it again — including after a
        worker error was raised — finds an empty cache, no pending work,
        and no worker, and returns immediately rather than blocking on the
        stop sentinel.
        """
        record = self.batches[-1] if self.batches else BatchRecord()
        evicted = self.cache.flush()
        if len(evicted):
            self._add("evicted", record, len(evicted))
            self.tracer.count("cache.evictions", len(evicted), category="cache")
            self._enqueue(evicted, record)
        try:
            self._wait_octree_idle()
        finally:
            worker = self._worker
            if worker is not None and worker.is_alive():
                self._buffer.put(_STOP)
                worker.join()
            self._worker = None
        self._raise_worker_error()

    #: Service-facing alias: shard owners call ``close()`` for symmetry
    #: with the server API; it is exactly the (idempotent) finalize.
    def close(self) -> None:
        self.finalize()

    # ------------------------------------------------------------------
    # Query path (thread 1).
    # ------------------------------------------------------------------

    def query_key(self, key: VoxelKey) -> Optional[float]:
        """Cache hit: immediate.  Miss: wait for pending writes, then read.

        Hits are the common case by design (the cache retains recently
        updated voxels), so most queries never wait on thread 2.
        """
        value = self.cache.lookup(key)
        if value is not None:
            self.cache.stats.query_hits += 1
            return value
        self.cache.stats.query_misses += 1
        self._wait_octree_idle()
        with self._octree_lock:
            return self._tree.search(key)

    # ------------------------------------------------------------------
    # Stage handoff accounting (queue wait vs. service time).
    # ------------------------------------------------------------------

    def queue_profile(self) -> dict:
        """Measured buffer handoff profile: queue wait vs. service time.

        Per enqueued chunk, *queue wait* is its buffer residency (thread-1
        enqueue to thread-2 dequeue) and *service time* is the octree
        update applying it.  Together with the thread-1 waiting gap these
        are the measured counterparts of the analytic
        :class:`~repro.core.pipeline_model.PipelineModel` schedule: the
        model's thread-2 start rule (``max(eviction start, octree done)``)
        implies every chunk's queue wait is bounded by the preceding
        octree service backlog.
        """
        totals = self.totals
        chunks = totals.chunks  # one octree update per chunk
        return {
            "chunks": chunks,
            "enqueue_seconds": totals.enqueue,
            "queue_wait_seconds": totals.queue_wait,
            "service_seconds": totals.octree_update,
            "thread1_wait_seconds": totals.thread1_wait,
            "mean_queue_wait": totals.queue_wait / chunks if chunks else 0.0,
            "mean_service": totals.octree_update / chunks if chunks else 0.0,
        }
