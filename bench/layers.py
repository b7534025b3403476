"""Timing wrappers around each layer's public entry points, and the
per-layer metrics read off the spans they record.

The wrappers live here, not in ``repro``: a traced repetition installs
them, runs, and restores the originals.  Hot per-key functions
(``VoxelCache.lookup``, ``OccupancyOctree.search``) are never wrapped —
the workload probes them directly.  Work inside a worker process is
seen from the parent only: ``apply_to_shard`` returns the worker's busy
seconds, and the rest of a request's wall is encode + pipe + decode +
relay.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.cache import VoxelCache
from repro.mp import codec
from repro.mp.backend import ProcessShardedMap
from repro.mp.supervisor import ShardProcessSupervisor
from repro.octree import merge, rayquery, serialize
from repro.octree.tree import OccupancyOctree
from repro.resilience.recovery import CheckpointStore
from repro.sensor import scaninsert
from repro.sensor.scaninsert import ScanBatch
from repro.service.server import OccupancyMapService
from repro.service.sharded_map import ShardedMap
from repro.service.sharding import ShardRouter

from bench.spans import CLIENT, Span, SpanRecorder, self_times

Counts = Optional[Callable[[tuple, Any], Dict[str, float]]]


def _size_of_result(_args, result):
    return {"n": len(result)}


def _partition_counts(args, parts):
    return {
        "n": len(args[1]),
        "largest": max(len(part) for part in parts),
        "shards": len(parts),
    }


def _submit_counts(args, receipt):
    return {
        "rejected": receipt.rejected,
        "depth": max(args[0].queue_depths().values()),
    }


def _targets(payloads: List[bytes]) -> List[Tuple[Any, str, str, Counts]]:
    """``(owner, attribute, span name, counts)`` for every wrapped entry point."""

    def capture_payload(_args, payload):
        payloads.append(payload)
        return {"n": len(payload)}

    return [
        (scaninsert, "trace_scan", "sensor.trace",
         lambda _a, batch: {"rays": batch.num_rays, "n": len(batch)}),
        (ScanBatch, "observations", "sensor.batch.materialize", None),
        (ScanBatch, "keys_array", "sensor.batch.to_arrays", None),
        (ScanBatch, "occupied_array", "sensor.batch.to_arrays", None),
        (VoxelCache, "update_batch_bulk", "cache.insert", None),
        (VoxelCache, "evict", "cache.evict", _size_of_result),
        (VoxelCache, "flush", "cache.evict", _size_of_result),
        (OccupancyOctree, "set_leaves_bulk", "octree.update",
         lambda args, _r: {"n": len(args[1])}),
        (OccupancyOctree, "search_batch", "octree.search_batch", None),
        (rayquery, "cast_ray", "octree.raycast", None),
        (serialize, "tree_to_bytes", "octree.serialize", _size_of_result),
        (serialize, "tree_from_bytes", "octree.serialize",
         lambda args, _r: {"n": len(args[0])}),
        (merge, "merge_tree", "octree.merge", None),
        (ShardRouter, "partition", "sharding.partition", _partition_counts),
        (OccupancyMapService, "submit", "server.submit", _submit_counts),
        (OccupancyMapService, "flush", "server.flush", None),
        (OccupancyMapService, "query", "server.query", None),
        (OccupancyMapService, "cast_ray", "server.cast_ray", None),
        (OccupancyMapService, "snapshot", "server.snapshot", None),
        (ShardedMap, "apply_to_shard", "shard.apply",
         lambda args, _busy: {"shard": args[1], "n": len(args[2])}),
        (ProcessShardedMap, "apply_to_shard", "shard.apply",
         lambda args, busy: {"shard": args[1], "n": len(args[2]), "worker_busy_s": busy}),
        (ShardProcessSupervisor, "request", "mp.request", None),
        (codec, "encode_observations", "codec.encode", capture_payload),
        (codec, "encode_frame", "codec.encode",
         lambda _a, frame: {"wire_bytes": len(frame)}),
        (codec, "decode_frame", "codec.decode", None),
        (codec, "decode_reply", "codec.decode", None),
        (CheckpointStore, "append", "journal.append", None),
        (CheckpointStore, "write_snapshot", "checkpoint.write", None),
        (CheckpointStore, "write_snapshot_blob", "checkpoint.write", None),
    ]


def _holders(original) -> Iterator[Tuple[Any, str]]:
    """Every ``repro`` module attribute bound to ``original``.

    Modules import functions by name (``from … import trace_scan``), so a
    function has to be replaced wherever it was bound, not only at home.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                yield module, attribute


@contextmanager
def traced_layers(recorder: SpanRecorder) -> Iterator[List[bytes]]:
    """Install the wrappers; yields the captured observation payloads.

    On exit every original is back in place, whatever happened inside.
    """
    payloads: List[bytes] = []
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attribute, name, counts in _targets(payloads):
            original = vars(owner)[attribute]
            if isinstance(original, property):
                wrapped = property(recorder.wrap(name, original.fget, counts))
            else:
                wrapped = recorder.wrap(name, original, counts)
            places = (
                [(owner, attribute)]
                if isinstance(owner, type)
                else list(_holders(original))
            )
            for place, place_attribute in places:
                restore.append((place, place_attribute, original))
                setattr(place, place_attribute, wrapped)
        yield payloads
    finally:
        for place, place_attribute, original in reversed(restore):
            setattr(place, place_attribute, original)


def replay_decode_s(payloads: Iterable[bytes]) -> float:
    """Seconds ``decode_observations`` needs for the captured payloads.

    The worker decodes each one in its own process; replaying them here
    is how the parent gets a number for it.
    """
    seconds = 0.0
    for payload in payloads:
        start = time.perf_counter()
        codec.decode_observations(payload)
        seconds += time.perf_counter() - start
    return seconds


def memory_metrics(leaf_totals: Dict[str, int], voxels: int) -> Dict[str, float]:
    """Fold ``MemoryReport.leaf_totals()`` paths into the ``mem.*`` metrics."""
    groups = {"cache": 0, "octree": 0, "durability": 0, "queues": 0}
    for path, nbytes in leaf_totals.items():
        for part in path.split("/"):
            if part in groups:
                groups[part] += nbytes
                break
    return {
        "mem.cache_bytes": groups["cache"],
        "mem.octree_bytes": groups["octree"],
        "mem.journal_bytes": groups["durability"],
        "mem.queue_bytes": groups["queues"],
        "mem.total_bytes": sum(leaf_totals.values()),
        "mem.voxels": voxels,
    }


def layer_metrics(spans: List[Span], facts: Dict[str, float]) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced repetition."""
    own = self_times(spans)
    names = {span.sid: span.name for span in spans}
    busy: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    totals: Dict[Tuple[str, str], float] = defaultdict(float)
    peaks: Dict[Tuple[str, str], float] = defaultdict(float)
    shard_busy: Dict[float, float] = defaultdict(float)
    for span in spans:
        self_s[span.name] += own[span.sid]
        # A layer that calls itself (write_snapshot → write_snapshot_blob)
        # is busy once, for the outer call.
        if names.get(span.parent) != span.name:
            busy[span.name] += span.duration
            calls[span.name] += 1
        for key, value in (span.counts or {}).items():
            totals[span.name, key] += value
            peaks[span.name, key] = max(peaks[span.name, key], value)
        if span.name == "shard.apply" and span.counts:
            shard_busy[span.counts["shard"]] += span.duration
    wall = busy[CLIENT]
    inserts = facts.get("hits", 0) + facts.get("misses", 0)
    routed = totals["sharding.partition", "n"]
    shard_loads = list(shard_busy.values())
    worker_busy = totals["shard.apply", "worker_busy_s"]
    return {
        "sensor.trace.busy_s": busy["sensor.trace"],
        "sensor.trace.rays": totals["sensor.trace", "rays"],
        "sensor.trace.observations": totals["sensor.trace", "n"],
        "sensor.trace.dup_ratio": facts.get("dup_ratio", 0.0),
        "sensor.batch.materialize_s": busy["sensor.batch.materialize"],
        "sensor.batch.to_arrays_s": busy["sensor.batch.to_arrays"],
        "cache.insert.busy_s": busy["cache.insert"],
        "cache.insert.hits": facts.get("hits", 0),
        "cache.insert.misses": facts.get("misses", 0),
        "cache.hit_ratio": facts.get("hits", 0) / inserts if inserts else 0.0,
        "cache.evict.busy_s": busy["cache.evict"],
        "cache.evict.cells": totals["cache.evict", "n"],
        "cache.lookup.us_p50": facts.get("lookup_us", 0.0),
        "cache.resident_voxels": facts.get("resident", 0),
        "pipeline.query.busy_s": busy["pipeline.query"],
        "octree.update.busy_s": busy["octree.update"],
        "octree.update.voxels": totals["octree.update", "n"],
        "octree.nodes": facts.get("nodes", 0),
        "octree.search_batch.busy_s": busy["octree.search_batch"],
        "octree.search.us_p50": facts.get("search_us", 0.0),
        "octree.raycast.busy_s": busy["octree.raycast"],
        "octree.raycast.calls": calls["octree.raycast"],
        "octree.serialize.busy_s": busy["octree.serialize"],
        "octree.serialize.bytes": totals["octree.serialize", "n"],
        "octree.merge.busy_s": busy["octree.merge"],
        "sharding.partition.busy_s": busy["sharding.partition"],
        "sharding.partition.observations": routed,
        "sharding.skew": (
            totals["sharding.partition", "largest"]
            * peaks["sharding.partition", "shards"]
            / routed
            if routed
            else 0.0
        ),
        "server.submit.self_s": self_s["server.submit"],
        "server.flush.wait_s": busy["server.flush"],
        "server.snapshot.busy_s": busy["server.snapshot"],
        "server.queue.depth_max": peaks["server.submit", "depth"],
        "server.rejected": totals["server.submit", "rejected"],
        "shard.apply.busy_s": busy["shard.apply"],
        "shard.apply.calls": calls["shard.apply"],
        "shard.apply.observations": totals["shard.apply", "n"],
        "shard.busy_skew": (
            max(shard_loads) * len(shard_loads) / sum(shard_loads)
            if shard_loads and sum(shard_loads) > 0
            else 0.0
        ),
        "mp.worker.busy_s": worker_busy,
        "mp.pipe.wait_s": max(0.0, self_s["mp.request"] - worker_busy),
        "codec.encode.busy_s": busy["codec.encode"],
        "codec.encode.bytes": totals["codec.encode", "wire_bytes"],
        "codec.decode.busy_s": busy["codec.decode"],
        "codec.decode_obs.replay_s": facts.get("replay_s", 0.0),
        "journal.append.busy_s": busy["journal.append"],
        "journal.append.batches": calls["journal.append"],
        "checkpoint.write.busy_s": busy["checkpoint.write"],
        "checkpoint.count": calls["checkpoint.write"],
        "bench.client.wall_s": wall,
        "bench.unattributed_share": self_s[CLIENT] / wall if wall else 0.0,
    }
