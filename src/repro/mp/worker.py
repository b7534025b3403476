"""The shard worker process: a command loop over private OctoCache maps.

:func:`shard_worker_main` is the child-process entry point (a
module-level function, so it works under both ``fork`` and ``spawn``
start methods).  Each worker owns one private
:class:`~repro.core.octocache.OctoCacheMap` per assigned shard and
executes framed commands from the parent (:mod:`repro.mp.codec`):
apply a batch, answer point/box queries, export a snapshot blob,
rebuild a shard from checkpoint + journal tail
(:func:`~repro.resilience.recovery.restore_pipeline` — the same exact
recovery path a crashed worker *thread* takes), report stats, finalize,
shut down.

The worker never answers with pickles and never logs: it computes,
replies, and relays telemetry.  A fresh always-on tracer (installed with
``set_tracer`` *before* the pipelines are built, so they capture it)
buffers the child's spans and counter events in a relay sink, and every
reply envelope carries the drained buffer back to the parent, which
replays the events into the service's registry — cross-process metrics
without a second channel.

Any per-command failure is reported as an ``ERROR`` frame carrying the
traceback; only a broken pipe (the parent went away) or an explicit
``SHUTDOWN`` ends the loop.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import traceback
from typing import Any, Dict, List, Optional

from repro.core.config import CacheConfig
from repro.mp import codec
from repro.octree.occupancy import OccupancyParams
from repro.octree.serialize import tree_to_bytes
from repro.octree.tree import OccupancyOctree
from repro.resilience.recovery import ShardCheckpoint, restore_pipeline
from repro.service.shard_slots import ShardSlots
from repro.telemetry.tracer import (
    CountEvent,
    Span,
    Tracer,
    seed_span_ids,
    set_tracer,
    span_context,
)

__all__ = ["shard_worker_main"]

_JSON_SCALARS = (str, int, float, bool, type(None))


class _RelaySink:
    """Buffers the child's spans/counts for piggybacking onto replies."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []

    def on_span(self, span: Span) -> None:
        attrs = {
            key: (value if isinstance(value, _JSON_SCALARS) else str(value))
            for key, value in span.attributes.items()
        }
        event = {
            "k": "span",
            "n": span.name,
            "c": span.category,
            "s": span.start,
            "d": span.duration,
            "t": span.thread_id,
            "i": span.span_id,
        }
        if span.parent_id is not None:
            event["p"] = span.parent_id
        if attrs:
            event["a"] = attrs
        with self._lock:
            self._events.append(event)

    def on_count(self, event: CountEvent) -> None:
        with self._lock:
            self._events.append(
                {
                    "k": "count",
                    "n": event.name,
                    "c": event.category,
                    "v": event.value,
                }
            )

    def push(self, event: Dict[str, Any]) -> None:
        """Buffer a non-telemetry relay event (memory rollups)."""
        with self._lock:
            self._events.append(event)

    def drain(self) -> List[Dict[str, Any]]:
        with self._lock:
            events, self._events = self._events, []
        return events


class _ShardWorker:
    """Per-process state: the :class:`ShardSlots` of the assigned shards.

    Tenant slot 0 (the default single-tenant map) gets its pipelines
    eagerly; non-zero tenant slots are created lazily on first touch
    (apply/restore/query) and torn down with ``DROP_TENANT`` — eviction
    must release the worker-side memory, not just the parent's
    bookkeeping.  Every command is "decode, ask the slot table, encode".
    """

    def __init__(
        self, config: Dict[str, Any], relay: Optional[_RelaySink] = None
    ) -> None:
        shape = dict(config)
        shard_ids = shape.pop("shard_ids")
        if shape.get("params"):
            shape["params"] = OccupancyParams(**shape["params"])
        if shape.get("cache_config"):
            shape["cache_config"] = CacheConfig(**shape["cache_config"])
        self.slots = ShardSlots(shard_ids, **shape)
        self.relay = relay

    def _relay_mem(self, shard: int, tenant: int) -> None:
        """Piggyback a slot's byte rollup onto the next reply.

        ``r = None`` tells the parent the slot is gone (drop path), so
        its cached attribution disappears with the state.
        """
        if self.relay is None:
            return
        report = self.slots.memory_report(shard, tenant)
        self.relay.push(
            {
                "k": "mem",
                "sh": shard,
                "tn": tenant,
                "r": None if report is None else report.to_dict(),
            }
        )

    # -- commands ------------------------------------------------------

    def apply(self, shard: int, tenant: int, payload: bytes) -> bytes:
        busy = self.slots.apply(
            shard, tenant, codec.decode_observations(payload)
        )
        self._relay_mem(shard, tenant)
        return codec.encode_busy_seconds(busy)

    def query_many(self, shard: int, tenant: int, payload: bytes) -> bytes:
        pipeline = self.slots.get(shard, tenant)
        return codec.encode_values(
            [pipeline.query_key(key) for key in codec.decode_keys(payload)]
        )

    def box_query(self, shard: int, tenant: int, payload: bytes) -> bytes:
        min_key, max_key = codec.decode_keys(payload)
        return codec.encode_keys(
            sorted(self.slots.occupied_in_box(shard, tenant, min_key, max_key))
        )

    def snapshot(self, shard: int, tenant: int) -> bytes:
        pipeline = self.slots.get(shard, tenant)
        tree = OccupancyOctree(pipeline.resolution, pipeline.depth, pipeline.params)
        tree.set_leaves_bulk(*self.slots.leaf_arrays(shard, tenant))
        return tree_to_bytes(tree)

    def restore(self, shard: int, tenant: int, payload: bytes) -> bytes:
        blob, upto, batches = codec.decode_restore(payload)
        checkpoint = (
            ShardCheckpoint(blob=blob, upto=upto) if blob is not None else None
        )
        self.slots.get(shard, tenant)  # validate ownership before replacing
        self.slots.put(
            shard,
            tenant,
            restore_pipeline(self.slots.make_pipeline, checkpoint, batches),
        )
        self._relay_mem(shard, tenant)
        return codec.encode_json({"replayed": len(batches)})

    def stats(self, shard: int, tenant: int) -> bytes:
        return codec.encode_json(self.slots.stats(shard, tenant))

    def mem(self, shard: int, tenant: int, payload: bytes) -> bytes:
        """Every slot's breakdown for one shard (``MEM`` command).

        The payload selects ``exact`` (recount by walking storage) and
        ``deep`` (per-depth octree drill-down); the addressed tenant is
        ignored — one round trip returns the whole shard's slots.
        """
        options = codec.decode_json(payload) if payload else {}
        reports = self.slots.memory_reports(
            shard,
            exact=bool(options.get("exact", False)),
            deep=bool(options.get("deep", False)),
        )
        return codec.encode_json(
            {
                "slots": {
                    str(slot): report.to_dict()
                    for slot, report in reports.items()
                }
            }
        )

    def finalize(self, shard: int, tenant: int) -> bytes:
        """Flush every slot on the shard (``FINALIZE``; the addressed
        tenant is ignored, as for ``MEM``)."""
        self.slots.finalize_shard(shard)
        for slot in self.slots.tenants_on(shard):
            self._relay_mem(shard, slot)
        return b""

    def drop_tenant(self, shard: int, tenant: int) -> bytes:
        """Free a tenant's pipeline on this shard (eviction)."""
        dropped = self.slots.drop(shard, tenant)
        self._relay_mem(shard, tenant)
        return codec.encode_json({"dropped": dropped})


def shard_worker_main(conn, config_blob: bytes) -> None:
    """Child-process entry: build the pipelines, serve framed commands.

    ``conn`` is the worker end of a ``multiprocessing.Pipe``;
    ``config_blob`` a JSON payload (:func:`repro.mp.codec.encode_json`)
    with the shard shape (resolution/depth/params/cache) and the shard
    ids this process owns.
    """
    # The parent owns lifecycle: SIGINT (a user's Ctrl-C reaches the
    # whole process group) must not tear the worker down mid-command —
    # the parent's close()/SHUTDOWN does that in order.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    relay = _RelaySink()
    # Relayed span ids land in the parent's span tree verbatim, so each
    # worker allocates from a pid-disjoint range: ids from different
    # processes (and the parent, which counts up from 1) never collide.
    seed_span_ids(((os.getpid() & 0x3FFFFF) << 40) | 1)
    # A fresh tracer *before* pipelines are built (they capture it at
    # construction).  Under fork we would otherwise inherit the parent's
    # global tracer and feed parent-copied sinks nobody reads.
    set_tracer(Tracer(enabled=True, sinks=[relay]))
    config = codec.decode_json(config_blob)
    worker = _ShardWorker(config, relay=relay)
    handlers = {
        codec.MSG_APPLY: worker.apply,
        codec.MSG_QUERY_MANY: worker.query_many,
        codec.MSG_BOX_QUERY: worker.box_query,
        codec.MSG_RESTORE: worker.restore,
        codec.MSG_MEM: worker.mem,
    }
    no_payload = {
        codec.MSG_SNAPSHOT: worker.snapshot,
        codec.MSG_STATS: worker.stats,
        codec.MSG_FINALIZE: worker.finalize,
        codec.MSG_DROP_TENANT: worker.drop_tenant,
    }
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            # Parent went away without SHUTDOWN (killed, crashed): exit
            # quietly; the supervisor treats us as dead either way.
            return
        frame: Optional[codec.Frame] = None
        try:
            frame = codec.decode_frame(data)
            if frame.type == codec.MSG_SHUTDOWN:
                reply = codec.encode_frame(
                    codec.MSG_OK,
                    frame.shard,
                    frame.seq,
                    codec.encode_reply(b"", relay.drain()),
                )
                try:
                    conn.send_bytes(reply)
                except (BrokenPipeError, OSError):
                    pass
                return
            # Adopt the wire-propagated trace context (pushed only after
            # a frame fully decodes, popped via __exit__ even on handler
            # failure — a corrupt frame can never orphan the span stack).
            parent = (
                span_context(frame.parent_span, "wire.request", "service")
                if frame.parent_span
                else contextlib.nullcontext()
            )
            with parent:
                if frame.type == codec.MSG_PING:
                    body = b""
                elif frame.type in handlers:
                    body = handlers[frame.type](
                        frame.shard, frame.tenant, frame.payload
                    )
                elif frame.type in no_payload:
                    body = no_payload[frame.type](frame.shard, frame.tenant)
                else:
                    raise ValueError(
                        f"unexpected message {codec.message_name(frame.type)}"
                    )
            reply = codec.encode_frame(
                codec.MSG_OK,
                frame.shard,
                frame.seq,
                codec.encode_reply(body, relay.drain()),
            )
        except BaseException:
            # Per-command failure: report, keep serving.  The parent maps
            # this to a retryable WorkerCommandError.
            reply = codec.encode_frame(
                codec.MSG_ERROR,
                frame.shard if frame is not None else -1,
                frame.seq if frame is not None else 0,
                codec.encode_reply(
                    traceback.format_exc().encode("utf-8", "replace"),
                    relay.drain(),
                ),
            )
        try:
            conn.send_bytes(reply)
        except (BrokenPipeError, OSError):
            return
