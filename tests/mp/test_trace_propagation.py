"""Trace-context propagation over the mp wire codec, under failure.

Two regression guarantees from the wire-trace work ride here:

1. SIGKILL + restore: after a worker process dies and the service
   rebuilds its shard in a fresh process, relayed child spans — the
   restore replay included — still parent onto live parent-side span
   ids, so the latency waterfall stays one tree across process
   generations (child ids are pid-prefixed, so a respawn shows up as a
   brand-new id range).
2. A corrupted frame cannot orphan the worker's span stack: the wire
   trace context is adopted only *after* a frame fully decodes, so the
   command following a garbage frame parents under its own wire
   context, never a stale one.
"""

import os
import signal
import time

from repro.mp import codec
from repro.mp.supervisor import ShardProcessSupervisor
from repro.sensor.scaninsert import ScanBatch
from repro.service.server import OccupancyMapService
from repro.telemetry import RingBufferSink, tracing

from tests.mp.test_process_backend import make_batches, make_config

#: Worker span ids are ``(pid << 40) | counter``; the parent process
#: allocates from 1 upward, so this bit cleanly splits the two ranges.
CHILD_ID_BASE = 1 << 40


def child_spans(spans):
    return [s for s in spans if s.span_id and s.span_id >= CHILD_ID_BASE]


def parent_side_ids(spans):
    return {s.span_id for s in spans if s.span_id and s.span_id < CHILD_ID_BASE}


def wire_rooted(events):
    """Relayed span events whose parent is a parent-process span id."""
    return [
        event
        for event in events
        if event.get("k") == "span"
        and "p" in event
        and event["p"] < CHILD_ID_BASE
    ]


class TestKillAndRestore:
    def test_relayed_spans_rejoin_the_tree_across_generations(self):
        ring = RingBufferSink()
        batches = make_batches()
        with tracing(ring):
            with OccupancyMapService(make_config()) as service:
                for batch in batches[:4]:
                    service.submit_observations(batch)
                service.flush()
                before = child_spans(ring.spans)
                assert before, "workers relayed no spans"
                pids_before = {span.span_id >> 40 for span in before}

                supervisor = service.map.supervisor
                victim = supervisor.pid_of(0)
                os.kill(victim, signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while supervisor.alive(0) and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not supervisor.alive(0), "worker survived SIGKILL"

                # Recovery is traffic-driven: keep submitting, the dead
                # shard is rebuilt (checkpoint + journal replay) in a
                # fresh process on first touch.
                for batch in batches[4:]:
                    service.submit_observations(batch)
                service.flush()

        spans = ring.spans
        children = child_spans(spans)
        pids_after = {span.span_id >> 40 for span in children}
        # The respawned worker has a new pid, hence a new id range.
        fresh_pids = pids_after - pids_before
        assert fresh_pids, "no spans arrived from the respawned process"
        # Every cross-process parent link resolves to a recorded
        # parent-side span: no dangling edges anywhere in the tree.
        known = parent_side_ids(spans)
        linked = [
            span
            for span in children
            if span.parent_id is not None and span.parent_id < CHILD_ID_BASE
        ]
        assert linked, "no child span carried wire trace context"
        for span in linked:
            assert span.parent_id in known, (
                f"{span.name} parents onto unknown id {span.parent_id}"
            )
        # And the new generation specifically produced linked spans —
        # the replayed batches re-parent correctly, not just pre-kill
        # traffic.
        assert [
            span for span in linked if (span.span_id >> 40) in fresh_pids
        ], "respawned worker's spans never joined the parent tree"


class TestCorruptFrame:
    def make_supervisor(self):
        supervisor = ShardProcessSupervisor(
            num_shards=1,
            worker_config={
                "resolution": 0.2,
                "depth": 6,
                "max_range": float("inf"),
            },
        )
        supervisor.start()
        return supervisor

    def exchange_apply(self, supervisor, parent_span):
        payload = codec.encode_observations(
            ScanBatch.coerce([((1, 2, 3), True), ((4, 5, 6), False)])
        )
        reply = supervisor.request(
            0, codec.MSG_APPLY, payload, parent_span=parent_span
        )
        _body, events = codec.decode_reply(reply.payload)
        return events

    def test_garbage_frame_does_not_orphan_the_span_stack(self):
        supervisor = self.make_supervisor()
        try:
            roots = wire_rooted(self.exchange_apply(supervisor, 111))
            assert roots, "apply relayed no wire-rooted spans"
            assert all(event["p"] == 111 for event in roots)

            # Inject garbage straight down the worker pipe (holding the
            # request lock so the exchange stays sequenced) and read the
            # ERROR frame back ourselves.
            with supervisor._locks[0]:
                conn = supervisor._workers[0].conn
                conn.send_bytes(b"\x00" * 64)
                assert conn.poll(10.0), "worker never answered the garbage"
                error = codec.decode_frame(conn.recv_bytes())
            assert error.type == codec.MSG_ERROR
            body, _events = codec.decode_reply(error.payload)
            assert b"CodecError" in body

            # The next command parents under its *own* wire context: a
            # failed decode pushed nothing, so nothing stale leaks.
            roots = wire_rooted(self.exchange_apply(supervisor, 222))
            assert roots
            assert all(event["p"] == 222 for event in roots)
            assert not [event for event in roots if event["p"] == 111]
        finally:
            supervisor.close()

    def test_restore_replay_parents_under_the_wire_context(self):
        supervisor = self.make_supervisor()
        try:
            batches = [
                ScanBatch.coerce([((1, 1, 1), True), ((2, 2, 2), True)]),
                ScanBatch.coerce([((3, 3, 3), False)]),
            ]
            reply = supervisor.request(
                0,
                codec.MSG_RESTORE,
                codec.encode_restore(None, 0, batches),
                parent_span=333,
            )
            body, events = codec.decode_reply(reply.payload)
            assert codec.decode_json(body) == {"replayed": 2}
            roots = wire_rooted(events)
            assert roots, "restore replay relayed no wire-rooted spans"
            assert all(event["p"] == 333 for event in roots)
        finally:
            supervisor.close()
