"""A stdlib HTTP admin endpoint mounted next to an ``OccupancyMapService``.

``AdminServer`` wraps :class:`http.server.ThreadingHTTPServer` (no
dependencies, daemon thread, ephemeral port by default) and serves the
operational routes a scraper/orchestrator expects:

- ``GET /metrics`` — the service registry in Prometheus text exposition
  format (``text/plain; version=0.0.4``); counter totals equal the JSON
  snapshot by construction (same registry, one lock per metric).
- ``GET /healthz`` — liveness: ``200`` with a small JSON identity body
  (status, uptime, pid, worker mode, kernel, shard count) while the
  service accepts work, ``503`` once it is closed.  Restarting the
  process is the only cure for a failing liveness probe, so the
  *decision* stays deliberately dumb — the body just saves the operator
  one ``/snapshot`` round trip.
- ``GET /readyz`` — readiness: ``200`` only while *every* shard's
  resilience :class:`~repro.service.metrics.StateGauge` reads
  ``healthy``; ``503`` with a JSON body naming the ``recovering`` /
  ``dead`` shards otherwise.  A load balancer should stop routing to a
  replica that is rebuilding a shard — its answers are stale.  The body
  also carries per-shard ingest queue depths, the early saturation
  signal (queues pinned at capacity = backpressure imminent).
- ``GET /slo`` — the :class:`~repro.obs.slo.SLOEngine` status document:
  windowed SLIs, burn rates, multi-window alerts, error budgets, and
  the p99 latency waterfall (see ``docs/observability.md``).
- ``GET /snapshot`` — the full JSON operational state: metrics registry
  snapshot, per-shard queue depths, health, and the per-shard voxel-cache
  ``stats_dict()`` (hit ratios, residency, evictions).
- ``GET /tenants`` — the tenant fleet (see ``docs/tenancy.md``): one
  entry per tenant with lifecycle state, quota configuration, served /
  rejected counts, change-log cursors, and attributed memory.  ``200``
  with an empty fleet when no :class:`~repro.tenancy.TenantRegistry` is
  mounted; ``503`` once the admin server is closing (a registry
  mid-eviction must not be walked by a scraper).
- ``GET /memory`` — the hierarchical byte-accounting drill-down (see
  ``docs/memory.md``): process RSS / peak RSS, the accounted
  component tree (map → shard → tenant slot → cache/octree, queues,
  durability, telemetry, tenancy), per-tenant attribution, and the
  pressure verdict.  ``?exact=1`` recounts by walking storage instead
  of reading the O(1) counters; ``?deep=1`` adds the per-depth octree
  breakdown.  Serving this route also refreshes the ``mem.*`` gauges.

Typical use::

    with OccupancyMapService(config) as service:
        with AdminServer(service, port=9464) as admin:
            print("scrape", admin.url + "/metrics")
            ...

or, equivalently, ``service.serve_admin(port=9464)``.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.memsight.rss import peak_rss_bytes, process_rss_bytes
from repro.obs.exposition import CONTENT_TYPE
from repro.resilience.recovery import ShardHealth

__all__ = ["AdminServer", "liveness", "readiness"]

_LOG = logging.getLogger("repro.obs.admin")


def liveness(service) -> Dict[str, object]:
    """The ``/healthz`` identity body: who is answering, for how long.

    ``status`` is the probe verdict (``ok`` / ``closed``); the rest is
    deployment identity — uptime, pid, worker backend, kernel, shard
    count — so an operator staring at a fleet of replicas can tell
    *which build shape* each probe hit without a second request.
    """
    config = service.config
    return {
        "status": "closed" if service.closed else "ok",
        "uptime_seconds": round(service.uptime_seconds, 3),
        "pid": os.getpid(),
        "workers": config.workers,
        "kernel": config.kernel,
        "shards": config.num_shards,
        "rss_bytes": process_rss_bytes(),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def readiness(service) -> Tuple[bool, Dict[str, str]]:
    """Per-shard readiness from the resilience state gauges.

    Returns ``(ready, shard_states)`` where ``shard_states`` maps the
    ``shard_health.*`` gauge names to their current state.  Ready means
    every shard reads ``healthy`` — a shard mid-recovery serves stale
    answers and a dead shard serves frozen ones, and a scraper can't
    tell the difference from a ``200``.
    """
    _counters, _gauges, _histograms, states = service.metrics.collect()
    shard_states = {
        name: gauge.state
        for name, gauge in sorted(states.items())
        if name.startswith("shard_health.")
    }
    ready = bool(shard_states) and all(
        state == ShardHealth.HEALTHY.value for state in shard_states.values()
    )
    return ready, shard_states


class _AdminHandler(BaseHTTPRequestHandler):
    server_version = "repro-admin"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parts = urlsplit(self.path)
        route = parts.path
        admin: "AdminServer" = self.server.admin  # type: ignore[attr-defined]
        try:
            if route == "/metrics":
                try:
                    # Refresh the mem.* gauges so every scrape carries a
                    # current footprint; never fail the scrape over it.
                    admin.service.refresh_memory_metrics()
                except Exception:
                    _LOG.debug("memory refresh failed", exc_info=True)
                body = admin.service.metrics.to_prometheus_text(
                    namespace=admin.namespace
                ).encode()
                self._reply(200, CONTENT_TYPE, body)
            elif route == "/memory":
                params = parse_qs(parts.query)

                def flag(name: str) -> bool:
                    return params.get(name, ["0"])[0].lower() in (
                        "1",
                        "true",
                        "yes",
                    )

                body = json.dumps(
                    admin.service.memory_dict(
                        exact=flag("exact"), deep=flag("deep")
                    ),
                    indent=2,
                ).encode() + b"\n"
                self._reply(200, "application/json", body)
            elif route == "/healthz":
                body = json.dumps(
                    liveness(admin.service), indent=2
                ).encode() + b"\n"
                status = 503 if admin.service.closed else 200
                self._reply(status, "application/json", body)
            elif route == "/readyz":
                ready, shard_states = readiness(admin.service)
                body = json.dumps(
                    {
                        "ready": ready,
                        "shards": shard_states,
                        "queue_depths": admin.service.queue_depths(),
                    },
                    indent=2,
                ).encode() + b"\n"
                self._reply(200 if ready else 503, "application/json", body)
            elif route == "/slo":
                body = json.dumps(
                    admin.service.slo_engine().status_dict(), indent=2
                ).encode() + b"\n"
                self._reply(200, "application/json", body)
            elif route == "/snapshot":
                body = json.dumps(
                    admin.service.stats_dict(), indent=2, default=str
                ).encode() + b"\n"
                self._reply(200, "application/json", body)
            elif route == "/tenants":
                if admin.closed:
                    # A request already in flight when close() lands must
                    # not walk a registry that may be mid-eviction.
                    body = b'{"error": "admin server closing"}\n'
                    self._reply(503, "application/json", body)
                else:
                    registry = admin.service.tenant_registry
                    if registry is None:
                        payload: Dict[str, object] = {
                            "enabled": False,
                            "tenants": {},
                        }
                    else:
                        payload = registry.tenants_dict()
                    body = json.dumps(
                        payload, indent=2, default=str
                    ).encode() + b"\n"
                    self._reply(200, "application/json", body)
            else:
                self._reply(
                    404,
                    "text/plain",
                    b"routes: /metrics /healthz /readyz /slo /snapshot"
                    b" /tenants /memory\n",
                )
        except BrokenPipeError:  # client went away mid-reply
            pass
        except Exception as error:  # surface, never kill the server thread
            _LOG.warning("admin handler failed", exc_info=True)
            try:
                self._reply(500, "text/plain", f"{error!r}\n".encode())
            except OSError:
                pass

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _LOG.debug("%s %s", self.address_string(), format % args)


class AdminServer:
    """Serve ``/metrics`` ``/healthz`` ``/readyz`` ``/slo`` ``/snapshot``
    ``/tenants`` ``/memory``.

    Args:
        service: the :class:`~repro.service.OccupancyMapService` to expose.
        host: bind address (loopback by default — put a real proxy in
            front before exposing it wider).
        port: TCP port; ``0`` picks an ephemeral one (see :attr:`port`).
        namespace: metric-name prefix in the Prometheus text.
        start: start serving immediately (the default).  Pass ``False``
            to bind the socket but defer :meth:`start` — and note that
            :meth:`close` stays safe on a server whose ``serve_forever``
            never ran (``shutdown()`` would otherwise block forever
            waiting for a loop that never started).

    The listener starts in the constructor; requests are handled on
    daemon threads, so an abandoned server never blocks interpreter exit.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        namespace: str = "repro",
        start: bool = True,
    ) -> None:
        self.service = service
        self.namespace = namespace
        self._httpd = ThreadingHTTPServer((host, port), _AdminHandler)
        self._httpd.daemon_threads = True
        self._httpd.admin = self  # type: ignore[attr-defined]
        self._close_lock = threading.Lock()
        self._closed = False
        self._serving = False
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-admin",
            daemon=True,
        )
        if start:
            self.start()

    def start(self) -> None:
        """Enter the serve loop (idempotent; no-op after :meth:`close`)."""
        with self._close_lock:
            if self._closed or self._serving:
                return
            self._serving = True
            self._thread.start()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun (requests get 503s)."""
        return self._closed

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop accepting requests and release the socket.  Idempotent.

        Safe to call twice (the second call returns immediately), safe
        concurrently (one caller tears down, the rest return), safe with
        a request in flight (handlers run on daemon threads and finish
        against their already-accepted connection), and safe when
        ``serve_forever`` never ran (``shutdown()`` is skipped — calling
        it would block forever on the loop's never-set exit event).
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            serving = self._serving
        if serving:
            # shutdown() waits for serve_forever to exit its poll loop;
            # only valid when that loop is (or will be) running.
            self._httpd.shutdown()
        self._httpd.server_close()
        if serving:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "AdminServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AdminServer({self.url})"
