"""The occupancy-map service layer: sharded, concurrent, observable.

The paper's parallel design (§4.4) splits one mapping pipeline into a
latency-critical cache stage and a deferred octree-update stage.  This
package generalises that schedule to *N* spatial shards so many producers
(sensors) and consumers (planners) can hammer one map concurrently:

- :mod:`repro.service.sharding` — Morton-prefix routing of voxels to shards.
- :mod:`repro.service.sharded_map` — ``MapBackend``: the one map surface
  (per-shard locks, cross-shard queries, ``merge_tree``-based global
  snapshot export), and ``ShardedMap``, its in-process transport.
- :mod:`repro.service.shard_slots` — ``ShardSlots``: the per-shard
  OctoCache pipelines of one process, read as one map (cache over octree).
- :mod:`repro.service.server` — ``OccupancyMapService``: bounded ingest
  queues, batch coalescing, explicit backpressure, shard worker threads,
  a concurrent query API, and crash resilience (journaled batches,
  periodic checkpoints, retries, deadlines, shard health — built on
  :mod:`repro.resilience`).
- :mod:`repro.service.metrics` — counters, gauges, state gauges, and
  latency histograms with text/JSON reporting.
- :mod:`repro.service.workload` — synthetic multi-client load driver used
  by ``python -m repro serve-bench``.
"""

from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StateGauge,
)
from repro.service.server import (
    BackpressureError,
    IngestReceipt,
    OccupancyMapService,
    QueryResult,
    ServiceConfig,
)
from repro.service.sharded_map import ShardedMap
from repro.service.sharding import ShardRouter
from repro.service.workload import LoadReport, run_serve_bench

__all__ = [
    "BackpressureError",
    "Counter",
    "Gauge",
    "Histogram",
    "IngestReceipt",
    "LoadReport",
    "MetricsRegistry",
    "OccupancyMapService",
    "QueryResult",
    "ServiceConfig",
    "ShardRouter",
    "ShardedMap",
    "StateGauge",
    "run_serve_bench",
]
