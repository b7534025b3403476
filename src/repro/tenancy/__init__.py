"""Multi-tenant fleet serving on one shared shard pool.

One OctoCache service instance hosts *many* concurrent occupancy maps —
one per robot or mapping session — without dedicating shards to tenants:
every tenant's voxels are consistent-hashed onto the same shard pool
(per-tenant salted :class:`~repro.service.sharding.ShardRouter`), each
shard holds one pipeline per ``(shard, tenant)`` slot, and the service's
shard workers serve the tenants' lanes round-robin so a chatty tenant
cannot starve a quiet one.

Public surface:

- :class:`TenantRegistry` — create/submit/persist/evict/restore tenants
  against an existing :class:`~repro.service.server.OccupancyMapService`.
- :class:`TenantQuota` / :class:`TokenBucket` — per-tenant admission
  control (queue slots + scans-per-second).
- :class:`ChangeLog` / :class:`Subscription` — streaming map-diff
  subscriptions (leaf deltas since a cursor).

See ``docs/tenancy.md`` for the design rationale.
"""

from repro.tenancy.changelog import ChangeLog, MapDelta, Subscription
from repro.tenancy.quota import TenantQuota, TokenBucket
from repro.tenancy.registry import (
    Tenant,
    TenantQuotaExceeded,
    TenantReceipt,
    TenantRegistry,
    TenantState,
    tenant_salt,
)

__all__ = [
    "ChangeLog",
    "MapDelta",
    "Subscription",
    "Tenant",
    "TenantQuota",
    "TenantQuotaExceeded",
    "TenantReceipt",
    "TenantRegistry",
    "TenantState",
    "TokenBucket",
    "tenant_salt",
]
