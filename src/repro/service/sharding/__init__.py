"""Sharded serving tier: shard-per-core front end over the encode service.

One :class:`~repro.service.EncodeService` process tops out at one core's
worth of Python — accept/parse, scheduling, and small serial encodes all
contend for a single GIL while the other cores idle.  This package scales
the service the way the paper scales Tier-1 across SPEs: N independent
shard *processes*, each a full service (scheduler + Tier-1 threads +
local cache), all accepting on one listening port.

The pieces:

* :mod:`frontend` — pre-fork supervisor: shard processes ``accept()`` on
  one port (``SO_REUSEPORT`` where the kernel load-balances listeners,
  inherited-FD fallback otherwise), crashed shards respawn, SIGTERM
  drains every shard gracefully.
* :mod:`cachebus` — cross-shard content-addressed result cache: a tiny
  cache-server thread owns codestream values in shared-memory segments
  and extends single-flight coalescing across shard boundaries via
  leases, so a hit or in-flight encode on any shard serves all shards.

Load shedding lives with admission control
(:class:`repro.service.admission.LoadShedder`); per-shard p95/p99 drive
it, so overload degrades to fast 503 + ``Retry-After`` instead of
collapse.  Byte-identity across shard counts holds by construction —
every shard runs the same deterministic ``encode()`` — and is enforced by
tests and the existing verify gate.
"""

from repro.service.sharding.frontend import (  # noqa: F401
    ShardCluster,
    ShardClusterConfig,
    run_sharded_server,
)
