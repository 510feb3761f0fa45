"""Asyncio block service over sharded :class:`RAID6Volume`s.

The paper's evaluation measures read throughput and I/O balance, but a
deployed array is judged at the *request path*: sustained ops/s and
tail latency while thousands of clients hammer it.  This package adds
that path:

* :mod:`repro.serve.protocol` — the length-prefixed binary frame
  (read / write / scrub / stat / fail-disk, tenant-tagged, with
  per-request deadlines and typed retryable statuses);
* :mod:`repro.serve.router` — block-range → shard extent splitting;
* :mod:`repro.serve.shard` — a volume + write-back cache per shard,
  executed inline or in a forked worker process over shared state;
* :mod:`repro.serve.state` — crash-safe shard state for durable acks
  (ack-intent ledger + atomic snapshots + mount-time recovery);
* :mod:`repro.serve.supervisor` — health checks, typed crash/timeout
  conversion, and restart-from-spec for process-backed shards;
* :mod:`repro.serve.coalescer` — per-shard queues that drain bursts
  into the volume's batched read / encode / destage paths;
* :mod:`repro.serve.qos` — token-bucket + in-flight admission control
  that sheds load with a typed BUSY instead of collapsing;
* :mod:`repro.serve.server` — the asyncio front end tying it together;
* :mod:`repro.serve.loadgen` — seeded open/closed-loop load
  generators with byte-level shadow verification and retry/backoff;
* :mod:`repro.serve.chaos` — the seeded fault-injection campaign
  (worker kills, stalls, hostile frames) with hard byte-level oracles.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.protocol": (
        "OP_FAIL_DISK", "OP_READ", "OP_SCRUB", "OP_STAT", "OP_WRITE",
        "RETRYABLE", "ST_BUSY", "ST_DEADLINE", "ST_ERROR", "ST_OK", "ST_RETRY",
        "Request",
    ),
    "repro.serve.server": ("BlockServer", "ServerConfig", "make_backends"),
    "repro.serve.shard": ("ShardSpec",),
    "repro.serve.supervisor": ("SupervisedShard",),
})
