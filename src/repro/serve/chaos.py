"""Serving-layer chaos harness: seeded faults, hard oracles.

The unit-level fault tests prove each mechanism in isolation; this
harness proves they *compose*.  One campaign
(:func:`run_serve_chaos`) stands up a real durable-ack process-backed
server and throws every fault class at it at once:

* **worker kills** — spec-driven ``chaos_kill_after_ops`` makes chosen
  workers SIGKILL *themselves* at an exact lifetime op count (a
  deterministic mid-batch death), and the campaign additionally kills
  workers from the parent side mid-run;
* **stalls** — a chosen worker sleeps through the parent's
  ``recv_timeout`` mid-batch, exercising the timeout → restart path
  (stalls shorter than the timeout are merely slow shards and must be
  absorbed silently);
* **network abuse** — seeded evil connections interleave with the real
  clients: truncated headers, hostile >64 MiB length prefixes, torn
  frames cut by a reset, plain garbage.  Each must die alone, with a
  typed error or a dropped connection, while every other connection
  keeps serving.

The oracles are strict:

* **zero lost acknowledged writes** — the final served image must be
  byte-identical to a direct-volume replay of the generators' write
  logs (exactly the acknowledged writes, in per-client issue order).
  Region-disjoint clients plus in-order-per-connection execution make
  the replay a complete oracle even under retries;
* **durability** — after a graceful drain + close, every shard's state
  file must reload (snapshot + ack-ledger recovery) to exactly its
  slice of the served image;
* **liveness** — every killed or stalled worker must have been
  restarted (supervisor restart count ≥ injected faults) and the load
  must complete every op with zero hard errors.

Everything is seeded: fault placement, evil-frame contents, and the
workload all derive from the campaign seed, so a failure reproduces
from its one-line summary.
"""

from __future__ import annotations

import asyncio
import glob
import os
import struct
import tempfile
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.array import RAID6Volume
from repro.array.persistence import load_volume
from repro.codes.registry import make_code
from repro.journal.recovery import recover_on_mount
from repro.serve.shmring import SHM_PREFIX
from repro.serve.loadgen import (
    BlockClient,
    fetch_image,
    replay_writes,
    run_closed_loop,
)
from repro.serve.protocol import MAX_FRAME, OP_READ, ST_OK
from repro.serve.server import BlockServer, ServerConfig
from repro.serve.supervisor import SupervisedShard


@dataclass
class ServeChaosResult:
    """Outcome of one serving chaos campaign."""

    code: str
    p: int
    seed: int
    ops: int = 0
    writes: int = 0
    retries: int = 0
    busy: int = 0
    deadline_misses: int = 0
    errors: int = 0
    worker_kills: int = 0
    parent_kills: int = 0
    stalls: int = 0
    evil_frames: int = 0
    restarts: int = 0
    #: served image == direct replay of acknowledged writes
    image_identical: bool = False
    #: every shard state file reloads to its slice of the served image
    state_reload_identical: bool = False
    #: payload-ring segments still present in /dev/shm after close —
    #: must be zero even though workers were SIGKILLed mid-batch
    leaked_shm: int = 0
    shard_restarts: List[int] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        # worker self-kills and over-deadline stalls each force at
        # least one restart; a parent-side kill usually does too but
        # can race an in-progress restart, so it stays out of the floor
        return (
            self.image_identical
            and self.state_reload_identical
            and self.errors == 0
            and self.leaked_shm == 0
            and self.restarts >= self.worker_kills + self.stalls
        )

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "p": self.p,
            "seed": self.seed,
            "ops": self.ops,
            "writes": self.writes,
            "retries": self.retries,
            "busy": self.busy,
            "deadline_misses": self.deadline_misses,
            "errors": self.errors,
            "worker_kills": self.worker_kills,
            "parent_kills": self.parent_kills,
            "stalls": self.stalls,
            "evil_frames": self.evil_frames,
            "restarts": self.restarts,
            "shard_restarts": self.shard_restarts,
            "image_identical": self.image_identical,
            "state_reload_identical": self.state_reload_identical,
            "leaked_shm": self.leaked_shm,
            "passed": self.passed,
        }


async def _evil_connection(
    host: str, port: int, kind: int, rng: np.random.Generator
) -> bool:
    """One hostile connection; returns True if the server survived it.

    Survival is checked from the *outside*: after the abuse, a fresh
    well-formed connection must still get an answer.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        if kind == 0:  # truncated header: body shorter than the header
            writer.write(struct.pack("!I", 3) + b"\x01\x00\x00")
            await writer.drain()
            await asyncio.wait_for(reader.read(64), timeout=5)
        elif kind == 1:  # hostile length prefix past the 64 MiB cap
            writer.write(struct.pack("!I", MAX_FRAME + 1))
            await writer.drain()
            await asyncio.wait_for(reader.read(64), timeout=5)
        elif kind == 2:  # torn frame: promise 4 KiB, hang up mid-body
            writer.write(struct.pack("!I", 4096) + b"\x01" * 11)
            await writer.drain()
        else:  # plain garbage bytes
            writer.write(bytes(rng.integers(0, 256, 32, dtype=np.uint8)))
            await writer.drain()
            await asyncio.wait_for(reader.read(64), timeout=5)
    except (
        ConnectionResetError, BrokenPipeError, OSError,
        asyncio.TimeoutError, asyncio.IncompleteReadError,
    ):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
    # the server must still answer a well-formed request
    probe = await BlockClient.connect(host, port)
    try:
        status, _ = await asyncio.wait_for(
            probe.request(OP_READ, 0, 1), timeout=10
        )
        return status == ST_OK
    finally:
        await probe.close()


def run_serve_chaos(
    code: str = "dcode",
    p: int = 5,
    *,
    seed: int = 2015,
    shards: int = 2,
    clients: int = 4,
    ops_per_client: int = 40,
    window: int = 8,
    element_size: int = 32,
    stripes_per_shard: int = 4,
    worker_kills: int = 1,
    parent_kills: int = 1,
    stalls: int = 1,
    evil_connections: int = 4,
    recv_timeout_s: float = 2.0,
    stall_s: Optional[float] = None,
    deadline_ms: int = 0,
    state_dir: Optional[str] = None,
    max_batch: int = 16,
) -> ServeChaosResult:
    """Run one full chaos campaign; every fault class at once.

    Deterministic per ``seed``: fault placement (which shards die at
    which lifetime op counts), evil-frame contents, and the client op
    streams all derive from it.  Parent-side kill *timing* is
    wall-clock and therefore varies — but the oracles are outcome
    properties (final-image identity, durability, zero errors) that
    hold for every interleaving, which is exactly the claim chaos
    testing is meant to establish.
    """
    chaos_rng = np.random.default_rng([seed, 0xC4A05])
    if worker_kills + stalls > shards:
        raise ValueError(
            f"{worker_kills} kills + {stalls} stalls need distinct "
            f"shards, got only {shards} — a restart clears *all* of a "
            f"shard's one-shot hooks, so stacked hooks would never fire"
        )
    if stall_s is None:
        # long enough to trip the batch timeout, short enough to keep
        # the campaign brisk
        stall_s = recv_timeout_s * 2
    if state_dir is not None:
        os.makedirs(state_dir, exist_ok=True)
    config = ServerConfig(
        shards=shards,
        backend="process",
        code=code,
        p=p,
        stripes_per_shard=stripes_per_shard,
        element_size=element_size,
        max_batch=max_batch,
        ack="durable",
        state_dir=state_dir or tempfile.mkdtemp(prefix="repro-chaos-"),
        recv_timeout_s=recv_timeout_s,
        max_restarts=max(8, 4 * (worker_kills + parent_kills + stalls)),
        default_deadline_ms=deadline_ms,
    )
    result = ServeChaosResult(code=code, p=p, seed=seed)

    # -- seeded fault placement: kills and stalls land on *distinct*
    # shards (a restart clears every one-shot hook on its shard), at op
    # counts early enough to land mid-campaign
    specs = [
        config.shard_spec(i, state_dir=config.state_dir)
        for i in range(shards)
    ]
    placement = chaos_rng.permutation(shards)
    for shard in placement[:worker_kills]:
        specs[shard] = replace(
            specs[shard],
            chaos_kill_after_ops=int(chaos_rng.integers(5, 25)),
        )
        result.worker_kills += 1
    for shard in placement[worker_kills:worker_kills + stalls]:
        specs[shard] = replace(
            specs[shard],
            chaos_stall_after_ops=int(chaos_rng.integers(5, 25)),
            chaos_stall_s=float(stall_s),
        )
        result.stalls += 1

    # fork before the loop exists (see make_backends)
    backends = [
        SupervisedShard(
            spec,
            recv_timeout=config.recv_timeout_s,
            heartbeat_s=0.05,
            max_restarts=config.max_restarts,
        )
        for spec in specs
    ]

    evil_kinds = [
        int(chaos_rng.integers(0, 4)) for _ in range(evil_connections)
    ]
    parent_targets = [
        int(chaos_rng.integers(0, shards)) for _ in range(parent_kills)
    ]

    async def campaign():
        server = BlockServer(config, backends)
        host, port = await server.start()
        n = server.router.num_elements

        async def saboteur():
            survived = True
            for j, target in enumerate(parent_targets):
                await asyncio.sleep(0.05 + 0.05 * j)
                backends[target].kill()
                result.parent_kills += 1
            for k, kind in enumerate(evil_kinds):
                ok = await _evil_connection(host, port, kind, chaos_rng)
                survived = survived and ok
                result.evil_frames += 1
            return survived

        load_task = asyncio.ensure_future(run_closed_loop(
            host, port,
            num_elements=n,
            element_size=config.element_size,
            clients=clients,
            ops_per_client=ops_per_client,
            seed=seed,
            window=window,
            verify=False,       # image equivalence is the oracle
            deadline_ms=deadline_ms,
        ))
        sabotage_task = asyncio.ensure_future(saboteur())
        report = await load_task
        survived = await sabotage_task
        image = await fetch_image(host, port, num_elements=n)
        await server.close(drain=True)   # graceful: flush + checkpoint
        return report, image, survived

    report, image, survived_evil = asyncio.run(campaign())

    result.ops = report.ops
    result.writes = report.writes
    result.retries = report.retries
    result.busy = report.busy
    result.deadline_misses = report.deadline_misses
    result.errors = report.errors + report.verify_failures
    if not survived_evil:
        result.errors += 1
    result.shard_restarts = [b.restarts for b in backends]
    result.restarts = sum(result.shard_restarts)

    # -- oracle 1: served image == direct replay of acknowledged writes
    shadow = RAID6Volume(
        make_code(code, p),
        num_stripes=shards * stripes_per_shard,
        element_size=element_size,
    )
    replay_writes(shadow, report.write_logs)
    n = shadow.num_elements
    result.image_identical = shadow.read(0, n).tobytes() == image

    # -- oracle 2: every shard state file reloads to its image slice
    # (image load + ack-ledger recovery — the exact path a restarted
    # worker takes)
    per = n // shards
    esize = element_size
    slices_ok = True
    for i in range(shards):
        reloaded = load_volume(config.shard_spec(i).state_path)
        recover_on_mount(reloaded)
        got = reloaded.read(0, per).tobytes()
        want = image[i * per * esize:(i + 1) * per * esize]
        slices_ok = slices_ok and (got == want)
    result.state_reload_identical = slices_ok

    # -- oracle 3: the payload rings are gone.  Only this process ever
    # creates ring segments (workers inherit the mapping), so any
    # /dev/shm entry with our pid after close() is a leak — including
    # rings whose worker died by SIGKILL mid-batch.
    result.leaked_shm = len(
        glob.glob(f"/dev/shm/{SHM_PREFIX}_{os.getpid()}_*")
    )
    return result


def run_chaos_grid(
    codes,
    primes,
    *,
    seed: int = 2015,
    **kwargs,
) -> Dict[str, dict]:
    """Run one campaign per (code, p); returns summaries keyed
    ``"code-p"``.  Used by the CI smoke job and the CLI."""
    out: Dict[str, dict] = {}
    for code in codes:
        for p in primes:
            result = run_serve_chaos(code, p, seed=seed, **kwargs)
            out[f"{code}-{p}"] = result.to_dict()
    return out
