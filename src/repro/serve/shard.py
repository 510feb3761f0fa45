"""Shard backends: one volume + write-back cache per shard.

A shard is a :class:`RAID6Volume` plus a :class:`StripeCache`, executed
either in-process (:class:`InlineShard`) or in a forked worker process
(:class:`ProcessShard`) so serving is not bound by the parent's GIL.
Either way, :func:`execute_ops` is the single entry point: it runs one
*batch* of shard-local ops in arrival order, buffering writes through
the cache and destaging the whole batch at the end — that coalescing is
what routes serving traffic onto the volume's batched RMW / full-stripe
/ destage paths instead of one parity round-trip per request.

Backends promise **serialised** batches: the coalescer keeps one batch
per shard in flight — a process shard's from the event loop, an inline
shard's on a single-thread executor — so no shard is ever entered
concurrently.  Cross-shard concurrency needs no coordination at all —
shards own disjoint volumes.

The process backend speaks small control frames over a
:class:`multiprocessing.Pipe` while bulk data rides a per-incarnation
shared-memory :class:`~repro.serve.shmring.PayloadRing`: WRITE payloads
are copied once into a parent-allocated slot and referenced by a
``(slot, length)`` descriptor, READ results are copied once by the
worker into a slot the parent reserved and come back the same way — no
pickling of bulk bytes in either direction.  The parent owns every
slot and the segment itself (created pre-fork, inherited, unlinked on
retire), so a ``kill -9`` of the worker can never leak ``/dev/shm``
state; ring exhaustion answers the op a typed BUSY instead of
blocking.  Worker faults come back **typed**:

* an in-batch Python error arrives as a ``("__shard_error__", tb)``
  marker and raises :class:`RuntimeError` with the worker traceback;
* a dead worker (EOF / broken pipe) raises
  :class:`~repro.exceptions.ShardCrashedError`;
* a worker that misses the per-batch deadline (``recv_timeout`` or the
  propagated request deadline) raises
  :class:`~repro.exceptions.ShardTimeoutError` — after which the pipe
  may hold a stale late reply, so the shard must be restarted
  (:meth:`ProcessShard.restart`) before reuse, and takes no batch until
  it is.  The :class:`~repro.serve.supervisor.SupervisedShard` budgets
  the restarts.

An **empty batch is a heartbeat**: the worker answers ``[]`` without
touching the volume, which is how the coalescer pings a quiet worker
through the very pipe traffic travels on.

With ``durable=True`` the worker acknowledges a writing batch only
after the :class:`~repro.serve.state.ShardStateStore` checkpoint
(ack-intent ledger sync + one record appended to its state file), so
acknowledged writes survive ``kill -9``; a restarted worker reloads it and
replays the ledger through mount-time journal recovery.

The ``chaos_*`` spec fields are the seeded fault hooks the serving
chaos harness (:mod:`repro.serve.chaos`) drives: a worker can SIGKILL
itself or stall mid-batch at an exact op count, which makes "worker
dies between op 17 and 18" a deterministic, replayable event.
"""

from __future__ import annotations

import json
import os
import signal
import time
import traceback
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.array import RAID6Volume
from repro.array.cache import StripeCache
from repro.codes.registry import make_code
from repro.exceptions import (
    ReproError,
    ShardCrashedError,
    ShardTimeoutError,
)
from repro.journal.intent import WriteIntentLog
from repro.serve.protocol import (
    OP_FAIL_DISK,
    OP_READ,
    OP_SCRUB,
    OP_STAT,
    OP_WRITE,
    ST_BUSY,
    ST_ERROR,
    ST_OK,
)
from repro.serve.shmring import PayloadRing
from repro.serve.state import build_shard_state
from repro.util.ckernel import xor_kernel
from repro.util.validation import require_positive

#: One shard-local op: (op, start, count, payload).
ShardOp = Tuple[int, int, int, bytes]

#: One result: (status, payload).  The payload is ``bytes`` for control
#: results, and may be a buffer-protocol object (``np.ndarray`` from an
#: inline shard, :class:`~repro.serve.shmring.ShmSlice` from a process
#: shard) for READ data — the server hands either to ``sendmsg``
#: without an intermediate join.
ShardResult = Tuple[int, object]

#: Typed marker the worker process sends when a batch raises.
WORKER_ERROR = "__shard_error__"

#: Pipe descriptor tags for ring-resident payloads (parent → worker →
#: parent).  ``("W", slot, length)`` marks a WRITE payload already in
#: the ring; ``("R", slot)`` reserves a slot for a READ result;
#: ``("S", slot, length)`` marks a result the worker placed there.
SHM_WRITE = "W"
SHM_READ = "R"
SHM_RESULT = "S"


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to build one shard's volume (picklable).

    ``write_back=True`` (the serving architecture) buffers writes in
    the stripe cache and destages on pressure — cross-batch coalescing
    is where the ops/s win comes from, and reads stay correct through
    the dirty overlay.  ``write_back=False`` is the naive baseline:
    every op goes straight to the volume, one parity round-trip per
    write.

    ``durable=True`` attaches a write-intent journal and, combined with
    a ``state_path``, makes the worker checkpoint through a
    :class:`~repro.serve.state.ShardStateStore` before acknowledging
    writes.  The ``chaos_*`` fields are one-shot seeded fault hooks
    (cleared by :meth:`ProcessShard.restart`, so a restarted worker
    does not re-die at the same op count).
    """

    code: str = "dcode"
    p: int = 7
    num_stripes: int = 64
    element_size: int = 64
    cache_stripes: int = 16
    evict_batch: int = 4
    write_back: bool = True
    #: Durable-ack mode: journaled volume + checkpoint-before-ack.
    durable: bool = False
    #: Snapshot file for this shard's crash-safe state (durable mode).
    state_path: Optional[str] = None
    #: Shared-memory payload ring slots per worker incarnation (≥ 1).
    ring_slots: int = 128
    #: Bytes per ring slot; 0 = auto (64 elements, floor 4 KiB).
    ring_slot_bytes: int = 0
    #: Dump a cProfile of the worker's batch execution here on
    #: graceful shutdown (``bench-serve --profile``).
    profile_path: Optional[str] = None
    #: Chaos: SIGKILL the worker just before executing this (1-based)
    #: lifetime op — a deterministic mid-batch worker death.
    chaos_kill_after_ops: Optional[int] = None
    #: Chaos: stall ``chaos_stall_s`` seconds before executing this
    #: lifetime op (a pipe stall / slow shard, depending on whether the
    #: stall exceeds the parent's batch deadline).
    chaos_stall_after_ops: Optional[int] = None
    chaos_stall_s: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.ring_slots, "ring_slots")

    def build_volume(self) -> RAID6Volume:
        return RAID6Volume(
            make_code(self.code, self.p),
            num_stripes=self.num_stripes,
            element_size=self.element_size,
            journal=WriteIntentLog() if self.durable else None,
        )

    def build_cache(self, volume: RAID6Volume) -> Optional[StripeCache]:
        if not self.write_back:
            return None
        return StripeCache(
            volume,
            max_dirty_stripes=self.cache_stripes,
            evict_batch=self.evict_batch,
        )

    def build(self) -> Tuple[RAID6Volume, Optional[StripeCache]]:
        volume = self.build_volume()
        return volume, self.build_cache(volume)

    def sans_chaos(self) -> "ShardSpec":
        """The spec with its one-shot chaos hooks cleared (for restart)."""
        if (
            self.chaos_kill_after_ops is None
            and self.chaos_stall_after_ops is None
        ):
            return self
        return replace(
            self, chaos_kill_after_ops=None, chaos_stall_after_ops=None
        )


class _ChaosHook:
    """Seeded per-op fault hook a worker runs before each op."""

    def __init__(self, spec: ShardSpec) -> None:
        self.kill_at = spec.chaos_kill_after_ops
        self.stall_at = spec.chaos_stall_after_ops
        self.stall_s = spec.chaos_stall_s
        self.ops = 0

    def __call__(self) -> None:
        self.ops += 1
        if self.stall_at is not None and self.ops == self.stall_at:
            time.sleep(self.stall_s)
        if self.kill_at is not None and self.ops == self.kill_at:
            # a real kill -9: no flush, no farewell frame, no cleanup
            os.kill(os.getpid(), signal.SIGKILL)


def execute_ops(
    volume: RAID6Volume,
    cache: Optional[StripeCache],
    ops: List[ShardOp],
    op_hook=None,
    raw: bool = False,
) -> List[ShardResult]:
    """Run one coalesced batch of shard-local ops in arrival order.

    With a cache, writes buffer write-back (destaged on LRU pressure
    and at admin/close flush points, so coalescing spans batches) and
    reads are read-through with dirty overlay — a read behind a write
    sees it without forcing a destage.  Without a cache every op goes
    straight to the volume (the uncoalesced baseline).  Per-op
    failures answer that op with ERROR and keep the batch going.
    ``op_hook`` (chaos) runs before each op and may kill or stall the
    process — which is the point.

    ``raw=True`` returns READ payloads as the volume's ``np.ndarray``
    (possibly a zero-copy view of the live backing store) instead of
    ``bytes`` — the zero-copy data plane's entry point; callers own the
    copy/aliasing decision.  WRITE payloads may be any buffer (bytes or
    a shared-memory view); they are never retained past the call.
    """
    results: List[ShardResult] = []
    for op, start, count, payload in ops:
        if op_hook is not None:
            op_hook()
        try:
            if op == OP_READ:
                data = (
                    cache.read(start, count) if cache is not None
                    else volume.read(start, count)
                )
                results.append((ST_OK, data if raw else data.tobytes()))
            elif op == OP_WRITE:
                data = np.frombuffer(payload, dtype=np.uint8)
                if data.size != count * volume.element_size:
                    raise ReproError(
                        f"write payload of {data.size} bytes != "
                        f"{count} x {volume.element_size}"
                    )
                shaped = data.reshape(count, volume.element_size)
                if cache is not None:
                    cache.write(start, shaped)
                else:
                    volume.write(start, shaped.copy())
                results.append((ST_OK, b""))
            elif op == OP_SCRUB:
                if cache is not None:
                    cache.flush()
                bad = volume.scrub()
                results.append(
                    (ST_OK, json.dumps(sorted(bad)).encode())
                )
            elif op == OP_STAT:
                if cache is not None:
                    cache.flush()
                health = volume.health
                stat = {
                    "health": getattr(health, "name", str(health)),
                    "failed_disks": sorted(volume.failed_disks),
                    "num_elements": volume.num_elements,
                    "element_size": volume.element_size,
                    "num_stripes": volume.num_elements
                    // volume.layout.num_data_cells,
                }
                results.append((ST_OK, json.dumps(stat).encode()))
            elif op == OP_FAIL_DISK:
                # validate before touching anything: an out-of-range
                # index must answer a typed per-op ERROR, never escape
                # the batch as an unhandled exception
                if not 0 <= count < len(volume.disks):
                    raise ReproError(
                        f"disk {count} outside array of "
                        f"{len(volume.disks)} disks"
                    )
                if cache is not None:
                    cache.flush()
                volume.fail_disk(count)
                results.append((ST_OK, b""))
            else:
                results.append(
                    (ST_ERROR, f"unknown shard op {op}".encode())
                )
        except (ReproError, ValueError, IndexError) as exc:
            results.append((ST_ERROR, str(exc).encode()))
    return results


def _batch_writes(ops: List[ShardOp]) -> bool:
    """Whether a batch contains any state-changing op (needs an ack
    barrier in durable mode)."""
    return any(op in (OP_WRITE, OP_FAIL_DISK) for op, _, _, _ in ops)


class InlineShard:
    """Shard backend living in the serving process.

    READ results come back as ``np.ndarray`` buffers, not ``bytes`` —
    the connection hands them to ``writev`` directly.  A result that
    aliases the live backing store (the volume's zero-copy full-stripe
    view) is snapshotted here: a *later* batch could rewrite the range
    before the response flushes, and the write-path copy is exactly the
    intermediate copy the zero-copy plane exists to avoid on the owned
    fast-path arrays.
    """

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.volume, self.cache, self.state, self.recovery = (
            build_shard_state(spec)
        )

    def execute(
        self, ops: List[ShardOp], deadline: Optional[float] = None
    ) -> List[ShardResult]:
        results = execute_ops(self.volume, self.cache, ops, raw=True)
        if self.state is not None and _batch_writes(ops):
            self.state.checkpoint()
        return [
            (status, payload.copy())
            if isinstance(payload, np.ndarray)
            and not payload.flags.writeable
            else (status, payload)
            for status, payload in results
        ]

    def close(self) -> None:
        if self.cache is not None:
            self.cache.flush()
        if self.state is not None:
            self.state.checkpoint()
            self.state.close()


def _materialise(batch, ring: PayloadRing):
    """Resolve a descriptor batch into executable ops (worker side).

    Ring-resident WRITE payloads become live shared-memory views (the
    cache copies them into its slab, the volume's write path into the
    stripes, so the view is never retained), and READ reservations are
    noted for :func:`_marshal`.
    """
    ops: List[ShardOp] = []
    read_slots: dict = {}
    for i, (op, start, count, meta) in enumerate(batch):
        payload = meta
        if isinstance(meta, tuple):
            if meta[0] == SHM_WRITE:
                payload = ring.slot_view(meta[1], meta[2])
            elif meta[0] == SHM_READ:
                read_slots[i] = meta[1]
                payload = b""
        ops.append((op, start, count, payload))
    return ops, read_slots


def _marshal(results, read_slots, ring: PayloadRing):
    """Turn raw batch results into pipe descriptors (worker side).

    READ data lands in its reserved ring slot (one copy, volume → shm);
    anything without a slot — oversized results, control JSON, error
    messages — travels inline as before.
    """
    out: List[ShardResult] = []
    for i, (status, payload) in enumerate(results):
        if isinstance(payload, np.ndarray):
            slot = read_slots.get(i)
            if (
                slot is not None
                and status == ST_OK
                and payload.nbytes <= ring.slot_bytes
            ):
                n = ring.write_into(slot, np.ascontiguousarray(payload))
                out.append((status, (SHM_RESULT, slot, n)))
            else:
                out.append((status, payload.tobytes()))
        else:
            out.append((status, payload))
    return out


def _shard_worker(  # pragma: no cover — child process
    conn, spec: ShardSpec, ring: PayloadRing
) -> None:
    """Worker-process loop: recv a batch, execute, send the results.

    Durable mode checkpoints (ledger sync + incremental persist) after
    every writing batch *before* answering — the ack barrier.  An empty
    batch answers ``[]`` immediately (heartbeat).  The chaos hook may
    SIGKILL or stall the process mid-batch; that is the fault the
    parent-side deadline + supervisor machinery exists to absorb.  The
    worker only ever reads/writes ring slots the parent leased to this
    batch — allocation and reclamation stay parent-side, so a worker
    death cannot leak shared memory.
    """
    volume, cache, state, _ = build_shard_state(spec)
    hook = (
        _ChaosHook(spec)
        if spec.chaos_kill_after_ops is not None
        or spec.chaos_stall_after_ops is not None
        else None
    )
    prof = None
    if spec.profile_path:
        import cProfile

        prof = cProfile.Profile()
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            break
        if msg is None:
            if cache is not None:
                cache.flush()
            if state is not None:
                state.checkpoint()
                state.close()
            if prof is not None:
                prof.dump_stats(spec.profile_path)
            conn.send(None)
            break
        if msg == []:  # heartbeat: prove liveness without volume work
            conn.send([])
            continue
        try:
            if prof is not None:
                prof.enable()
            ops, read_slots = _materialise(msg, ring)
            results = execute_ops(volume, cache, ops, op_hook=hook,
                                  raw=True)
            if state is not None and _batch_writes(ops):
                state.checkpoint()
            reply = _marshal(results, read_slots, ring)
            if prof is not None:
                prof.disable()
            conn.send(reply)
        except BaseException:  # noqa: BLE001 — marshalled to the parent
            if prof is not None:
                prof.disable()
            conn.send((WORKER_ERROR, traceback.format_exc()))
    conn.close()


class _Batch:
    """One staged batch: the descriptor frame the worker gets, and the
    parent's half — which op each descriptor answers, the ops answered
    without dispatch, and the ring slots the batch leases."""

    __slots__ = ("size", "downs", "idx", "local", "write_slots", "read_slots")

    def __init__(self, size: int) -> None:
        self.size = size
        self.downs: List[tuple] = []
        self.idx: List[int] = []
        self.local: dict = {}
        self.write_slots: List[int] = []
        self.read_slots: dict = {}

    @property
    def sent(self) -> bool:
        """Whether the batch goes to the worker.  An empty batch does
        (it is the heartbeat); one whose every op was answered locally
        (ring exhausted) does not — on the pipe it would read as one."""
        return bool(self.idx) or not self.size


class ProcessShard:
    """Shard backend in a forked worker process.

    Fork **before** the asyncio loop starts (see
    :func:`repro.serve.server.make_backends`): forking a running loop
    duplicates its internal pipes into the child.  The child builds its
    own volume from the picklable spec, so no stripe state crosses the
    process boundary — only op tuples and result bytes.

    A batch is two halves: :meth:`submit` stages it on the ring and
    sends its descriptor frame, :meth:`collect` reads and decodes the
    reply.  The coalescer calls them from its event loop, waiting for
    the reply on :meth:`fileno`; :meth:`execute` is the two halves
    around a guarded blocking wait.  One batch is outstanding at a
    time, and an incarnation whose reply never came back takes no
    other.

    ``recv_timeout`` bounds how long one batch may take before
    :meth:`execute` gives up with a typed
    :class:`~repro.exceptions.ShardTimeoutError` — a hung worker can no
    longer wedge its caller forever.  After a timeout (or a crash) call
    :meth:`restart`: it hard-kills the incarnation, clears any one-shot
    chaos hooks from the spec, and forks a fresh worker — which, in
    durable mode, reloads the last checkpoint and replays the
    ack-intent ledger.
    """

    def __init__(
        self,
        spec: ShardSpec,
        recv_timeout: Optional[float] = None,
    ) -> None:
        self.spec = spec
        self.recv_timeout = recv_timeout
        self.restarts = 0
        #: the batch whose reply is outstanding on the pipe
        self._batch: Optional[_Batch] = None
        self._spawn(spec)

    def _spawn(self, spec: ShardSpec) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        xor_kernel()  # imported here, once: every incarnation inherits it
        ring = self._make_ring(spec)
        conn, child = ctx.Pipe()
        proc = ctx.Process(
            target=_shard_worker, args=(child, spec, ring), daemon=True,
        )
        proc.start()
        child.close()
        # published only once started: kill() is taken from any thread
        # (the chaos saboteur), so a kill racing a restart must find
        # either the reaped incarnation or a live one
        self._ring, self._conn, self._proc = ring, conn, proc

    @staticmethod
    def _make_ring(spec: ShardSpec) -> PayloadRing:
        slot_bytes = spec.ring_slot_bytes or max(
            4096, 64 * spec.element_size
        )
        return PayloadRing(spec.ring_slots, slot_bytes)

    @property
    def ring(self) -> PayloadRing:
        """The live incarnation's payload ring (tests, introspection)."""
        return self._ring

    @property
    def name(self) -> str:
        """The live incarnation, as typed errors name it."""
        return f"pid={self._proc.pid}"

    def fileno(self) -> int:
        """The live incarnation's pipe: readable once a reply is in, or
        at EOF the moment the worker dies, busy or idle.  Raises
        :class:`OSError` once the incarnation is retired."""
        return self._conn.fileno()

    def _await_reply(self, timeout: Optional[float]) -> None:
        """Guarded wait for the pipe to turn readable (``None`` = let
        the blocking ``recv`` wait)."""
        if timeout is None:
            return
        deadline = time.monotonic() + timeout
        remaining = timeout
        while True:
            try:
                if self._conn.poll(max(remaining, 0.0)):
                    return
            except OSError as exc:
                raise ShardCrashedError(self.name, str(exc)) from exc
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardTimeoutError(self.name, timeout)

    def timeout_for(self, deadline: Optional[float]) -> Optional[float]:
        """Effective batch timeout: recv_timeout ∧ remaining deadline."""
        timeout = self.recv_timeout
        if deadline is not None:
            remaining = deadline - time.monotonic()
            timeout = (
                remaining if timeout is None else min(timeout, remaining)
            )
            timeout = max(timeout, 0.001)
        return timeout

    def _prepare(self, ops: List[ShardOp]) -> _Batch:
        """Stage a batch onto the ring; split dispatch from local answers.

        Ring exhaustion becomes a typed BUSY answered locally
        (retryable, O(1)) rather than a blocked caller.  Payloads that
        cannot fit any slot fall back to inline pipe bytes, so
        oversized ops still execute.
        """
        batch = _Batch(len(ops))
        ring = self._ring
        esize = self.spec.element_size
        for i, (op, start, count, payload) in enumerate(ops):
            meta = payload
            if op == OP_WRITE:
                slot = ring.alloc(len(payload))
                if slot is not None:
                    ring.write_into(slot, payload)
                    batch.write_slots.append(slot)
                    meta = (SHM_WRITE, slot, len(payload))
                elif len(payload) <= ring.slot_bytes:
                    batch.local[i] = (ST_BUSY, b"payload ring full")
                    continue
            elif op == OP_READ:
                expected = count * esize
                slot = ring.alloc(expected)
                if slot is not None:
                    batch.read_slots[i] = slot
                    meta = (SHM_READ, slot)
                elif expected <= ring.slot_bytes:
                    batch.local[i] = (ST_BUSY, b"payload ring full")
                    continue
            batch.downs.append((op, start, count, meta))
            batch.idx.append(i)
        return batch

    def _release(self, batch: _Batch) -> None:
        for slot in batch.write_slots:
            self._ring.free(slot)
        for slot in batch.read_slots.values():
            self._ring.free(slot)

    def submit(self, ops: List[ShardOp]) -> _Batch:
        """Stage ``ops`` on the ring and send their descriptor frame.

        An empty ``ops`` is a heartbeat.  Raises
        :class:`~repro.exceptions.ShardCrashedError` when the pipe is
        gone, or when the previous batch's reply never came back (the
        incarnation must be restarted before it takes another).
        """
        if self._batch is not None:
            raise ShardCrashedError(
                self.name, "the previous batch's reply never came back"
            )
        batch = self._prepare(ops)
        if batch.sent:
            try:
                self._conn.send(batch.downs)
            except OSError as exc:
                self._release(batch)
                raise ShardCrashedError(self.name, str(exc)) from exc
            self._batch = batch
        return batch

    def collect(self, batch: _Batch) -> List[ShardResult]:
        """Read ``batch``'s reply off the pipe and decode it.

        Blocks until the reply is whole; callers wait for the pipe to
        turn readable first.  A dead worker raises
        :class:`~repro.exceptions.ShardCrashedError` (its leases go
        back when the incarnation is retired), a worker-side exception
        :class:`RuntimeError`.
        """
        if not batch.sent:
            # every op answered locally — nothing went to the worker
            return [batch.local[i] for i in range(batch.size)]
        try:
            reply = self._conn.recv()
        except EOFError as exc:
            raise ShardCrashedError(
                self.name, "worker closed the pipe mid-batch"
            ) from exc
        except OSError as exc:
            raise ShardCrashedError(self.name, str(exc)) from exc
        if (
            isinstance(reply, tuple)
            and len(reply) == 2
            and reply[0] == WORKER_ERROR
        ):
            self._batch = None
            self._release(batch)
            raise RuntimeError(f"shard worker failed:\n{reply[1]}")
        if not isinstance(reply, list) or len(reply) != len(batch.idx):
            raise ShardCrashedError(
                self.name,
                f"pipe desynchronised: {len(batch.idx)} descriptors "
                f"answered by a {type(reply).__name__}",
            )
        self._batch = None
        results: List[ShardResult] = [None] * batch.size  # type: ignore
        for i, answered in batch.local.items():
            results[i] = answered
        read_slots = batch.read_slots
        for j, (status, payload) in zip(batch.idx, reply):
            if (
                isinstance(payload, tuple)
                and len(payload) == 3
                and payload[0] == SHM_RESULT
            ):
                _, slot, length = payload
                results[j] = (
                    status, self._ring.lease_slice(slot, length)
                )
                read_slots.pop(j, None)  # ownership moved to the slice
            else:
                results[j] = (status, payload)
        # write payloads were consumed during execute; reserved read
        # slots the worker didn't use (errors, oversize) come back too
        self._release(batch)
        return results

    def execute(
        self, ops: List[ShardOp], deadline: Optional[float] = None
    ) -> List[ShardResult]:
        """Run one batch to completion: :meth:`submit`, a guarded wait
        within ``recv_timeout`` ∧ ``deadline``, :meth:`collect`."""
        batch = self.submit(ops)
        if batch.sent:
            self._await_reply(self.timeout_for(deadline))
        return self.collect(batch)

    def alive(self) -> bool:
        return self._proc.is_alive()

    def kill(self) -> None:
        """Chaos hook: SIGKILL the worker from the parent side (a no-op
        on an incarnation that never started)."""
        proc = self._proc
        if proc.pid is not None:
            proc.kill()

    def _teardown(self, kill: bool) -> None:
        """Close the pipe, reap the worker (SIGKILL first if ``kill``),
        drop the outstanding batch's leases and retire the ring —
        unlinked immediately (no ``/dev/shm`` leak even after ``kill
        -9``), unmapped once in-flight responses release their slices."""
        try:
            self._conn.close()
        except OSError:  # pragma: no cover — already torn
            pass
        if kill and self._proc.is_alive():
            self._proc.kill()
        self._proc.join(timeout=10)
        if self._proc.is_alive():  # pragma: no cover — stuck worker
            self._proc.terminate()
            self._proc.join(timeout=10)
        if self._batch is not None:
            self._release(self._batch)
            self._batch = None
        self._ring.retire()

    def retire(self) -> None:
        """Hard-kill the incarnation and retire its ring; fork nothing."""
        self._teardown(kill=True)

    def restart(self) -> None:
        """Hard-kill the incarnation and fork a fresh worker.

        One-shot chaos hooks are cleared so the replacement does not
        re-die at the same op count; in durable mode the replacement
        replays base + delta records and the ack-intent ledger via
        mount-time recovery.  The replacement gets a fresh ring and a
        fresh pipe, so a late reply of the old incarnation can never
        be read as one of its own.
        """
        self.retire()
        self.restarts += 1
        self._spawn(self.spec.sans_chaos())

    def recover(self, exc: ReproError) -> None:
        """After a batch failed with ``exc`` (crash or timeout) the
        incarnation cannot be reused: fork its replacement."""
        self.restart()

    def close(self) -> None:
        """Graceful shutdown: the worker flushes (and in durable mode
        checkpoints), acknowledges, and exits.  A batch still in flight
        is answered first — its reply is not the shutdown ack — and its
        results released, since nobody will consume them."""
        if self._proc.is_alive():
            try:
                if self._batch is not None:
                    self._await_reply(self.recv_timeout)
                    try:
                        results = self.collect(self._batch)
                    except RuntimeError:  # the worker lives on
                        results = []
                    for _, payload in results:
                        if hasattr(payload, "release"):
                            payload.release()
                self._conn.send(None)
                self._await_reply(self.recv_timeout)
                self._conn.recv()
            except (ReproError, RuntimeError, OSError, EOFError):
                pass
        self._teardown(kill=False)


BACKENDS = {"inline": InlineShard, "process": ProcessShard}
