"""The asyncio block-serving front end.

One :class:`BlockServer` owns a :class:`~repro.serve.router.ShardRouter`
over N shard backends, each behind a coalescing
:class:`~repro.serve.coalescer.ShardQueue`.  Every client connection is
an :class:`asyncio.Protocol` driven by callbacks, not tasks: a socket
read is split into frames, each frame is admitted, split into per-shard
extents and enqueued at once, and the pending requests wait in a
per-connection deque that the shard futures' completion pumps, in
request order, into one scatter-gather ``writev`` — all without
blocking the loop on volume work (process shards execute in their
worker processes, driven from the loop through their pipes; inline
shards on single-thread executors).

Process-backed shards must be forked **before** the event loop exists
(:func:`make_backends`), because ``fork`` duplicates a running loop's
internal wakeup pipes into the child.  ``python -m repro serve`` and
the benchmarks follow that order: build backends, then
``asyncio.run(...)``.

Fault tolerance is layered on without changing the data path:
process-backed shards are wrapped in a
:class:`~repro.serve.supervisor.SupervisedShard` (health checks,
restart-from-spec, typed RETRY on crash), ``ack="durable"`` gives every
shard a crash-safe state file so acknowledged writes survive ``kill
-9``, per-request deadlines bound queueing, and ``close()`` drains the
shard queues before tearing them down so a graceful shutdown never
drops accepted work.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.codes.registry import make_code
from repro.serve import protocol
from repro.serve.coalescer import ShardQueue, release_payloads
from repro.serve.protocol import (
    MAX_DEADLINE_MS,
    OP_FAIL_DISK,
    OP_READ,
    OP_SCRUB,
    OP_STAT,
    OP_WRITE,
    ST_BUSY,
    ST_DEADLINE,
    ST_ERROR,
    ST_OK,
    ST_RETRY,
    ProtocolError,
    Request,
)
from repro.serve.qos import AdmissionControl
from repro.serve.router import ShardRouter
from repro.serve.shard import BACKENDS, InlineShard, ShardSpec
from repro.serve.shmring import ShmSlice
from repro.serve.supervisor import SupervisedShard
from repro.util.validation import require_positive

#: Response bytes one pump accumulates before it flushes regardless: how
#: far past high water a client that stopped reading can push the buffer.
_FLUSH_BYTES = 256 * 1024


def _wire_buffer(payload):
    """One shard READ payload as a wire buffer, nothing copied: ring
    slices expose their shared-memory view, ndarray payloads (inline
    shards hand volume reads through raw) their memory."""
    if isinstance(payload, ShmSlice):
        return payload.view
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return payload
    try:
        return memoryview(payload).cast("B")
    except (TypeError, ValueError):  # non-contiguous ndarray
        return payload.tobytes()


@dataclass(frozen=True)
class ServerConfig:
    """Geometry + policy of one block service."""

    shards: int = 1
    backend: str = "inline"          # "inline" | "process"
    code: str = "dcode"
    p: int = 7
    stripes_per_shard: int = 64
    element_size: int = 64
    cache_stripes: int = 16
    evict_batch: int = 4
    write_back: bool = True          # False = direct per-op baseline
    max_batch: int = 64              # 1 = uncoalesced serial baseline
    max_inflight: int = 256
    rate: Optional[float] = None     # per-tenant ops/s; None = unlimited
    burst: Optional[float] = None
    host: str = "127.0.0.1"
    port: int = 0                    # 0 = ephemeral
    #: "buffered" acks a WRITE once it reaches the shard cache;
    #: "durable" acks only after the shard's checkpoint barrier
    #: (ack-intent ledger + atomic snapshot), so acked writes survive
    #: ``kill -9`` of a worker.
    ack: str = "buffered"
    #: Directory for per-shard crash-safe state files (durable mode);
    #: None = a fresh temporary directory per :func:`make_backends`.
    state_dir: Optional[str] = None
    #: Per-batch worker reply timeout (None = wait forever).
    recv_timeout_s: Optional[float] = None
    #: Idle-shard heartbeat period, kept by each process shard's queue
    #: on the loop (0 = no heartbeat).
    heartbeat_s: float = 0.0
    #: Restart budget before a shard is declared failed.
    max_restarts: int = 8
    #: Server-side default deadline applied to requests that carry none
    #: (0 = none).
    default_deadline_ms: int = 0
    #: Payload-ring geometry for process-backed shards: slot count and
    #: slot size in bytes (0 = sized automatically from the element
    #: size).  The ring carries WRITE payloads and READ results between
    #: parent and worker out-of-band; the Pipe only moves descriptors.
    ring_slots: int = 128
    ring_slot_bytes: int = 0
    #: Directory for cProfile dumps (``--profile``): the server loop,
    #: each inline shard's coalescer thread, and each shard worker
    #: write one ``.pstats`` file apiece.  None = no profiling.
    profile_dir: Optional[str] = None

    def __post_init__(self) -> None:
        require_positive(self.shards, "shards")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {sorted(BACKENDS)}, "
                f"got {self.backend!r}"
            )
        if self.ack not in ("buffered", "durable"):
            raise ValueError(
                f"ack must be 'buffered' or 'durable', got {self.ack!r}"
            )
        if not 0 <= self.default_deadline_ms <= MAX_DEADLINE_MS:
            raise ValueError(
                f"default_deadline_ms must be in [0, {MAX_DEADLINE_MS}]"
            )
        if self.recv_timeout_s is not None and self.recv_timeout_s <= 0:
            raise ValueError("recv_timeout_s must be positive or None")
        require_positive(self.max_restarts, "max_restarts")
        require_positive(self.ring_slots, "ring_slots")
        if self.ring_slot_bytes < 0:
            raise ValueError("ring_slot_bytes must be >= 0")

    @property
    def durable(self) -> bool:
        return self.ack == "durable"

    def shard_spec(self, shard: int = 0, state_dir: Optional[str] = None) \
            -> ShardSpec:
        state_dir = state_dir if state_dir is not None else self.state_dir
        return ShardSpec(
            code=self.code,
            p=self.p,
            num_stripes=self.stripes_per_shard,
            element_size=self.element_size,
            cache_stripes=self.cache_stripes,
            evict_batch=self.evict_batch,
            write_back=self.write_back,
            durable=self.durable,
            state_path=(
                os.path.join(state_dir, f"shard-{shard}.img")
                if self.durable and state_dir is not None else None
            ),
            ring_slots=self.ring_slots,
            ring_slot_bytes=self.ring_slot_bytes,
            profile_path=(
                os.path.join(self.profile_dir, f"shard-{shard}.pstats")
                if self.profile_dir is not None else None
            ),
        )

    def router(self) -> ShardRouter:
        per = make_code(self.code, self.p).num_data_cells
        return ShardRouter(self.shards, self.stripes_per_shard * per)


def make_backends(
    config: ServerConfig, state_dir: Optional[str] = None
) -> List[object]:
    """Build the shard backends (fork happens here, pre-loop).

    Process backends come back supervised (health checks + restart).
    Durable mode needs a state directory; when the
    config names none, a fresh temporary directory is created so every
    pool gets private snapshots.
    """
    state_dir = state_dir or config.state_dir
    if config.durable and state_dir is None:
        state_dir = tempfile.mkdtemp(prefix="repro-shard-state-")
    specs = [
        config.shard_spec(i, state_dir=state_dir)
        for i in range(config.shards)
    ]
    if config.backend == "inline":
        return [InlineShard(spec) for spec in specs]
    return [
        SupervisedShard(
            spec,
            recv_timeout=config.recv_timeout_s,
            heartbeat_s=config.heartbeat_s,
            max_restarts=config.max_restarts,
        )
        for spec in specs
    ]


class _Connection(asyncio.Protocol):
    """One client connection, driven by transport callbacks.

    Frames are *begun* (admitted, split, enqueued on shard queues) the
    moment a socket read delivers them, without waiting for earlier
    requests to finish — that is what lets queue depth at the clients
    turn into coalescer batch size at the shards.  The pending items
    wait in a deque that :meth:`_pump` answers strictly in request
    order (no request IDs needed), coalesced: one shard batch resolves
    up to ``max_batch`` futures at once and one pump sends every answer
    that became ready as one buffer list.  Ring slices stay pinned
    until that send returns; a dead client's are released as they resolve.
    """

    def __init__(self, server: "BlockServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.frames = protocol.FrameSplitter()
        self.pending: deque = deque()
        self.waiting = None      # shard future that re-runs the pump
        self.paused = False      # transport buffer above high water
        self.hanging_up = False  # no more requests: answer, then close
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.fd = transport.get_extra_info("socket").fileno()
        self.server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        if self.hanging_up:
            return
        begin, pending = self.server._begin, self.pending
        try:
            for body in self.frames.feed(data):
                pending.append(begin(protocol.decode_request(body)))
        except ProtocolError as exc:
            # a stream that lost framing cannot be resynchronised
            pending.append((None, (), ST_ERROR, str(exc).encode()))
            self.hanging_up = True
            self.transport.pause_reading()
        self._pump()

    def eof_received(self) -> bool:
        self.hanging_up = True
        self._pump()
        return True  # keep the write side open for what is still owed

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self._pump()

    def connection_lost(self, exc) -> None:
        self.transport = None
        self.closed.set_result(None)
        self.resume_writing()  # what is owed resolves into releases only

    def _on_done(self, _future) -> None:
        self.waiting = None
        self._pump()

    def _pump(self) -> None:
        """Answer every pending request whose results are all in, in
        request order; stop at the first that is still outstanding."""
        pending, server = self.pending, self.server
        bufs, holds, nbytes = [], [], 0
        while pending and not self.paused:
            blocker = next((f for f in pending[0][1] if not f.done()), None)
            if blocker is not None:
                if blocker is not self.waiting:
                    self.waiting = blocker
                    blocker.add_done_callback(self._on_done)
                break
            status, parts, item_holds = server._finish(pending.popleft())
            server.answered[status] += 1
            holds += item_holds
            if self.transport is not None:
                size = sum(map(len, parts))
                bufs.append(protocol.encode_response_prefix(status, size))
                bufs += parts
                nbytes += size
            if nbytes >= _FLUSH_BYTES:
                self._flush(bufs, holds)
                nbytes = 0
        self._flush(bufs, holds)
        if not pending:
            if self.transport is None:
                server._connections.discard(self)
            elif self.hanging_up:
                self.transport.close()

    def _flush(self, bufs: list, holds: List[ShmSlice]) -> None:
        """Send the accumulated frames, then release their ring slices;
        both lists come back empty."""
        if bufs and self.transport is not None:
            self.server.flushes += 1
            try:
                if protocol.send_buffers(self.transport, self.fd, bufs):
                    self.server.zero_copy_flushes += 1
            except OSError:  # reset / broken pipe: the client is gone
                self.transport.abort()
                self.transport = None
        bufs.clear()
        for hold in holds:
            hold.release()
        holds.clear()

    def abandon(self) -> None:
        """Server shutdown: whatever a stopped shard queue still owes
        this client is answered RETRY (it was not acknowledged), then
        the connection hangs up — at once if the client stopped reading."""
        for _, futures, *_ in self.pending:
            for future in futures:
                if not future.done():
                    future.set_result((ST_RETRY, b"server shutting down"))
        self.hanging_up = True
        if self.paused:
            self.transport.abort()
        else:
            self._pump()


class BlockServer:
    """Serve the block protocol over TCP for one shard pool."""

    def __init__(
        self,
        config: ServerConfig,
        backends: Optional[List[object]] = None,
    ) -> None:
        self.config = config
        self.router = config.router()
        self.backends = (
            make_backends(config) if backends is None else backends
        )
        if len(self.backends) != config.shards:
            raise ValueError(
                f"{len(self.backends)} backends for "
                f"{config.shards} shards"
            )
        self.admission = AdmissionControl(
            max_inflight=config.max_inflight,
            rate=config.rate,
            burst=config.burst,
        )
        self.queues: List[ShardQueue] = []
        self.answered: Counter = Counter()  # responses sent, by status
        self.flushes = 0
        self.zero_copy_flushes = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Start queues + listener; returns the bound (host, port)."""
        self.queues = [
            ShardQueue(
                b,
                max_batch=self.config.max_batch,
                profile_path=(
                    os.path.join(
                        self.config.profile_dir, f"queue-{i}.pstats"
                    )
                    if self.config.profile_dir is not None else None
                ),
            )
            for i, b in enumerate(self.backends)
        ]
        for queue in self.queues:
            queue.start()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.config.host, self.config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def close(self, drain: bool = True) -> None:
        """Stop the listener and shut the shard pool down.

        With ``drain=True`` (the default — a *graceful* shutdown) every
        op already accepted onto a shard queue is executed and answered
        before the queues stop, and each backend's ``close`` then
        flushes its cache (and, in durable mode, takes a final
        checkpoint) — accepted work is never silently dropped.
        ``drain=False`` is the hard-stop path: queued ops are abandoned
        where they sit.
        """
        if self._server is not None:
            self._server.close()
        if drain:
            for queue in self.queues:
                await queue.drain()
        for queue in self.queues:
            await queue.close()
        self.queues = []
        # connections that outlived the queues (a client that never
        # hung up) are reaped, so no transport outlives the loop
        connections = list(self._connections)
        for connection in connections:
            connection.abandon()
        await asyncio.gather(*(c.closed for c in connections))
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # -- request handling ------------------------------------------------------

    def _begin(self, req: Request):
        """Admit + enqueue one request; returns the pending item.

        Runs synchronously inside ``data_received`` so ops enter the
        shard queues in frame-arrival order.  An item is ``(req,
        futures)`` — the shard futures the connection's pump waits on —
        or, already answered (BUSY, validation error), ``(req, (),
        status, payload)``.
        """
        if not self.admission.admit(req.tenant):
            return (req, (), ST_BUSY, b"")
        try:
            if req.op in (OP_READ, OP_WRITE):
                esize = self.config.element_size
                if (
                    req.op == OP_WRITE
                    and len(req.payload) != req.count * esize
                ):
                    raise ValueError(
                        f"payload of {len(req.payload)} bytes != "
                        f"{req.count} x {esize}"
                    )
                # the wire deadline is a relative budget; fix it to an
                # absolute instant at admission so queueing time counts
                ms = req.deadline_ms or self.config.default_deadline_ms
                deadline = (
                    time.monotonic() + ms / 1000.0 if ms else None
                )
                futures = []
                for shard, local, take, offset in self.router.split(
                    req.start, req.count
                ):
                    chunk = (
                        req.payload[
                            offset * esize:(offset + take) * esize
                        ]
                        if req.op == OP_WRITE else b""
                    )
                    futures.append(
                        self.queues[shard].submit_nowait(
                            (req.op, local, take, chunk), deadline
                        )
                    )
                return (req, futures)
            if req.op in (OP_SCRUB, OP_STAT):
                return (req, [
                    queue.submit_nowait((req.op, 0, 0, b""))
                    for queue in self.queues
                ])
            if req.op == OP_FAIL_DISK:
                shard = req.start
                if not 0 <= shard < self.config.shards:
                    raise ValueError(
                        f"shard {shard} outside pool of "
                        f"{self.config.shards}"
                    )
                return (req, [
                    self.queues[shard].submit_nowait(
                        (OP_FAIL_DISK, 0, req.count, b"")
                    )
                ])
            raise ValueError(f"unhandled op {req.op}")
        except Exception as exc:  # noqa: BLE001 — answer, don't drop conn
            self.admission.release(req.tenant)
            return (req, (), ST_ERROR, str(exc).encode())

    def _finish(self, item):
        """Resolve one pending item, every shard future of which is
        done, to ``(status, parts, holds)``: the response payload as
        non-empty wire buffers in address order (ring slices and volume
        views pass through uncopied) and the ring slices to release
        once the connection has flushed them."""
        req, futures, *answered = item
        if answered:
            return answered[0], [answered[1]] if answered[1] else [], []
        try:
            results = [future.result() for future in futures]
            for status, payload in results:
                if status != ST_OK:
                    # short-circuit: free every slice the partial
                    # success pinned before answering the failure
                    data = (
                        payload.tobytes()
                        if hasattr(payload, "tobytes") else payload
                    )
                    release_payloads(results)
                    return status, [data] if data else [], []
            if req.op == OP_READ:
                # extents are enqueued in address order
                payloads = [payload for _, payload in results]
                return (
                    ST_OK,
                    [b for b in map(_wire_buffer, payloads) if len(b)],
                    [p for p in payloads if isinstance(p, ShmSlice)],
                )
            if req.op in (OP_SCRUB, OP_STAT):
                merged = {
                    str(shard): json.loads(bytes(payload).decode())
                    for shard, (_, payload) in enumerate(results)
                }
                if req.op == OP_STAT:
                    merged["server"] = self.stats()
                return ST_OK, [json.dumps(merged).encode()], []
            return ST_OK, [], []
        except Exception as exc:  # noqa: BLE001 — answer, don't drop conn
            return ST_ERROR, [str(exc).encode()], []
        finally:
            self.admission.release(req.tenant)

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        batches = sum(q.batches for q in self.queues)
        batched = sum(q.batched_ops for q in self.queues)
        restarts = sum(
            getattr(b, "restarts", 0) for b in self.backends
        )
        return {
            "ops": sum(self.answered.values()),
            "busy": self.answered[ST_BUSY],
            "errors": self.answered[ST_ERROR],
            "retried": self.answered[ST_RETRY],
            "deadline_misses": self.answered[ST_DEADLINE],
            "restarts": restarts,
            "shards": self.config.shards,
            "backend": self.config.backend,
            "ack": self.config.ack,
            "max_batch": self.config.max_batch,
            "batches": batches,
            "avg_batch": (batched / batches) if batches else 0.0,
            "flushes": self.flushes,
            "zero_copy_flushes": self.zero_copy_flushes,
        }


async def serve_forever(
    config: ServerConfig,
    backends: Optional[List[object]] = None,
    duration: Optional[float] = None,
    ready: Optional["asyncio.Event"] = None,
    announce=None,
) -> dict:
    """Run a server until cancelled (or for ``duration`` seconds)."""
    server = BlockServer(config, backends)
    host, port = await server.start()
    if announce is not None:
        announce(host, port)
    if ready is not None:
        ready.set()
    try:
        if duration is None:
            await asyncio.Event().wait()  # pragma: no cover — forever
        else:
            await asyncio.sleep(duration)
    finally:
        await server.close()
    return server.stats()
