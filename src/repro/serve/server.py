"""The asyncio block-serving front end.

One :class:`BlockServer` owns a :class:`~repro.serve.router.ShardRouter`
over N shard backends, each behind a coalescing
:class:`~repro.serve.coalescer.ShardQueue`.  A connection handler per
client decodes frames, runs admission control, splits multi-shard
ranges into extents, gathers the per-shard results, and answers one
response frame per request — all without blocking the loop on volume
work (shards execute on their own single-thread executors or worker
processes).

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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.codes.registry import make_code
from repro.serve import protocol
from repro.serve.coalescer import ShardQueue
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

#: Buffers handed to one ``socket.sendmsg`` call.  Linux guarantees
#: IOV_MAX >= 1024; half that leaves headroom and keeps the partial-send
#: bookkeeping cheap.
_SENDMSG_IOV = 512


def _payload_buffer(payload) -> Tuple[object, Optional[ShmSlice]]:
    """Normalise one shard READ payload to ``(wire buffer, hold)``.

    Ring slices expose their shared-memory view and stay pinned (the
    hold) until the responder has flushed the bytes; ndarray payloads
    (inline shards hand volume reads through raw) expose their memory
    via the buffer protocol.  Nothing is copied here.
    """
    if isinstance(payload, ShmSlice):
        return payload.view, payload
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return payload, None
    try:
        return memoryview(payload).cast("B"), None
    except (TypeError, ValueError):  # non-contiguous ndarray
        return payload.tobytes(), None


def _nbytes(buf) -> int:
    return buf.nbytes if isinstance(buf, memoryview) else len(buf)


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
    #: Wrap process backends in a supervisor (health checks + restart).
    #: None = yes exactly when the backend is process-based.
    supervise: Optional[bool] = None
    #: Per-batch worker reply timeout (None = wait forever).
    recv_timeout_s: Optional[float] = None
    #: Supervisor idle-heartbeat period (0 = no background monitor).
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
    #: each coalescer thread, and each shard worker write one
    #: ``.pstats`` file apiece.  None = no profiling.
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

    @property
    def supervised(self) -> bool:
        if self.supervise is not None:
            return self.supervise
        return self.backend == "process"

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
                os.path.join(state_dir, f"shard-{shard}.npz")
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

    Process backends come back supervised unless ``config.supervise``
    says otherwise.  Durable mode needs a state directory; when the
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
    if config.supervised:
        return [
            SupervisedShard(
                spec,
                recv_timeout=config.recv_timeout_s,
                heartbeat_s=config.heartbeat_s,
                max_restarts=config.max_restarts,
            )
            for spec in specs
        ]
    cls = BACKENDS[config.backend]
    return [
        cls(spec, recv_timeout=config.recv_timeout_s) for spec in specs
    ]


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
        self.ops = 0
        self.busy = 0
        self.errors = 0
        self.retried = 0
        self.deadline_misses = 0
        self.flushes = 0
        self.zero_copy_flushes = 0
        self._server: Optional[asyncio.AbstractServer] = None
        #: live connections: handler task -> (its writer, its responder)
        self._connections: Dict["asyncio.Task", tuple] = {}

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
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
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
            await self._server.wait_closed()
            self._server = None
        if drain:
            for queue in self.queues:
                await queue.drain()
        for queue in self.queues:
            await queue.close()
        self.queues = []
        # Connections that outlived the queues — a client that never
        # hung up, a responder waiting on an op its killed worker will
        # never answer — are reaped here; left pending they outlive the
        # loop ("Task was destroyed but it is pending").  A handler is
        # ended by closing its transport (it reads EOF and finishes
        # normally: asyncio.streams logs an error for a handler task
        # that ends cancelled), its responder by cancellation.
        connections = list(self._connections.items())
        for _, (writer, responder) in connections:
            writer.close()
            responder.cancel()
        await asyncio.gather(
            *(task for handler, (_, responder) in connections
              for task in (handler, responder)),
            return_exceptions=True,
        )

    # -- request handling ------------------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Pipelined per-connection loop.

        Frames are *begun* (admitted, split, enqueued on shard queues)
        the moment they arrive, without waiting for earlier requests to
        finish — that is what lets queue depth at the clients turn into
        coalescer batch size at the shards.  A responder task writes
        results back strictly in request order, so the protocol needs
        no request IDs.
        """
        pending: "asyncio.Queue" = asyncio.Queue()
        responder = asyncio.get_running_loop().create_task(
            self._respond_loop(pending, writer)
        )
        handler = asyncio.current_task()
        self._connections[handler] = (writer, responder)
        handler.add_done_callback(self._connections.pop)
        try:
            while True:
                body = await protocol.read_frame(reader)
                if body is None:
                    break
                try:
                    req = protocol.decode_request(body)
                except ProtocolError as exc:
                    await pending.put(
                        ("imm", None, ST_ERROR, str(exc).encode())
                    )
                    break
                await pending.put(self._begin(req))
        except (ProtocolError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            await pending.put(None)
            try:
                await responder
            except asyncio.CancelledError:
                # loop teardown cancelled the responder mid-drain; the
                # connection is going away regardless
                pass
            except Exception:  # noqa: BLE001 — connection teardown
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _begin(self, req: Request):
        """Admit + enqueue one request; returns the pending item.

        Runs synchronously on the reader loop so ops enter the shard
        queues in frame-arrival order.  ``imm`` items carry a finished
        response (BUSY, validation error); the other kinds carry shard
        futures the responder gathers.
        """
        if not self.admission.admit(req.tenant):
            return ("imm", req, ST_BUSY, b"")
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
                return ("gather", req, futures)
            if req.op in (OP_SCRUB, OP_STAT):
                return ("gather", req, [
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
                return ("gather", req, [
                    self.queues[shard].submit_nowait(
                        (OP_FAIL_DISK, 0, req.count, b"")
                    )
                ])
            raise ValueError(f"unhandled op {req.op}")
        except Exception as exc:  # noqa: BLE001 — answer, don't drop conn
            self.admission.release(req.tenant)
            return ("imm", req, ST_ERROR, str(exc).encode())

    async def _finish(self, item):
        """Resolve one pending item to ``(status, parts, holds)``.

        ``parts`` is the response payload as a list of wire buffers in
        address order — ring slices and volume views pass through
        uncopied.  ``holds`` are the ring slices pinned until the
        responder has flushed them (released then, back to their
        shard's ring).
        """
        kind, req = item[0], item[1]
        if kind == "imm":
            return item[2], [item[3]], []
        try:
            futures = item[2]
            if len(futures) == 1:  # common case: one extent, one shard
                results = [await futures[0]]
            else:
                results = await asyncio.gather(*futures)
            for status, payload in results:
                if status != ST_OK:
                    # short-circuit: free every slice the partial
                    # success pinned before answering the failure
                    data = (
                        payload.tobytes()
                        if hasattr(payload, "tobytes") else payload
                    )
                    for _, p in results:
                        if hasattr(p, "release"):
                            p.release()
                    return status, [data], []
            if req.op == OP_READ:
                # extents are enqueued in address order
                parts, holds = [], []
                for _, payload in results:
                    buf, hold = _payload_buffer(payload)
                    parts.append(buf)
                    if hold is not None:
                        holds.append(hold)
                return ST_OK, parts, holds
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

    async def _send_buffers(self, writer, bufs: List[memoryview]) -> None:
        """Flush framed response buffers to one client, scatter-gather.

        Fast path: the transport's write buffer is empty (the steady
        state of a draining responder), so the buffer list goes
        straight to ``os.writev`` on the connection's fd — one syscall
        per ~500 frames and zero intermediate copies, ring slices and
        volume views included.  Slow path (kernel pushback, TLS, or
        bytes already queued on the transport): the leftovers are
        joined once and handed to the stream writer.  That single join
        is what lets ``flush`` release ring slots the moment it
        returns — the transport may hold its copy as long as it likes.
        """
        transport = writer.transport
        sock = (
            transport.get_extra_info("socket")
            if transport.get_extra_info("sslcontext") is None else None
        )
        if sock is not None:
            fd = sock.fileno()
            while bufs and transport.get_write_buffer_size() == 0:
                try:
                    sent = os.writev(fd, bufs[:_SENDMSG_IOV])
                except (BlockingIOError, InterruptedError):
                    break
                if sent <= 0:  # pragma: no cover — defensive
                    break
                while sent and bufs:
                    head = bufs[0]
                    if sent >= head.nbytes:
                        sent -= head.nbytes
                        bufs.pop(0)
                    else:  # partial send: resume inside this buffer
                        bufs[0] = head[sent:]
                        sent = 0
            if not bufs:
                self.zero_copy_flushes += 1
                return
        writer.write(b"".join(bufs))
        await writer.drain()

    async def _respond_loop(self, pending, writer) -> None:
        """Write responses in request order; drain on a dead client.

        Responses are coalesced: when one shard batch completes it
        resolves up to ``max_batch`` futures at once, and writing each
        as its own frame would cost a syscall apiece.  Finished frames
        accumulate as a buffer list — a
        :func:`protocol.encode_response_prefix` header per response,
        payload buffers appended as-is — and flush scatter-gather via
        :meth:`_send_buffers` the moment the responder would otherwise
        block (empty pending queue, or a request whose shard futures
        are still outstanding).  Ring slices stay pinned in ``holds``
        until their bytes are out, then return to their shard's ring —
        on a dead client they are released immediately."""
        alive = True
        parts: List[object] = []
        holds: List[ShmSlice] = []
        frames = 0

        async def flush() -> None:
            nonlocal alive, frames
            frames = 0
            if parts:
                bufs = [
                    memoryview(b).cast("B")
                    for b in parts if _nbytes(b)
                ]
                parts.clear()
                if alive:
                    self.flushes += 1
                    try:
                        await self._send_buffers(writer, bufs)
                    except (
                        ConnectionResetError, BrokenPipeError, OSError,
                    ):
                        alive = False
            for hold in holds:
                hold.release()
            holds.clear()

        while True:
            if pending.empty():
                await flush()
            item = await pending.get()
            if item is None:
                await flush()
                return
            if item[0] != "imm" and not all(
                f.done() for f in item[2]
            ):
                await flush()  # _finish is about to block
            status, payload_parts, item_holds = await self._finish(item)
            self.ops += 1
            if status == ST_BUSY:
                self.busy += 1
            elif status == ST_ERROR:
                self.errors += 1
            elif status == ST_RETRY:
                self.retried += 1
            elif status == ST_DEADLINE:
                self.deadline_misses += 1
            if alive:
                total = sum(_nbytes(b) for b in payload_parts)
                parts.append(
                    protocol.encode_response_prefix(status, total)
                )
                parts.extend(payload_parts)
                holds.extend(item_holds)
                frames += 1
                if frames >= 256:
                    await flush()
            else:
                for hold in item_holds:
                    hold.release()

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        batches = sum(q.batches for q in self.queues)
        batched = sum(q.batched_ops for q in self.queues)
        restarts = sum(
            getattr(b, "restarts", 0) for b in self.backends
        )
        return {
            "ops": self.ops,
            "busy": self.busy,
            "errors": self.errors,
            "retried": self.retried,
            "deadline_misses": self.deadline_misses,
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
