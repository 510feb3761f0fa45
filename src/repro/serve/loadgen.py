"""Seeded open- and closed-loop load generators for the block service.

Determinism contract (CI replays depend on it): every client draws its
op stream from ``default_rng([seed, client, 0])`` and its think/backoff
times from ``default_rng([seed, client, 1])`` — *separate* streams, so
a BUSY retry or timing wobble never perturbs which ops are issued or
what bytes they carry.  Clients own disjoint address regions, so the
final volume image is a pure function of ``(seed, clients, ops)`` —
identical across serial vs. 4-shard runs, which is what the
byte-equivalence checks assert.

Two generator shapes:

* :func:`run_closed_loop` — N think-time clients, each issuing its next
  op only after the previous completes (throughput follows service
  rate; the shape used for the committed ops/s floors);
* :func:`run_open_loop` — Poisson arrivals on an absolute schedule at a
  fixed offered rate, independent of completions, each op timed from
  the instant it was due (the shape that exposes queueing collapse and
  BUSY shedding).

Both return a :class:`LoadReport` with ops/s and p50/p95/p99 latency
(the open loop adds how late the generator itself ran), plus
per-client write logs for replaying against a direct
:class:`~repro.array.volume.RAID6Volume` (:func:`replay_writes`).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.serve import protocol
from repro.serve.protocol import (
    OP_READ,
    OP_WRITE,
    RETRYABLE,
    ST_BUSY,
    ST_DEADLINE,
    ST_OK,
    ST_RETRY,
    Request,
)

#: One logged write: (start, payload) in issue order.
WriteLog = List[Tuple[int, bytes]]


class BlockClient(asyncio.Protocol):
    """Minimal client for the block protocol, callback-driven like the
    server's connections: each socket read is split into response
    frames that wait in a deque for :meth:`recv`, and :meth:`flush`
    sends what :meth:`send_nowait` buffered with one ``writev``.  One
    caller at a time may wait in :meth:`recv` (another may be sending)."""

    def __init__(self) -> None:
        self._transport: Optional[asyncio.Transport] = None
        self._frames = protocol.FrameSplitter()
        self._responses: Deque[bytes] = deque()
        self._out: List[object] = []
        self._readable = asyncio.Event()  # set by every socket read
        self._writable = asyncio.Event()  # clear above high water
        self._writable.set()
        self._closed = asyncio.Event()

    @classmethod
    async def connect(cls, host: str, port: int) -> "BlockClient":
        _, client = await asyncio.get_running_loop().create_connection(
            cls, host, port
        )
        return client

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._fd = transport.get_extra_info("socket").fileno()

    def data_received(self, data: bytes) -> None:
        try:
            self._responses.extend(self._frames.feed(data))
        except protocol.ProtocolError:
            self._transport.abort()  # recv() reports the lost connection
        self._readable.set()

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    def connection_lost(self, exc) -> None:
        self._transport = None
        for event in (self._readable, self._writable, self._closed):
            event.set()

    def send_nowait(
        self, op: int, start: int = 0, count: int = 0,
        payload: bytes = b"", tenant: int = 0, deadline_ms: int = 0,
    ) -> None:
        """Buffer a request frame until the next :meth:`flush`, so a
        pipelining caller pays one syscall per burst.  Header and
        payload stay separate buffers
        (:func:`protocol.encode_request_parts`): WRITE payloads reach
        the socket without an intermediate frame concatenation."""
        head, body = protocol.encode_request_parts(
            Request(op, tenant, start, count, payload, deadline_ms)
        )
        self._out.append(head)
        if len(body):
            self._out.append(body)

    async def flush(self) -> None:
        """Send every buffered frame (waits only above high water)."""
        if self._transport is None:
            raise ConnectionResetError("connection lost")
        bufs, self._out = self._out, []
        if bufs:
            protocol.send_buffers(self._transport, self._fd, bufs)
        await self._writable.wait()

    async def recv(self) -> Tuple[int, bytes]:
        """Receive the response to the oldest outstanding request."""
        while not self._responses:
            if self._transport is None:
                raise ConnectionError("server closed the connection")
            self._readable.clear()
            await self._readable.wait()
        return protocol.decode_response(self._responses.popleft())

    def has_buffered_response(self) -> bool:
        """True when :meth:`recv` would not block: a pipelining client
        drains a coalesced burst before paying one flush to refill."""
        return bool(self._responses)

    async def request(
        self, op: int, start: int = 0, count: int = 0,
        payload: bytes = b"", tenant: int = 0, deadline_ms: int = 0,
    ) -> Tuple[int, bytes]:
        """Send one request and wait for its response."""
        self.send_nowait(op, start, count, payload, tenant, deadline_ms)
        await self.flush()
        return await self.recv()

    async def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
        await self._closed.wait()


def _percentile(samples: List[float], q: float) -> float:
    return float(np.percentile(np.array(samples), q)) if samples else 0.0


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generator run."""

    ops: int = 0
    reads: int = 0
    writes: int = 0
    busy: int = 0
    #: Ops re-issued after a typed RETRY (shard crashed / restarting).
    retries: int = 0
    #: Ops re-issued after the server dropped them on deadline.
    deadline_misses: int = 0
    errors: int = 0
    verify_failures: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    duration_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    #: Open loop: how late after its due time the generator issued each op.
    late_ms: List[float] = field(default_factory=list)
    write_logs: Dict[int, WriteLog] = field(default_factory=dict)

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.duration_s if self.duration_s > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        return _percentile(self.latencies_ms, q)

    def to_dict(self) -> dict:
        return {
            "ops": self.ops,
            "reads": self.reads,
            "writes": self.writes,
            "busy": self.busy,
            "retries": self.retries,
            "deadline_misses": self.deadline_misses,
            "errors": self.errors,
            "verify_failures": self.verify_failures,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "duration_s": round(self.duration_s, 4),
            "ops_per_sec": round(self.ops_per_sec, 2),
            "p50_ms": round(self.percentile_ms(50), 3),
            "p95_ms": round(self.percentile_ms(95), 3),
            "p99_ms": round(self.percentile_ms(99), 3),
            "late_p99_ms": round(_percentile(self.late_ms, 99), 3),
        }


def _merge(total: LoadReport, part: LoadReport) -> None:
    total.ops += part.ops
    total.reads += part.reads
    total.writes += part.writes
    total.busy += part.busy
    total.retries += part.retries
    total.deadline_misses += part.deadline_misses
    total.errors += part.errors
    total.verify_failures += part.verify_failures
    total.bytes_read += part.bytes_read
    total.bytes_written += part.bytes_written
    total.latencies_ms.extend(part.latencies_ms)
    total.late_ms.extend(part.late_ms)
    total.write_logs.update(part.write_logs)


class _ClientPlan:
    """The deterministic op stream of one client."""

    def __init__(
        self,
        client_id: int,
        seed: int,
        clients: int,
        num_elements: int,
        element_size: int,
        read_frac: float,
        max_extent: int,
    ) -> None:
        region = num_elements // clients
        if region < max_extent:
            raise ValueError(
                f"{clients} clients over {num_elements} elements leaves "
                f"regions of {region} < max extent {max_extent}"
            )
        self.client_id = client_id
        self.base = client_id * region
        self.region = region
        self.element_size = element_size
        self.read_frac = read_frac
        self.max_extent = max_extent
        self.ops_rng = np.random.default_rng([seed, client_id, 0])
        self.think_rng = np.random.default_rng([seed, client_id, 1])
        self._buf: List[Tuple[int, int, int, bytes]] = []

    def _refill(self, n: int = 256) -> None:
        """Draw ``n`` ops in four vectorised rng calls.

        Scalar per-op draws cost more than the protocol round-trip they
        feed at high client counts, so the stream is generated in
        chunks: counts, start fractions, read/write coin flips, and one
        payload blob that write ops slice in order.  The stream stays a
        pure function of ``(seed, client_id)``; overdraw past the last
        issued op is simply discarded."""
        rng = self.ops_rng
        counts = rng.integers(1, self.max_extent + 1, size=n)
        fracs = rng.random(n)
        starts = self.base + (
            fracs * (self.region - counts + 1)
        ).astype(np.int64)
        is_read = rng.random(n) < self.read_frac
        esize = self.element_size
        blob = rng.integers(
            0, 256,
            int(counts[~is_read].sum()) * esize,
            dtype=np.uint8,
        ).tobytes()
        ops: List[Tuple[int, int, int, bytes]] = []
        offset = 0
        for k in range(n):
            count, start = int(counts[k]), int(starts[k])
            if is_read[k]:
                ops.append((OP_READ, start, count, b""))
            else:
                size = count * esize
                ops.append(
                    (OP_WRITE, start, count, blob[offset:offset + size])
                )
                offset += size
        ops.reverse()
        self._buf = ops

    def next_op(self) -> Tuple[int, int, int, bytes]:
        """Pop the next (op, start, count, payload) — ops stream only."""
        if not self._buf:
            self._refill()
        return self._buf.pop()

    def backoff_s(self, attempt: int) -> float:
        """Jittered exponential backoff for any retryable status
        (BUSY / RETRY / DEADLINE) — drawn from the *think* stream only,
        so retry timing never perturbs the op stream."""
        cap = min(0.05, 0.001 * (2 ** min(attempt, 5)))
        return float(self.think_rng.random()) * cap

    def think_s(self, think_time: float) -> float:
        if think_time <= 0:
            return 0.0
        return float(self.think_rng.exponential(think_time))


def _count_retryable(report: LoadReport, status: int) -> None:
    """Book one retryable response into its typed counter."""
    if status == ST_BUSY:
        report.busy += 1
    elif status == ST_RETRY:
        report.retries += 1
    elif status == ST_DEADLINE:
        report.deadline_misses += 1


def _record(
    plan: _ClientPlan,
    op_tuple: Tuple[int, int, int, bytes],
    status: int,
    answer: bytes,
    shadow: Dict[int, bytes],
    report: LoadReport,
    verify: bool,
) -> None:
    """Book one completed op into the report and the shadow image."""
    op, start, count, payload = op_tuple
    esize = plan.element_size
    report.ops += 1
    if status != ST_OK:
        report.errors += 1
        return
    if op == OP_READ:
        report.reads += 1
        report.bytes_read += len(answer)
        if verify:
            for k in range(count):
                want = shadow.get(start + k)
                got = answer[k * esize:(k + 1) * esize]
                if want is not None and want != got:
                    report.verify_failures += 1
    else:
        report.writes += 1
        report.bytes_written += len(payload)
        log = report.write_logs.setdefault(plan.client_id, [])
        log.append((start, payload))
        if verify:
            for k in range(count):
                shadow[start + k] = payload[k * esize:(k + 1) * esize]


async def run_closed_loop(
    host: str,
    port: int,
    *,
    num_elements: int,
    element_size: int,
    clients: int = 4,
    ops_per_client: int = 100,
    read_frac: float = 0.5,
    seed: int = 2015,
    think_time: float = 0.0,
    duration: Optional[float] = None,
    max_extent: int = 8,
    window: int = 1,
    verify: bool = True,
    deadline_ms: int = 0,
) -> LoadReport:
    """N think-time clients, each keeping ``window`` ops in flight.

    ``window`` is the per-client queue depth (1 = strict one-at-a-time
    closed loop; real block initiators pipeline).  Requests on one
    connection complete in order, so read-your-writes holds at any
    window — except for an op re-issued after a retryable status (BUSY,
    RETRY, DEADLINE), which re-enters behind ops already in flight
    (verification runs therefore disable rate limiting and chaos runs
    verify via final-image equivalence instead).  ``duration`` (seconds)
    stops issuing early without changing which ops *would* be issued —
    the op streams stay a pure function of the seed.  ``deadline_ms``
    stamps every request with a per-request deadline budget.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    deadline = (
        None if duration is None else time.perf_counter() + duration
    )
    total = LoadReport()
    t0 = time.perf_counter()

    async def one_client(cid: int) -> LoadReport:
        plan = _ClientPlan(
            cid, seed, clients, num_elements, element_size,
            read_frac, max_extent,
        )
        client = await BlockClient.connect(host, port)
        report = LoadReport()
        shadow: Dict[int, bytes] = {}
        inflight: List[Tuple[Tuple[int, int, int, bytes], float]] = []
        retries: List[Tuple[Tuple[int, int, int, bytes], float]] = []
        issued = 0
        attempt = 0
        try:
            while True:
                expired = (
                    deadline is not None
                    and time.perf_counter() >= deadline
                )
                sent = 0
                while len(inflight) < window and (
                    retries or (issued < ops_per_client and not expired)
                ):
                    if retries:
                        op_tuple, t_first = retries.pop(0)
                    else:
                        op_tuple = plan.next_op()
                        t_first = time.perf_counter()
                        issued += 1
                    op, start, count, payload = op_tuple
                    client.send_nowait(
                        op, start, count, payload, tenant=cid,
                        deadline_ms=deadline_ms,
                    )
                    sent += 1
                    inflight.append((op_tuple, t_first))
                if sent:
                    await client.flush()
                if not inflight:
                    break
                # Drain the whole buffered burst before refilling:
                # coalesced servers answer several frames per write,
                # and paying one refill flush per *burst* instead of
                # per op keeps the syscall count proportional to
                # batches, not ops.
                blocking = True
                while inflight and (
                    blocking or client.has_buffered_response()
                ):
                    blocking = False
                    status, answer = await client.recv()
                    op_tuple, t_first = inflight.pop(0)
                    if status in RETRYABLE:
                        _count_retryable(report, status)
                        attempt += 1
                        retries.append((op_tuple, t_first))
                        await asyncio.sleep(plan.backoff_s(attempt))
                        break
                    attempt = 0
                    report.latencies_ms.append(
                        (time.perf_counter() - t_first) * 1e3
                    )
                    _record(
                        plan, op_tuple, status, answer, shadow, report,
                        verify,
                    )
                    pause = plan.think_s(think_time)
                    if pause > 0:
                        await asyncio.sleep(pause)
                        break
        finally:
            await client.close()
        return report

    parts = await asyncio.gather(
        *[one_client(cid) for cid in range(clients)]
    )
    for part in parts:
        _merge(total, part)
    total.duration_s = time.perf_counter() - t0
    return total


async def run_open_loop(
    host: str,
    port: int,
    *,
    num_elements: int,
    element_size: int,
    rate: float,
    duration: float,
    clients: int = 4,
    read_frac: float = 0.5,
    seed: int = 2015,
    max_extent: int = 8,
    max_inflight: int = 512,
    verify: bool = False,
    deadline_ms: int = 0,
) -> LoadReport:
    """Poisson arrivals at ``rate`` ops/s total for ``duration`` seconds.

    Arrivals don't wait for completions (open loop), so offered load
    beyond capacity shows up as queueing latency and BUSY shedding
    rather than a slower generator.  The schedule is absolute — op *k*
    is due at ``t0`` plus the first *k* drawn gaps, whatever spawning
    its predecessors cost — and its latency runs from that due time,
    so the wait a stalled server, the in-flight gate or its
    connection's earlier ops impose on it counts.  ``LoadReport.late_ms``
    says how late the generator itself ran.  ``max_inflight`` caps
    runaway task growth when the server is saturated.
    """
    arrivals = np.random.default_rng([seed, 0xA11])
    total = LoadReport()
    plans = [
        _ClientPlan(
            cid, seed, clients, num_elements, element_size,
            read_frac, max_extent,
        )
        for cid in range(clients)
    ]
    conns = await asyncio.gather(*[
        BlockClient.connect(host, port) for _ in range(clients)
    ])
    shadows: List[Dict[int, bytes]] = [{} for _ in range(clients)]
    locks = [asyncio.Lock() for _ in range(clients)]
    gate = asyncio.Semaphore(max_inflight)
    tasks: List["asyncio.Task"] = []
    loop = asyncio.get_running_loop()
    now = time.perf_counter
    t0 = now()

    async def fire(cid: int, op_tuple, t_due: float) -> None:
        """One op, re-issued with jittered backoff while the status is
        retryable (BUSY / RETRY / DEADLINE), timed from its due time."""
        op, start, count, payload = op_tuple
        attempt = 0
        # one connection per client: serialise its frames
        async with gate, locks[cid]:
            while True:
                status, answer = await conns[cid].request(
                    op, start, count, payload, tenant=cid,
                    deadline_ms=deadline_ms,
                )
                if status not in RETRYABLE:
                    break
                _count_retryable(total, status)
                attempt += 1
                await asyncio.sleep(plans[cid].backoff_s(attempt))
        total.latencies_ms.append((now() - t_due) * 1e3)
        _record(
            plans[cid], op_tuple, status, answer, shadows[cid], total,
            verify,
        )

    try:
        due = 0.0
        i = 0
        while due < duration:
            delay = t0 + due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            cid = i % clients
            total.late_ms.append(max(0.0, now() - (t0 + due)) * 1e3)
            tasks.append(loop.create_task(
                fire(cid, plans[cid].next_op(), t0 + due)
            ))
            i += 1
            due += float(arrivals.exponential(1.0 / rate))
        if tasks:
            await asyncio.gather(*tasks)
    finally:
        for conn in conns:
            await conn.close()
    total.duration_s = now() - t0
    return total


def replay_writes(volume, write_logs: Dict[int, WriteLog]) -> None:
    """Replay the generators' write logs into a direct volume.

    Clients own disjoint regions, so replaying per client in issue
    order (any client order) reproduces the served image exactly.
    """
    esize = volume.element_size
    for cid in sorted(write_logs):
        for start, payload in write_logs[cid]:
            data = np.frombuffer(payload, dtype=np.uint8)
            volume.write(start, data.reshape(-1, esize).copy())


async def fetch_image(
    host: str,
    port: int,
    *,
    num_elements: int,
    chunk: int = 512,
    tenant: int = 0,
) -> bytes:
    """Read the whole address space through the protocol."""
    client = await BlockClient.connect(host, port)
    out = []
    try:
        for start in range(0, num_elements, chunk):
            count = min(chunk, num_elements - start)
            while True:
                status, payload = await client.request(
                    OP_READ, start, count, tenant=tenant
                )
                if status not in RETRYABLE:
                    break
                await asyncio.sleep(0.002)
            if status != ST_OK:
                raise RuntimeError(
                    f"read [{start}, {start + count}) failed: "
                    f"{payload.decode(errors='replace')}"
                )
            out.append(payload)
    finally:
        await client.close()
    return b"".join(out)
