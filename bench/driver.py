"""Closed- and open-loop block drivers on the public ``BlockClient``.

The benchmark's own generators rather than ``repro.serve.loadgen``'s:
connections persist across blocks, latencies are kept per op type, the
op stream is an argument (drawn from the seed by ``bench.workloads``),
and nothing retries — on the benchmark's workloads no op may fail, so
BUSY, RETRY, DEADLINE and ERROR all count as failures.

``loadgen.run_open_loop`` starts an op's clock after it has passed the
in-flight gate and the per-connection lock, so a stalled server hides
the wait it imposes on the ops behind it.  Here the Poisson schedule is
drawn beforehand, each op is timed from the instant it was *due*, and
how late the generator itself ran is reported next to the latencies.
"""

from __future__ import annotations

import asyncio
import selectors
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.serve.protocol import ST_OK

from bench.workloads import ELEMENT_SIZE, OP_READ, OP_WRITE, Block, payload


def new_event_loop() -> asyncio.AbstractEventLoop:
    """An event loop on ``select()``.

    The default epoll selector rounds every timeout up to a whole
    millisecond, which would quantise a 1500 ops/s Poisson schedule
    (mean gap 0.67 ms) into millisecond bursts.  ``select`` takes a
    microsecond timeout, and with a handful of sockets costs the same.
    """
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


@dataclass
class BlockResult:
    """What one replay of one block measured."""

    wall_s: float = 0.0
    #: per connection, every op's latency in op order (NaN = failed)
    lat_us: List[List[float]] = field(default_factory=list)
    late_us: List[float] = field(default_factory=list)
    failed: int = 0
    #: CPU consumed by every process of the system over the block
    cpu_ns: int = 0
    #: CRC-32 of every read's payload, per connection, in op order
    #: (collected on untimed verification rounds only).
    crcs: Optional[List[List[int]]] = None


def wire(pools, rnd: int, op):
    """The buffer ``op`` sends in round ``rnd``: a write's payload, viewed
    in place; nothing for a read."""
    if op.kind != OP_WRITE:
        return b""
    return memoryview(payload(pools, rnd, op)).cast("B")


def _book(result: BlockResult, lat: List[float], op, status: int,
          answer: bytes, t0: float, now: float,
          crcs: Optional[List[int]]) -> None:
    if status != ST_OK or (
        op.kind == OP_READ and len(answer) != op.count * ELEMENT_SIZE
    ):
        result.failed += 1
        lat.append(float("nan"))
        return
    lat.append((now - t0) * 1e6)
    if crcs is not None and op.kind == OP_READ:
        crcs.append(zlib.crc32(answer))


async def _closed_conn(client, ops, pools, rnd, window, result, lat, crcs):
    """One pipelined connection: keep ``window`` ops in flight."""
    inflight: deque = deque()
    sent = 0
    total = len(ops)
    while True:
        refilled = False
        while len(inflight) < window and sent < total:
            op = ops[sent]
            sent += 1
            client.send_nowait(op.kind, op.start, op.count, wire(pools, rnd, op))
            inflight.append((op, time.perf_counter()))
            refilled = True
        if refilled:
            await client.flush()
        if not inflight:
            return
        # drain the whole burst a coalesced server answers at once, then
        # refill with one flush per burst rather than one per op
        first = True
        while inflight and (first or client.has_buffered_response()):
            first = False
            status, answer = await client.recv()
            op, t0 = inflight.popleft()
            _book(result, lat, op, status, answer, t0, time.perf_counter(), crcs)


async def run_closed(
    clients: Sequence, block: Block, pools, rnd: int, window: int,
    collect: bool = False,
) -> BlockResult:
    """Replay ``block`` closed-loop; returns when every op is answered
    (the barrier between blocks)."""
    result = BlockResult(
        lat_us=[[] for _ in clients],
        crcs=[[] for _ in clients] if collect else None,
    )
    t0 = time.perf_counter()
    await asyncio.gather(*[
        _closed_conn(
            client, ops, pools, rnd, window, result, result.lat_us[i],
            result.crcs[i] if collect else None,
        )
        for i, (client, ops) in enumerate(zip(clients, block.ops))
    ])
    result.wall_s = time.perf_counter() - t0
    return result


async def _open_sender(client, ops, due, pools, rnd, t_start, result):
    now = time.perf_counter
    for i, op in enumerate(ops):
        delay = t_start + due[i] - now()
        if delay > 0:
            await asyncio.sleep(delay)
        client.send_nowait(op.kind, op.start, op.count, wire(pools, rnd, op))
        result.late_us.append(max(0.0, (now() - (t_start + due[i])) * 1e6))
        await client.flush()


async def _open_receiver(client, ops, due, t_start, result, lat, crcs):
    for i, op in enumerate(ops):
        status, answer = await client.recv()
        _book(
            result, lat, op, status, answer, t_start + due[i],
            time.perf_counter(), crcs,
        )


async def run_open(
    clients: Sequence, block: Block, pools, rnd: int,
    collect: bool = False,
) -> BlockResult:
    """Replay ``block`` open-loop on its pre-drawn schedule.

    Sending never waits for a response.  An op's latency runs from its
    due time to its full response, so a late generator or a queue behind
    a stall both count; ``late_us`` says how much of it was the generator.
    """
    result = BlockResult(
        lat_us=[[] for _ in clients],
        crcs=[[] for _ in clients] if collect else None,
    )
    t_start = time.perf_counter()
    tasks = []
    for i, (client, ops, due) in enumerate(
        zip(clients, block.ops, block.due)
    ):
        tasks.append(_open_sender(
            client, ops, due, pools, rnd, t_start, result
        ))
        tasks.append(_open_receiver(
            client, ops, due, t_start, result, result.lat_us[i],
            result.crcs[i] if collect else None,
        ))
    await asyncio.gather(*tasks)
    result.wall_s = time.perf_counter() - t_start
    return result
