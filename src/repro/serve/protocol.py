"""Length-prefixed binary wire protocol for the block service.

A frame is a 4-byte big-endian body length followed by the body.
Request bodies open with a fixed header::

    !BHQIH  =  op (u8) | tenant (u16) | start (u64) | count (u32)
               | deadline_ms (u16)

followed by the payload (``count * element_size`` bytes for WRITE,
empty otherwise).  ``deadline_ms`` is the client's per-request deadline
budget (0 = none): the server converts it to an absolute deadline on
arrival and drops the op with a typed DEADLINE response if it is still
queued when the budget runs out — bounded waiting instead of silent
queueing collapse.  Response bodies open with a status byte (OK / BUSY /
ERROR / RETRY / DEADLINE) followed by the response payload — read data
for READ, UTF-8 JSON for SCRUB / STAT, a UTF-8 message for ERROR and
RETRY, empty for BUSY and DEADLINE.

The admin op FAIL_DISK reuses the header fields: ``start`` is the shard
index, ``count`` the disk index inside that shard.  BUSY, RETRY and
DEADLINE are *typed* responses, not errors: admission control answers
BUSY in O(1) without touching a volume; RETRY means a shard worker
crashed or stalled mid-batch and is being restarted (the op did not
acknowledge — re-issuing it is safe); DEADLINE means the op was dropped
before dispatch.  Well-behaved clients back off (with jitter) and
retry all three.
"""

from __future__ import annotations

import asyncio
import os
import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional

#: Request opcodes.
OP_READ = 1
OP_WRITE = 2
OP_SCRUB = 3
OP_STAT = 4
OP_FAIL_DISK = 5

OP_NAMES = {
    OP_READ: "read",
    OP_WRITE: "write",
    OP_SCRUB: "scrub",
    OP_STAT: "stat",
    OP_FAIL_DISK: "fail_disk",
}

#: Response status codes.
ST_OK = 0
ST_BUSY = 1
ST_ERROR = 2
#: Transient server-side failure (shard crashed / restarting): the op
#: was *not* acknowledged and re-issuing it is safe and expected.
ST_RETRY = 3
#: The request's deadline expired while it was still queued; it was
#: dropped before touching a volume.
ST_DEADLINE = 4

ST_NAMES = {
    ST_OK: "ok",
    ST_BUSY: "busy",
    ST_ERROR: "error",
    ST_RETRY: "retry",
    ST_DEADLINE: "deadline",
}

#: Statuses a client may re-issue the same op for (the server guarantees
#: the op either never ran or is idempotent to repeat).
RETRYABLE = frozenset({ST_BUSY, ST_RETRY, ST_DEADLINE})

#: Cap on the per-request deadline field (u16 milliseconds).
MAX_DEADLINE_MS = 0xFFFF

_LEN = struct.Struct("!I")
HEADER = struct.Struct("!BHQIH")

#: Buffers handed to one ``os.writev`` call (Linux guarantees IOV_MAX
#: >= 1024; half that keeps the partial-send bookkeeping cheap).
_WRITEV_IOV = 512

#: Upper bound on a frame body; a corrupt or hostile length prefix must
#: not make the server allocate gigabytes.  64 MiB comfortably covers
#: the largest legitimate write burst the benchmarks issue.
MAX_FRAME = 64 * 1024 * 1024


class ProtocolError(Exception):
    """A malformed frame (bad length, short header, unknown opcode)."""


@dataclass(frozen=True)
class Request:
    """One decoded request frame."""

    op: int
    tenant: int
    start: int
    count: int
    payload: bytes = b""
    #: Per-request deadline budget in milliseconds (0 = no deadline).
    deadline_ms: int = 0

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        name = OP_NAMES.get(self.op, f"op{self.op}")
        return (
            f"<Request {name} tenant={self.tenant} "
            f"[{self.start}, {self.start + self.count}) "
            f"payload={len(self.payload)}B deadline={self.deadline_ms}ms>"
        )


def encode_request(req: Request) -> bytes:
    """Serialise ``req`` to a full frame (length prefix included)."""
    body = HEADER.pack(
        req.op, req.tenant, req.start, req.count, req.deadline_ms
    )
    body += req.payload
    return _LEN.pack(len(body)) + body


def encode_request_parts(req: Request) -> tuple:
    """``(prefix + header, payload)`` for scatter-gather sending.

    A pipelining client writes the two buffers separately, so a large
    WRITE payload goes to the transport as-is instead of being copied
    into a concatenated frame first.
    """
    head = HEADER.pack(
        req.op, req.tenant, req.start, req.count, req.deadline_ms
    )
    return _LEN.pack(len(head) + len(req.payload)) + head, req.payload


def decode_request(body: bytes) -> Request:
    """Parse a request frame body (without the length prefix)."""
    if len(body) < HEADER.size:
        raise ProtocolError(
            f"request body too short: {len(body)} < {HEADER.size}"
        )
    op, tenant, start, count, deadline_ms = HEADER.unpack_from(body)
    if op not in OP_NAMES:
        raise ProtocolError(f"unknown opcode {op}")
    return Request(
        op, tenant, start, count, bytes(body[HEADER.size:]), deadline_ms
    )


def encode_response_prefix(status: int, payload_len: int) -> bytes:
    """Length prefix + status byte of a response whose payload follows
    as separate buffer(s): the server sends ``prefix + payload
    buffers`` through one :func:`send_buffers`, so large READ payloads
    (shared-memory ring slices, zero-copy volume views) never get
    concatenated into an intermediate bytes object."""
    return _LEN.pack(1 + payload_len) + bytes([status])


def decode_response(body: bytes) -> tuple:
    """Parse a response frame body → ``(status, payload)``."""
    if not body:
        raise ProtocolError("empty response body")
    return body[0], bytes(body[1:])


class FrameSplitter:
    """Incremental splitter of a byte stream into frame bodies: both
    ends of a connection feed it what each socket read delivered."""

    def __init__(self) -> None:
        self._tail = bytearray()  # the frame (or prefix) in progress
        self._need = 0            # bytes it lacks before it can yield

    def feed(self, data: bytes) -> Iterator[bytes]:
        """Yield the frame bodies ``data`` completes, in stream order;
        the partial tail waits for the next read (a frame spanning many
        reads accumulates in place).  Raises :class:`ProtocolError` at a
        length prefix over :data:`MAX_FRAME` — after yielding the frames
        before it, so a server still answers what it had accepted."""
        tail = self._tail
        if tail:
            if len(data) < self._need:
                tail += data
                self._need -= len(data)
                return
            data = bytes(tail) + data
            tail.clear()
        pos, end = 0, len(data)
        while end - pos >= 4:
            length = int.from_bytes(data[pos:pos + 4], "big")
            if length > MAX_FRAME:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds {MAX_FRAME}"
                )
            stop = pos + 4 + length
            if stop > end:
                break
            yield data[pos + 4:stop]
            pos = stop
        if pos < end:
            tail += data[pos:]
            self._need = stop - end if end - pos >= 4 else 4 - (end - pos)


def send_buffers(transport, fd: int, bufs: List) -> bool:
    """Send byte buffers on a plain-TCP connection, scatter-gather.

    While the transport's write buffer is empty ``bufs`` go straight to
    ``os.writev`` on the socket's ``fd``: one syscall per ~500 buffers,
    no intermediate copy.  What the kernel would not take is joined once
    and left with the transport (``pause_writing`` / ``resume_writing``
    is the caller's backpressure), so the caller's buffers are free
    when this returns.  True = everything went zero-copy.
    """
    if not transport.get_write_buffer_size():
        while bufs:
            try:
                sent = os.writev(fd, bufs[:_WRITEV_IOV])
            except (BlockingIOError, InterruptedError):
                break
            done = 0
            while done < len(bufs) and sent >= len(bufs[done]):
                sent -= len(bufs[done])
                done += 1
            del bufs[:done]
            if sent:  # partial send: resume inside this buffer
                bufs[0] = memoryview(bufs[0])[sent:]
        if not bufs:
            return True
    transport.write(b"".join(bufs))
    return False


async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one frame body; ``None`` on clean EOF before a frame starts."""
    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-prefix") from exc
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
