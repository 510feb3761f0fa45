"""Protocol fuzzing: hostile frames die alone, the server keeps serving."""

import asyncio
import struct

import numpy as np
import pytest

from repro.serve import protocol
from repro.serve.loadgen import BlockClient
from repro.serve.protocol import (
    HEADER,
    MAX_FRAME,
    OP_READ,
    OP_WRITE,
    ST_ERROR,
    ST_OK,
    ProtocolError,
    Request,
)
from repro.serve.server import BlockServer, ServerConfig, make_backends

CONFIG = ServerConfig(
    shards=2, backend="inline", code="dcode", p=5,
    stripes_per_shard=4, element_size=32,
)


def with_server(body):
    async def run():
        server = BlockServer(CONFIG, make_backends(CONFIG))
        host, port = await server.start()
        try:
            return await body(server, host, port)
        finally:
            await server.close()

    return asyncio.run(run())


async def probe_ok(host, port):
    """A well-formed READ on a fresh connection must answer OK."""
    client = await BlockClient.connect(host, port)
    try:
        status, _ = await asyncio.wait_for(
            client.request(OP_READ, 0, 1), timeout=10
        )
        return status == ST_OK
    finally:
        await client.close()


async def raw_send(host, port, blob, read_reply=True):
    """Fire raw bytes at the server; returns whatever came back."""
    reader, writer = await asyncio.open_connection(host, port)
    reply = b""
    try:
        writer.write(blob)
        await writer.drain()
        if read_reply:
            try:
                reply = await asyncio.wait_for(
                    reader.read(4096), timeout=5
                )
            except asyncio.TimeoutError:
                reply = b""
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
    return reply


class TestHostileFrames:
    def test_truncated_header_answers_typed_error(self):
        async def body(server, host, port):
            reply = await raw_send(
                host, port, struct.pack("!I", 3) + b"\x01\x02\x03"
            )
            assert reply, "server must answer a typed ERROR frame"
            (length,) = struct.unpack("!I", reply[:4])
            payload = reply[4:4 + length]
            assert payload[0] == ST_ERROR
            assert b"too short" in payload[1:]
            assert await probe_ok(host, port)

        with_server(body)

    def test_oversize_length_prefix_drops_connection(self):
        async def body(server, host, port):
            reply = await raw_send(
                host, port, struct.pack("!I", MAX_FRAME + 1)
            )
            # the connection dies without a 64 MiB allocation; the
            # server survives
            assert await probe_ok(host, port)

        with_server(body)

    def test_mid_frame_reset_leaves_others_serving(self):
        async def body(server, host, port):
            victim = await BlockClient.connect(host, port)
            # a second, well-behaved connection in flight
            status, _ = await victim.request(OP_READ, 0, 1)
            assert status == ST_OK
            await raw_send(
                host, port,
                struct.pack("!I", 4096) + b"\xde\xad\xbe\xef",
                read_reply=False,
            )
            # the torn connection is gone; the victim keeps serving
            status, _ = await victim.request(OP_READ, 1, 1)
            assert status == ST_OK
            await victim.close()

        with_server(body)

    def test_unknown_opcode_answers_error_and_closes(self):
        async def body(server, host, port):
            bad = HEADER.pack(42, 0, 0, 0, 0)
            reply = await raw_send(
                host, port, struct.pack("!I", len(bad)) + bad
            )
            (length,) = struct.unpack("!I", reply[:4])
            payload = reply[4:4 + length]
            assert payload[0] == ST_ERROR
            assert b"unknown opcode" in payload[1:]
            assert await probe_ok(host, port)

        with_server(body)

    def test_seeded_garbage_storm_never_kills_server(self):
        async def body(server, host, port):
            rng = np.random.default_rng(20150527)
            for _ in range(20):
                size = int(rng.integers(1, 64))
                blob = bytes(
                    rng.integers(0, 256, size, dtype=np.uint8)
                )
                await raw_send(host, port, blob, read_reply=False)
            assert await probe_ok(host, port)

        with_server(body)


def split_replies(blob):
    """Split raw response bytes into ``(status, payload)`` frames."""
    return [
        protocol.decode_response(body)
        for body in protocol.FrameSplitter().feed(blob)
    ]


async def raw_exchange(host, port, chunks):
    """Send ``chunks`` one write at a time; read until the server
    hangs up (the caller ends the stream with something fatal)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            await asyncio.sleep(0)
        return await asyncio.wait_for(reader.read(-1), timeout=10)
    finally:
        writer.close()


class TestFrameSplitting:
    FRAMES = [
        protocol.encode_request(Request(OP_WRITE, 0, 3, 2, bytes(range(64)))),
        protocol.encode_request(Request(OP_READ, 0, 3, 2)),
        protocol.encode_request(Request(OP_READ, 0, 0, 1)),
        protocol.encode_request(Request(OP_WRITE, 0, 9, 1, b"\x07" * 32)),
        protocol.encode_request(Request(OP_READ, 0, 8, 3)),
    ]
    BAD_OPCODE = struct.pack("!I", HEADER.size) + HEADER.pack(42, 0, 0, 0, 0)

    def test_splitter_is_chunking_invariant(self):
        stream = b"".join(self.FRAMES)
        want = [frame[4:] for frame in self.FRAMES]
        rng = np.random.default_rng(11)
        for trial in range(50):
            # trial 0 is one byte at a time, the rest random cuts
            cuts = (
                range(1, len(stream)) if trial == 0 else sorted(
                    rng.choice(len(stream), size=trial, replace=False)
                )
            )
            splitter, got, last = protocol.FrameSplitter(), [], 0
            for cut in [*cuts, len(stream)]:
                got += splitter.feed(stream[last:cut])
                last = cut
            assert got == want

    def test_splitter_yields_accepted_frames_before_an_oversize_prefix(self):
        splitter, got = protocol.FrameSplitter(), []
        stream = self.FRAMES[1] + struct.pack("!I", MAX_FRAME + 1) + b"xx"
        with pytest.raises(ProtocolError, match="exceeds"):
            for body in splitter.feed(stream):
                got.append(body)
        assert got == [self.FRAMES[1][4:]]

    def test_byte_at_a_time_decodes_identically_over_a_socket(self):
        """Every frame dribbled in one byte per segment answers exactly
        what the same frames sent whole answer."""
        async def body(server, host, port):
            stream = b"".join(self.FRAMES) + self.BAD_OPCODE
            whole = await raw_exchange(host, port, [stream])
            dribbled = await raw_exchange(
                host, port, [stream[k:k + 1] for k in range(len(stream))]
            )
            assert split_replies(dribbled) == split_replies(whole)
            statuses = [status for status, _ in split_replies(whole)]
            assert statuses == [ST_OK] * len(self.FRAMES) + [ST_ERROR]
            assert split_replies(whole)[1][1] == bytes(range(64))

        with_server(body)

    @pytest.mark.parametrize("poison, message", [
        (struct.pack("!I", MAX_FRAME + 1), b"exceeds"),
        (BAD_OPCODE, b"unknown opcode"),
    ])
    def test_poison_answers_what_was_accepted_then_hangs_up(
        self, poison, message
    ):
        async def body(server, host, port):
            # two good requests, the poison, one more good request —
            # all in one segment
            blob = self.FRAMES[0] + self.FRAMES[1] + poison + self.FRAMES[2]
            replies = split_replies(
                await raw_exchange(host, port, [blob])
            )
            assert replies[:2] == [(ST_OK, b""), (ST_OK, bytes(range(64)))]
            assert replies[2][0] == ST_ERROR and message in replies[2][1]
            assert len(replies) == 3       # nothing after the poison ran
            assert server.admission.inflight(0) == 0
            assert await probe_ok(host, port)

        with_server(body)


class TestDecoderFuzz:
    def test_decode_request_total_over_random_bodies(self):
        """decode_request either parses or raises ProtocolError —
        never anything else — over seeded random bodies."""
        rng = np.random.default_rng(42)
        parsed = rejected = 0
        for _ in range(500):
            size = int(rng.integers(0, 48))
            body = bytes(rng.integers(0, 256, size, dtype=np.uint8))
            try:
                req = protocol.decode_request(body)
                parsed += 1
                assert isinstance(req, Request)
            except ProtocolError:
                rejected += 1
        assert parsed + rejected == 500
        assert rejected > 0

    def test_round_trip_with_deadline(self):
        req = Request(
            OP_WRITE, tenant=7, start=11, count=1,
            payload=b"\x05" * 32, deadline_ms=1500,
        )
        frame = protocol.encode_request(req)
        assert protocol.decode_request(frame[4:]) == req
