"""Wire-protocol round trips and malformed-frame handling."""

import asyncio

import pytest

from repro.serve import protocol
from repro.serve.protocol import (
    HEADER,
    MAX_FRAME,
    OP_READ,
    OP_SCRUB,
    OP_WRITE,
    ST_BUSY,
    ST_ERROR,
    ST_OK,
    ProtocolError,
    Request,
)


def feed_reader(*chunks: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    return reader


class TestRequestRoundTrip:
    @pytest.mark.parametrize("req", [
        Request(OP_READ, tenant=3, start=17, count=5),
        Request(OP_WRITE, tenant=0, start=0, count=2,
                payload=b"\x01" * 128),
        Request(OP_SCRUB, tenant=65535, start=0, count=0),
    ])
    def test_encode_decode(self, req):
        frame = protocol.encode_request(req)
        body = frame[4:]
        assert len(body) == int.from_bytes(frame[:4], "big")
        assert protocol.decode_request(body) == req

    def test_short_body_rejected(self):
        with pytest.raises(ProtocolError, match="too short"):
            protocol.decode_request(b"\x01\x02")

    def test_unknown_opcode_rejected(self):
        body = HEADER.pack(99, 0, 0, 0, 0)
        with pytest.raises(ProtocolError, match="unknown opcode"):
            protocol.decode_request(body)


class TestResponseRoundTrip:
    @pytest.mark.parametrize("status,payload", [
        (ST_OK, b"data"),
        (ST_BUSY, b""),
        (ST_ERROR, b"boom"),
    ])
    def test_encode_decode(self, status, payload):
        # responses go out scatter-gather: prefix, then the payload
        frame = protocol.encode_response_prefix(status, len(payload)) \
            + payload
        assert protocol.decode_response(frame[4:]) == (status, payload)

    def test_empty_body_rejected(self):
        with pytest.raises(ProtocolError, match="empty"):
            protocol.decode_response(b"")


class TestFrameIO:
    def test_round_trip_and_clean_eof(self):
        async def run():
            frame = protocol.encode_request(
                Request(OP_READ, 0, 5, 2)
            )
            reader = feed_reader(frame)
            body = await protocol.read_frame(reader)
            assert protocol.decode_request(body).start == 5
            assert await protocol.read_frame(reader) is None

        asyncio.run(run())

    def test_mid_prefix_close_raises(self):
        async def run():
            reader = feed_reader(b"\x00\x00")
            with pytest.raises(ProtocolError, match="mid-prefix"):
                await protocol.read_frame(reader)

        asyncio.run(run())

    def test_mid_frame_close_raises(self):
        async def run():
            reader = feed_reader(b"\x00\x00\x00\x10" + b"short")
            with pytest.raises(ProtocolError, match="mid-frame"):
                await protocol.read_frame(reader)

        asyncio.run(run())

    def test_oversized_frame_rejected_before_allocation(self):
        async def run():
            length = (MAX_FRAME + 1).to_bytes(4, "big")
            reader = feed_reader(length)
            with pytest.raises(ProtocolError, match="exceeds"):
                await protocol.read_frame(reader)

        asyncio.run(run())
