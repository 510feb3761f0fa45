"""End-to-end block-server tests over real TCP connections.

Each test spins the full stack — listener, admission, router, shard
queues, backends — inside one ``asyncio.run``.  Geometries are tiny
(p=5, a few stripes per shard) so the whole module stays fast.
"""

import asyncio
import json
import os
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from repro.array import RAID6Volume
from repro.codes.registry import make_code
from repro.serve.loadgen import (
    BlockClient,
    fetch_image,
    replay_writes,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.protocol import (
    OP_FAIL_DISK,
    OP_READ,
    OP_SCRUB,
    OP_STAT,
    OP_WRITE,
    ST_BUSY,
    ST_ERROR,
    ST_OK,
    Request,
    encode_request,
)
from repro.serve.server import (
    _FLUSH_BYTES,
    BlockServer,
    ServerConfig,
    make_backends,
)
from repro.serve.shmring import PayloadRing

CONFIG = ServerConfig(
    shards=2, backend="inline", code="dcode", p=5,
    stripes_per_shard=4, element_size=32,
)


def with_server(config, body):
    """Run ``await body(server, host, port)`` against a live server."""
    async def run():
        server = BlockServer(config, make_backends(config))
        host, port = await server.start()
        try:
            return await body(server, host, port)
        finally:
            await server.close()

    return asyncio.run(run())


class TestReadWrite:
    def test_round_trip_within_one_shard(self):
        async def body(server, host, port):
            client = await BlockClient.connect(host, port)
            payload = bytes(range(32)) * 2
            status, _ = await client.request(OP_WRITE, 3, 2, payload)
            assert status == ST_OK
            status, answer = await client.request(OP_READ, 3, 2)
            assert (status, answer) == (ST_OK, payload)
            await client.close()

        with_server(CONFIG, body)

    def test_write_and_read_across_shard_boundary(self):
        async def body(server, host, port):
            per_shard = server.router.elements_per_shard
            client = await BlockClient.connect(host, port)
            start, count = per_shard - 3, 6  # 3 elements in each shard
            payload = bytes(
                np.random.default_rng(7).integers(
                    0, 256, count * 32, dtype=np.uint8
                )
            )
            status, _ = await client.request(
                OP_WRITE, start, count, payload
            )
            assert status == ST_OK
            status, answer = await client.request(OP_READ, start, count)
            assert (status, answer) == (ST_OK, payload)
            await client.close()

        with_server(CONFIG, body)

    def test_invalid_range_answers_error_and_connection_survives(self):
        async def body(server, host, port):
            client = await BlockClient.connect(host, port)
            status, detail = await client.request(
                OP_READ, server.router.num_elements, 1
            )
            assert status == ST_ERROR
            assert detail  # carries a message
            status, _ = await client.request(OP_READ, 0, 1)
            assert status == ST_OK
            await client.close()

        with_server(CONFIG, body)

    def test_bad_write_payload_answers_error(self):
        async def body(server, host, port):
            client = await BlockClient.connect(host, port)
            status, detail = await client.request(
                OP_WRITE, 0, 2, b"wrong size"
            )
            assert status == ST_ERROR
            assert b"payload" in detail
            await client.close()

        with_server(CONFIG, body)


class TestAdminOps:
    def test_stat_merges_shards_and_server(self):
        async def body(server, host, port):
            client = await BlockClient.connect(host, port)
            status, payload = await client.request(OP_STAT)
            assert status == ST_OK
            stat = json.loads(payload)
            assert set(stat) == {"0", "1", "server"}
            assert stat["0"]["health"] == "HEALTHY"
            assert stat["server"]["shards"] == 2
            await client.close()

        with_server(CONFIG, body)

    def test_scrub_reports_per_shard(self):
        async def body(server, host, port):
            client = await BlockClient.connect(host, port)
            status, payload = await client.request(OP_SCRUB)
            assert status == ST_OK
            assert json.loads(payload) == {"0": [], "1": []}
            await client.close()

        with_server(CONFIG, body)

    def test_fail_disk_validates_shard_index(self):
        async def body(server, host, port):
            client = await BlockClient.connect(host, port)
            status, detail = await client.request(
                OP_FAIL_DISK, start=9, count=0
            )
            assert status == ST_ERROR
            assert b"shard" in detail
            await client.close()

        with_server(CONFIG, body)


class TestBusyShedding:
    def test_overload_answers_typed_busy(self):
        config = ServerConfig(
            shards=1, backend="inline", code="dcode", p=5,
            stripes_per_shard=4, element_size=32, max_inflight=1,
        )

        async def body(server, host, port):
            client = await BlockClient.connect(host, port)
            # pipeline a burst from one tenant; with max_inflight=1
            # at least one must be shed as BUSY, in order
            for _ in range(8):
                client.send_nowait(OP_READ, 0, 1, tenant=5)
            await client.flush()
            statuses = [(await client.recv())[0] for _ in range(8)]
            assert ST_BUSY in statuses
            assert statuses[0] == ST_OK  # first was admitted
            await client.close()
            assert server.admission.refused > 0
            assert server.answered[ST_BUSY] == statuses.count(ST_BUSY)

        with_server(config, body)

    def test_rate_limit_sheds_and_recovers(self):
        config = ServerConfig(
            shards=1, backend="inline", code="dcode", p=5,
            stripes_per_shard=4, element_size=32,
            rate=5.0, burst=2.0,
        )

        async def body(server, host, port):
            client = await BlockClient.connect(host, port)
            statuses = []
            for _ in range(4):  # burst of 2, then refusals
                status, _ = await client.request(OP_READ, 0, 1)
                statuses.append(status)
            assert statuses[:2] == [ST_OK, ST_OK]
            assert ST_BUSY in statuses[2:]
            await asyncio.sleep(0.3)  # bucket refills
            status, _ = await client.request(OP_READ, 0, 1)
            assert status == ST_OK
            await client.close()

        with_server(config, body)


class TestDegradedServing:
    def test_serving_survives_disk_failure_byte_identical(self, rng):
        async def body(server, host, port):
            n = server.router.num_elements
            client = await BlockClient.connect(host, port)
            image = rng.integers(0, 256, (n, 32), dtype=np.uint8)
            status, _ = await client.request(
                OP_WRITE, 0, n, image.tobytes()
            )
            assert status == ST_OK
            status, _ = await client.request(
                OP_FAIL_DISK, start=0, count=1
            )
            assert status == ST_OK
            status, answer = await client.request(OP_READ, 0, n)
            assert status == ST_OK
            assert answer == image.tobytes()
            # writes through the degraded shard still land
            new = rng.integers(0, 256, (2, 32), dtype=np.uint8)
            status, _ = await client.request(
                OP_WRITE, 1, 2, new.tobytes()
            )
            assert status == ST_OK
            status, answer = await client.request(OP_READ, 1, 2)
            assert (status, answer) == (ST_OK, new.tobytes())
            await client.close()

        with_server(CONFIG, body)


class TestLoadGenerators:
    def test_closed_loop_verifies_and_replays(self):
        async def body(server, host, port):
            n = server.router.num_elements
            report = await run_closed_loop(
                host, port, num_elements=n, element_size=32,
                clients=4, ops_per_client=25, seed=99, window=4,
                max_extent=4, verify=True,
            )
            assert report.ops == 100
            assert report.verify_failures == 0
            assert report.errors == 0
            assert report.reads + report.writes == report.ops
            image = await fetch_image(host, port, num_elements=n)
            return report, image, n

        report, image, n = with_server(CONFIG, body)
        shadow = RAID6Volume(
            make_code("dcode", 5), num_stripes=8, element_size=32
        )
        replay_writes(shadow, report.write_logs)
        assert shadow.read(0, n).tobytes() == image

    def test_open_loop_runs_to_completion(self):
        async def body(server, host, port):
            report = await run_open_loop(
                host, port,
                num_elements=server.router.num_elements,
                element_size=32, rate=300.0, duration=0.3,
                clients=4, seed=7, verify=True,
            )
            assert report.ops > 0
            assert report.errors == 0
            assert report.verify_failures == 0

        with_server(CONFIG, body)

    def test_duration_truncates_without_reordering(self):
        async def body(server, host, port):
            n = server.router.num_elements
            report = await run_closed_loop(
                host, port, num_elements=n, element_size=32,
                clients=2, ops_per_client=10 ** 6, seed=5,
                duration=0.2, window=2, verify=True,
            )
            assert 0 < report.ops < 10 ** 6
            assert report.verify_failures == 0

        with_server(CONFIG, body)


class TestDeterministicReplay:
    def test_serial_and_sharded_runs_converge_to_same_image(self):
        """Satellite contract: same seed => same final bytes, whether
        served by one serial shard or four coalescing shards."""
        seed = 2015
        images = {}
        for label, config in {
            "serial": ServerConfig(
                shards=1, backend="inline", code="dcode", p=5,
                stripes_per_shard=16, element_size=32,
                max_batch=1, write_back=False,
            ),
            "sharded": ServerConfig(
                shards=4, backend="inline", code="dcode", p=5,
                stripes_per_shard=4, element_size=32,
                max_batch=16, write_back=True, cache_stripes=3,
            ),
        }.items():
            async def body(server, host, port):
                n = server.router.num_elements
                report = await run_closed_loop(
                    host, port, num_elements=n, element_size=32,
                    clients=4, ops_per_client=30, seed=seed,
                    window=4, max_extent=4, verify=True,
                )
                assert report.verify_failures == 0
                assert report.errors == 0
                return await fetch_image(host, port, num_elements=n)

            images[label] = with_server(config, body)
        assert images["serial"] == images["sharded"]


class GatedBackend:
    """A canned shard: answers READs with ``fill`` bytes (through ring
    slices when given a ring), and only once its gate is open."""

    def __init__(self, fill=b"\x00", ring=None, gate_open=True):
        self.fill, self.ring = fill, ring
        self.gate = threading.Event()
        if gate_open:
            self.gate.set()
        self.batch_sizes = []

    def execute(self, ops, deadline=None):
        assert self.gate.wait(timeout=10)
        self.batch_sizes.append(len(ops))
        out = []
        for op, _, count, _ in ops:
            payload = self.fill * count if op == OP_READ else b""
            if payload and self.ring is not None:
                slot = self.ring.alloc(len(payload))
                n = self.ring.write_into(slot, payload)
                payload = self.ring.lease_slice(slot, n)
            out.append((ST_OK, payload))
        return out

    def close(self):
        self.gate.set()


def read_frames(sock, n):
    """Read ``n`` response frames off a blocking socket."""
    out = []
    for _ in range(n):
        need, blob = 4, b""
        while len(blob) < need:
            chunk = sock.recv(min(1 << 20, need - len(blob)))
            assert chunk, "server hung up early"
            blob += chunk
            if need == 4 and len(blob) == 4:
                need += int.from_bytes(blob, "big")
        out.append((blob[4], blob[5:]))
    return out


async def until(predicate, timeout=10.0):
    """Poll ``predicate`` on the loop until it holds."""
    give_up = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < give_up, "condition never held"
        await asyncio.sleep(0.005)


class TestOpenLoopSchedule:
    """The open loop keeps an absolute schedule and times from it."""

    CONFIG = ServerConfig(
        shards=1, backend="inline", code="dcode", p=5,
        stripes_per_shard=4, element_size=32,
    )

    def run_open(self, backend, before=None, **load):
        async def run():
            server = BlockServer(self.CONFIG, [backend])
            host, port = await server.start()
            try:
                if before is not None:
                    before(asyncio.get_running_loop())
                return await run_open_loop(
                    host, port,
                    num_elements=server.router.num_elements,
                    element_size=32, clients=4, seed=3, **load,
                )
            finally:
                await server.close()

        return asyncio.run(run())

    def test_a_stall_shows_on_every_op_due_during_it(self):
        # the shard stalls from before the first arrival until 100 ms
        # after the last: each op waited at least that long from its
        # due time, whatever gate or connection it queued behind
        backend = GatedBackend(gate_open=False)
        report = self.run_open(
            backend, lambda loop: loop.call_later(0.2, backend.gate.set),
            rate=200.0, duration=0.1,
        )
        assert report.ops > 8 and report.errors == 0
        assert min(report.latencies_ms) >= 50.0
        assert len(report.late_ms) == report.ops
        assert report.to_dict()["late_p99_ms"] < 50.0

    @pytest.mark.skipif(
        sys.flags.dev_mode or bool(os.environ.get("PYTHONASYNCIODEBUG")),
        reason="asyncio debug mode (a traceback per task) cannot "
               "generate 2000 ops/s",
    )
    def test_offered_rate_does_not_sag_by_the_spawn_cost(self):
        for attempt in range(3):   # a host stall can only slow a run
            report = self.run_open(
                GatedBackend(), rate=2000.0, duration=2.0
            )
            assert report.errors == 0
            assert abs(report.ops - 4000) <= 240
            if report.ops / report.duration_s >= 2000 * 0.94:
                return
        pytest.fail(f"offered {report.ops / report.duration_s:.0f} ops/s")


class TestCallbackPath:
    """The event-driven request path: in-order answers from a deque,
    releases on a dead client, transport backpressure, no tasks."""

    def serve(self, backends, body, **config):
        config = ServerConfig(
            shards=len(backends), backend="inline", code="dcode", p=5,
            stripes_per_shard=4, element_size=32, **config,
        )

        async def run():
            server = BlockServer(config, backends)
            host, port = await server.start()
            try:
                return await body(server, host, port)
            finally:
                await server.close()

        return asyncio.run(run())

    def test_out_of_order_shards_answer_in_request_order(self):
        slow = GatedBackend(b"s", gate_open=False)
        fast = GatedBackend(b"f")

        async def body(server, host, port):
            per = server.router.elements_per_shard
            client = await BlockClient.connect(host, port)
            client.send_nowait(OP_READ, 0, 2)        # shard 0: held back
            client.send_nowait(OP_READ, per, 3)      # shard 1: at once
            client.send_nowait(OP_READ, per - 1, 2)  # straddles both
            await client.flush()
            await until(lambda: fast.batch_sizes)
            assert not client.has_buffered_response()
            slow.gate.set()
            answers = [await client.recv() for _ in range(3)]
            assert answers == [
                (ST_OK, b"ss"), (ST_OK, b"fff"), (ST_OK, b"sf"),
            ]
            await client.close()

        self.serve([slow, fast], body)

    def test_reset_with_reads_in_flight_releases_everything(self):
        ring = PayloadRing(slots=16, slot_bytes=64)
        backend = GatedBackend(b"r", ring=ring, gate_open=False)

        async def body(server, host, port):
            sock = socket.create_connection((host, port))
            sock.sendall(b"".join(
                encode_request(Request(OP_READ, 0, k, 4))
                for k in range(8)
            ))
            await until(lambda: server.admission.inflight(0) == 8)
            # hang up with a reset while every READ is still on the shard
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
            await until(lambda: all(
                c.transport is None for c in server._connections
            ))
            backend.gate.set()
            await until(lambda: server.admission.inflight(0) == 0)
            assert ring.leased == 0
            assert not server._connections
            assert server.stats()["ops"] == 8

        try:
            self.serve([backend], body)
        finally:
            ring.retire()

    def test_client_that_never_reads_pauses_the_pump(self):
        backend = GatedBackend(bytes(2048))
        requests, count = 200, 32          # 200 x 64 KiB of answers

        async def body(server, host, port):
            loop = asyncio.get_running_loop()
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect((host, port))
            sock.sendall(b"".join(
                encode_request(Request(OP_READ, 0, 0, count))
                for _ in range(requests)
            ))
            await until(lambda: sum(backend.batch_sizes) == requests)
            (conn,) = server._connections
            await until(lambda: conn.paused)
            await asyncio.sleep(0.05)
            # the pump stopped: answers wait in the deque, not in an
            # ever-growing transport buffer
            high = conn.transport.get_write_buffer_limits()[1]
            buffered = conn.transport.get_write_buffer_size()
            assert conn.pending
            assert buffered <= high + _FLUSH_BYTES + count * 2048 + 5
            frames = await loop.run_in_executor(
                None, read_frames, sock, requests
            )
            assert frames == [(ST_OK, bytes(count * 2048))] * requests
            assert not conn.paused and not conn.pending
            sock.close()

        self.serve([backend], body)

    def test_no_task_per_connection_or_shard(self):
        backends = [GatedBackend() for _ in range(4)]

        async def body(server, host, port):
            baseline = len(asyncio.all_tasks())
            clients = [
                await BlockClient.connect(host, port) for _ in range(8)
            ]
            for client in clients:
                assert (await client.request(OP_READ, 0, 1))[0] == ST_OK
            assert len(asyncio.all_tasks()) == baseline
            for client in clients:
                await client.close()

        self.serve(backends, body)

    def test_unloaded_read_takes_six_loop_iterations(self):
        async def body(server, host, port):
            loop = asyncio.get_running_loop()
            iterations = 0
            run_once = loop._run_once

            def counting_run_once():
                nonlocal iterations
                iterations += 1
                run_once()

            loop._run_once = counting_run_once
            client = await BlockClient.connect(host, port)
            taken = []
            for _ in range(200):
                before = iterations
                assert (await client.request(OP_READ, 0, 1))[0] == ST_OK
                taken.append(iterations - before)
            await client.close()
            del loop._run_once
            # socket read, dispatch, completion, pump, client read,
            # client wake-up (the task-based path took 8)
            assert sorted(taken)[100] <= 6

        with_server(CONFIG, body)
