"""Process shards driven from the event loop.

A process-backed :class:`ShardQueue` sends each batch from the loop
thread and takes the reply from a reader on the incarnation's pipe: no
executor thread, no monitor thread, no ``call_soon_threadsafe``.  These
tests hold what that must not lose — one stalled shard leaves its
sibling serving, a timed-out incarnation's late reply is never read,
a hard stop with a batch in flight leaks nothing, and the heartbeat
(now a loop timer) still finds an idle worker that died or hung.
"""

import asyncio
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.serve.loadgen import BlockClient
from repro.serve.protocol import (
    OP_READ,
    OP_WRITE,
    ST_BUSY,
    ST_OK,
    ST_RETRY,
)
from repro.serve.server import BlockServer, ServerConfig, make_backends
from repro.serve.supervisor import SupervisedShard

ESIZE = 32


def config_for(**kwargs):
    return ServerConfig(
        code="dcode", p=5, stripes_per_shard=4, element_size=ESIZE,
        **kwargs,
    )


def serve(config, backends, body, drain=True):
    """Run ``await body(server, host, port)`` against a live server."""
    async def run():
        server = BlockServer(config, backends)
        host, port = await server.start()
        try:
            return await body(server, host, port)
        finally:
            await server.close(drain=drain)

    return asyncio.run(run())


async def until(predicate, timeout=10.0):
    give_up = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < give_up, "condition never held"
        await asyncio.sleep(0.01)


def pid_gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestStalledShard:
    def test_stall_retries_alone_and_the_replacement_answers_fresh(
        self, tmp_path
    ):
        """Shard 0's worker stalls past ``recv_timeout`` on its third op
        (a READ of elements 0-1).  Shard 1 keeps serving meanwhile; the
        stalled READ answers RETRY; the replacement, reloaded from the
        durable state, answers the next READ (elements 2-3) with its
        own bytes — the stalled READ's late reply would carry A."""
        config = config_for(
            shards=2, backend="process", ack="durable",
            state_dir=str(tmp_path), recv_timeout_s=0.5,
        )
        specs = [config.shard_spec(i) for i in range(2)]
        specs[0] = replace(
            specs[0], chaos_stall_after_ops=3, chaos_stall_s=5.0
        )
        backends = [
            SupervisedShard(spec, recv_timeout=config.recv_timeout_s)
            for spec in specs
        ]
        rng = np.random.default_rng(5)
        a, b, c = (
            rng.integers(0, 256, 2 * ESIZE, dtype=np.uint8).tobytes()
            for _ in range(3)
        )
        stalled_pid = backends[0]._shard._proc.pid

        async def body(server, host, port):
            per = server.router.elements_per_shard
            first = await BlockClient.connect(host, port)
            second = await BlockClient.connect(host, port)
            assert await first.request(OP_WRITE, 0, 2, a) == (ST_OK, b"")
            assert await first.request(OP_WRITE, 2, 2, b) == (ST_OK, b"")
            stalled = asyncio.ensure_future(first.request(OP_READ, 0, 2))
            await until(lambda: server.queues[0]._inflight is not None)
            t0 = time.monotonic()
            assert await second.request(OP_WRITE, per, 2, c) == (ST_OK, b"")
            assert await second.request(OP_READ, per, 2) == (ST_OK, c)
            assert time.monotonic() - t0 < 0.5
            assert not stalled.done()
            status, _ = await stalled
            assert status == ST_RETRY
            assert await first.request(OP_READ, 2, 2) == (ST_OK, b)
            assert await first.request(OP_READ, 0, 2) == (ST_OK, a)
            await first.close()
            await second.close()

        serve(config, backends, body)
        assert [shard.restarts for shard in backends] == [1, 0]
        assert backends[0].timeouts == 1
        assert pid_gone(stalled_pid)


class TestHardStopInFlight:
    def test_close_answers_the_batch_before_the_shutdown_ack(self):
        """``close(drain=False)`` with a READ batch on a stalling worker:
        the reader goes, ``ProcessShard.close`` consumes the in-flight
        reply (not as its shutdown ack: the worker still gets its
        ``None``, acks and exits 0), the slices go back to the retired
        ring, and no child is left."""
        config = config_for(shards=1, backend="process")
        spec = replace(
            config.shard_spec(0), chaos_stall_after_ops=1, chaos_stall_s=0.3
        )
        backend = SupervisedShard(spec)
        shard = backend._shard
        ring, proc, conn = shard.ring, shard._proc, shard._conn
        received = []
        recv = conn.recv

        def spy():
            received.append(recv())
            return received[-1]

        conn.recv = spy

        async def body():
            server = BlockServer(config, [backend])
            await server.start()
            loop = asyncio.get_running_loop()
            queue = server.queues[0]
            futures = [
                queue.submit_nowait((OP_READ, k, 2, b"")) for k in range(4)
            ]
            await until(lambda: queue._inflight is not None)
            assert ring.leased == 4
            fd = queue._fd
            await server.close(drain=False)
            assert queue._fd is None
            assert loop.remove_reader(fd) is False
            return futures

        futures = asyncio.run(body())
        assert not any(f.done() for f in futures)
        # the batch's four answers, then the shutdown ack
        assert [type(m) for m in received] == [list, type(None)]
        assert len(received[0]) == 4
        assert ring.retired and ring.leased == 0 and ring._closed
        assert proc.exitcode == 0
        assert proc not in multiprocessing.active_children()
        assert pid_gone(proc.pid)


class TestFullRing:
    def test_busy_batches_complete_one_per_iteration(self):
        """With the ring's one slot held by an unreleased READ result,
        every WRITE batch is answered BUSY without reaching the worker;
        a long run of such batches completes one per loop iteration,
        never by recursing through ``_dispatch``."""
        config = config_for(
            shards=1, backend="process", ring_slots=1, max_batch=1
        )
        backends = make_backends(config)
        write = (OP_WRITE, 0, 1, bytes(ESIZE))

        async def body(server, host, port):
            queue = server.queues[0]
            status, held = await queue.submit_nowait((OP_READ, 0, 1, b""))
            assert status == ST_OK and backends[0]._shard.ring.leased == 1
            results = await asyncio.wait_for(asyncio.gather(
                *[queue.submit_nowait(write) for _ in range(3000)]
            ), timeout=30)
            assert {status for status, _ in results} == {ST_BUSY}
            held.release()
            assert (await queue.submit_nowait(write))[0] == ST_OK

        # no drain: a queue wedged by a regression must fail, not hang
        serve(config, backends, body, drain=False)


class TestLoopDrivenShards:
    def test_no_shard_thread_and_no_threadsafe_handoff(self):
        """Process batches run with no executor or monitor thread, no
        ``call_soon_threadsafe`` and no selector update per batch."""
        config = config_for(shards=2, backend="process", heartbeat_s=0.05)
        before = set(threading.enumerate())

        async def body(server, host, port):
            loop = asyncio.get_running_loop()
            calls = {"call_soon_threadsafe": 0, "add_reader": 0}
            for name in calls:
                method = getattr(loop, name)

                def spy(*args, _name=name, _method=method):
                    calls[_name] += 1
                    return _method(*args)

                setattr(loop, name, spy)
            client = await BlockClient.connect(host, port)
            n = server.router.num_elements
            payload = np.arange(n * ESIZE, dtype=np.uint8).tobytes()
            assert await client.request(OP_WRITE, 0, n, payload) \
                == (ST_OK, b"")
            for k in range(20):
                assert (await client.request(OP_READ, k, 3))[0] == ST_OK
            await asyncio.sleep(0.2)   # a few idle heartbeats too
            await client.close()
            for name in calls:
                delattr(loop, name)
            assert calls == {"call_soon_threadsafe": 0, "add_reader": 0}
            new = {t.name for t in set(threading.enumerate()) - before}
            assert not [
                name for name in new
                if name.startswith(("repro-shard", "shard-monitor"))
            ], new

        serve(config, make_backends(config), body)

    def test_inline_backend_keeps_its_executor_thread(self):
        config = config_for(shards=1, backend="inline")

        async def body(server, host, port):
            client = await BlockClient.connect(host, port)
            assert (await client.request(OP_READ, 0, 1))[0] == ST_OK
            await client.close()
            assert any(
                t.name.startswith("repro-shard")
                for t in threading.enumerate()
            )

        serve(config, make_backends(config), body)

    def test_heartbeat_pings_an_idle_shard_from_the_loop(self):
        config = config_for(shards=1, backend="process", heartbeat_s=0.05)
        backends = make_backends(config)
        submitted = []
        submit = backends[0].submit

        def spy(ops):
            submitted.append(len(ops))
            return submit(ops)

        backends[0].submit = spy

        async def body(server, host, port):
            await until(lambda: submitted.count(0) >= 3)

        serve(config, backends, body)
        assert set(submitted) == {0} and backends[0].restarts == 0

    @pytest.mark.parametrize("how", ["kill", "stop"])
    def test_idle_worker_that_dies_or_hangs_is_restarted(self, how):
        """With no client op sent: a killed idle worker is seen at EOF,
        a SIGSTOPped one misses its heartbeat; either way the shard is
        restarted and serves."""
        config = config_for(shards=1, backend="process", heartbeat_s=0.05)
        backends = make_backends(config)
        (backend,) = backends
        pid = backend._shard._proc.pid

        async def body(server, host, port):
            if how == "kill":
                backend.kill()
            else:
                os.kill(pid, signal.SIGSTOP)
            await until(lambda: backend.restarts == 1)
            await until(lambda: server.queues[0]._idle.is_set())
            client = await BlockClient.connect(host, port)
            assert (await client.request(OP_READ, 0, 1))[0] == ST_OK
            await client.close()

        serve(config, backends, body)
        assert (backend.crashes, backend.timeouts) == (
            (1, 0) if how == "kill" else (0, 1)
        )
        assert pid_gone(pid)
