"""Graceful drain: close() answers accepted ops and flushes all state.

The drain contract is queue-level: every op accepted onto a
:class:`ShardQueue` before ``close(drain=True)`` is executed and
answered, and each backend's ``close`` then flushes its cache (durable
mode: takes a final checkpoint).  The tests enqueue straight onto the
queues and close while they are still full — the op futures must all
resolve OK, and the volumes (or state files) must hold every byte.
"""

import asyncio

import numpy as np

from repro.array.persistence import load_volume
from repro.journal.recovery import recover_on_mount
from repro.serve.protocol import OP_WRITE, ST_OK
from repro.serve.server import BlockServer, ServerConfig, make_backends
from repro.serve.shard import ProcessShard


def seeded_writes(config, count, seed=13):
    rng = np.random.default_rng(seed)
    esize = config.element_size
    writes = []
    for k in range(count):
        payload = rng.integers(0, 256, 2 * esize, dtype=np.uint8)
        writes.append((2 * k, payload.tobytes()))
    return writes


def run_drain(config, writes, state_dir=None):
    """Enqueue ``writes`` on the shard queues, close mid-backlog, and
    return (futures' results, server, backends)."""
    backends = make_backends(config, state_dir=state_dir)

    async def body():
        server = BlockServer(config, backends)
        await server.start()
        per = server.router.elements_per_shard
        futures = []
        for start, payload in writes:
            shard, local = start // per, start % per
            count = len(payload) // config.element_size
            futures.append(server.queues[shard].submit_nowait(
                (OP_WRITE, local, count, payload)
            ))
        # close with the backlog still queued: drain must execute and
        # answer every accepted op before the queues shut down
        await server.close(drain=True)
        assert all(f.done() for f in futures), \
            "drain returned with unanswered ops"
        return [f.result() for f in futures], server

    results, server = asyncio.run(body())
    return results, server, backends


class TestInlineDrain:
    def test_close_flushes_queues_and_cache(self):
        config = ServerConfig(
            shards=2, backend="inline", code="dcode", p=5,
            stripes_per_shard=4, element_size=32, cache_stripes=4,
        )
        writes = seeded_writes(config, 8)
        results, server, backends = run_drain(config, writes)
        assert [status for status, _ in results] == [ST_OK] * len(writes)
        # after close the caches are flushed: the volumes themselves
        # hold every acknowledged byte
        per = server.router.elements_per_shard
        for start, payload in writes:
            shard, local = start // per, start % per
            got = backends[shard].volume.read(local, 2).tobytes()
            assert got == payload
        for b in backends:
            assert b.cache.dirty_elements() == 0


class TestProcessDurableDrain:
    def test_close_checkpoints_every_shard(self, tmp_path):
        config = ServerConfig(
            shards=2, backend="process", code="dcode", p=5,
            stripes_per_shard=4, element_size=32, cache_stripes=4,
            ack="durable", state_dir=str(tmp_path),
        )
        writes = seeded_writes(config, 8, seed=29)
        results, server, _ = run_drain(
            config, writes, state_dir=str(tmp_path)
        )
        assert [status for status, _ in results] == [ST_OK] * len(writes)
        # the state files alone (workers are gone) reproduce the image
        per = server.router.elements_per_shard
        volumes = []
        for i in range(config.shards):
            volume = load_volume(tmp_path / f"shard-{i}.img")
            recover_on_mount(volume)
            volumes.append(volume)
        for start, payload in writes:
            shard, local = start // per, start % per
            got = volumes[shard].read(local, 2).tobytes()
            assert got == payload


class TestHardStop:
    def test_drain_false_abandons_backlog(self):
        config = ServerConfig(
            shards=1, backend="inline", code="dcode", p=5,
            stripes_per_shard=4, element_size=32,
        )
        writes = seeded_writes(config, 4)

        async def body():
            server = BlockServer(config, make_backends(config))
            await server.start()
            # pile the backlog on without giving the drain task a turn
            futures = [
                server.queues[0].submit_nowait(
                    (OP_WRITE, start, 2, payload)
                )
                for start, payload in writes
            ]
            await server.close(drain=False)
            return futures

        futures = asyncio.run(body())
        # a hard stop makes no promises: nothing blew up, and any op
        # not yet dispatched was simply dropped
        assert all(f.done() or f.cancelled() or True for f in futures)

    def test_batch_landing_after_a_hard_stop_releases_its_ring_leases(self):
        """READs still on the worker when ``close(drain=False)`` comes
        back as ring slices nobody will consume: the queue hands them
        back, so the retired ring unmaps instead of waiting for GC."""
        from repro.serve.protocol import OP_READ

        config = ServerConfig(
            shards=1, backend="process", code="dcode",
            p=5, stripes_per_shard=4, element_size=32,
        )
        backends = [ProcessShard(config.shard_spec())]
        ring = backends[0].ring

        async def body():
            server = BlockServer(config, backends)
            await server.start()
            futures = [
                server.queues[0].submit_nowait((OP_READ, k, 2, b""))
                for k in range(6)
            ]
            await asyncio.sleep(0)     # the batch is on the worker now
            assert not server.queues[0]._idle.is_set()
            await server.close(drain=False)
            return futures

        futures = asyncio.run(body())
        assert not any(f.done() for f in futures)
        assert ring.retired and ring.leased == 0
        assert ring._closed

    def test_drain_handles_empty_queues(self):
        config = ServerConfig(
            shards=2, backend="inline", code="dcode", p=5,
            stripes_per_shard=4, element_size=32,
        )

        async def body():
            server = BlockServer(config, make_backends(config))
            await server.start()
            await server.close(drain=True)

        asyncio.run(body())


class TestCoalescing:
    def run_queue(self, max_batch, n):
        from repro.serve.coalescer import ShardQueue
        from repro.serve.protocol import OP_READ

        batches = []

        class Backend:
            def execute(self, ops, deadline=None):
                batches.append(len(ops))
                return [(ST_OK, b"")] * len(ops)

            def close(self):
                pass

        async def body():
            queue = ShardQueue(Backend(), max_batch=max_batch)
            queue.start()
            # everything one loop iteration submits rides one batch
            futures = [
                queue.submit_nowait((OP_READ, k, 1, b""))
                for k in range(n)
            ]
            await queue.drain()
            assert all(f.result() == (ST_OK, b"") for f in futures)
            assert (queue.batches, queue.batched_ops) == (len(batches), n)
            await queue.close()

        asyncio.run(body())
        return batches

    def test_one_iteration_of_submits_is_one_batch(self):
        assert self.run_queue(max_batch=64, n=10) == [10]

    def test_max_batch_caps_the_batch(self):
        assert self.run_queue(max_batch=4, n=10) == [4, 4, 2]


class TestDeadlines:
    def test_expired_op_answers_deadline_before_dispatch(self):
        import time

        from repro.serve.protocol import OP_READ, ST_DEADLINE

        config = ServerConfig(
            shards=1, backend="inline", code="dcode", p=5,
            stripes_per_shard=4, element_size=32,
        )

        async def body():
            server = BlockServer(config, make_backends(config))
            await server.start()
            # an op whose deadline already lapsed must be dropped
            # before it touches the volume
            expired = server.queues[0].submit_nowait(
                (OP_READ, 0, 1, b""), time.monotonic() - 1.0
            )
            live = server.queues[0].submit_nowait(
                (OP_READ, 0, 1, b""), time.monotonic() + 60.0
            )
            dead_status, _ = await expired
            live_status, _ = await live
            assert dead_status == ST_DEADLINE
            assert live_status == ST_OK
            assert server.queues[0].deadline_drops == 1
            await server.close()

        asyncio.run(body())

    def test_wire_deadline_reaches_the_queue(self):
        from repro.serve.loadgen import BlockClient
        from repro.serve.protocol import OP_READ

        config = ServerConfig(
            shards=1, backend="inline", code="dcode", p=5,
            stripes_per_shard=4, element_size=32,
        )

        async def body():
            server = BlockServer(config, make_backends(config))
            host, port = await server.start()
            client = await BlockClient.connect(host, port)
            # a generous wire deadline answers OK and proves the field
            # survives the full encode/decode/admission path
            status, _ = await client.request(
                OP_READ, 0, 1, deadline_ms=60000
            )
            assert status == ST_OK
            await client.close()
            await server.close()

        asyncio.run(body())


class TestCloseReapsConnections:
    def test_no_task_outlives_close_after_a_worker_kill(self, capfd):
        """A client that never hangs up, with an op in flight on a
        worker that was killed: ``close()`` must still leave no
        connection task pending — the loop is closed right after it,
        and a pending task would be destroyed with it ("Task was
        destroyed but it is pending" on stderr)."""
        import gc

        from repro.serve import protocol

        config = ServerConfig(
            shards=1, backend="process", code="dcode",
            p=5, stripes_per_shard=4, element_size=32,
        )
        backends = [ProcessShard(config.shard_spec())]
        # a loop driven by hand, like the benchmark's: asyncio.run()
        # would cancel the leftovers itself and hide the leak
        loop = asyncio.new_event_loop()
        try:
            server = BlockServer(config, backends)
            host, port = loop.run_until_complete(server.start())
            reader, writer = loop.run_until_complete(
                asyncio.open_connection(host, port)
            )
            backends[0].kill()
            writer.write(protocol.encode_request(protocol.Request(
                OP_WRITE, 0, 0, 2, bytes(2 * config.element_size)
            )))
            loop.run_until_complete(writer.drain())
            loop.run_until_complete(asyncio.sleep(0.05))  # now in flight
            assert server._connections
            loop.run_until_complete(server.close())
            assert not server._connections
            assert [t for t in asyncio.all_tasks(loop) if not t.done()] == []
            writer.close()
        finally:
            loop.close()
        del server, reader, writer
        gc.collect()
        assert "Task was destroyed" not in capfd.readouterr().err
