"""Shared-memory payload ring: lifecycle, exhaustion, crash hygiene.

The ring's ownership rule — the parent creates, the worker only
inherits — is what makes ``kill -9`` leak-proof, so these tests check
the observable consequences: exhaustion degrades to a typed BUSY
instead of blocking, a SIGKILLed worker leaves nothing in ``/dev/shm``
once the parent retires the segment, and a graceful server close tears
every ring down.
"""

import glob
import os

import numpy as np
import pytest

from repro.exceptions import ShardCrashedError
from repro.serve.protocol import OP_READ, OP_WRITE, ST_BUSY, ST_OK
from repro.serve.shard import ProcessShard, ShardSpec
from repro.serve.shmring import SHM_PREFIX, PayloadRing


def shm_segments():
    """Ring segments created by *this* process, as /dev/shm paths."""
    return glob.glob(f"/dev/shm/{SHM_PREFIX}_{os.getpid()}_*")


class TestPayloadRing:
    def test_alloc_write_lease_roundtrip(self):
        ring = PayloadRing(slots=4, slot_bytes=64)
        try:
            slot = ring.alloc(16)
            assert slot is not None
            ring.write_into(slot, b"\xab" * 16)
            lease = ring.lease_slice(slot, 16)
            assert lease.tobytes() == b"\xab" * 16
            assert len(lease) == 16
            lease.release()
            assert ring.free_slots == 4
        finally:
            ring.retire()

    def test_exhaustion_returns_none_not_blocks(self):
        ring = PayloadRing(slots=2, slot_bytes=64)
        try:
            slots = [ring.alloc(8), ring.alloc(8)]
            assert None not in slots
            assert ring.alloc(8) is None          # exhausted
            ring.free(slots[0])
            assert ring.alloc(8) is not None      # slot recycled
        finally:
            ring.retire()

    def test_alloc_reuses_the_slot_freed_last(self):
        # LIFO: the next payload lands on memory that is still warm
        ring = PayloadRing(slots=8, slot_bytes=64)
        try:
            slots = [ring.alloc(8) for _ in range(5)]
            for k in (slots[1], slots[3]):
                ring.free(k)
                assert ring.alloc(8) == k
        finally:
            ring.retire()

    def test_oversize_alloc_returns_none(self):
        ring = PayloadRing(slots=2, slot_bytes=64)
        try:
            assert ring.alloc(65) is None
        finally:
            ring.retire()

    def test_retire_unlinks_immediately_even_with_leases(self):
        ring = PayloadRing(slots=2, slot_bytes=64)
        slot = ring.alloc(8)
        ring.write_into(slot, b"x" * 8)
        lease = ring.lease_slice(slot, 8)
        name = ring.name
        ring.retire()
        # the /dev/shm entry is gone the moment the ring retires ...
        assert not os.path.exists(f"/dev/shm/{name}")
        # ... while the outstanding lease still reads its bytes
        assert lease.tobytes() == b"x" * 8
        lease.release()

    def test_release_is_idempotent(self):
        ring = PayloadRing(slots=2, slot_bytes=64)
        try:
            slot = ring.alloc(4)
            lease = ring.lease_slice(slot, 4)
            lease.release()
            lease.release()
            assert ring.free_slots == 2
        finally:
            ring.retire()


class TestRingBackpressure:
    @pytest.mark.parametrize("slots", (0, -1))
    def test_a_shard_needs_a_ring(self, slots):
        """Every process shard carries payloads on its ring: a spec
        without one is refused, as ``ServerConfig`` refuses it."""
        with pytest.raises(ValueError, match="ring_slots"):
            ShardSpec(ring_slots=slots)

    def test_ring_exhaustion_answers_typed_busy(self):
        # 2 slots cannot carry 6 writes: the overflow must come back
        # BUSY (retryable) without ever reaching the worker, and the
        # in-ring ops must still succeed
        spec = ShardSpec(
            code="dcode", p=5, num_stripes=8, element_size=32,
            ring_slots=2, ring_slot_bytes=64,
        )
        shard = ProcessShard(spec)
        try:
            payload = np.arange(32, dtype=np.uint8).tobytes()
            ops = [(OP_WRITE, k, 1, payload) for k in range(6)]
            results = shard.execute(ops)
            statuses = [status for status, _ in results]
            assert statuses.count(ST_OK) == 2
            assert statuses.count(ST_BUSY) == 4
            for status, message in results:
                if status == ST_BUSY:
                    assert b"ring full" in message
            # the ring drained: a follow-up batch succeeds again
            assert shard.execute([(OP_WRITE, 6, 1, payload)])[0][0] \
                == ST_OK
        finally:
            shard.close()
        assert shm_segments() == []

    def test_oversize_payload_falls_back_inline(self):
        # payloads bigger than a slot ride the pipe instead — slower,
        # never wrong
        spec = ShardSpec(
            code="dcode", p=5, num_stripes=8, element_size=32,
            ring_slots=2, ring_slot_bytes=32,
        )
        shard = ProcessShard(spec)
        try:
            payload = np.arange(2 * 32, dtype=np.uint8) \
                .astype(np.uint8).tobytes()
            assert shard.execute([(OP_WRITE, 0, 2, payload)])[0][0] \
                == ST_OK
            status, answer = shard.execute([(OP_READ, 0, 2, b"")])[0]
            assert status == ST_OK
            data = answer.tobytes() if hasattr(answer, "tobytes") \
                else answer
            if hasattr(answer, "release"):
                answer.release()
            assert data == payload
        finally:
            shard.close()
        assert shm_segments() == []


class TestCrashHygiene:
    def test_kill9_mid_batch_leaks_no_segment_after_restart(self):
        spec = ShardSpec(
            code="dcode", p=5, num_stripes=8, element_size=32,
            chaos_kill_after_ops=2,
        )
        shard = ProcessShard(spec)
        try:
            with pytest.raises(ShardCrashedError):
                shard.execute([(OP_READ, 0, 1, b"")] * 4)
            old = set(shm_segments())
            shard.restart()
            # the retired ring's segment is gone; only the fresh one
            # remains
            now = set(shm_segments())
            assert len(now) == 1
            assert not (old & now)
            assert shard.execute([(OP_READ, 0, 1, b"")])[0][0] == ST_OK
        finally:
            shard.close()
        assert shm_segments() == []

    def test_server_close_drain_tears_every_ring_down(self):
        import asyncio

        from repro.serve.server import (
            BlockServer, ServerConfig, make_backends,
        )

        config = ServerConfig(
            shards=2, backend="process", code="dcode", p=5,
            stripes_per_shard=4, element_size=32,
        )
        backends = make_backends(config)

        async def body():
            server = BlockServer(config, backends)
            await server.start()
            payload = np.arange(32, dtype=np.uint8).tobytes()
            futures = [
                server.queues[k].submit_nowait((OP_WRITE, 0, 1, payload))
                for k in range(2)
            ]
            await server.close(drain=True)
            assert all(f.result()[0] == ST_OK for f in futures)

        assert len(shm_segments()) == 2
        asyncio.run(body())
        assert shm_segments() == []
