"""Shard supervision: typed crash/timeout errors, restart, durability."""

import glob
import os
import threading
import time
from multiprocessing.context import ForkProcess

import numpy as np
import pytest

from repro.exceptions import (
    ReproError,
    ShardCrashedError,
    ShardTimeoutError,
)
from repro.serve.protocol import OP_READ, OP_WRITE, ST_ERROR, ST_OK
from repro.serve.shard import ProcessShard, ShardSpec
from repro.serve.shmring import SHM_PREFIX
from repro.serve.supervisor import SupervisedShard

SPEC = ShardSpec(code="dcode", p=5, num_stripes=8, element_size=32)


def write_op(start, payload):
    return (OP_WRITE, start, len(payload) // 32, payload)


def payload_bytes(payload):
    """Normalise a READ payload (bytes / ShmSlice) and free its slot."""
    if hasattr(payload, "tobytes"):
        data = payload.tobytes()
        if hasattr(payload, "release"):
            payload.release()
        return data
    return payload


class TestProcessShardTypedErrors:
    def test_killed_worker_raises_shard_crashed(self):
        shard = ProcessShard(SPEC)
        try:
            shard.kill()
            with pytest.raises(ShardCrashedError):
                # either the send or the guarded recv notices the corpse
                for _ in range(3):
                    shard.execute([(OP_READ, 0, 1, b"")])
        finally:
            shard.close()

    def test_mid_batch_death_raises_shard_crashed(self):
        spec = ShardSpec(
            code="dcode", p=5, num_stripes=8, element_size=32,
            chaos_kill_after_ops=2,
        )
        shard = ProcessShard(spec)
        try:
            with pytest.raises(ShardCrashedError):
                shard.execute([(OP_READ, 0, 1, b"")] * 4)
        finally:
            shard.close()

    def test_stalled_worker_raises_shard_timeout(self):
        spec = ShardSpec(
            code="dcode", p=5, num_stripes=8, element_size=32,
            chaos_stall_after_ops=1, chaos_stall_s=30.0,
        )
        shard = ProcessShard(spec, recv_timeout=0.2)
        try:
            with pytest.raises(ShardTimeoutError):
                shard.execute([(OP_READ, 0, 1, b"")])
        finally:
            shard.kill()
            shard.close()

    def test_restart_clears_chaos_and_serves(self):
        spec = ShardSpec(
            code="dcode", p=5, num_stripes=8, element_size=32,
            chaos_kill_after_ops=1,
        )
        shard = ProcessShard(spec)
        try:
            with pytest.raises(ShardCrashedError):
                shard.execute([(OP_READ, 0, 1, b"")])
            shard.restart()
            assert shard.restarts == 1
            results = shard.execute([(OP_READ, 0, 1, b"")])
            assert results[0][0] == ST_OK
        finally:
            shard.close()

    def test_ping_round_trips(self):
        """The heartbeat: an empty batch echoes back empty."""
        shard = ProcessShard(SPEC)
        try:
            assert shard.execute([], deadline=time.monotonic() + 5.0) == []
        finally:
            shard.close()

    def test_ping_dead_worker_raises(self):
        shard = ProcessShard(SPEC)
        try:
            shard.kill()
            with pytest.raises(ShardCrashedError):
                for _ in range(3):
                    shard.execute([], deadline=time.monotonic() + 5.0)
        finally:
            shard.close()


    def test_kill_racing_restart_is_harmless(self, monkeypatch):
        """The chaos saboteur kills without the supervisor's lock: a
        kill landing while ``restart()`` forks the replacement must find
        a started process, and nothing may outlive ``close()``."""
        start = ForkProcess.start

        def slow_start(proc):
            time.sleep(0.02)  # a slow fork: the window the saboteur hit
            start(proc)

        monkeypatch.setattr(ForkProcess, "start", slow_start)
        shard = ProcessShard(SPEC)
        pids = [shard._proc.pid]
        errors = []
        stop = threading.Event()

        def saboteur():
            while not stop.is_set():
                try:
                    shard.kill()
                except Exception as exc:  # noqa: BLE001 — the regression
                    errors.append(exc)
                    return

        thread = threading.Thread(target=saboteur)
        thread.start()
        try:
            for _ in range(4):
                shard.restart()
                pids.append(shard._proc.pid)
        finally:
            stop.set()
            thread.join()
            shard.close()
        assert errors == []
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert glob.glob(f"/dev/shm/{SHM_PREFIX}_{os.getpid()}_*") == []


class TestSupervisedShard:
    def test_crash_restarts_then_reraises(self):
        spec = ShardSpec(
            code="dcode", p=5, num_stripes=8, element_size=32,
            chaos_kill_after_ops=1,
        )
        sup = SupervisedShard(spec, max_restarts=4)
        try:
            with pytest.raises(ShardCrashedError):
                sup.execute([(OP_READ, 0, 1, b"")])
            assert sup.restarts == 1
            assert sup.crashes == 1
            # the replacement worker serves the retried batch
            results = sup.execute([(OP_READ, 0, 1, b"")])
            assert results[0][0] == ST_OK
        finally:
            sup.close()

    def test_timeout_restarts_then_reraises(self):
        spec = ShardSpec(
            code="dcode", p=5, num_stripes=8, element_size=32,
            chaos_stall_after_ops=1, chaos_stall_s=30.0,
        )
        sup = SupervisedShard(spec, recv_timeout=0.2, max_restarts=4)
        try:
            with pytest.raises(ShardTimeoutError):
                sup.execute([(OP_READ, 0, 1, b"")])
            assert sup.timeouts == 1
            assert sup.restarts == 1
            results = sup.execute([(OP_READ, 0, 1, b"")])
            assert results[0][0] == ST_OK
        finally:
            sup.close()

    def test_restart_budget_exhaustion_fails_plain(self):
        sup = SupervisedShard(SPEC, max_restarts=2)
        pids = []
        try:
            for _ in range(2):
                pids.append(sup._shard._proc.pid)
                sup.kill()
                with pytest.raises(
                    (ShardCrashedError, ShardTimeoutError)
                ):
                    sup.execute([(OP_READ, 0, 1, b"")])
            assert sup.failed
            # the failure that spent the budget forked no replacement:
            # the last incarnation is reaped and its ring retired
            assert sup.restarts == 1
            assert not sup.alive() and sup._shard._proc.pid == pids[-1]
            assert sup._shard.ring.retired
            for pid in pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
            with pytest.raises(ReproError, match="restart budget"):
                sup.execute([(OP_READ, 0, 1, b"")])
        finally:
            sup.close()
        assert glob.glob(f"/dev/shm/{SHM_PREFIX}_{os.getpid()}_*") == []


class TestDurableRestart:
    def test_acked_writes_survive_kill(self, tmp_path):
        spec = ShardSpec(
            code="dcode", p=5, num_stripes=8, element_size=32,
            durable=True, state_path=str(tmp_path / "shard.img"),
            cache_stripes=4,
        )
        sup = SupervisedShard(spec, max_restarts=4)
        rng = np.random.default_rng(7)
        payload = rng.integers(0, 256, 5 * 32, dtype=np.uint8).tobytes()
        try:
            results = sup.execute([write_op(3, payload)])
            assert results[0][0] == ST_OK   # ack implies durable
            sup.kill()
            with pytest.raises(ShardCrashedError):
                sup.execute([(OP_READ, 3, 5, b"")])
            # retried read on the restarted worker sees the acked bytes
            status, answer = sup.execute([(OP_READ, 3, 5, b"")])[0]
            assert (status, payload_bytes(answer)) == (ST_OK, payload)
        finally:
            sup.close()

    def test_unacked_batch_lost_acked_batch_kept(self, tmp_path):
        # kill mid-batch: nothing from the dying batch was acked, so
        # the restarted shard must show exactly the earlier acked state
        state = str(tmp_path / "shard.img")
        spec = ShardSpec(
            code="dcode", p=5, num_stripes=8, element_size=32,
            durable=True, state_path=state, cache_stripes=4,
        )
        rng = np.random.default_rng(11)
        acked = rng.integers(0, 256, 2 * 32, dtype=np.uint8).tobytes()
        doomed = rng.integers(0, 256, 2 * 32, dtype=np.uint8).tobytes()

        shard = ProcessShard(spec)
        try:
            assert shard.execute([write_op(0, acked)])[0][0] == ST_OK
        finally:
            shard.close()

        killer = ProcessShard(
            ShardSpec(
                code="dcode", p=5, num_stripes=8, element_size=32,
                durable=True, state_path=state, cache_stripes=4,
                chaos_kill_after_ops=1,
            )
        )
        try:
            with pytest.raises(ShardCrashedError):
                killer.execute([write_op(0, doomed)])
            killer.restart()
            status, answer = killer.execute([(OP_READ, 0, 2, b"")])[0]
            assert (status, payload_bytes(answer)) == (ST_OK, acked)
        finally:
            killer.close()


class TestFailDiskValidation:
    def test_out_of_range_disk_is_typed_error(self):
        from repro.serve.protocol import OP_FAIL_DISK
        from repro.serve.shard import InlineShard

        shard = InlineShard(SPEC)
        num_disks = len(shard.volume.disks)
        status, msg = shard.execute(
            [(OP_FAIL_DISK, 0, num_disks + 3, b"")]
        )[0]
        assert status == ST_ERROR
        assert b"outside array" in msg
        # the batch keeps going after the per-op failure
        results = shard.execute([
            (OP_FAIL_DISK, 0, 999, b""),
            (OP_READ, 0, 1, b""),
        ])
        assert results[0][0] == ST_ERROR
        assert results[1][0] == ST_OK
        shard.close()
