"""Shard backends: batch execution equivalence and worker lifecycle."""

import json

import numpy as np
import pytest

from repro.array import RAID6Volume
from repro.codes.registry import make_code
from repro.serve.protocol import (
    OP_FAIL_DISK,
    OP_READ,
    OP_SCRUB,
    OP_STAT,
    OP_WRITE,
    ST_ERROR,
    ST_OK,
)
from repro.serve.shard import (
    InlineShard,
    ProcessShard,
    ShardSpec,
    execute_ops,
)

SPEC = ShardSpec(code="dcode", p=5, num_stripes=8, element_size=32)


def random_ops(rng, spec, n):
    """A mixed read/write op stream over the whole shard."""
    num_elements = spec.num_stripes * make_code(
        spec.code, spec.p
    ).num_data_cells
    ops = []
    for _ in range(n):
        count = int(rng.integers(1, 5))
        start = int(rng.integers(0, num_elements - count + 1))
        if rng.random() < 0.5:
            ops.append((OP_READ, start, count, b""))
        else:
            payload = rng.integers(
                0, 256, count * spec.element_size, dtype=np.uint8
            ).tobytes()
            ops.append((OP_WRITE, start, count, payload))
    return ops


def as_bytes(results):
    """Normalise buffer-typed READ payloads (ndarray / ShmSlice) for
    comparison, releasing any ring slices on the way."""
    out = []
    for status, payload in results:
        if hasattr(payload, "tobytes"):
            data = payload.tobytes()
            if hasattr(payload, "release"):
                payload.release()
            payload = data
        out.append((status, payload))
    return out


def apply_direct(volume, ops):
    """Reference semantics: each op straight against a volume."""
    results = []
    for op, start, count, payload in ops:
        if op == OP_READ:
            results.append(
                (ST_OK, volume.read(start, count).tobytes())
            )
        else:
            data = np.frombuffer(payload, dtype=np.uint8)
            volume.write(
                start, data.reshape(count, volume.element_size).copy()
            )
            results.append((ST_OK, b""))
    return results


class TestExecuteOps:
    @pytest.mark.parametrize("write_back", [False, True])
    def test_matches_direct_volume(self, rng, write_back):
        spec = ShardSpec(
            code=SPEC.code, p=SPEC.p, num_stripes=SPEC.num_stripes,
            element_size=SPEC.element_size, write_back=write_back,
        )
        volume, cache = spec.build()
        reference = RAID6Volume(
            make_code(spec.code, spec.p),
            num_stripes=spec.num_stripes,
            element_size=spec.element_size,
        )
        ops = random_ops(rng, spec, 60)
        got = execute_ops(volume, cache, ops)
        want = apply_direct(reference, ops)
        assert got == want
        if cache is not None:
            cache.flush()
        n = volume.num_elements
        assert np.array_equal(volume.read(0, n), reference.read(0, n))

    def test_bad_op_answers_error_and_batch_continues(self):
        volume, cache = SPEC.build()
        ops = [
            (OP_WRITE, 0, 2, b"short"),        # payload size mismatch
            (OP_READ, 10 ** 6, 1, b""),        # outside the volume
            (OP_READ, 0, 1, b""),              # still served
        ]
        results = execute_ops(volume, cache, ops)
        assert [status for status, _ in results] == [
            ST_ERROR, ST_ERROR, ST_OK,
        ]

    def test_stat_scrub_fail_disk(self):
        volume, cache = SPEC.build()
        results = execute_ops(volume, cache, [
            (OP_STAT, 0, 0, b""),
            (OP_SCRUB, 0, 0, b""),
            (OP_FAIL_DISK, 0, 2, b""),
            (OP_STAT, 0, 0, b""),
        ])
        assert [status for status, _ in results] == [ST_OK] * 4
        healthy = json.loads(results[0][1])
        assert healthy["health"] == "HEALTHY"
        assert healthy["num_stripes"] == SPEC.num_stripes
        assert json.loads(results[1][1]) == []  # clean scrub
        degraded = json.loads(results[3][1])
        assert degraded["failed_disks"] == [2]
        assert degraded["health"] != "HEALTHY"


class TestProcessShard:
    def test_round_trip_and_close(self, rng):
        shard = ProcessShard(SPEC)
        try:
            ops = random_ops(rng, SPEC, 30)
            reference = RAID6Volume(
                make_code(SPEC.code, SPEC.p),
                num_stripes=SPEC.num_stripes,
                element_size=SPEC.element_size,
            )
            assert as_bytes(shard.execute(ops)) == apply_direct(reference, ops)
        finally:
            shard.close()
        assert not shard._proc.is_alive()

    def test_worker_fault_comes_back_typed(self):
        shard = ProcessShard(SPEC)
        try:
            # an unknown op is answered per-op, not a crash ...
            results = shard.execute([(42, 0, 0, b"")])
            assert results[0][0] == ST_ERROR
            # ... and the worker keeps serving afterwards
            results = shard.execute([(OP_READ, 0, 1, b"")])
            assert results[0][0] == ST_OK
        finally:
            shard.close()

    def test_inline_and_process_agree(self, rng):
        inline = InlineShard(SPEC)
        process = ProcessShard(SPEC)
        try:
            ops = random_ops(rng, SPEC, 40)
            assert as_bytes(inline.execute(ops)) == as_bytes(process.execute(ops))
        finally:
            process.close()
            inline.close()

    def test_worker_imports_nothing_after_the_fork(self, tmp_path):
        """Everything a worker executes is imported before it is forked
        (package exports are lazy, so the shard module names its needs by
        submodule): otherwise every worker pays the import privately and
        its first op pays the latency.  Run in a fresh interpreter — the
        test process has imported everything long ago."""
        from tests.test_lazy_exports import run_fresh

        late = run_fresh("""
            import json, sys
            import repro.serve.shard as shard
            from repro.serve.protocol import OP_READ, OP_WRITE

            execute_ops, path = shard.execute_ops, sys.argv[1]

            def spy(volume, cache, ops, **kwargs):
                # the worker calls execute_ops by module global; forked
                # from here, it inherits this wrapper
                results = execute_ops(volume, cache, ops, **kwargs)
                with open(path, "w") as out:
                    json.dump(sorted(sys.modules), out)
                return results

            shard.execute_ops = spy
            worker = shard.ProcessShard(
                shard.ShardSpec(num_stripes=8, element_size=64)
            )
            parent = set(sys.modules)
            try:
                results = worker.execute([
                    (OP_WRITE, 3, 5, bytes(5 * 64)),
                    (OP_READ, 0, 20, b""),
                    (OP_WRITE, 30, 80, bytes(80 * 64)),
                ])
                assert all(status == 0 for status, _ in results), results
            finally:
                worker.close()
            with open(path) as seen:
                print(json.dumps(sorted(set(json.load(seen)) - parent)))
        """, str(tmp_path / "modules.json"))
        assert late == []
