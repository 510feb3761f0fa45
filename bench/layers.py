"""Per-layer probes and the waterfall of one traced run.

``probe`` times each layer *in isolation* by calling its own functions
on the first ``PROBE_OPS`` ops of the workload's stream and the common
geometry; every figure is the best of at least ``REPEATS`` repeats.  A probe runs only for workloads
whose path goes through that layer; elsewhere the metric is reported as
0, which is how "this layer is not on this workload's path" reads in
the output (``serve.checkpoint.*`` outside ``serve_durable``, cache
destages on ``serve_open``).

``assemble`` joins the probes with what the traced and the untraced
reference runs measured — span self times, server counters, tails —
into the full list of per-layer metrics.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import shutil
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

from bench import env
from bench.driver import new_event_loop, run_closed, wire
from bench.spans import LAYERS
from bench.workloads import (
    CACHE_STRIPES,
    CODE,
    ELEMENT_SIZE,
    EVICT_BATCH,
    FAILED_DISK,
    MAX_BATCH,
    NUM_ELEMENTS,
    OP_READ,
    OP_WRITE,
    P,
    SHARDS,
    STRIPES,
    WINDOW,
    Op,
    Spec,
    payload,
)

REPEATS = 50
PROBE_OPS = 100
BATCH = 16          # ops per shard batch at saturation (the window)
RUN = 32            # stripes per codec / disk tensor (vol_stream's write)

#: Which probe groups a workload's path runs through.
ON_PATH = {
    "vol_mix": {"volume", "codec.update", "iosim"},
    "vol_stream": {"volume", "codec.encode", "disk"},
    "vol_degraded": {"volume", "codec.decode", "disk", "recovery", "iosim"},
    "serve_sat": {"volume", "codec.update", "cache", "wire", "shard"},
    "serve_open": {"volume", "cache", "wire", "shard"},
    "serve_durable": {"volume", "cache", "wire", "shard", "durable"},
}


def best_of(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    """Seconds of the fastest of ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _stream(blocks) -> List[Op]:
    """The first ``PROBE_OPS`` ops of the workload, in block order."""
    ops = [op for block in blocks for conn in block.ops for op in conn]
    return ops[:PROBE_OPS]


def _layout():
    from repro.codes.registry import make_code

    return make_code(CODE, P)


class _Rotor:
    """Hands out a fresh round number per call so that a replayed write
    never lands on identical bytes."""

    def __init__(self) -> None:
        self.rnd = 0

    def __call__(self) -> int:
        self.rnd += 1
        return self.rnd


# -- codec / disk ----------------------------------------------------------------


def probe_codec_encode(out: dict) -> None:
    from repro.codec import StripeCodec, encode_batch, random_batch

    codec = StripeCodec(_layout(), ELEMENT_SIZE)
    batch = random_batch(codec, np.random.default_rng(0), RUN)
    t = best_of(lambda: encode_batch(codec, batch))
    plan = codec.plans.encode
    # bytes the XOR program reads (every source) and writes (every dest)
    words = sum((s.src.shape[1] + 1) * len(s.dst) for s in plan.steps)
    out["codec.xor_gb_s"] = words * ELEMENT_SIZE * RUN / t / 1e9
    out["codec.encode_us_per_stripe"] = t / RUN * 1e6


def probe_codec_update(out: dict, pools) -> None:
    from repro.codec import StripeCodec, apply_update, random_batch

    layout = _layout()
    codec = StripeCodec(layout, ELEMENT_SIZE)
    stripe = random_batch(codec, np.random.default_rng(0), 1)[0]
    cells = list(layout.data_cells)
    turn = _Rotor()

    def sweep():
        pool = pools[turn() % len(pools)]
        for i, cell in enumerate(cells):
            apply_update(codec, stripe, cell, pool[i])

    out["codec.update_us_per_elem"] = best_of(sweep) / len(cells) * 1e6


def probe_codec_decode(out: dict) -> None:
    from repro.codec import StripeCodec, decode_batch, random_batch

    codec = StripeCodec(_layout(), ELEMENT_SIZE)
    batch = random_batch(codec, np.random.default_rng(0), RUN)
    for name, cols in (("decode1", (FAILED_DISK,)), ("decode2", (FAILED_DISK, 5))):
        t = best_of(lambda: decode_batch(codec, batch, cols))
        out[f"codec.{name}_us_per_stripe"] = t / RUN * 1e6


def probe_disk(out: dict, pools) -> None:
    from repro.array import SimDisk

    rows = _layout().rows
    disk = SimDisk(0, STRIPES * rows, ELEMENT_SIZE)
    offsets = np.arange(RUN * rows)
    data = np.resize(pools[0], (len(offsets), ELEMENT_SIZE))

    def gather_scatter():
        disk.write_block(offsets, data)
        disk.read_block(offsets)

    t = best_of(gather_scatter)
    out["array.disk.gather_gb_s"] = 2 * data.nbytes / t / 1e9


# -- volume, recovery, simulator -------------------------------------------------


def probe_volume(out: dict, spec: Spec, ops: Sequence[Op], pools, on) -> None:
    from repro import RAID6Volume

    layout = _layout()
    volume = RAID6Volume(layout, num_stripes=STRIPES, element_size=ELEMENT_SIZE)
    reads = [op for op in ops if op.kind == OP_READ]
    writes = [op for op in ops if op.kind == OP_WRITE]
    turn = _Rotor()

    def write_all():
        rnd = turn()
        for op in writes:
            volume.write(op.start, payload(pools, rnd, op))

    def read_all():
        for op in reads:
            volume.read(op.start, op.count)

    write_all()
    if spec.degraded:
        volume.fail_disk(FAILED_DISK)
    out["array.volume.write_us_per_op"] = best_of(write_all) / len(writes) * 1e6
    out["array.volume.read_us_per_op"] = best_of(read_all) / len(reads) * 1e6

    # one more pass in op order, counted
    volume.reset_io_counters()
    rnd = turn()
    for op in ops:
        if op.kind == OP_READ:
            volume.read(op.start, op.count)
        else:
            volume.write(op.start, payload(pools, rnd, op))
    counters = volume.io_counters()
    disk_reads = sum(r for r, _ in counters.values())
    disk_writes = sum(w for _, w in counters.values())
    out["array.volume.disk_reads_per_op"] = disk_reads / len(ops)
    out["array.volume.disk_writes_per_op"] = disk_writes / len(ops)

    if "iosim" in on:
        from repro.iosim import AccessEngine, DiskLoads, ReadOp, WriteOp

        engine = AccessEngine(
            layout, num_stripes=STRIPES,
            failed_disk=FAILED_DISK if spec.degraded else None,
        )
        loads = DiskLoads.zeros(layout.cols)
        for op in ops:
            make = ReadOp if op.kind == OP_READ else WriteOp
            engine.apply(make(op.start, op.count), loads)
        out["iosim.model_drift_ios"] = disk_reads + disk_writes - loads.cost

    if "recovery" in on:
        from repro.recovery.planner import (
            cached_conventional_plan,
            cached_hybrid_plan,
            hybrid_plan,
        )

        elements_read = 0

        def rebuild():
            nonlocal elements_read
            elements_read = volume.replace_and_rebuild(FAILED_DISK)
            volume.fail_disk(FAILED_DISK)

        # the rebuild alone is timed: fail_disk only flips a flag
        out["array.volume.rebuild_ms"] = best_of(rebuild) * 1e3
        out["recovery.plan_us_cold"] = best_of(
            lambda: hybrid_plan(layout, FAILED_DISK)
        ) * 1e6
        out["recovery.plan_us_warm"] = best_of(
            lambda: cached_hybrid_plan(layout, FAILED_DISK), repeats=1000
        ) * 1e6
        conventional = cached_conventional_plan(layout, FAILED_DISK).num_reads
        out["recovery.rebuild_read_frac"] = elements_read / (
            conventional * STRIPES
        )


# -- the shard: cache, journal, checkpoints --------------------------------------


def _shard_ops(ops: Sequence[Op]) -> List[Op]:
    """The ops that route to shard 0 (whose local addresses are the
    global ones)."""
    return [op for op in ops if op.start + op.count <= NUM_ELEMENTS // SHARDS]


def _spec(**kw):
    from repro.serve.shard import ShardSpec

    return ShardSpec(
        code=CODE, p=P, num_stripes=STRIPES // SHARDS,
        element_size=ELEMENT_SIZE, cache_stripes=CACHE_STRIPES,
        evict_batch=EVICT_BATCH,
        write_back=True, **kw,
    )


def probe_cache(out: dict, ops: Sequence[Op], pools) -> None:
    volume, cache = _spec().build()
    ops = _shard_ops(ops)
    writes = sum(op.kind == OP_WRITE for op in ops)
    turn = _Rotor()
    now = time.perf_counter

    def one_pass():
        rnd = turn()
        t_read = t_write = 0.0
        for op in ops:
            if op.kind == OP_READ:
                t0 = now()
                cache.read(op.start, op.count)
                t_read += now() - t0
            else:
                data = payload(pools, rnd, op)
                t0 = now()
                cache.write(op.start, data)
                t_write += now() - t0
        return t_read, t_write

    one_pass()
    before = cache.destage_count
    passes = [one_pass() for _ in range(REPEATS)]
    destages = (cache.destage_count - before) / REPEATS
    out["array.cache.read_us_per_op"] = (
        min(p[0] for p in passes) / (len(ops) - writes) * 1e6
    )
    out["array.cache.write_us_per_op"] = min(p[1] for p in passes) / writes * 1e6
    out["array.cache.destages_per_write"] = destages / writes
    if destages:
        per = volume.layout.num_data_cells

        def dirty_then_flush():
            for stripe in range(cache.max_dirty_stripes):
                cache.write(stripe * per, pools[turn() % len(pools)][:1])
            t0 = now()
            cache.flush()
            return now() - t0

        cache.flush()
        out["array.cache.destage_us_per_stripe"] = min(
            dirty_then_flush() for _ in range(REPEATS)
        ) / cache.max_dirty_stripes * 1e6


def _wire_ops(ops: Sequence[Op], pools, rnd: int) -> list:
    """Shard-op tuples as the coalescer hands them to a backend."""
    return [(op.kind, op.start, op.count, wire(pools, rnd, op)) for op in ops]


def probe_shard(out: dict, ops: Sequence[Op], pools) -> None:
    from repro.serve.shard import ProcessShard, execute_ops

    ops = _shard_ops(ops)
    batch = ops[:BATCH]
    turn = _Rotor()
    volume, cache = _spec().build()

    def inline_all():
        rnd = turn()
        for i in range(0, len(ops), BATCH):
            execute_ops(volume, cache, _wire_ops(ops[i:i + BATCH], pools, rnd),
                        raw=True)

    inline_all()
    out["serve.shard.execute_us_per_op"] = best_of(inline_all) / len(ops) * 1e6

    def inline_batch():
        execute_ops(volume, cache, _wire_ops(batch, pools, turn()), raw=True)

    t_inline = best_of(inline_batch)
    shard = ProcessShard(_spec())
    try:
        def remote_batch():
            for _, result in shard.execute(_wire_ops(batch, pools, turn())):
                if hasattr(result, "release"):
                    result.release()

        remote_batch()
        t_remote = best_of(remote_batch)
    finally:
        shard.close()
    out["serve.shard.roundtrip_us_per_batch"] = (t_remote - t_inline) * 1e6


def probe_durable(out: dict, ops: Sequence[Op], pools) -> None:
    from repro import RAID6Volume
    from repro.journal import WriteIntentLog
    from repro.serve.checkpoint import delta_log_path
    from repro.serve.shard import execute_ops
    from repro.serve.state import build_shard_state

    ops = _shard_ops(ops)
    writes = [op for op in ops if op.kind == OP_WRITE]
    turn = _Rotor()

    def volume_writes(journal):
        volume = RAID6Volume(
            _layout(), num_stripes=STRIPES // SHARDS,
            element_size=ELEMENT_SIZE, journal=journal,
        )

        def run():
            rnd = turn()
            for op in writes:
                volume.write(op.start, payload(pools, rnd, op))

        run()
        return best_of(run)

    out["journal.write_overhead_us_per_op"] = (
        volume_writes(WriteIntentLog()) - volume_writes(None)
    ) / len(writes) * 1e6

    state_dir = os.path.join(env.STATE_ROOT, f"{os.getpid()}-probe")
    os.makedirs(state_dir)
    try:
        path = os.path.join(state_dir, "shard-0.npz")
        volume, cache, store, _ = build_shard_state(
            _spec(durable=True, state_path=path)
        )
        try:
            log = delta_log_path(path)
            best = float("inf")
            user_bytes = 0
            size0 = os.path.getsize(log)
            for rep in range(REPEATS):
                chunk = writes[(rep * BATCH) % len(writes):][:BATCH]
                execute_ops(volume, cache, _wire_ops(chunk, pools, turn()))
                user_bytes += sum(op.count for op in chunk) * ELEMENT_SIZE
                t0 = time.perf_counter()
                store.checkpoint()
                best = min(best, time.perf_counter() - t0)
            out["serve.checkpoint.persist_us_per_batch"] = best * 1e6
            out["serve.checkpoint.bytes_per_user_byte"] = (
                os.path.getsize(log) - size0
            ) / user_bytes
        finally:
            store.close()
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


# -- the wire: protocol, router, admission, coalescer, ring, server, loadgen -----


class _CannedBackend:
    """A shard that answers at once: OK, and zeros for a READ."""

    def __init__(self) -> None:
        self._zeros = bytes(64 * ELEMENT_SIZE)

    def execute(self, ops, deadline=None):
        return [
            (0, memoryview(self._zeros)[:count * ELEMENT_SIZE]
             if op == OP_READ else b"")
            for op, _, count, _ in ops
        ]

    def close(self) -> None:
        pass


async def _echo_connection(reader, writer):
    """The null server: parse the frame, answer OK with a right-sized
    payload — the least any block server must do."""
    from repro.serve import protocol

    zeros = bytes(64 * ELEMENT_SIZE)
    try:
        while True:
            body = await protocol.read_frame(reader)
            if body is None:
                break
            op, _, _, count, _ = protocol.HEADER.unpack_from(body)
            n = count * ELEMENT_SIZE if op == OP_READ else 0
            writer.write(protocol.encode_response_prefix(0, n))
            if n:
                writer.write(memoryview(zeros)[:n])
    except (ConnectionError, protocol.ProtocolError):
        pass
    finally:
        writer.close()


def _echo_server(conn) -> None:  # pragma: no cover — child process
    async def serve():
        server = await asyncio.start_server(_echo_connection, "127.0.0.1", 0)
        conn.send(server.sockets[0].getsockname()[1])
        await asyncio.get_running_loop().run_in_executor(None, conn.recv)
        server.close()

    asyncio.run(serve())


def probe_wire(out: dict, ops: Sequence[Op], block, pools) -> None:
    from repro.serve import protocol
    from repro.serve.coalescer import ShardQueue
    from repro.serve.loadgen import BlockClient
    from repro.serve.qos import AdmissionControl
    from repro.serve.server import BlockServer, ServerConfig
    from repro.serve.shmring import PayloadRing

    wire = _wire_ops(ops, pools, 1)

    def codec_all():
        for op, start, count, data in wire:
            head, body = protocol.encode_request_parts(
                protocol.Request(op, 0, start, count, data)
            )
            protocol.decode_request(head[4:] + bytes(body))
            protocol.encode_response_prefix(0, len(body))
            protocol.decode_response(b"\x00" + bytes(body))

    out["serve.protocol.codec_us_per_op"] = best_of(codec_all) / len(ops) * 1e6

    config = ServerConfig(
        shards=SHARDS, code=CODE, p=P, stripes_per_shard=STRIPES // SHARDS,
        element_size=ELEMENT_SIZE, max_batch=MAX_BATCH,
    )
    router = config.router()
    extents = 0

    def split_all():
        nonlocal extents
        extents = sum(len(router.split(op.start, op.count)) for op in ops)

    out["serve.router.split_us_per_op"] = best_of(split_all) / len(ops) * 1e6
    out["serve.router.extents_per_op"] = extents / len(ops)

    admission = AdmissionControl(max_inflight=config.max_inflight)

    def admit_all():
        for _ in ops:
            admission.admit(0)
            admission.release(0)

    out["serve.qos.admit_us_per_op"] = best_of(admit_all) / len(ops) * 1e6

    ring = PayloadRing(128, 64 * ELEMENT_SIZE)
    try:
        data = memoryview(pools[0][:4]).cast("B")   # 16 KiB, a mean write

        def slot_cycle():
            slot = ring.alloc(len(data))
            n = ring.write_into(slot, data)
            ring.slot_view(slot, n).release()
            ring.lease_slice(slot, n).release()

        out["serve.shmring.slot_us_per_payload"] = best_of(slot_cycle, 1000) * 1e6
    finally:
        ring.retire()

    # the load generator against a null server in its own process
    parent, child = multiprocessing.get_context("fork").Pipe()
    echo = multiprocessing.get_context("fork").Process(
        target=_echo_server, args=(child,), daemon=True
    )
    echo.start()
    loop = new_event_loop()
    try:
        port = parent.recv()

        async def coalesce():
            queue = ShardQueue(_CannedBackend(), max_batch=MAX_BATCH)
            queue.start()
            shard_ops = [(op, s, c, b"") for op, s, c, _ in wire[:BATCH]]
            best = float("inf")
            for _ in range(REPEATS * 4):
                t0 = time.perf_counter()
                await asyncio.gather(
                    *[queue.submit_nowait(op) for op in shard_ops]
                )
                best = min(best, time.perf_counter() - t0)
            await queue.close()
            return best / BATCH

        out["serve.coalescer.us_per_op"] = loop.run_until_complete(coalesce()) * 1e6

        async def drive(host_port):
            clients = [
                await BlockClient.connect("127.0.0.1", host_port)
                for _ in block.ops
            ]
            best_wall, best_cpu = float("inf"), float("inf")
            try:
                for rnd in range(REPEATS):
                    cpu0 = time.process_time()
                    res = await run_closed(clients, block, pools, rnd, WINDOW)
                    best_cpu = min(best_cpu, time.process_time() - cpu0)
                    best_wall = min(best_wall, res.wall_s)
                    if res.failed:
                        raise RuntimeError("null server refused an op")
            finally:
                for client in clients:
                    await client.close()
            return best_wall, best_cpu

        wall, cpu = loop.run_until_complete(drive(port))
        out["serve.loadgen.ceiling_ops_s"] = block.num_ops / wall
        out["serve.loadgen.cpu_us_per_op"] = cpu / block.num_ops * 1e6

        async def null_backend():
            server = BlockServer(
                config, [_CannedBackend() for _ in range(SHARDS)]
            )
            _, server_port = await server.start()
            try:
                return await drive(server_port)
            finally:
                await server.close()

        wall, _ = loop.run_until_complete(null_backend())
        out["serve.server.null_backend_us_per_op"] = wall / block.num_ops * 1e6
    finally:
        loop.close()
        parent.send(None)
        echo.join(timeout=10)
        if echo.is_alive():
            echo.kill()
            echo.join()


# -- entry points ----------------------------------------------------------------


def probe(spec: Spec, blocks, pools) -> Dict[str, float]:
    """Every probe on this workload's path."""
    on = ON_PATH[spec.name]
    ops = _stream(blocks)
    out: Dict[str, float] = {}
    if "codec.encode" in on:
        probe_codec_encode(out)
    if "codec.update" in on:
        probe_codec_update(out, pools)
    if "codec.decode" in on:
        probe_codec_decode(out)
    if "disk" in on:
        probe_disk(out, pools)
    probe_volume(out, spec, ops, pools, on)
    if "cache" in on:
        probe_cache(out, ops, pools)
    if "shard" in on:
        probe_shard(out, ops, pools)
    if "durable" in on:
        probe_durable(out, ops, pools)
    if "wire" in on:
        probe_wire(out, ops, blocks[0], pools)
    return {k: float(v) for k, v in out.items()}


def assemble(spec: Spec, plain: dict, traced: dict) -> Dict[str, float]:
    """All per-layer metrics of one workload from the untraced reference
    run ``plain`` and the traced run ``traced`` (reports of
    ``bench.worker``).  Metrics absent from the result read as 0."""
    values: Dict[str, float] = dict(traced["layers"])
    ops = traced["timed_ops"]
    quiet, busy = plain["summary"], traced["summary"]

    explained = 0.0
    per_layer = {layer: 0.0 for layer in LAYERS}
    for key, (ns, _) in traced["spans"].items():
        per_layer[key.split(":")[0]] += ns / 1e3 / ops
    for layer, us in per_layer.items():
        values[f"waterfall.{layer}_us_per_op"] = us
        explained += us
    values["waterfall.unexplained_frac"] = (
        1.0 - explained / busy["cpu_us_per_op_total"]
    )
    values["trace.overhead_frac"] = 1.0 - busy["ops_s"] / quiet["ops_s"]
    values["tail.read_p99_us"] = quiet["read_p99_us"]
    values["tail.write_p99_us"] = quiet["write_p99_us"]
    values["tail.mean_over_quiet"] = quiet["mean_over_quiet"]
    values["rebuild_mb_s"] = quiet.get("rebuild_mb_s", 0.0)

    if spec.kind == "serve":
        stats = traced["stats"]
        values["serve.coalescer.avg_batch"] = (
            stats["batched_ops"] / stats["batches"] if stats["batches"] else 0.0
        )
        values["serve.server.zero_copy_flush_frac"] = (
            stats["zero_copy_flushes"] / stats["flushes"]
            if stats["flushes"] else 0.0
        )
        values["serve.loadgen.late_p99_us"] = quiet["late_p99_us"]
    if spec.ack == "durable":
        values["serve.supervisor.restart_ms"] = traced["restart_ms"]
        values["serve.checkpoint.compactions"] = float(
            traced["spans"].get("serve.checkpoint:compact", [0, 0])[1]
        )
    return values
