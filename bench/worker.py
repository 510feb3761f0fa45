"""One workload in one fresh process: build, warm, measure, verify, clean.

Run by ``bench.run`` as ``python -m bench.worker``; prints ``READY``
once the system is built and one untimed warm round has completed (the
parent stops its set-up clock there), then one ``RESULT {json}`` line.

Round structure (a *round* replays the workload's K blocks once):

* round 0 — warm, untimed, reads checksummed;
* rounds 1..R — timed; CPU clocks are sampled at block boundaries, when
  nothing is outstanding;
* round R+1 — untimed again, reads checksummed.

Only then is the shadow image built and both checksummed rounds, the
final image and the parity scrub compared with it, so the measured
rounds and the memory high-water mark carry no verification work.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import json
import multiprocessing
import os
import shutil
import sys
import time
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serve.protocol import ST_OK

from bench import env, stats
from bench.driver import (
    BlockResult,
    new_event_loop,
    run_closed,
    run_open,
    wire,
)
from bench.workloads import (
    BY_NAME,
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
    PER,
    SHARDS,
    STRIPES,
    WINDOW,
    Spec,
    make_blocks,
    make_pools,
    payload,
    replay,
    shadow_after,
)

MIN_ROUNDS = 3
#: Rounds the serve replica counts disk I/Os over (plus one flush).
COUNT_ROUNDS = 4


class VolSystem:
    """``vol_*``: one RAID6Volume driven directly, one thread."""

    def __init__(self, spec: Spec, blocks, pools) -> None:
        from repro import RAID6Volume
        from repro.codes.registry import make_code

        self.spec, self.blocks, self.pools = spec, blocks, pools
        layout = make_code(CODE, P)
        if layout.num_data_cells != PER:
            raise RuntimeError(
                f"{CODE} p={P} has {layout.num_data_cells} data cells per "
                f"stripe, the workloads were drawn for {PER}"
            )
        self.volume = RAID6Volume(
            layout, num_stripes=STRIPES, element_size=ELEMENT_SIZE
        )
        self.rebuild_reads = 0
        #: per-disk [reads, writes] over the blocks of ``io_rounds`` rounds
        #: (the rebuild sweep that ends a degraded round is not in them)
        self.ops_io = np.zeros((layout.cols, 2), dtype=np.int64)
        self.io_rounds = 0
        self._io0 = self.ops_io

    def pids(self) -> List[int]:
        return [os.getpid()]

    def _io(self) -> np.ndarray:
        counters = self.volume.io_counters()
        return np.array([counters[d] for d in sorted(counters)], dtype=np.int64)

    def begin_round(self) -> None:
        if self.spec.degraded:
            self.volume.fail_disk(FAILED_DISK)
        self._io0 = self._io()

    def end_round(self) -> float:
        """Seconds the rebuild took (0 on the healthy workloads)."""
        self.ops_io += self._io() - self._io0
        self.io_rounds += 1
        if not self.spec.degraded:
            return 0.0
        t0 = time.perf_counter()
        self.rebuild_reads = self.volume.replace_and_rebuild(FAILED_DISK)
        return time.perf_counter() - t0

    def run_block(self, k: int, rnd: int, collect: bool = False) -> BlockResult:
        volume = self.volume
        lat: List[float] = []
        result = BlockResult(lat_us=[lat], crcs=[[]] if collect else None)
        now = time.perf_counter
        cpu0 = time.process_time_ns()
        t0 = now()
        for op in self.blocks[k].ops[0]:
            if op.kind == OP_READ:
                ta = now()
                out = volume.read(op.start, op.count)
                lat.append((now() - ta) * 1e6)
                if collect:
                    result.crcs[0].append(zlib.crc32(out.tobytes()))
            else:
                data = payload(self.pools, rnd, op)
                ta = now()
                volume.write(op.start, data)
                lat.append((now() - ta) * 1e6)
        result.wall_s = now() - t0
        result.cpu_ns = time.process_time_ns() - cpu0
        return result

    def reset_counters(self) -> None:
        self.ops_io[:] = 0
        self.io_rounds = 0

    def io_counters(self) -> Tuple[np.ndarray, int]:
        """Per-disk [reads, writes] and the rounds they were counted over."""
        return self.ops_io, self.io_rounds

    def final_image(self) -> np.ndarray:
        step = 32 * PER
        return np.concatenate([
            np.array(self.volume.read(s, min(step, NUM_ELEMENTS - s)))
            for s in range(0, NUM_ELEMENTS, step)
        ])

    def extra_checks(self, shadow: np.ndarray) -> List[str]:
        bad = self.volume.scrub()
        return [f"scrub found inconsistent stripes {bad}"] if bad else []

    def stats(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class ServeSystem:
    """``serve_*``: BlockServer in this process, 2 supervised process
    shards over the shared-memory ring, load from this process over 2
    persistent loopback connections."""

    def __init__(self, spec: Spec, blocks, pools) -> None:
        self.spec, self.blocks, self.pools = spec, blocks, pools
        self.state_dir: Optional[str] = None
        self.config = None
        self.backends: list = []
        self.loop = None
        self.server = None
        self.address = None
        self.clients: list = []
        self.restart_ms = 0.0
        try:
            self._start()
        except BaseException:
            self.close()
            raise

    def _start(self) -> None:
        from repro.serve.loadgen import BlockClient
        from repro.serve.server import BlockServer, ServerConfig, make_backends

        spec = self.spec
        if spec.ack == "durable":
            self.state_dir = os.path.join(env.STATE_ROOT, str(os.getpid()))
            os.makedirs(self.state_dir)
        self.config = config = ServerConfig(
            shards=SHARDS, backend="process", code=CODE, p=P,
            stripes_per_shard=STRIPES // SHARDS, element_size=ELEMENT_SIZE,
            max_batch=MAX_BATCH, write_back=True, cache_stripes=CACHE_STRIPES,
            evict_batch=EVICT_BATCH,
            ack=spec.ack, state_dir=self.state_dir,
        )
        # fork the workers before any event loop exists; they inherit
        # this process's pinning, as does every supervised restart
        self.backends = make_backends(config)
        self.loop = new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.server = BlockServer(config, self.backends)
        self.address = self.loop.run_until_complete(self.server.start())
        for _ in self.blocks[0].ops:
            self.clients.append(self.loop.run_until_complete(
                BlockClient.connect(*self.address)
            ))

    def pids(self) -> List[int]:
        return [os.getpid()] + [
            p.pid for p in multiprocessing.active_children()
        ]

    def run_block(self, k: int, rnd: int, collect: bool = False) -> BlockResult:
        block = self.blocks[k]
        pids = self.pids()
        cpu0 = env.total_cpu_ns(pids)
        if self.spec.loop == "open":
            coro = run_open(self.clients, block, self.pools, rnd, collect)
        else:
            coro = run_closed(
                self.clients, block, self.pools, rnd, WINDOW, collect
            )
        result = self.loop.run_until_complete(coro)
        result.cpu_ns = env.total_cpu_ns(pids) - cpu0
        return result

    def begin_round(self) -> None:
        pass

    def end_round(self) -> float:
        return 0.0

    def reset_counters(self) -> None:
        pass

    def io_counters(self) -> Tuple[np.ndarray, int]:
        """Per-column [reads, writes] of ``COUNT_ROUNDS`` rounds, counted
        on a replica.

        The shard workers' disks cannot be read from outside until the
        stack has an observability spine (ROADMAP item 4).  So the
        stream is replayed on the same shard stack — router,
        ``execute_ops``, write-back cache, volume — built inline from
        this server's configuration: a warm round, then the counted
        ones with the connections taking turns op by op, then the flush
        every buffered write is owed.  What the cache does depends on
        the order of the ops alone, so the counts repeat exactly.  Disk
        ``d`` of every shard's array is summed into column ``d``: a few
        hundred ops spread over 14 disks say more about the draw than
        about the layout's balance.
        """
        from repro.serve.server import make_backends

        config = dataclasses.replace(
            self.config, backend="inline", ack="buffered", state_dir=None
        )
        router = config.router()
        shards = make_backends(config)

        def one_round(rnd: int) -> None:
            for block in self.blocks:
                for turn in zip(*block.ops):
                    for op in turn:
                        for shard, local, count, _ in router.split(
                            op.start, op.count
                        ):
                            shards[shard].execute([(
                                op.kind, local, count,
                                wire(self.pools, rnd, op),
                            )])

        try:
            one_round(0)
            for shard in shards:
                shard.volume.reset_io_counters()
            for rnd in range(COUNT_ROUNDS):
                one_round(1 + rnd)
            for shard in shards:
                shard.cache.flush()
            return sum(
                np.array(
                    [c for _, c in sorted(shard.volume.io_counters().items())],
                    dtype=np.int64,
                )
                for shard in shards
            ), COUNT_ROUNDS
        finally:
            for shard in shards:
                shard.close()

    def final_image(self) -> np.ndarray:
        from repro.serve.loadgen import fetch_image

        image = self.loop.run_until_complete(fetch_image(
            *self.address, num_elements=NUM_ELEMENTS, chunk=64
        ))
        return np.frombuffer(image, dtype=np.uint8).reshape(NUM_ELEMENTS, -1)

    def extra_checks(self, shadow: np.ndarray) -> List[str]:
        """``serve_durable``: kill -9 every worker, wait for the supervised
        restart, then read every acknowledged write back."""
        if self.spec.ack != "durable":
            return []
        down = self.loop.run_until_complete(self._kill_and_wait())
        if down:
            return down
        image = self.final_image()
        if not np.array_equal(image, shadow):
            lost = int((image != shadow).any(axis=1).sum())
            return [f"{lost} acknowledged elements lost across kill -9"]
        return []

    async def _kill_and_wait(self) -> List[str]:
        client = self.clients[0]
        per_shard = NUM_ELEMENTS // SHARDS
        for shard, backend in enumerate(self.backends):
            backend.kill()
            t0 = time.perf_counter()
            while True:
                status, _ = await client.request(
                    OP_READ, shard * per_shard, 1
                )
                if status == ST_OK:
                    break
                if time.perf_counter() - t0 > 30:
                    return [f"shard {shard} did not come back after kill -9"]
                await asyncio.sleep(0.002)
            self.restart_ms = max(
                self.restart_ms, (time.perf_counter() - t0) * 1e3
            )
        return []

    def stats(self) -> Dict[str, int]:
        """The server's cumulative counters (differenced around the
        timed rounds by the caller)."""
        stats = self.server.stats()
        out = {
            k: stats[k] for k in (
                "ops", "busy", "errors", "retried", "deadline_misses",
                "restarts", "batches", "flushes", "zero_copy_flushes",
            )
        }
        out["batched_ops"] = sum(q.batched_ops for q in self.server.queues)
        return out

    def close(self) -> None:
        """Reap the workers and remove every trace, whatever happened."""
        try:
            if self.loop is not None:
                for client in self.clients:
                    self.loop.run_until_complete(client.close())
                if self.server is not None:
                    self.loop.run_until_complete(self.server.close())
                self.loop.close()
            if self.server is None:
                for backend in self.backends:
                    backend.close()
        finally:
            for proc in multiprocessing.active_children():
                proc.kill()
                proc.join(timeout=10)
            if self.state_dir is not None:
                shutil.rmtree(self.state_dir, ignore_errors=True)


# -- measurement -----------------------------------------------------------------

def run_round(system, rnd: int, collect: bool = False):
    """One replay of the K blocks: (block results, rebuild seconds)."""
    system.begin_round()
    results = [
        system.run_block(k, rnd, collect) for k in range(len(system.blocks))
    ]
    return results, system.end_round()


def measure(system, seconds: float, rounds: Optional[int]) -> dict:
    """Timed rounds 1..R.

    Returns per-(round, block) matrices ``wall_s`` / ``cpu_ns``, the
    per-(round, op) matrix ``lat_us`` in (block,
    connection, op) order, per-round ``rebuild_s``, every ``late_us``
    seen, the CPU all processes used meanwhile, and the ops attempted
    and failed.
    """
    rows: Dict[str, list] = {
        name: [] for name in
        ("wall_s", "cpu_ns", "lat_us", "rebuild_s")
    }
    late: List[float] = []
    failed = 0
    pids = system.pids()
    cpu0 = env.total_cpu_ns(pids)
    t_end = time.perf_counter() + seconds
    rnd = 0
    while rnd < rounds if rounds is not None else (
        rnd < MIN_ROUNDS or time.perf_counter() < t_end
    ):
        rnd += 1
        results, rebuild_s = run_round(system, rnd)
        rows["wall_s"].append([r.wall_s for r in results])
        rows["cpu_ns"].append([r.cpu_ns for r in results])
        rows["lat_us"].append(np.array(
            [v for r in results for conn in r.lat_us for v in conn]
        ))
        rows["rebuild_s"].append(rebuild_s)
        for r in results:
            failed += r.failed
            late.extend(r.late_us)
    out = {k: np.array(v, dtype=np.float64) for k, v in rows.items()}
    out.update(
        rounds=rnd, late_us=late, failed=failed,
        attempted=rnd * sum(b.num_ops for b in system.blocks),
        # everything the processes burnt between the first and the last
        # timed op: blocks, rebuilds and this loop
        cpu_total_ns=env.total_cpu_ns(pids) - cpu0,
    )
    return out


def _p99(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    values = values[~np.isnan(values)]
    return float(np.percentile(values, 99)) if values.size else 0.0


def summarise(spec: Spec, blocks, m: dict) -> Dict[str, float]:
    """Quiet-state figures of the timed rounds (see ``bench.stats``).

    ``grain == "op"``: each op of the stream is summarised by its fastest
    replay, and the workload's latency is the median op's.  A ``vol_*``
    stream then takes the sum of its ops' fastest replays.  ``grain ==
    "block"`` (pipelined connections, where an op's latency is mostly
    the window ahead of it): each block's wall time and per-type median
    latency are summarised over its replays instead.
    """
    ops = sum(b.num_ops for b in blocks)
    rounds = m["rounds"]
    kinds = np.array(
        [op.kind for b in blocks for conn in b.ops for op in conn]
    )
    lat = m["lat_us"]
    bounds = np.cumsum([0] + [b.num_ops for b in blocks])
    out: Dict[str, float] = {}
    for name, kind in (("read", OP_READ), ("write", OP_WRITE)):
        cols = lat[:, kinds == kind]
        if spec.grain == "op":
            out[f"{name}_p50_us"] = float(np.median(np.nanmin(cols, axis=0)))
        else:
            out[f"{name}_p50_us"] = stats.best_mean(np.array([
                [
                    np.nanmedian(lat[r, lo:hi][kinds[lo:hi] == kind])
                    for lo, hi in zip(bounds[:-1], bounds[1:])
                ]
                for r in range(rounds)
            ]))
        out[f"{name}_p99_us"] = _p99(cols)
    if spec.kind == "vol":
        wall = stats.best_total(lat) / 1e6
    else:
        wall = stats.best_total(m["wall_s"])
    out.update(
        ops_s=ops / wall,
        cpu_us_per_op=stats.best_total(m["cpu_ns"]) / 1e3 / ops,
        cpu_us_per_op_total=m["cpu_total_ns"] / 1e3 / (ops * rounds),
        mean_over_quiet=float(m["wall_s"].sum(axis=1).mean())
        / stats.best_total(m["wall_s"]),
        late_p99_us=_p99(m["late_us"]),
    )
    if spec.degraded:
        disk_mb = STRIPES * P * ELEMENT_SIZE / 1e6
        rebuild_s = float(m["rebuild_s"].min())
        out["rebuild_mb_s"] = disk_mb / rebuild_s
        out["rebuild_ms"] = rebuild_s * 1e3
    return out


def count_summary(
    spec: Spec, blocks, io: np.ndarray, rounds: int
) -> Dict[str, float]:
    """The paper's Cost and load-balancing factor, and the write
    amplification, from per-disk ``[reads, writes]`` over ``rounds``
    identical rounds — so each repeats exactly for one seed."""
    ops = sum(b.num_ops for b in blocks)
    user = sum(
        op.count for b in blocks for conn in b.ops for op in conn
        if op.kind != OP_READ
    )
    live = [
        d for d in range(len(io)) if not (spec.degraded and d == FAILED_DISK)
    ]
    per_disk = io[live].sum(axis=1)
    return {
        "disk_ios_per_op": float(io.sum()) / (ops * rounds),
        "disk_reads_per_op": float(io[:, 0].sum()) / (ops * rounds),
        "disk_writes_per_op": float(io[:, 1].sum()) / (ops * rounds),
        "load_factor": float(per_disk.max()) / float(per_disk.min()),
        "write_amp": float(io[:, 1].sum()) / (user * rounds),
    }


def verify(system, blocks, pools, warm, check, last_round, corrupt):
    """Compare both checksummed rounds, the final image and the
    workload's own invariants with the shadow; returns the mismatches."""
    problems: List[str] = []

    def compare(tag, results, image, rnd):
        want = list(replay(image, blocks, pools, rnd))
        got = [c for res in results for conn in res.crcs for c in conn]
        if got != want:
            n = sum(a != b for a, b in zip(got, want)) + abs(
                len(got) - len(want)
            )
            problems.append(f"{tag} round: {n} reads differ from the shadow")

    compare("warm", warm, shadow_after(blocks, pools, -1), 0)
    image = shadow_after(blocks, pools, last_round)
    compare("last", check, image, last_round + 1)   # leaves the final image
    if corrupt:
        image[NUM_ELEMENTS // 2, 7] ^= 0xFF
    final = system.final_image()
    if not np.array_equal(final, image):
        bad = int((final != image).any(axis=1).sum())
        problems.append(f"final image: {bad} elements differ from the shadow")
    problems.extend(system.extra_checks(image))
    return problems


def run(spec: Spec, args) -> Optional[dict]:
    """Build, warm, measure, verify, clean; the report, or None after a
    ``--setup-only`` start."""
    blocks = make_blocks(spec, args.seed)
    pools = make_pools(spec, args.seed)
    block_ops = sum(b.num_ops for b in blocks)

    tracer = None
    if args.trace:
        from bench.spans import Tracer

        tracer = Tracer()
        tracer.install()

    report: dict = {"workload": spec.name}
    system = None
    try:
        system = (VolSystem if spec.kind == "vol" else ServeSystem)(
            spec, blocks, pools
        )
        warm, _ = run_round(system, 0, collect=True)
        sys.stdout.write("READY\n")
        sys.stdout.flush()
        if args.setup_only:
            return None

        system.reset_counters()
        stats0 = system.stats()
        if tracer is not None:
            tracer.reset()
        m = measure(system, args.seconds, args.rounds)
        rounds = m["rounds"]
        stats1 = system.stats()
        spans = tracer.totals() if tracer is not None else {}
        check, _ = run_round(system, rounds + 1, collect=True)
        attempted = m["attempted"] + 2 * block_ops
        failed = m["failed"] + sum(r.failed for r in warm + check)
        peak_rss = env.peak_rss_mb(system.pids())

        problems = verify(
            system, blocks, pools, warm, check, rounds, args.corrupt_shadow
        )
        summary = summarise(spec, blocks, m)
        summary.update(count_summary(spec, blocks, *system.io_counters()))
        summary["peak_rss_mb"] = peak_rss
        if spec.degraded:
            summary["rebuild_reads"] = system.rebuild_reads
        report.update(
            rounds=rounds, blocks=len(blocks), grain=spec.grain,
            timed_ops=rounds * block_ops,
            attempted=attempted, failed=failed, problems=problems,
            summary=summary,
            stats={k: stats1[k] - stats0[k] for k in stats1},
            restart_ms=getattr(system, "restart_ms", 0.0),
            spans={
                f"{layer}:{fn}": [ns, calls]
                for (layer, fn), (ns, calls) in sorted(spans.items())
            },
        )
    finally:
        if system is not None:
            system.close()
        if tracer is not None:
            tracer.remove()

    if args.trace:
        from bench import layers

        report["layers"] = layers.probe(spec, blocks, pools)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--corrupt-shadow", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="build, warm, report READY, tear down (a set-up time sample)",
    )
    args = parser.parse_args(argv)

    env.pin_to_first_cpu()
    spec = BY_NAME[args.workload]
    # the served workloads wake threads and processes on every op
    with env.idle_poll() if spec.kind == "serve" else contextlib.nullcontext():
        report = run(spec, args)
    if report is not None:
        sys.stdout.write("RESULT " + json.dumps(report) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
