#!/usr/bin/env python
"""Perf trajectory: codec paths plus the volume-level I/O stack.

Measures encode / decode / update bandwidth for every evaluation code at
p=7 and p=13 (element_size=4096), single-stripe and batched, plus the
array layer (multi-stripe write serial vs batched, bulk and zero-copy
reads, per-stripe vs coalesced destage), and writes
``BENCH_codec.json`` at the repo root.  All comparisons are taken in the
same process run with the same best-of-batches timing, so the speedup
ratios are internally consistent.

The report carries an ``acceptance`` section with hard floors (journal
overhead must stay under 15% on RMW bursts and 25% on full-stripe writes; batched
encode must at least match a compiled loop over the same tensor for
every (code, p);
steady-state verified reads must stay within 10% of unverified batched
reads; the sharded/coalesced block service must reach 2.5x serial
serving ops/s with no worse p99 and byte-identical served data, healthy
and degraded, and durable acks must cost at most 35% of buffered-ack
ops/s); the script exits non-zero when a floor is violated, so CI can
gate on it.  On/off overhead pairs are medians per side, clamped at 0
(see ``OVERHEAD_METHOD``) — independent minima can cross and report a
nonsense negative overhead.
``--only {codec,volume,journal,scrub,serving}``
re-runs one section and merges it into the existing report.

Usage::

    PYTHONPATH=src python scripts/bench_trajectory.py [--out BENCH_codec.json]
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # the reference walks in tests/oracles

from repro.array.cache import StripeCache  # noqa: E402
from repro.array.integrity import IntegrityChecker  # noqa: E402
from repro.array.volume import RAID6Volume  # noqa: E402
from repro.codec.batch import encode_batch, random_batch  # noqa: E402
from repro.codec.decoder import ChainDecoder  # noqa: E402
from repro.codec.encoder import StripeCodec  # noqa: E402
from repro.codec.update import apply_update  # noqa: E402
from repro.codes import make_code  # noqa: E402
from repro.journal import WriteIntentLog  # noqa: E402
from repro.util.ckernel import xor_kernel  # noqa: E402
from tests.oracles.codec_walk import CodecWalk  # noqa: E402

ELEMENT_SIZE = 4096
CODES = ("rdp", "hcode", "hdp", "xcode", "dcode")
PRIMES = (7, 13)
BATCH = 32
LOOP_BATCHES = (16, 32, 64)
VOLUME_BATCHES = (16, 32)
VOLUME_CODE, VOLUME_P = "dcode", 7


def best_seconds(fn, inner=50, reps=9):
    """Minimum per-call time over ``reps`` batches of ``inner`` calls.

    The minimum of batch means is robust against scheduler noise on shared
    machines while still averaging out per-call jitter.
    """
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def median_seconds(fn, inner=50, reps=9):
    """Median per-call time over ``reps`` batches of ``inner`` calls.

    Used for the on/off overhead pairs: taking the *minimum* on each
    side independently lets two lucky minima cross and report a
    negative overhead (the journal full-stripe pair once printed
    "-2.2%"); the median of batch means cannot be dragged below the
    typical run by one lucky batch, while still damping scheduler
    noise.
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    times.sort()
    return times[len(times) // 2]


#: How every on/off overhead percentage in the report is produced —
#: recorded in ``meta.method`` so a reader of the JSON knows a "0.0%"
#: means "within noise of free", not "exactly free".
OVERHEAD_METHOD = (
    "median over k timing batches per side (k=5 journal, k=7 verified "
    "reads, k=3 serving reps), clamped at >= 0; residual timing noise "
    "~ +/-2%, so readings below that are indistinguishable from zero"
)


def overhead_pct(t_on, t_off):
    """On-vs-off cost in percent, clamped at zero (see OVERHEAD_METHOD)."""
    return round(max(0.0, (t_on - t_off) / t_off * 100), 1)


def mb_per_s(data_bytes, seconds):
    return data_bytes / seconds / 1e6


def bench_code(name, p, rng):
    layout = make_code(name, p)
    codec = StripeCodec(layout, element_size=ELEMENT_SIZE)
    stripe = codec.random_stripe(rng)
    stripe_bytes = layout.num_data_cells * ELEMENT_SIZE

    # -- encode: naive vs compiled vs batched --------------------------------
    # The single-stripe numbers time one cache-hot stripe (the historical
    # metric, kept as *_single); the headline compiled/batched pair is
    # measured over the SAME multi-stripe tensor, so
    # batched_mb_s / compiled_mb_s always agrees with
    # batched_vs_looped_speedup — a cache-hot looped number against a
    # DRAM-resident batched one is not a like-for-like comparison and
    # once reported contradictory verdicts for dcode p13.
    walk = CodecWalk(codec)
    t_naive = best_seconds(lambda: walk.encode(stripe))
    t_compiled_single = best_seconds(lambda: codec.encode(stripe))

    batched_vs_looped = {}
    t_loop_main = t_batch_main = None
    for b in LOOP_BATCHES:
        part = random_batch(codec, rng, b)

        def looped(part=part, b=b):
            for i in range(b):
                codec.encode(part[i])

        t_loop = best_seconds(looped, inner=5, reps=7)
        t_part = best_seconds(
            lambda part=part: encode_batch(codec, part), inner=5, reps=7
        )
        batched_vs_looped[str(b)] = round(t_loop / t_part, 3)
        if b == BATCH:
            t_loop_main, t_batch_main = t_loop, t_part

    encode = {
        "naive_mb_s": round(mb_per_s(stripe_bytes, t_naive), 1),
        "compiled_single_mb_s": round(
            mb_per_s(stripe_bytes, t_compiled_single), 1
        ),
        "compiled_mb_s": round(
            mb_per_s(stripe_bytes * BATCH, t_loop_main), 1
        ),
        "batched_mb_s": round(
            mb_per_s(stripe_bytes * BATCH, t_batch_main), 1
        ),
        "speedup_compiled_vs_naive": round(t_naive / t_compiled_single, 2),
        "batched_vs_looped_speedup": batched_vs_looped,
    }

    # -- decode: double-disk chain recovery ----------------------------------
    damaged = stripe.copy()
    codec.erase_columns(damaged, [0, 1])
    naive_dec = walk
    compiled_dec = ChainDecoder(codec)
    scratch = damaged.copy()

    def run_decode(decoder):
        scratch[...] = damaged
        decoder.decode_columns(scratch, [0, 1])

    t_dec_naive = best_seconds(lambda: run_decode(naive_dec))
    t_dec_compiled = best_seconds(lambda: run_decode(compiled_dec))
    lost_bytes = len(layout.cells_in_column(0) + layout.cells_in_column(1)) * ELEMENT_SIZE
    decode = {
        "naive_mb_s": round(mb_per_s(lost_bytes, t_dec_naive), 1),
        "compiled_mb_s": round(mb_per_s(lost_bytes, t_dec_compiled), 1),
        "speedup_compiled_vs_naive": round(t_dec_naive / t_dec_compiled, 2),
    }

    # -- update: single-element read-modify-write ----------------------------
    # alternate between two values so every call carries a real delta
    # (writing the same value twice hits the zero-delta early return and
    # measures nothing but the delta check)
    cell = layout.data_cells[0]
    v0 = stripe[cell.row, cell.col].copy()
    v1 = np.bitwise_xor(
        v0, rng.integers(1, 256, ELEMENT_SIZE, dtype=np.uint8)
    )
    toggle = [v0, v1]
    state = {"i": 0}

    def run_update(update):
        state["i"] ^= 1
        update(stripe, cell, toggle[state["i"]])

    t_upd_naive = best_seconds(lambda: run_update(walk.apply_update))
    t_upd_compiled = best_seconds(
        lambda: run_update(functools.partial(apply_update, codec))
    )
    update = {
        "naive_mb_s": round(mb_per_s(ELEMENT_SIZE, t_upd_naive), 1),
        "compiled_mb_s": round(mb_per_s(ELEMENT_SIZE, t_upd_compiled), 1),
        "speedup_compiled_vs_naive": round(t_upd_naive / t_upd_compiled, 2),
    }

    return {"encode": encode, "decode": decode, "update": update}


def bench_volume(rng):
    """Array-level throughput: serial per-stripe vs batched.

    The serial baseline writes one stripe per call through the
    per-stripe controller path; the batched numbers go through one
    multi-stripe write and the read plans.
    """
    layout = make_code(VOLUME_CODE, VOLUME_P)
    per = layout.num_data_cells
    volume = RAID6Volume(layout, num_stripes=128,
                         element_size=ELEMENT_SIZE)

    write = {}
    for batch in VOLUME_BATCHES:
        data = rng.integers(
            0, 256, (batch * per, ELEMENT_SIZE), dtype=np.uint8
        )
        data_bytes = data.nbytes

        def serial(data=data, batch=batch):
            for s in range(batch):
                volume._write_stripe_batch(
                    s, data[s * per:(s + 1) * per], (1 << per) - 1
                )

        t_serial = best_seconds(serial, inner=3, reps=5)
        t_batched = best_seconds(
            lambda data=data: volume.write(0, data), inner=3, reps=5
        )
        write[str(batch)] = {
            "serial_mb_s": round(mb_per_s(data_bytes, t_serial), 1),
            "batched_mb_s": round(mb_per_s(data_bytes, t_batched), 1),
            "speedup_batched_vs_serial": round(t_serial / t_batched, 2),
        }

    # -- reads: bulk gather vs zero-copy view --------------------------------
    read_count = 16 * per
    t_read_bulk = best_seconds(
        lambda: volume.read(0, read_count), inner=3, reps=5
    )
    t_read_view = best_seconds(lambda: volume.read(0, per))
    read = {
        "bulk_mb_s": round(
            mb_per_s(read_count * ELEMENT_SIZE, t_read_bulk), 1
        ),
        "zero_copy_view_mb_s": round(
            mb_per_s(per * ELEMENT_SIZE, t_read_view), 1
        ),
    }

    # -- destage: one stripe at a time vs coalesced batch -------------------
    destage_batch = 16
    destage_data = rng.integers(
        0, 256, (destage_batch * per, ELEMENT_SIZE), dtype=np.uint8
    )

    def destage_per_stripe():
        cache = StripeCache(volume, max_dirty_stripes=destage_batch)
        cache.write(0, destage_data)
        for stripe in list(cache._dirty):
            cache._destage_many([stripe])

    def destage_batched():
        cache = StripeCache(volume, max_dirty_stripes=destage_batch)
        cache.write(0, destage_data)
        cache.flush()

    t_destage_serial = best_seconds(destage_per_stripe, inner=3, reps=5)
    t_destage_batched = best_seconds(destage_batched, inner=3, reps=5)
    destage = {
        "per_stripe_mb_s": round(
            mb_per_s(destage_data.nbytes, t_destage_serial), 1
        ),
        "batched_mb_s": round(
            mb_per_s(destage_data.nbytes, t_destage_batched), 1
        ),
        "speedup_batched_vs_per_stripe": round(
            t_destage_serial / t_destage_batched, 2
        ),
    }

    return {
        "code": VOLUME_CODE,
        "p": VOLUME_P,
        "write": write,
        "read": read,
        "destage": destage,
    }


def bench_journal(rng):
    """Write-intent journal overhead: intent-on vs intent-off throughput.

    Same volume geometry, same payloads, same timing method; the only
    difference is an attached :class:`WriteIntentLog` (no phase hook, so
    the tensor fast paths stay on — the production configuration).  The
    full-stripe numbers bound the cost of the hot batched path, where
    intents are digest-free buffer views; the RMW numbers drive the
    partial-stripe queue through ``_write_rest`` — exactly what the
    stripe cache's destage does — so the journaled side exercises group
    commit: one coalesced intent staging and one footprint-digest gather
    for the whole burst instead of a lock/digest round-trip per stripe.
    """
    layout = make_code(VOLUME_CODE, VOLUME_P)
    per = layout.num_data_cells
    batch = 32
    data = rng.integers(
        0, 256, (batch * per, ELEMENT_SIZE), dtype=np.uint8
    )
    plain = RAID6Volume(layout, num_stripes=128,
                        element_size=ELEMENT_SIZE)
    journaled = RAID6Volume(layout, num_stripes=128,
                            element_size=ELEMENT_SIZE,
                            journal=WriteIntentLog())

    t_off = median_seconds(lambda: plain.write(0, data), inner=3, reps=5)
    t_on = median_seconds(
        lambda: journaled.write(0, data), inner=3, reps=5
    )
    full_stripe = {
        "off_mb_s": round(mb_per_s(data.nbytes, t_off), 1),
        "on_mb_s": round(mb_per_s(data.nbytes, t_on), 1),
        "overhead_pct": overhead_pct(t_on, t_off),
    }

    # alternate payloads so every call carries a real parity delta (the
    # same value twice would hit the zero-delta early return and measure
    # only the journal's fixed cost against a no-op)
    rmw_stripes = 32
    rmw_a = rng.integers(
        0, 256, (rmw_stripes, ELEMENT_SIZE), dtype=np.uint8
    )
    rmw_b = np.bitwise_xor(
        rmw_a, rng.integers(1, 256, ELEMENT_SIZE, dtype=np.uint8)
    )
    # destage buckets (stripe, row, mask): data cell 0 of each stripe
    rmw_entries = {
        0: [(s, rmw_a[s:s + 1], 1) for s in range(rmw_stripes)],
        1: [(s, rmw_b[s:s + 1], 1) for s in range(rmw_stripes)],
    }
    toggles = {id(plain): 0, id(journaled): 0}

    def rmw(vol):
        toggles[id(vol)] ^= 1
        vol._write_rest(rmw_entries[toggles[id(vol)]])

    t_rmw_off = median_seconds(lambda: rmw(plain), inner=3, reps=5)
    t_rmw_on = median_seconds(lambda: rmw(journaled), inner=3, reps=5)
    rmw_numbers = {
        "off_mb_s": round(mb_per_s(rmw_a.nbytes, t_rmw_off), 1),
        "on_mb_s": round(mb_per_s(rmw_a.nbytes, t_rmw_on), 1),
        "overhead_pct": overhead_pct(t_rmw_on, t_rmw_off),
    }
    return {
        "code": VOLUME_CODE,
        "p": VOLUME_P,
        "batch": batch,
        "method": OVERHEAD_METHOD,
        "full_stripe": full_stripe,
        "rmw": rmw_numbers,
    }


#: Serving benchmark: frozen workload + geometry for the committed
#: ops/s floor.  16 pipelined clients x 32-deep windows keep ~512 ops
#: outstanding — deep enough that the serial executor's queueing
#: collapses while the sharded/coalesced side turns the backlog into
#: full shard batches ("many-client scale").  64-byte elements make the
#: workload IOPS-bound (per-op parity bookkeeping, not byte moving),
#: which is the regime the serving layer optimizes.
SERVING_SEED = 2015
SERVING_CLIENTS = 16
SERVING_WINDOW = 32
SERVING_OPS_PER_CLIENT = 180
SERVING_READ_FRAC = 0.5
SERVING_MAX_EXTENT = 8
SERVING_REPS = 3
SERVING_ELEMENT_SIZE = 64
#: Durable acks checkpoint the shard state after every writing batch
#: before the WRITE is answered, so an acked write survives kill -9 of
#: the worker.  Incremental checkpoints (base snapshot + dirty-stripe
#: delta log) replaced the full-array snapshot per batch, which is why
#: the committed ceiling on the toll vs buffered acks tightened from
#: the snapshot era's 60% down to 35%.
SERVING_DURABLE_OVERHEAD_MAX_PCT = 35.0


def _serving_configs():
    """The committed pair: uncoalesced serial vs sharded/coalesced."""
    from repro.serve.server import ServerConfig

    serial = ServerConfig(
        shards=1, backend="inline", code="dcode", p=7,
        stripes_per_shard=64, element_size=SERVING_ELEMENT_SIZE,
        max_batch=1, write_back=False,
    )
    sharded = ServerConfig(
        shards=4, backend="process", code="dcode", p=7,
        stripes_per_shard=16, element_size=SERVING_ELEMENT_SIZE,
        max_batch=64, write_back=True,
        cache_stripes=12, evict_batch=6,
    )
    return serial, sharded


def _serving_run(config, *, seed, verify=False,
                 ops_per_client=SERVING_OPS_PER_CLIENT,
                 state_dir=None):
    import asyncio

    from repro.serve.loadgen import run_closed_loop
    from repro.serve.server import BlockServer, make_backends

    # fork before the loop exists
    backends = make_backends(config, state_dir=state_dir)

    async def run():
        server = BlockServer(config, backends)
        host, port = await server.start()
        report = await run_closed_loop(
            host, port,
            num_elements=server.router.num_elements,
            element_size=config.element_size,
            clients=SERVING_CLIENTS,
            ops_per_client=ops_per_client,
            read_frac=SERVING_READ_FRAC,
            seed=seed,
            max_extent=SERVING_MAX_EXTENT,
            window=SERVING_WINDOW,
            verify=verify,
        )
        stats = server.stats()
        await server.close()
        return report, stats

    return asyncio.run(run())


def _serving_equivalence():
    """Byte-equivalence of served data vs a direct volume replay.

    Runs a verified load on the sharded config, snapshots the whole
    address space through the protocol, injects a disk failure into one
    shard, runs (and verifies) a second load through the degraded
    shard, and snapshots again.  Both snapshots must equal a direct
    :class:`RAID6Volume` holding the replayed write logs — clients own
    disjoint regions, so the replay is order-independent across
    clients and in-order within each.
    """
    import asyncio

    from repro.serve.loadgen import (
        BlockClient,
        fetch_image,
        replay_writes,
        run_closed_loop,
    )
    from repro.serve.protocol import OP_FAIL_DISK, ST_OK
    from repro.serve.server import BlockServer, make_backends

    _, config = _serving_configs()
    backends = make_backends(config)

    async def run():
        server = BlockServer(config, backends)
        host, port = await server.start()
        n = server.router.num_elements
        common = dict(
            num_elements=n, element_size=config.element_size,
            clients=SERVING_CLIENTS, ops_per_client=40,
            read_frac=SERVING_READ_FRAC,
            max_extent=SERVING_MAX_EXTENT, window=SERVING_WINDOW,
            verify=True,
        )
        healthy = await run_closed_loop(
            host, port, seed=SERVING_SEED, **common
        )
        healthy_image = await fetch_image(host, port, num_elements=n)
        admin = await BlockClient.connect(host, port)
        status, detail = await admin.request(OP_FAIL_DISK, start=1, count=3)
        await admin.close()
        if status != ST_OK:
            raise RuntimeError(
                f"fail_disk refused: {detail.decode(errors='replace')}"
            )
        degraded = await run_closed_loop(
            host, port, seed=SERVING_SEED + 77, **common
        )
        degraded_image = await fetch_image(host, port, num_elements=n)
        await server.close()
        return healthy, healthy_image, degraded, degraded_image, n

    healthy, healthy_image, degraded, degraded_image, n = asyncio.run(
        run()
    )
    shadow = RAID6Volume(
        make_code(config.code, config.p),
        num_stripes=config.shards * config.stripes_per_shard,
        element_size=config.element_size,
    )
    replay_writes(shadow, healthy.write_logs)
    healthy_ok = shadow.read(0, n).tobytes() == healthy_image
    replay_writes(shadow, degraded.write_logs)
    degraded_ok = shadow.read(0, n).tobytes() == degraded_image
    return {
        "bytes_identical": bool(healthy_ok),
        "degraded_bytes_identical": bool(degraded_ok),
        "verify_failures": healthy.verify_failures
        + degraded.verify_failures,
        "equivalence_errors": healthy.errors + degraded.errors,
    }


def bench_serving():
    """Block-service throughput: serial dispatch vs sharded coalescing.

    Both sides serve the same seeded closed-loop workload over the same
    2240-element address space through the same TCP protocol; the only
    differences are the committed architecture knobs (1 inline shard,
    ``max_batch=1``, direct writes — vs 4 process shards, 64-deep
    coalescing, write-back destaging).  Median of ``SERVING_REPS`` runs
    per side damps event-loop scheduling noise; the equivalence pass
    then byte-checks served data against a direct-volume replay, with
    and without an injected disk failure.
    """
    import dataclasses
    import tempfile

    serial_cfg, sharded_cfg = _serving_configs()
    durable_cfg = dataclasses.replace(sharded_cfg, ack="durable")

    def median_run(config, durable=False):
        runs = []
        for k in range(SERVING_REPS):
            if durable:
                with tempfile.TemporaryDirectory(
                    prefix="bench-durable-"
                ) as tmp:
                    runs.append(_serving_run(
                        config, seed=SERVING_SEED + k, state_dir=tmp
                    ))
            else:
                runs.append(_serving_run(config, seed=SERVING_SEED + k))
        runs.sort(key=lambda run: run[0].ops_per_sec)
        return runs[len(runs) // 2], [
            round(report.ops_per_sec, 1) for report, _ in runs
        ]

    (serial_rep, _), serial_runs = median_run(serial_cfg)
    (sharded_rep, sharded_stats), sharded_runs = median_run(sharded_cfg)
    (durable_rep, _), durable_runs = median_run(durable_cfg, durable=True)
    equivalence = _serving_equivalence()

    def side(config, report):
        return {
            "shards": config.shards,
            "backend": config.backend,
            "max_batch": config.max_batch,
            "write_back": config.write_back,
            "ops_per_sec": round(report.ops_per_sec, 1),
            "p50_ms": round(report.percentile_ms(50), 2),
            "p99_ms": round(report.percentile_ms(99), 2),
            "busy": report.busy,
            "errors": report.errors,
        }

    serial = dict(side(serial_cfg, serial_rep),
                  runs_ops_per_sec=serial_runs)
    sharded = dict(side(sharded_cfg, sharded_rep),
                   runs_ops_per_sec=sharded_runs,
                   avg_batch=round(sharded_stats["avg_batch"], 1))
    durable = dict(side(durable_cfg, durable_rep),
                   ack="durable",
                   runs_ops_per_sec=durable_runs)
    durable_overhead_pct = round(
        max(
            0.0,
            100.0
            * (1.0 - durable_rep.ops_per_sec / sharded_rep.ops_per_sec),
        ),
        1,
    )
    return {
        "code": sharded_cfg.code,
        "p": sharded_cfg.p,
        "element_size": SERVING_ELEMENT_SIZE,
        "workload": {
            "clients": SERVING_CLIENTS,
            "window": SERVING_WINDOW,
            "ops_per_client": SERVING_OPS_PER_CLIENT,
            "read_frac": SERVING_READ_FRAC,
            "max_extent": SERVING_MAX_EXTENT,
            "seed": SERVING_SEED,
            "reps": SERVING_REPS,
        },
        "serial": serial,
        "sharded": sharded,
        "durable": durable,
        "speedup_sharded_vs_serial": round(
            sharded_rep.ops_per_sec / serial_rep.ops_per_sec, 2
        ),
        "durable_overhead_pct": durable_overhead_pct,
        **equivalence,
    }


def bench_scrub(rng):
    """Silent-corruption defense: scrub bandwidth and verified-read tax.

    Scrub throughput is a full :meth:`IntegrityChecker.scrub_campaign`
    over a dirty bitmap (``invalidate()`` before every pass, so each
    pass re-reads and re-hashes every element in the array — the
    periodic-scrub configuration, not the incremental one).  The
    verified-read numbers compare the same steady-state batched window
    read with and without an attached checker: after one warm-up read
    populates the verified bitmap, subsequent reads only pay the bitmap
    gate, which is the production cost of leaving verification on.  The
    window spans many stripes so it takes the bulk gather path, not the
    single-stripe zero-copy view.
    """
    layout = make_code(VOLUME_CODE, VOLUME_P)
    per = layout.num_data_cells
    num_stripes = 64
    plain = RAID6Volume(layout, num_stripes=num_stripes,
                        element_size=ELEMENT_SIZE)
    verified = RAID6Volume(layout, num_stripes=num_stripes,
                           element_size=ELEMENT_SIZE)
    data = rng.integers(
        0, 256, (num_stripes * per, ELEMENT_SIZE), dtype=np.uint8
    )
    plain.write(0, data)
    verified.write(0, data)

    checker = IntegrityChecker(verified)
    window = BATCH * per
    window_bytes = window * ELEMENT_SIZE

    assert np.array_equal(plain.read(0, window), verified.read(0, window))
    # warm-up read saturates the verified bitmap; what remains is the
    # steady-state gate every production read pays
    verified.read(0, window)
    t_off = median_seconds(lambda: plain.read(0, window), inner=3, reps=7)
    t_on = median_seconds(
        lambda: verified.read(0, window), inner=3, reps=7
    )
    read_numbers = {
        "off_mb_s": round(mb_per_s(window_bytes, t_off), 1),
        "on_mb_s": round(mb_per_s(window_bytes, t_on), 1),
        "overhead_pct": overhead_pct(t_on, t_off),
    }

    scrub_bytes = num_stripes * layout.rows * layout.cols * ELEMENT_SIZE

    def scrub():
        checker.store.invalidate()
        report = checker.scrub_campaign()
        assert report.clean

    t_scrub = best_seconds(scrub, inner=1, reps=5)
    return {
        "code": VOLUME_CODE,
        "p": VOLUME_P,
        "batch": BATCH,
        "num_stripes": num_stripes,
        "method": OVERHEAD_METHOD,
        "scrub_gb_s": round(scrub_bytes / t_scrub / 1e9, 2),
        "verified_read": read_numbers,
    }


#: Timing-noise allowance on ratio floors (batched vs looped):
#: min-over-batches timing still jitters a couple of percent, so those
#: gates only trip below ``floor - NOISE_MARGIN``.
NOISE_MARGIN = 0.05

#: Committed floors/ceilings, raised by the hot-path work (see
#: docs/performance.md, "Hot-path scaling"): journal group commit must
#: keep RMW overhead under 15% (full stripe under 25%), and the
#: per-geometry batch chunking must make batched encode at least match
#: a compiled loop over the same tensor everywhere.
JOURNAL_RMW_MAX_PCT = 15.0
JOURNAL_FULL_STRIPE_MAX_PCT = 25.0
BATCHED_VS_LOOPED_FLOOR = 1.0
#: Steady-state verified reads (bitmap already warm) must stay within
#: 10% of unverified batched reads — the committed cost of leaving the
#: silent-corruption defense on in production (docs/robustness.md,
#: "Silent corruption & durability").
VERIFIED_READ_MAX_PCT = 10.0
#: Serving floors: 4 process-backed shards with request coalescing must
#: reach 2.5x the ops/s of uncoalesced single-shard serial dispatch on
#: the frozen mixed workload (the shared-memory data plane plus
#: scatter-gather flushing raised this from the pickle-everything era's
#: 2.0x), and must not worsen p99.  End-to-end serving runs are noisier
#: than in-process timing loops (two processes of event loop + four
#: shard workers sharing the CPU), so the serving gate uses its own
#: wider margin on the ratio.
SERVING_FLOOR = 2.5
SERVING_NOISE_MARGIN = 0.15
SERVING_P99_MAX_RATIO = 1.0


def journal_acceptance(journal):
    return {
        "journal_full_stripe_overhead_pct": journal["full_stripe"][
            "overhead_pct"
        ],
        "journal_full_stripe_overhead_max_pct": JOURNAL_FULL_STRIPE_MAX_PCT,
        "journal_rmw_overhead_pct": journal["rmw"]["overhead_pct"],
        "journal_rmw_overhead_max_pct": JOURNAL_RMW_MAX_PCT,
    }


def serving_acceptance(serving):
    return {
        "ops_speedup_sharded_vs_serial": serving[
            "speedup_sharded_vs_serial"
        ],
        "floor": SERVING_FLOOR,
        "noise_margin": SERVING_NOISE_MARGIN,
        "serial_p99_ms": serving["serial"]["p99_ms"],
        "sharded_p99_ms": serving["sharded"]["p99_ms"],
        "p99_max_ratio": SERVING_P99_MAX_RATIO,
        "bytes_identical": serving["bytes_identical"],
        "degraded_bytes_identical": serving["degraded_bytes_identical"],
        "verify_failures": serving["verify_failures"],
        "durable_overhead_pct": serving["durable_overhead_pct"],
        "durable_overhead_max_pct": SERVING_DURABLE_OVERHEAD_MAX_PCT,
    }


def scrub_acceptance(scrub):
    return {
        "verified_read_overhead_pct": scrub["verified_read"][
            "overhead_pct"
        ],
        "verified_read_overhead_max_pct": VERIFIED_READ_MAX_PCT,
    }


def codec_acceptance(results):
    """Per-geometry batched-vs-looped floors plus the dcode headline."""
    dcode_p7 = results["dcode"]["p7"]["encode"]
    return {
        "dcode_p7_encode_speedup_vs_naive": dcode_p7[
            "speedup_compiled_vs_naive"
        ],
        "dcode_p7_batched_vs_looped": dcode_p7["batched_vs_looped_speedup"],
        "batched_vs_looped_min": {
            f"{name}_p{p}": min(
                results[name][f"p{p}"]["encode"][
                    "batched_vs_looped_speedup"
                ].values()
            )
            for name in results
            for p in PRIMES
            if f"p{p}" in results[name]
        },
        "batched_vs_looped_floor": BATCHED_VS_LOOPED_FLOOR,
    }


def check_acceptance(acceptance):
    """Gate the report: returns the list of violated floors."""
    failures = []
    for key, cap_key in (
        ("journal_rmw_overhead_pct", "journal_rmw_overhead_max_pct"),
        (
            "journal_full_stripe_overhead_pct",
            "journal_full_stripe_overhead_max_pct",
        ),
        ("verified_read_overhead_pct", "verified_read_overhead_max_pct"),
    ):
        got, cap = acceptance.get(key), acceptance.get(cap_key)
        if got is not None and cap is not None and got > cap:
            failures.append(f"{key} {got}% above ceiling {cap}%")
    serving = acceptance.get("serving")
    if serving is not None:
        got = serving["ops_speedup_sharded_vs_serial"]
        margin = serving.get("noise_margin", NOISE_MARGIN)
        if got < serving["floor"] - margin:
            failures.append(
                f"serving ops/s speedup {got} below floor "
                f"{serving['floor']}"
            )
        cap = serving["serial_p99_ms"] * serving.get(
            "p99_max_ratio", 1.0
        )
        if serving["sharded_p99_ms"] > cap:
            failures.append(
                f"serving sharded p99 {serving['sharded_p99_ms']}ms "
                f"above serial p99 {serving['serial_p99_ms']}ms"
            )
        for key in ("bytes_identical", "degraded_bytes_identical"):
            if not serving.get(key, False):
                failures.append(f"serving {key} is false")
        if serving.get("verify_failures", 0):
            failures.append(
                f"serving verify_failures = "
                f"{serving['verify_failures']}"
            )
        got = serving.get("durable_overhead_pct")
        cap = serving.get("durable_overhead_max_pct")
        if got is not None and cap is not None and got > cap:
            failures.append(
                f"serving durable-ack overhead {got}% above ceiling "
                f"{cap}%"
            )
    ratios = acceptance.get("batched_vs_looped_min")
    floor = acceptance.get("batched_vs_looped_floor")
    if ratios is not None and floor is not None:
        for geometry, got in sorted(ratios.items()):
            if got < floor - NOISE_MARGIN:
                failures.append(
                    f"batched_vs_looped {geometry} {got} below floor "
                    f"{floor}"
                )
    return failures


def finish(report, out_path):
    """Write the report, print the gate verdict, return the exit code."""
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    failures = check_acceptance(report.get("acceptance", {}))
    for failure in failures:
        print(f"ACCEPTANCE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent
            / "BENCH_codec.json"
        ),
    )
    parser.add_argument(
        "--only",
        choices=("journal", "volume", "codec", "scrub", "serving"),
        default=None,
        help="re-run just one section and merge it into the existing "
             "report instead of re-benchmarking everything",
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(20150527)

    if args.only == "journal":
        out = pathlib.Path(args.out)
        report = json.loads(out.read_text()) if out.exists() else {}
        print("benchmarking journal overhead ...", flush=True)
        journal = bench_journal(rng)
        report["journal"] = journal
        report.setdefault("acceptance", {}).update(
            journal_acceptance(journal)
        )
        print(
            "journal overhead: full-stripe "
            f"{journal['full_stripe']['overhead_pct']}%, "
            f"rmw {journal['rmw']['overhead_pct']}%"
        )
        return finish(report, out)

    if args.only == "volume":
        out = pathlib.Path(args.out)
        report = json.loads(out.read_text()) if out.exists() else {}
        print("benchmarking volume layer ...", flush=True)
        volume = bench_volume(rng)
        report["volume"] = volume
        acceptance = report.setdefault("acceptance", {})
        acceptance["volume_write_batched_vs_serial"] = {
            batch: volume["write"][batch]["speedup_batched_vs_serial"]
            for batch in volume["write"]
        }
        print(
            "volume write batched vs serial: "
            f"{acceptance['volume_write_batched_vs_serial']}"
        )
        return finish(report, out)

    if args.only == "codec":
        out = pathlib.Path(args.out)
        report = json.loads(out.read_text()) if out.exists() else {}
        results = {}
        for name in CODES:
            results[name] = {}
            for p in PRIMES:
                print(f"benchmarking {name} p={p} ...", flush=True)
                results[name][f"p{p}"] = bench_code(name, p, rng)
        report["results"] = results
        acceptance = report.setdefault("acceptance", {})
        acceptance.update(codec_acceptance(results))
        acceptance["update_compiled_vs_naive_min"] = min(
            results[name][f"p{p}"]["update"]["speedup_compiled_vs_naive"]
            for name in CODES
            for p in PRIMES
        )
        print(
            "batched vs looped minima: "
            f"{acceptance['batched_vs_looped_min']}"
        )
        return finish(report, out)

    if args.only == "scrub":
        out = pathlib.Path(args.out)
        report = json.loads(out.read_text()) if out.exists() else {}
        print("benchmarking scrub + verified reads ...", flush=True)
        scrub = bench_scrub(rng)
        report["scrub"] = scrub
        report.setdefault("acceptance", {}).update(
            scrub_acceptance(scrub)
        )
        print(
            f"scrub {scrub['scrub_gb_s']} GB/s, verified-read overhead "
            f"{scrub['verified_read']['overhead_pct']}%"
        )
        return finish(report, out)

    if args.only == "serving":
        out = pathlib.Path(args.out)
        report = json.loads(out.read_text()) if out.exists() else {}
        print("benchmarking block serving ...", flush=True)
        serving = bench_serving()
        report["serving"] = serving
        report.setdefault("acceptance", {})[
            "serving"
        ] = serving_acceptance(serving)
        print(
            "serving sharded vs serial: "
            f"{serving['speedup_sharded_vs_serial']}x "
            f"(p99 {serving['serial']['p99_ms']}ms -> "
            f"{serving['sharded']['p99_ms']}ms, bytes identical "
            f"{serving['bytes_identical']}/"
            f"{serving['degraded_bytes_identical']}, durable-ack "
            f"overhead {serving['durable_overhead_pct']}%)"
        )
        return finish(report, out)

    results = {}
    for name in CODES:
        results[name] = {}
        for p in PRIMES:
            print(f"benchmarking {name} p={p} ...", flush=True)
            results[name][f"p{p}"] = bench_code(name, p, rng)

    print("benchmarking volume layer ...", flush=True)
    volume = bench_volume(rng)
    print("benchmarking journal overhead ...", flush=True)
    journal = bench_journal(rng)
    print("benchmarking scrub + verified reads ...", flush=True)
    scrub = bench_scrub(rng)
    print("benchmarking block serving ...", flush=True)
    serving = bench_serving()

    dcode_p7 = results["dcode"]["p7"]["encode"]
    update_speedups = {
        f"{name}_p{p}": results[name][f"p{p}"]["update"][
            "speedup_compiled_vs_naive"
        ]
        for name in CODES
        for p in PRIMES
    }
    report = {
        "meta": {
            "element_size": ELEMENT_SIZE,
            "batch": BATCH,
            "primes": list(PRIMES),
            "c_kernel": xor_kernel() is not None,
            "method": (
                "min over 9 batches of 50 calls (5x7 for batched); "
                "overheads: " + OVERHEAD_METHOD
            ),
        },
        "results": results,
        "volume": volume,
        "journal": journal,
        "scrub": scrub,
        "serving": serving,
        "acceptance": {
            "serving": serving_acceptance(serving),
            **journal_acceptance(journal),
            **scrub_acceptance(scrub),
            **codec_acceptance(results),
            "volume_write_batched_vs_serial": {
                batch: volume["write"][batch][
                    "speedup_batched_vs_serial"
                ]
                for batch in volume["write"]
            },
            "update_compiled_vs_naive_min": min(update_speedups.values()),
        },
    }
    print(
        "dcode p7 encode speedup: "
        f"{dcode_p7['speedup_compiled_vs_naive']}x, "
        f"batched vs looped: {dcode_p7['batched_vs_looped_speedup']}"
    )
    print(
        "volume write batched vs serial: "
        f"{report['acceptance']['volume_write_batched_vs_serial']}, "
        "min update speedup: "
        f"{report['acceptance']['update_compiled_vs_naive_min']}"
    )
    print(
        "journal overhead: full-stripe "
        f"{journal['full_stripe']['overhead_pct']}%, "
        f"rmw {journal['rmw']['overhead_pct']}%"
    )
    print(
        f"scrub {scrub['scrub_gb_s']} GB/s, verified-read overhead "
        f"{scrub['verified_read']['overhead_pct']}%"
    )
    print(
        "serving sharded vs serial: "
        f"{serving['speedup_sharded_vs_serial']}x "
        f"(p99 {serving['serial']['p99_ms']}ms -> "
        f"{serving['sharded']['p99_ms']}ms, bytes identical "
        f"{serving['bytes_identical']}/"
        f"{serving['degraded_bytes_identical']}, durable-ack "
        f"overhead {serving['durable_overhead_pct']}%)"
    )
    return finish(report, pathlib.Path(args.out))


if __name__ == "__main__":
    raise SystemExit(main())
