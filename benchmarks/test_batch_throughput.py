"""Batched codec throughput — compiled plans vs naive walk, single vs batch.

Times the three codec operations on the compiled execution engine
(:mod:`repro.codec.plan`, optionally backed by the JIT C kernel) against
the naive per-group reference walk, and the batched multi-stripe API
against per-stripe loops.  Complements ``scripts/bench_trajectory.py``,
which materialises the same comparison into ``BENCH_codec.json``.

The suite works under ``--benchmark-disable`` (CI smoke): each benchmark
body runs once and its correctness assertions still execute.
"""

import numpy as np
import pytest

from repro.codec.batch import encode_batch, random_batch, update_batch
from repro.codec.decoder import ChainDecoder
from repro.codec.encoder import StripeCodec
from repro.codec.update import apply_update
from repro.codes import make_code

from tests.oracles.codec_walk import CodecWalk

ELEMENT_SIZE = 4096
BATCH = 32
CODES = ("rdp", "hcode", "hdp", "xcode", "dcode")


@pytest.fixture(params=CODES)
def codec(request):
    return StripeCodec(make_code(request.param, 7), element_size=ELEMENT_SIZE)


@pytest.fixture
def stripe(codec):
    return codec.random_stripe(np.random.default_rng(0))


@pytest.fixture
def stripes(codec):
    return random_batch(codec, np.random.default_rng(0), BATCH)


class TestSingleStripe:
    def test_encode_naive(self, benchmark, codec, stripe):
        benchmark(CodecWalk(codec).encode, stripe)
        assert codec.parity_ok(stripe)

    def test_encode_compiled(self, benchmark, codec, stripe):
        benchmark(codec.encode, stripe)
        assert codec.parity_ok(stripe)

    def test_decode_naive(self, benchmark, codec, stripe):
        decoder = CodecWalk(codec)
        damaged = stripe.copy()
        codec.erase_columns(damaged, [0, 1])

        def run():
            buf = damaged.copy()
            decoder.decode_columns(buf, [0, 1])
            return buf

        assert np.array_equal(benchmark(run), stripe)

    def test_decode_compiled(self, benchmark, codec, stripe):
        decoder = ChainDecoder(codec)
        damaged = stripe.copy()
        codec.erase_columns(damaged, [0, 1])

        def run():
            buf = damaged.copy()
            decoder.decode_columns(buf, [0, 1])
            return buf

        assert np.array_equal(benchmark(run), stripe)

    def test_update_compiled(self, benchmark, codec, stripe):
        cell = codec.layout.data_cells[0]
        new_value = np.random.default_rng(1).integers(
            0, 256, ELEMENT_SIZE, dtype=np.uint8
        )
        benchmark(apply_update, codec, stripe, cell, new_value)
        assert codec.parity_ok(stripe)


class TestBatched:
    def test_encode_batched(self, benchmark, codec, stripes):
        benchmark(encode_batch, codec, stripes)
        assert codec.parity_ok(stripes[0])

    def test_encode_looped(self, benchmark, codec, stripes):
        def run():
            for i in range(stripes.shape[0]):
                codec.encode(stripes[i])

        benchmark(run)
        assert codec.parity_ok(stripes[-1])

    def test_update_batched(self, benchmark, codec, stripes):
        cell = codec.layout.data_cells[1]
        new_values = np.random.default_rng(2).integers(
            0, 256, (BATCH, ELEMENT_SIZE), dtype=np.uint8
        )
        benchmark(update_batch, codec, stripes, cell, new_values)
        assert codec.parity_ok(stripes[0])
