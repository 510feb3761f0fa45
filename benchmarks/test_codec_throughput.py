"""Codec throughput — the Jerasure-style encode/decode bandwidth comparison.

The paper implements every code on Jerasure 1.2 and reads real disks; our
substitution is a pure-numpy codec, so this bench reports *relative*
encode/decode bandwidth across the XOR array codes and the two
Reed–Solomon variants.  These are true pytest-benchmark microbenchmarks
(multiple timed rounds), unlike the one-shot figure harnesses.
"""

import numpy as np
import pytest

from repro.codes import make_code
from repro.codes.liberation import LiberationCode
from repro.codes.linear import CauchyRSRAID6, ReedSolomonRAID6
from repro.codec.decoder import ChainDecoder
from repro.codec.encoder import StripeCodec
from repro.codec.gauss import GaussianDecoder

ELEMENT_SIZE = 64 * 1024
ARRAY_CODES = ("rdp", "hcode", "hdp", "xcode", "dcode", "evenodd")


def _mb(codec_bytes):
    return codec_bytes / 1e6


@pytest.mark.parametrize("name", ARRAY_CODES)
def test_encode_throughput(benchmark, name):
    layout = make_code(name, 7)
    codec = StripeCodec(layout, element_size=ELEMENT_SIZE)
    stripe = codec.random_stripe(np.random.default_rng(0))

    benchmark(codec.encode, stripe)
    data_bytes = layout.num_data_cells * ELEMENT_SIZE
    benchmark.extra_info["data_mb_per_round"] = _mb(data_bytes)


@pytest.mark.parametrize("name", ARRAY_CODES)
def test_double_failure_decode_throughput(benchmark, name):
    layout = make_code(name, 7)
    codec = StripeCodec(layout, element_size=ELEMENT_SIZE)
    truth = codec.random_stripe(np.random.default_rng(0))
    decoder = (
        ChainDecoder(codec)
        if layout.chain_decodable
        else GaussianDecoder(codec)
    )
    damaged = truth.copy()
    codec.erase_columns(damaged, [0, 1])

    def run():
        stripe = damaged.copy()
        decoder.decode_columns(stripe, [0, 1])
        return stripe

    result = benchmark(run)
    assert np.array_equal(result, truth)


@pytest.mark.parametrize(
    "cls", [ReedSolomonRAID6, CauchyRSRAID6], ids=["rs", "cauchy-rs"]
)
def test_reed_solomon_encode_throughput(benchmark, cls):
    codec = cls(k=5, element_size=ELEMENT_SIZE)
    data = np.random.default_rng(0).integers(
        0, 256, (5, ELEMENT_SIZE), dtype=np.uint8
    )
    benchmark(codec.encode, data)


def test_liberation_encode_throughput(benchmark):
    # element size must split into w=7 packets
    codec = LiberationCode(7, element_size=7 * 9 * 1024)
    data = np.random.default_rng(0).integers(
        0, 256, (codec.k, codec.element_size), dtype=np.uint8
    )
    benchmark(codec.encode, data)


def test_liberation_decode_throughput(benchmark):
    codec = LiberationCode(7, element_size=7 * 9 * 1024)
    data = np.random.default_rng(0).integers(
        0, 256, (codec.k, codec.element_size), dtype=np.uint8
    )
    stripe = codec.encode(data)
    damaged = stripe.copy()
    damaged[0] = 0
    damaged[3] = 0

    def run():
        s = damaged.copy()
        codec.decode(s, [0, 3])
        return s

    result = benchmark(run)
    assert np.array_equal(result, stripe)


@pytest.mark.parametrize(
    "cls", [ReedSolomonRAID6, CauchyRSRAID6], ids=["rs", "cauchy-rs"]
)
def test_reed_solomon_decode_throughput(benchmark, cls):
    codec = cls(k=5, element_size=ELEMENT_SIZE)
    data = np.random.default_rng(0).integers(
        0, 256, (5, ELEMENT_SIZE), dtype=np.uint8
    )
    stripe = codec.encode(data)
    damaged = stripe.copy()
    damaged[0] = 0
    damaged[3] = 0

    def run():
        s = damaged.copy()
        codec.decode(s, [0, 3])
        return s

    result = benchmark(run)
    assert np.array_equal(result, stripe)
