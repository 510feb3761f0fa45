"""Compiled-plan vs naive-walk equivalence over the whole registry.

The compiled gather-XOR engine (and its optional C kernel) must be
byte-identical to the original per-group Python walk for every code, prime
and element size — encode, chain decode, single-element update, and the
batched variants.  These tests are the contract that lets the fast paths
replace the reference implementation by default.
"""

import itertools

import numpy as np
import pytest

from repro.codec.batch import (
    blank_batch,
    decode_batch,
    encode_batch,
    random_batch,
    update_batch,
)
from repro.codec.decoder import ChainDecoder
from repro.codec.encoder import StripeCodec
from repro.codec.update import apply_update
from repro.codes.registry import available_codes, make_code

from tests.oracles.codec_walk import CodecWalk

ALL_CODES = sorted(available_codes())
PRIMES = (5, 7, 11, 13)
ELEMENT_SIZES = (1, 16, 4096)

# Bound suite runtime: the full prime/element-size grid runs per code for
# encode; decode and update sweep the interesting axes per code.
ENCODE_GRID = [
    (name, p, es)
    for name, p, es in itertools.product(ALL_CODES, PRIMES, ELEMENT_SIZES)
]


def chain_codes():
    return [c for c in ALL_CODES if make_code(c, 5).chain_decodable]


def fill_random(codec, rng, stripe):
    for cell in codec.layout.data_cells:
        stripe[cell.row, cell.col] = rng.integers(
            0, 256, codec.element_size, dtype=np.uint8
        )


@pytest.mark.parametrize("name,p,es", ENCODE_GRID)
def test_encode_compiled_matches_naive(rng, name, p, es):
    codec = StripeCodec(make_code(name, p), element_size=es)
    stripe = codec.blank_stripe()
    fill_random(codec, rng, stripe)
    reference = stripe.copy()
    CodecWalk(codec).encode(reference)
    compiled = stripe.copy()
    codec.encode(compiled)
    assert np.array_equal(reference, compiled), (name, p, es)


def all_column_pairs(layout):
    return list(itertools.combinations(range(layout.cols), 2))


@pytest.mark.parametrize("p", PRIMES)
def test_dcode_decode_all_double_failures(rng, p):
    """Every double-disk failure of D-Code decodes identically on both
    engines — the paper's headline recovery path, exhaustively."""
    codec = StripeCodec(make_code("dcode", p), element_size=16)
    stripe = codec.random_stripe(rng)
    naive = CodecWalk(codec)
    compiled = ChainDecoder(codec)
    for pair in all_column_pairs(codec.layout):
        broken_a = stripe.copy()
        codec.erase_columns(broken_a, pair)
        naive.decode_columns(broken_a, pair)
        broken_b = stripe.copy()
        codec.erase_columns(broken_b, pair)
        compiled.decode_columns(broken_b, pair)
        assert np.array_equal(broken_a, stripe), pair
        assert np.array_equal(broken_b, stripe), pair


@pytest.mark.parametrize("name", chain_codes())
@pytest.mark.parametrize("p", (5, 7))
def test_decode_compiled_matches_naive(rng, name, p):
    codec = StripeCodec(make_code(name, p), element_size=16)
    stripe = codec.random_stripe(rng)
    naive = CodecWalk(codec)
    compiled = ChainDecoder(codec)
    cols = codec.layout.cols
    for pair in [(0,), (0, 1), (1, cols - 1), (0, cols - 1)]:
        broken_a = stripe.copy()
        codec.erase_columns(broken_a, pair)
        naive.decode_columns(broken_a, pair)
        broken_b = stripe.copy()
        codec.erase_columns(broken_b, pair)
        compiled.decode_columns(broken_b, pair)
        assert np.array_equal(broken_a, stripe), (name, pair)
        assert np.array_equal(broken_b, stripe), (name, pair)


@pytest.mark.parametrize("name", ALL_CODES)
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("es", ELEMENT_SIZES)
def test_update_compiled_matches_naive(rng, name, p, es):
    codec = StripeCodec(make_code(name, p), element_size=es)
    stripe = codec.random_stripe(rng)
    cells = codec.layout.data_cells
    probe = {cells[0], cells[len(cells) // 2], cells[-1]}
    for cell in sorted(probe):
        new_value = rng.integers(0, 256, es, dtype=np.uint8)
        via_naive = stripe.copy()
        touched_naive = CodecWalk(codec).apply_update(
            via_naive, cell, new_value
        )
        via_compiled = stripe.copy()
        touched_compiled = apply_update(codec, via_compiled, cell, new_value)
        assert np.array_equal(via_naive, via_compiled), (name, p, es, cell)
        assert touched_naive == touched_compiled
        assert codec.parity_ok(via_compiled)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("name", ALL_CODES)
    def test_encode_batch_matches_per_stripe_naive(self, rng, name):
        codec = StripeCodec(make_code(name, 7), element_size=32)
        stripes = blank_batch(codec, 9)
        for i in range(9):
            fill_random(codec, rng, stripes[i])
        reference = stripes.copy()
        walk = CodecWalk(codec)
        for i in range(9):
            walk.encode(reference[i])
        encode_batch(codec, stripes)
        assert np.array_equal(stripes, reference)

    @pytest.mark.parametrize("name", chain_codes())
    def test_decode_batch_matches_originals(self, rng, name):
        codec = StripeCodec(make_code(name, 7), element_size=32)
        stripes = random_batch(codec, rng, 6)
        originals = stripes.copy()
        for cell in codec.layout.cells_in_column(0):
            stripes[:, cell.row, cell.col] = 0
        for cell in codec.layout.cells_in_column(2):
            stripes[:, cell.row, cell.col] = 0
        plan = decode_batch(codec, stripes, (0, 2))
        assert plan  # chain-decodable codes return their schedule
        assert np.array_equal(stripes, originals)

    def test_decode_batch_evenodd_gaussian_fallback(self, rng):
        # EVENODD's adjuster coupling defeats chain decoding; the batch API
        # must fall back to the Gaussian decoder per stripe.
        codec = StripeCodec(make_code("evenodd", 7), element_size=32)
        stripes = random_batch(codec, rng, 4)
        originals = stripes.copy()
        for col in (1, 3):
            for cell in codec.layout.cells_in_column(col):
                stripes[:, cell.row, cell.col] = 0
        plan = decode_batch(codec, stripes, (1, 3))
        assert plan == []
        assert np.array_equal(stripes, originals)

    @pytest.mark.parametrize("name", ALL_CODES)
    def test_update_batch_matches_per_stripe(self, rng, name):
        codec = StripeCodec(make_code(name, 7), element_size=32)
        stripes = random_batch(codec, rng, 5)
        cell = codec.layout.data_cells[1]
        new_values = rng.integers(0, 256, (5, 32), dtype=np.uint8)
        reference = stripes.copy()
        walk = CodecWalk(codec)
        for i in range(5):
            walk.apply_update(reference[i], cell, new_values[i])
        touched = update_batch(codec, stripes, cell, new_values)
        assert np.array_equal(stripes, reference)
        assert all(codec.layout.is_parity(c) for c in touched)
