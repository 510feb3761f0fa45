"""Property-based tests (hypothesis) over the core invariants.

These complement the exhaustive structural tests with randomised payloads,
geometries and failure patterns.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codes import make_code
from repro.codes.registry import available_codes
from repro.codes.linear import ReedSolomonRAID6
from repro.codec.decoder import ChainDecoder
from repro.codec.encoder import StripeCodec
from repro.codec.gauss import GaussianDecoder
from repro.codec.update import apply_update
from repro.gf.gf256 import GF256
from repro.iosim.engine import AccessEngine
from repro.iosim.metrics import load_balancing_factor
from repro.iosim.workloads import workload_from_ratio
from repro.util.primes import is_prime

CODES = sorted(available_codes())
PRIMES = (5, 7)

code_name = st.sampled_from(CODES)
prime = st.sampled_from(PRIMES)
seeds = st.integers(0, 2**32 - 1)

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_codec(name, p, element_size=16):
    return StripeCodec(make_code(name, p), element_size=element_size)


def random_stripe(codec, seed):
    return codec.random_stripe(np.random.default_rng(seed))


class TestCodecRoundTrips:
    @given(name=code_name, p=prime, seed=seeds, data=st.data())
    @settings(max_examples=40, **COMMON)
    def test_any_double_erasure_round_trips(self, name, p, seed, data):
        codec = build_codec(name, p)
        truth = random_stripe(codec, seed)
        cols = data.draw(
            st.lists(
                st.integers(0, codec.layout.cols - 1),
                min_size=1, max_size=2, unique=True,
            )
        )
        stripe = truth.copy()
        codec.erase_columns(stripe, cols)
        GaussianDecoder(codec).decode_columns(stripe, cols)
        assert np.array_equal(stripe, truth)

    @given(name=st.sampled_from([c for c in CODES if c != "evenodd"]),
           p=prime, seed=seeds, data=st.data())
    @settings(max_examples=40, **COMMON)
    def test_chain_and_gauss_agree(self, name, p, seed, data):
        codec = build_codec(name, p)
        truth = random_stripe(codec, seed)
        cols = data.draw(
            st.lists(
                st.integers(0, codec.layout.cols - 1),
                min_size=1, max_size=2, unique=True,
            )
        )
        s1, s2 = truth.copy(), truth.copy()
        codec.erase_columns(s1, cols)
        codec.erase_columns(s2, cols)
        ChainDecoder(codec).decode_columns(s1, cols)
        GaussianDecoder(codec).decode_columns(s2, cols)
        assert np.array_equal(s1, s2)

    @given(name=code_name, p=prime, seed=seeds, data=st.data())
    @settings(max_examples=40, **COMMON)
    def test_update_sequence_keeps_parity(self, name, p, seed, data):
        codec = build_codec(name, p)
        stripe = random_stripe(codec, seed)
        rng = np.random.default_rng(seed ^ 0xDEAD)
        n_updates = data.draw(st.integers(1, 5))
        for _ in range(n_updates):
            idx = data.draw(
                st.integers(0, codec.layout.num_data_cells - 1)
            )
            cell = codec.layout.data_cell(idx)
            apply_update(
                codec, stripe, cell,
                rng.integers(0, 256, 16, dtype=np.uint8),
            )
        assert codec.parity_ok(stripe)

    @given(name=code_name, p=prime, seed=seeds)
    @settings(max_examples=20, **COMMON)
    def test_encode_involution_under_xor(self, name, p, seed):
        """Linearity: stripes form a vector space over GF(2)."""
        codec = build_codec(name, p)
        a = random_stripe(codec, seed)
        b = random_stripe(codec, seed + 1)
        assert codec.parity_ok(a ^ b)


class TestReedSolomonProperties:
    @given(
        k=st.integers(2, 12),
        seed=seeds,
        data=st.data(),
    )
    @settings(max_examples=30, **COMMON)
    def test_rs_round_trip_any_two_erasures(self, k, seed, data):
        codec = ReedSolomonRAID6(k, element_size=16)
        payload = np.random.default_rng(seed).integers(
            0, 256, (k, 16), dtype=np.uint8
        )
        stripe = codec.encode(payload)
        erased = data.draw(
            st.lists(st.integers(0, k + 1), min_size=0, max_size=2,
                     unique=True)
        )
        damaged = stripe.copy()
        for d in erased:
            damaged[d] = 0
        codec.decode(damaged, erased)
        assert np.array_equal(damaged, stripe)

    @given(a=st.integers(0, 255), b=st.integers(0, 255),
           c=st.integers(0, 255))
    @settings(max_examples=200, **COMMON)
    def test_gf256_ring_axioms(self, a, b, c):
        assert GF256.mul(a, b) == GF256.mul(b, a)
        assert GF256.mul(a, GF256.mul(b, c)) == GF256.mul(GF256.mul(a, b), c)
        assert GF256.mul(a, b ^ c) == GF256.mul(a, b) ^ GF256.mul(a, c)


class TestEngineProperties:
    @given(name=code_name, p=prime, start=st.integers(0, 10_000),
           length=st.integers(1, 20))
    @settings(max_examples=40, **COMMON)
    def test_normal_read_cost_equals_length(self, name, p, start, length):
        engine = AccessEngine(make_code(name, p), num_stripes=4)
        assert engine.read_accesses(start, length).cost == length

    @given(name=code_name, p=prime, start=st.integers(0, 10_000),
           length=st.integers(1, 20), data=st.data())
    @settings(max_examples=40, **COMMON)
    def test_degraded_read_cost_at_least_surviving_payload(
        self, name, p, start, length, data
    ):
        layout = make_code(name, p)
        failed = data.draw(st.integers(0, layout.cols - 1))
        engine = AccessEngine(layout, num_stripes=4, failed_disk=failed)
        loads = engine.read_accesses(start, length)
        assert loads.cost >= 0
        assert loads.reads[failed] == 0

    @given(name=code_name, p=prime, start=st.integers(0, 10_000),
           length=st.integers(1, 20))
    @settings(max_examples=40, **COMMON)
    def test_write_reads_never_exceed_writes(self, name, p, start, length):
        # RMW reads every cell it rewrites, except the full-stripe shortcut
        engine = AccessEngine(make_code(name, p), num_stripes=4)
        loads = engine.write_accesses(start, length)
        assert loads.reads.sum() <= loads.writes.sum()

    @given(seed=seeds, frac=st.floats(0.0, 1.0))
    @settings(max_examples=25, **COMMON)
    def test_lf_at_least_one(self, seed, frac):
        layout = make_code("dcode", 5)
        engine = AccessEngine(layout, num_stripes=4)
        wl = workload_from_ratio(
            "w", frac, engine.address_space,
            np.random.default_rng(seed), num_ops=30,
        )
        lf = load_balancing_factor(engine.run(wl))
        assert lf >= 1.0


class TestPrimeProperties:
    @given(n=st.integers(2, 5000))
    @settings(max_examples=200, **COMMON)
    def test_is_prime_matches_trial_division(self, n):
        naive = n >= 2 and all(n % d for d in range(2, n))
        assert is_prime(n) == naive
