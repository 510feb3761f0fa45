"""Reed–Solomon RAID-6 codec tests."""

import itertools

import numpy as np
import pytest

from repro.codes.linear import ReedSolomonRAID6
from repro.exceptions import FaultToleranceExceeded, GeometryError


@pytest.fixture
def codec():
    return ReedSolomonRAID6(k=5, element_size=64)


@pytest.fixture
def stripe(codec, rng):
    data = rng.integers(0, 256, (codec.k, codec.element_size), dtype=np.uint8)
    return codec.encode(data)


class TestEncode:
    def test_systematic(self, codec, stripe, rng):
        data = rng.integers(0, 256, (5, 64), dtype=np.uint8)
        out = codec.encode(data)
        assert np.array_equal(out[:5], data)

    def test_p_parity_is_plain_xor(self, codec, stripe):
        xor = np.bitwise_xor.reduce(stripe[:5], axis=0)
        assert np.array_equal(stripe[5], xor)

    def test_parity_ok(self, codec, stripe):
        assert codec.parity_ok(stripe)
        stripe[0, 0] ^= 1
        assert not codec.parity_ok(stripe)

    def test_zero_data_zero_parity(self, codec):
        stripe = codec.encode(np.zeros((5, 64), dtype=np.uint8))
        assert not stripe.any()

    def test_shape_validation(self, codec):
        with pytest.raises(GeometryError):
            codec.encode(np.zeros((4, 64), dtype=np.uint8))
        with pytest.raises(GeometryError):
            codec.encode(np.zeros((5, 64), dtype=np.int32))


class TestDecode:
    def test_every_double_erasure(self, codec, stripe):
        for a, b in itertools.combinations(range(codec.num_disks), 2):
            damaged = stripe.copy()
            damaged[a] = 0
            damaged[b] = 0
            codec.decode(damaged, [a, b])
            assert np.array_equal(damaged, stripe), (a, b)

    def test_every_single_erasure(self, codec, stripe):
        for a in range(codec.num_disks):
            damaged = stripe.copy()
            damaged[a] = 0
            codec.decode(damaged, [a])
            assert np.array_equal(damaged, stripe)

    def test_no_erasure_noop(self, codec, stripe):
        out = codec.decode(stripe.copy(), [])
        assert np.array_equal(out, stripe)

    def test_three_erasures_rejected(self, codec, stripe):
        with pytest.raises(FaultToleranceExceeded):
            codec.decode(stripe.copy(), [0, 1, 2])

    def test_duplicate_erasure_indices_collapse(self, codec, stripe):
        damaged = stripe.copy()
        damaged[3] = 0
        codec.decode(damaged, [3, 3])
        assert np.array_equal(damaged, stripe)

    def test_bad_disk_index(self, codec, stripe):
        with pytest.raises(GeometryError):
            codec.decode(stripe.copy(), [99])


class TestParameters:
    def test_k_bounds(self):
        with pytest.raises(ValueError):
            ReedSolomonRAID6(k=1)
        with pytest.raises(ValueError):
            ReedSolomonRAID6(k=256)

    def test_various_k_round_trip(self, rng):
        for k in (2, 10, 20):
            codec = ReedSolomonRAID6(k=k, element_size=32)
            data = rng.integers(0, 256, (k, 32), dtype=np.uint8)
            stripe = codec.encode(data)
            damaged = stripe.copy()
            damaged[0] = 0
            damaged[k] = 0  # data + P parity together
            codec.decode(damaged, [0, k])
            assert np.array_equal(damaged, stripe)
