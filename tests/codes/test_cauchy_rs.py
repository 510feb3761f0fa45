"""Cauchy Reed–Solomon bitmatrix codec tests."""

import itertools

import numpy as np
import pytest

from repro.codes.linear import CauchyRSRAID6
from repro.exceptions import FaultToleranceExceeded, GeometryError


@pytest.fixture
def codec():
    return CauchyRSRAID6(k=5, element_size=64)


@pytest.fixture
def stripe(codec, rng):
    data = rng.integers(0, 256, (codec.k, codec.element_size), dtype=np.uint8)
    return codec.encode(data)


class TestEncode:
    def test_systematic(self, codec, rng):
        data = rng.integers(0, 256, (5, 64), dtype=np.uint8)
        out = codec.encode(data)
        assert np.array_equal(out[:5], data)

    def test_parity_ok_detects_corruption(self, codec, stripe):
        assert codec.parity_ok(stripe)
        stripe[6, 10] ^= 0x80
        assert not codec.parity_ok(stripe)

    def test_encoding_is_linear(self, codec, rng):
        # XOR of two encodings == encoding of the XOR (pure-XOR dispatch)
        a = rng.integers(0, 256, (5, 64), dtype=np.uint8)
        b = rng.integers(0, 256, (5, 64), dtype=np.uint8)
        assert np.array_equal(
            codec.encode(a) ^ codec.encode(b), codec.encode(a ^ b)
        )

    def test_element_size_must_split_into_packets(self):
        with pytest.raises(ValueError):
            CauchyRSRAID6(k=4, element_size=62)


class TestDecode:
    def test_every_double_erasure(self, codec, stripe):
        for a, b in itertools.combinations(range(codec.num_disks), 2):
            damaged = stripe.copy()
            damaged[a] = 0
            damaged[b] = 0
            codec.decode(damaged, [a, b])
            assert np.array_equal(damaged, stripe), (a, b)

    def test_single_parity_erasure(self, codec, stripe):
        damaged = stripe.copy()
        damaged[6] = 0
        codec.decode(damaged, [6])
        assert np.array_equal(damaged, stripe)

    def test_three_erasures_rejected(self, codec, stripe):
        with pytest.raises(FaultToleranceExceeded):
            codec.decode(stripe.copy(), [0, 1, 2])

    def test_bad_disk_index(self, codec, stripe):
        with pytest.raises(GeometryError):
            codec.decode(stripe.copy(), [-1])


class TestScheduleStructure:
    def test_schedule_covers_all_parity_packets(self, codec):
        assert len(codec.schedule) == 16  # 2 parity disks x 8 packets

    def test_schedule_sources_in_range(self, codec):
        for sources in codec.schedule:
            assert sources  # Cauchy rows are never empty
            for disk, packet in sources:
                assert 0 <= disk < codec.k
                assert 0 <= packet < 8
