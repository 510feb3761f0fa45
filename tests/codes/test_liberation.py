"""Liberation / bitmatrix codec tests."""

import itertools

import numpy as np
import pytest

from repro.codes.liberation import (
    LiberationCode,
    liberation_matrices,
    minimum_density,
    shift_matrix,
)
from repro.codes.linear import BitmatrixRAID6
from repro.exceptions import DecodeError, FaultToleranceExceeded, GeometryError


class TestConstruction:
    @pytest.mark.parametrize("w", (5, 7, 11, 13))
    def test_mds_at_every_prime(self, w):
        assert LiberationCode(w, element_size=w * 4).is_mds()

    @pytest.mark.parametrize("w", (5, 7, 11, 13))
    def test_minimum_density(self, w):
        codec = LiberationCode(w, element_size=w * 4)
        assert codec.density() == minimum_density(w, w)
        assert codec.achieves_minimum_density()

    def test_shortened_still_mds(self):
        codec = LiberationCode(7, k=4, element_size=28)
        assert codec.is_mds()
        assert codec.num_disks == 6

    def test_shift_matrix_is_permutation(self):
        for s in range(5):
            m = shift_matrix(5, s)
            assert m.sum() == 5
            assert (m.sum(axis=0) == 1).all()
            assert (m.sum(axis=1) == 1).all()

    def test_matrix_zero_is_identity(self):
        assert np.array_equal(
            liberation_matrices(5)[0], np.eye(5, dtype=bool)
        )

    def test_extra_bit_per_matrix(self):
        for i, m in enumerate(liberation_matrices(7)):
            assert int(m.sum()) == 7 + (1 if i > 0 else 0)

    def test_non_prime_w_rejected(self):
        with pytest.raises(ValueError):
            LiberationCode(9, element_size=36)

    def test_element_size_must_split(self):
        with pytest.raises(ValueError):
            LiberationCode(5, element_size=17)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            LiberationCode(5, k=6, element_size=20)
        with pytest.raises(ValueError):
            LiberationCode(5, k=1, element_size=20)


class TestCodec:
    @pytest.fixture
    def codec(self):
        return LiberationCode(5, element_size=40)

    @pytest.fixture
    def stripe(self, codec, rng):
        data = rng.integers(
            0, 256, (codec.k, codec.element_size), dtype=np.uint8
        )
        return codec.encode(data)

    def test_p_disk_is_plain_xor(self, codec, stripe):
        assert np.array_equal(
            stripe[codec.k],
            np.bitwise_xor.reduce(stripe[: codec.k], axis=0),
        )

    def test_parity_ok(self, codec, stripe):
        assert codec.parity_ok(stripe)
        stripe[codec.k + 1, 0] ^= 1
        assert not codec.parity_ok(stripe)

    def test_every_double_erasure(self, codec, stripe):
        for a, b in itertools.combinations(range(codec.num_disks), 2):
            damaged = stripe.copy()
            damaged[a] = 0
            damaged[b] = 0
            codec.decode(damaged, [a, b])
            assert np.array_equal(damaged, stripe), (a, b)

    def test_single_erasures(self, codec, stripe):
        for a in range(codec.num_disks):
            damaged = stripe.copy()
            damaged[a] = 0
            codec.decode(damaged, [a])
            assert np.array_equal(damaged, stripe)

    def test_three_erasures_rejected(self, codec, stripe):
        with pytest.raises(FaultToleranceExceeded):
            codec.decode(stripe.copy(), [0, 1, 2])

    def test_encoding_linear(self, codec, rng):
        a = rng.integers(0, 256, (5, 40), dtype=np.uint8)
        b = rng.integers(0, 256, (5, 40), dtype=np.uint8)
        assert np.array_equal(
            codec.encode(a) ^ codec.encode(b), codec.encode(a ^ b)
        )

    def test_larger_prime_round_trip(self, rng):
        codec = LiberationCode(7, element_size=56)
        data = rng.integers(0, 256, (7, 56), dtype=np.uint8)
        stripe = codec.encode(data)
        damaged = stripe.copy()
        damaged[2] = 0
        damaged[8] = 0  # data + Q
        codec.decode(damaged, [2, 8])
        assert np.array_equal(damaged, stripe)


class TestGenericBitmatrix:
    def test_rejects_non_square_matrix(self):
        with pytest.raises(GeometryError):
            BitmatrixRAID6(
                [np.zeros((2, 3), dtype=bool), np.zeros((2, 2), dtype=bool)],
                element_size=4,
            )

    def test_non_mds_matrices_detected(self):
        # two identical matrices: erasing those two disks is unsolvable
        eye = np.eye(4, dtype=bool)
        codec = BitmatrixRAID6([eye, eye.copy()], element_size=8)
        assert not codec.is_mds()

    def test_data_disk_lost_with_p_needs_invertible_q(self):
        # every data pair decodes here, but disk 0 lost with P leaves only
        # its Q matrix, which is zero: not MDS, and decode refuses
        codec = BitmatrixRAID6(
            [np.zeros((5, 5), dtype=bool), np.eye(5, dtype=bool)],
            element_size=20,
        )
        assert not codec.is_mds()
        assert not codec.is_decodable([0, 2])
        with pytest.raises(DecodeError):
            codec.decode(codec.encode(np.ones((2, 20), np.uint8)), [0, 2])

    def test_density_counts_ones(self):
        eye = np.eye(4, dtype=bool)
        codec = BitmatrixRAID6([eye, eye.copy()], element_size=8)
        assert codec.density() == 8
