"""General RS(k+m) codec tests, including the Vandermonde pitfall demo."""

import itertools

import numpy as np
import pytest

from repro.codes.linear import GeneralReedSolomon, ReedSolomonRAID6
from repro.exceptions import FaultToleranceExceeded, GeometryError
from repro.gf.matrix import gf256_solve, vandermonde


def invertible(matrix):
    """Whether a square GF(2^8) matrix has full rank."""
    return gf256_solve(matrix, np.eye(len(matrix), dtype=np.uint8)) is not None


@pytest.fixture
def codec():
    return GeneralReedSolomon(k=5, m=3, element_size=32)


@pytest.fixture
def stripe(codec, rng):
    data = rng.integers(0, 256, (codec.k, codec.element_size),
                        dtype=np.uint8)
    return codec.encode(data)


class TestTripleParity:
    def test_every_triple_erasure(self, codec, stripe):
        for lost in itertools.combinations(range(codec.num_disks), 3):
            damaged = stripe.copy()
            for d in lost:
                damaged[d] = 0
            codec.decode(damaged, list(lost))
            assert np.array_equal(damaged, stripe), lost

    def test_every_single_and_double_erasure(self, codec, stripe):
        for r in (1, 2):
            for lost in itertools.combinations(range(codec.num_disks), r):
                damaged = stripe.copy()
                for d in lost:
                    damaged[d] = 0
                codec.decode(damaged, list(lost))
                assert np.array_equal(damaged, stripe), lost

    def test_fault_tolerance_boundary(self, codec, stripe):
        with pytest.raises(FaultToleranceExceeded):
            codec.decode(stripe.copy(), [0, 1, 2, 3])

    def test_is_mds(self, codec):
        assert codec.is_mds()
        assert codec.is_decodable([0, 1, 2])
        assert not codec.is_decodable([0, 1, 2, 3])

    def test_parity_ok(self, codec, stripe):
        assert codec.parity_ok(stripe)
        stripe[codec.k + 2, 5] ^= 1
        assert not codec.parity_ok(stripe)


class TestWideConfigurations:
    @pytest.mark.parametrize("k,m", [(2, 1), (10, 4), (20, 3)])
    def test_round_trip(self, k, m, rng):
        codec = GeneralReedSolomon(k, m, element_size=16)
        data = rng.integers(0, 256, (k, 16), dtype=np.uint8)
        stripe = codec.encode(data)
        # erase the worst case: m data disks
        lost = list(range(min(m, k)))
        damaged = stripe.copy()
        for d in lost:
            damaged[d] = 0
        codec.decode(damaged, lost)
        assert np.array_equal(damaged, stripe)

    def test_field_size_limit(self):
        with pytest.raises(ValueError):
            GeneralReedSolomon(k=250, m=10)

    def test_k_minimum(self):
        with pytest.raises(ValueError):
            GeneralReedSolomon(k=1, m=2)

    def test_all_square_submatrices_invertible(self):
        """The Cauchy MDS property, checked directly for m=3."""
        codec = GeneralReedSolomon(k=6, m=3, element_size=8)
        coeff = codec.coefficients
        for cols in itertools.combinations(range(6), 3):
            sub = np.array(
                [[coeff[r, c] for c in cols] for r in range(3)],
                dtype=np.uint8,
            )
            assert invertible(sub)


class TestVandermondePitfall:
    def test_naive_vandermonde_parity_is_not_mds_for_m4(self):
        """The reason this codec uses Cauchy parity.  With Vandermonde
        parity rows [1, x, x^2, x^3], losing parities 1 and 2 plus two
        data disks leaves the generalized Vandermonde rows {0, 3}, whose
        2x2 determinant is x^3 + y^3 = (x+y)(x^2+xy+y^2) — and GF(2^8)
        contains primitive cube roots of unity (3 | 255), so some data
        pairs are unrecoverable.  Cauchy matrices have no such failure
        (every submatrix invertible, asserted above)."""
        k = 32
        v = vandermonde(4, k)
        singular = 0
        for cols in itertools.combinations(range(k), 2):
            sub = np.array(
                [[v[r, c] for c in cols] for r in (0, 3)],
                dtype=np.uint8,
            )
            singular += not invertible(sub)
        assert singular > 0

    def test_vandermonde_contiguous_rows_are_fine(self):
        """...while contiguous-row submatrices (the only ones RAID-6's
        m = 2 ever uses) are genuinely always invertible."""
        k = 32
        v = vandermonde(2, k)
        for cols in itertools.combinations(range(k), 2):
            sub = np.array(
                [[v[r, c] for c in cols] for r in range(2)],
                dtype=np.uint8,
            )
            assert invertible(sub)

    def test_consistency_with_raid6_codec(self, rng):
        """m=2 general RS and the dedicated RAID-6 RS codec recover the
        same data (different generator matrices, same contract)."""
        data = rng.integers(0, 256, (5, 16), dtype=np.uint8)
        for codec in (GeneralReedSolomon(5, 2, 16), ReedSolomonRAID6(5, 16)):
            stripe = codec.encode(data)
            damaged = stripe.copy()
            damaged[0] = 0
            damaged[4] = 0
            codec.decode(damaged, [0, 4])
            assert np.array_equal(damaged[:5], data)
