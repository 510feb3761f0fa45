"""Tests for GF(2^8) matrix algebra and MDS generator constructions."""

import numpy as np
import pytest

from repro.gf.gf256 import GF256
from repro.gf.matrix import (
    cauchy,
    gf256_identity,
    gf256_matmul,
    gf256_matvec,
    gf256_solve,
    vandermonde,
)


def inverse(m):
    """The inverse by the shared solver (identity right-hand sides), or
    ``None`` when ``m`` is singular."""
    rows = gf256_solve(m, gf256_identity(len(m)))
    return None if rows is None else np.array(rows)


def random_invertible(rng, n):
    """Rejection-sample an invertible matrix."""
    while True:
        m = rng.integers(0, 256, (n, n), dtype=np.uint8)
        if inverse(m) is not None:
            return m


class TestMatmul:
    def test_identity_neutral(self, rng):
        m = rng.integers(0, 256, (4, 4), dtype=np.uint8)
        eye = gf256_identity(4)
        assert np.array_equal(gf256_matmul(eye, m), m)
        assert np.array_equal(gf256_matmul(m, eye), m)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gf256_matmul(np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.uint8))

    def test_matvec_matches_matmul(self, rng):
        m = rng.integers(0, 256, (3, 3), dtype=np.uint8)
        v = rng.integers(0, 256, 3, dtype=np.uint8)
        assert np.array_equal(
            gf256_matvec(m, v), gf256_matmul(m, v.reshape(-1, 1)).reshape(-1)
        )


class TestInverse:
    def test_inverse_times_self_is_identity(self, rng):
        for n in (1, 2, 4, 6):
            m = random_invertible(rng, n)
            inv = inverse(m)
            assert np.array_equal(gf256_matmul(m, inv), gf256_identity(n))
            assert np.array_equal(gf256_matmul(inv, m), gf256_identity(n))

    def test_singular_has_no_solution(self):
        sing = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        assert inverse(sing) is None

    def test_zero_matrix_singular(self):
        assert inverse(np.zeros((3, 3), np.uint8)) is None

    def test_non_square_rejected(self):
        # fewer equations than unknowns: never a unique solution
        eye = gf256_identity(2)
        assert gf256_solve(np.ones((2, 3), np.uint8), eye) is None


class TestSolve:
    def test_buffer_right_hand_sides(self, rng):
        """Each unknown comes back as the buffer that satisfies every
        equation, byte by byte."""
        m = random_invertible(rng, 4)
        x = rng.integers(0, 256, (4, 64), dtype=np.uint8)
        rhs = [
            np.bitwise_xor.reduce(
                [GF256.mul_block(int(m[r, c]), x[c]) for c in range(4)]
            )
            for r in range(4)
        ]
        assert np.array_equal(np.array(gf256_solve(m, rhs)), x)

    def test_overdetermined_system(self, rng):
        """Extra equations are fine; a rank-deficient prefix is skipped."""
        x = rng.integers(0, 256, (2, 16), dtype=np.uint8)
        m = np.array([[3, 3], [5, 5], [1, 0], [2, 7]], dtype=np.uint8)
        rhs = [GF256.mul_block(int(a), x[0]) ^ GF256.mul_block(int(b), x[1])
               for a, b in m]
        assert np.array_equal(np.array(gf256_solve(m, rhs)), x)

    def test_rank_deficient(self):
        m = np.array([[1, 1], [2, 2], [0, 0]], dtype=np.uint8)
        assert gf256_solve(m, gf256_identity(3)) is None

    def test_no_equations(self):
        assert gf256_solve(np.zeros((0, 2), np.uint8), []) is None
        assert gf256_solve(np.zeros((0, 0), np.uint8), []) == []

    def test_right_hand_side_count_checked(self):
        with pytest.raises(ValueError):
            gf256_solve(gf256_identity(2), [np.zeros(4, np.uint8)])


class TestGenerators:
    def test_vandermonde_values(self):
        v = vandermonde(3, 4)
        for j in range(4):
            x = j + 1
            assert v[0, j] == 1
            assert v[1, j] == x
            assert v[2, j] == GF256.mul(x, x)

    def test_vandermonde_square_submatrices_invertible(self):
        # the MDS property RS relies on, for the RAID-6 case (2 rows)
        v = vandermonde(2, 8)
        for a in range(8):
            for b in range(a + 1, 8):
                sub = np.array(
                    [[v[0, a], v[0, b]], [v[1, a], v[1, b]]], dtype=np.uint8
                )
                assert inverse(sub) is not None

    def test_cauchy_entries(self):
        c = cauchy([0, 1], [2, 3])
        assert c[0, 0] == GF256.inv(0 ^ 2)
        assert c[1, 1] == GF256.inv(1 ^ 3)

    def test_cauchy_square_submatrices_invertible(self):
        c = cauchy([0, 1], list(range(2, 10)))
        for a in range(8):
            for b in range(a + 1, 8):
                sub = np.array(
                    [[c[0, a], c[0, b]], [c[1, a], c[1, b]]], dtype=np.uint8
                )
                assert inverse(sub) is not None

    def test_cauchy_rejects_overlap(self):
        with pytest.raises(ValueError):
            cauchy([0, 1], [1, 2])

    def test_cauchy_rejects_duplicates(self):
        with pytest.raises(ValueError):
            cauchy([0, 0], [1, 2])
