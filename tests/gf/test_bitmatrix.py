"""Tests for GF(2) bit-matrix algebra and the buffer-valued solver."""

import numpy as np
import pytest

from repro.gf.bitmatrix import (
    BitMatrix,
    InconsistentSystemError,
    gf2_rank,
    gf2_solve,
    gf256_to_bitmatrix,
)
from repro.gf.gf256 import GF256


class TestRank:
    def test_identity_full_rank(self):
        assert gf2_rank(np.eye(5, dtype=bool)) == 5

    def test_zero_matrix(self):
        assert gf2_rank(np.zeros((3, 4), dtype=bool)) == 0

    def test_duplicate_rows_collapse(self):
        m = np.array([[1, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=bool)
        assert gf2_rank(m) == 2

    def test_xor_dependent_rows(self):
        # row2 = row0 ^ row1
        m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool)
        assert gf2_rank(m) == 2

    def test_wide_matrix(self):
        m = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=bool)
        assert gf2_rank(m) == 2


class TestSolve:
    def test_identity_system(self, rng):
        rhs = [rng.integers(0, 256, 8, dtype=np.uint8) for _ in range(3)]
        sol = gf2_solve(np.eye(3, dtype=bool), rhs)
        for want, got in zip(rhs, sol):
            assert np.array_equal(want, got)

    def test_xor_coupled_system(self, rng):
        # x0 ^ x1 = a ; x1 = b  -> x0 = a ^ b
        a = rng.integers(0, 256, 8, dtype=np.uint8)
        b = rng.integers(0, 256, 8, dtype=np.uint8)
        m = np.array([[1, 1], [0, 1]], dtype=bool)
        sol = gf2_solve(m, [a, b])
        assert np.array_equal(sol[1], b)
        assert np.array_equal(sol[0], a ^ b)

    def test_rank_deficient_returns_none(self, rng):
        m = np.array([[1, 1], [1, 1]], dtype=bool)
        rhs = [np.zeros(4, np.uint8), np.zeros(4, np.uint8)]
        assert gf2_solve(m, rhs) is None

    def test_overdetermined_consistent(self, rng):
        x = rng.integers(0, 256, 8, dtype=np.uint8)
        m = np.array([[1], [1], [1]], dtype=bool)
        sol = gf2_solve(m, [x, x.copy(), x.copy()])
        assert np.array_equal(sol[0], x)

    def test_overdetermined_inconsistent_raises(self, rng):
        x = rng.integers(1, 256, 8, dtype=np.uint8)
        m = np.array([[1], [1]], dtype=bool)
        with pytest.raises(InconsistentSystemError, match="inconsistent"):
            gf2_solve(m, [x, x ^ np.uint8(1)])

    def test_rhs_count_checked(self):
        # a caller's error, not a contradiction in the data
        with pytest.raises(ValueError) as exc:
            gf2_solve(np.eye(2, dtype=bool), [np.zeros(4, np.uint8)])
        assert not isinstance(exc.value, InconsistentSystemError)

    def test_inputs_not_mutated(self, rng):
        m = np.array([[1, 1], [0, 1]], dtype=bool)
        m_orig = m.copy()
        rhs = [rng.integers(0, 256, 4, dtype=np.uint8) for _ in range(2)]
        rhs_orig = [r.copy() for r in rhs]
        gf2_solve(m, rhs)
        assert np.array_equal(m, m_orig)
        for r, orig in zip(rhs, rhs_orig):
            assert np.array_equal(r, orig)


class TestBitMatrix:
    def test_matmul_mod2(self):
        a = BitMatrix(np.array([[1, 1], [0, 1]], dtype=bool))
        b = BitMatrix(np.array([[1, 0], [1, 1]], dtype=bool))
        prod = a @ b
        # [[1^1, 0^1], [1, 1]] = [[0,1],[1,1]]
        assert np.array_equal(prod.a, np.array([[0, 1], [1, 1]], dtype=bool))

    def test_identity(self):
        eye = BitMatrix.identity(3)
        m = BitMatrix(np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=bool))
        assert (eye @ m) == m

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(BitMatrix.zeros(2, 2))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            BitMatrix(np.zeros(4, dtype=bool))


class TestGF256Expansion:
    def test_multiplication_by_one_is_identity_block(self):
        bm = gf256_to_bitmatrix(np.array([[1]], dtype=np.uint8))
        assert np.array_equal(bm.a, np.eye(8, dtype=bool))

    def test_expansion_encodes_field_multiplication(self, rng):
        # multiplying a bit-vector by the expanded block == field multiply
        for e in (2, 29, 173):
            bm = gf256_to_bitmatrix(np.array([[e]], dtype=np.uint8))
            for x in (1, 2, 55, 255):
                bits = np.array([(x >> i) & 1 for i in range(8)], dtype=bool)
                out_bits = (bm.a @ bits.astype(np.uint8)) % 2
                out = sum(int(b) << i for i, b in enumerate(out_bits))
                assert out == GF256.mul(e, x)

    def test_rejects_other_word_sizes(self):
        with pytest.raises(ValueError):
            gf256_to_bitmatrix(np.array([[1]], dtype=np.uint8), w=4)
