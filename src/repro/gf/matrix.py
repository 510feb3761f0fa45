"""Dense matrix algebra over GF(2^8).

Matrices are small (erasure-decoding systems are at most a few dozen rows),
so clarity wins over vectorisation in the products; :func:`gf256_solve`
is the one GF(2^8) elimination, shared by every matrix codec's decoder.
Matrices are ``uint8`` numpy 2-D arrays.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.gf.gf256 import GF256

_MUL = GF256.mul_table


def gf256_identity(n: int) -> np.ndarray:
    """The ``n x n`` identity matrix over GF(2^8)."""
    return np.eye(n, dtype=np.uint8)


def gf256_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2^8)."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc ^= GF256.mul(int(a[i, k]), int(b[k, j]))
            out[i, j] = acc
    return out


def gf256_matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix–vector product over GF(2^8)."""
    return gf256_matmul(a, v.reshape(-1, 1)).reshape(-1)


def gf256_solve(
    matrix: np.ndarray, rhs: Sequence[np.ndarray]
) -> Optional[List[np.ndarray]]:
    """Solve ``matrix @ x = rhs`` over GF(2^8) with buffer-valued unknowns.

    ``matrix`` is ``(equations, unknowns)``; ``rhs`` is one uint8 buffer
    per equation, all the same length, combined bytewise.  Gauss–Jordan
    elimination runs the same row operations over the coefficients and
    the buffers at once.  Returns one buffer per unknown, or ``None`` when
    the system is rank deficient; equations beyond the rank are not
    checked.  The rows of the identity as right-hand sides yield the
    decoding matrix ``D`` with ``x[c] = sum_r D[c, r] * rhs[r]``.
    """
    a = np.asarray(matrix, dtype=np.uint8)
    rows, cols = a.shape
    if len(rhs) != rows:
        raise ValueError(f"need {rows} right-hand sides, got {len(rhs)}")
    if not rows:
        return [] if not cols else None
    work = np.hstack([a, np.asarray(rhs, dtype=np.uint8).reshape(rows, -1)])
    for col in range(cols):
        below = np.flatnonzero(work[col:, col])
        if not below.size:
            return None
        pivot = col + int(below[0])
        work[[col, pivot]] = work[[pivot, col]]
        work[col] = _MUL[GF256.inv(int(work[col, col]))][work[col]]
        for r in np.flatnonzero(work[:, col]):
            if r != col:
                work[r] ^= _MUL[work[r, col]][work[col]]
    return list(work[:cols, cols:])


def vandermonde(rows: int, cols: int) -> np.ndarray:
    """Vandermonde matrix ``V[i, j] = (j+1)^i`` over GF(2^8).

    Any ``rows`` distinct evaluation points give an invertible square
    submatrix, which is what makes the classic Reed–Solomon construction
    MDS.
    """
    out = np.zeros((rows, cols), dtype=np.uint8)
    for j in range(cols):
        x = j + 1
        for i in range(rows):
            out[i, j] = GF256.pow(x, i)
    return out


def cauchy(xs: list, ys: list) -> np.ndarray:
    """Cauchy matrix ``C[i, j] = 1 / (xs[i] + ys[j])`` over GF(2^8).

    ``xs`` and ``ys`` must be disjoint lists of distinct field elements;
    every square submatrix of a Cauchy matrix is invertible, which is the
    MDS property Cauchy-RS builds on.
    """
    if set(xs) & set(ys):
        raise ValueError("xs and ys must be disjoint")
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise ValueError("xs and ys must each be distinct")
    out = np.zeros((len(xs), len(ys)), dtype=np.uint8)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i, j] = GF256.inv(x ^ y)
    return out
