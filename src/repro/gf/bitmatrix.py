"""GF(2) bit-matrices and Gaussian elimination.

Two consumers:

* the **generic erasure-decoding oracle** (:mod:`repro.codec.gauss`), which
  reduces "recover these lost cells from these XOR equations" to solving a
  GF(2) linear system whose right-hand sides are whole element buffers; and
* the **Cauchy Reed–Solomon** construction, which expands a GF(2^w) matrix
  into a ``w``-times-larger bit-matrix so encoding becomes pure XOR
  (Jerasure's trick).

Rows are stored as numpy ``bool`` arrays; elimination swaps/xors whole rows
vectorised.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.gf.gf256 import GF256


class BitMatrix:
    """A dense matrix over GF(2) backed by a numpy bool array."""

    def __init__(self, array: np.ndarray) -> None:
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise ValueError(f"BitMatrix needs a 2-D array, got ndim={arr.ndim}")
        self.a = arr.astype(bool)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(np.zeros((rows, cols), dtype=bool))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(np.eye(n, dtype=bool))

    @property
    def shape(self) -> Tuple[int, int]:
        return self.a.shape

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.a.copy())

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        prod = (self.a.astype(np.uint8) @ other.a.astype(np.uint8)) % 2
        return BitMatrix(prod.astype(bool))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BitMatrix) and np.array_equal(self.a, other.a)

    def __hash__(self):  # mutable contents: unhashable, like numpy arrays
        raise TypeError("BitMatrix is unhashable")

    def rank(self) -> int:
        return gf2_rank(self.a)


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank of a GF(2) matrix (bool or 0/1 int array)."""
    work = np.asarray(matrix, dtype=bool).copy()
    rows, cols = work.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if work[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            work[[rank, pivot]] = work[[pivot, rank]]
        below = work[rank + 1:, col]
        if below.any():
            work[rank + 1:][below] ^= work[rank]
        rank += 1
        if rank == rows:
            break
    return rank


class InconsistentSystemError(ValueError):
    """An over-determined GF(2) system whose equations contradict."""


def gf2_solve(
    matrix: np.ndarray,
    rhs: Sequence[np.ndarray],
) -> Optional[List[np.ndarray]]:
    """Solve ``matrix @ x = rhs`` over GF(2) with buffer-valued unknowns.

    ``matrix`` is ``(num_equations, num_unknowns)`` over GF(2); ``rhs`` is
    one uint8 buffer per equation (all the same length) and XOR plays the
    role of addition on the right-hand side.  Returns one buffer per unknown
    when the system has a unique solution, ``None`` when it is rank
    deficient.  Inconsistent over-determined systems raise
    :class:`InconsistentSystemError`, a :class:`ValueError` — with
    erasure syndromes that means corrupted parity, which callers must not
    silently accept.
    """
    work = np.asarray(matrix, dtype=bool).copy()
    rows, cols = work.shape
    if len(rhs) != rows:
        raise ValueError(f"need {rows} right-hand sides, got {len(rhs)}")
    buffers = [np.array(b, dtype=np.uint8, copy=True) for b in rhs]

    pivot_of_col: List[Optional[int]] = [None] * cols
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if work[r, col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[[rank, pivot]] = work[[pivot, rank]]
            buffers[rank], buffers[pivot] = buffers[pivot], buffers[rank]
        for r in range(rows):
            if r != rank and work[r, col]:
                work[r] ^= work[rank]
                np.bitwise_xor(buffers[r], buffers[rank], out=buffers[r])
        pivot_of_col[col] = rank
        rank += 1
        if rank == rows:
            break

    if rank < cols:
        return None
    # consistency: any remaining all-zero coefficient row must have zero rhs
    for r in range(rows):
        if not work[r].any() and buffers[r].any():
            raise InconsistentSystemError(
                "inconsistent XOR system: parity does not match data "
                "(corrupted stripe?)"
            )
    solution: List[np.ndarray] = []
    for col in range(cols):
        solution.append(buffers[pivot_of_col[col]])
    return solution


def gf256_to_bitmatrix(matrix: np.ndarray, w: int = 8) -> BitMatrix:
    """Expand a GF(2^8) matrix into its ``(w*rows) x (w*cols)`` bit-matrix.

    Each field element ``e`` becomes the ``w x w`` bit-matrix of the linear
    map ``x -> e * x`` on bit-vectors: column ``k`` of the block is the bit
    pattern of ``e * 2^k``.  Multiplying data bit-vectors by the expanded
    matrix is then plain XOR — the Cauchy-RS/Jerasure encoding strategy.
    """
    if w != 8:
        raise ValueError("only w=8 (GF(256)) is supported")
    rows, cols = matrix.shape
    out = np.zeros((rows * w, cols * w), dtype=bool)
    for i in range(rows):
        for j in range(cols):
            e = int(matrix[i, j])
            for k in range(w):
                val = GF256.mul(e, 1 << k)
                for bit in range(w):
                    out[i * w + bit, j * w + k] = bool((val >> bit) & 1)
    return BitMatrix(out)
