"""Blaum–Roth RAID-6 (Blaum & Roth, 1999) — ring-based bitmatrix code.

The paper's related work lists Blaum–Roth among the lowest-density MDS
codes.  The construction works over the polynomial ring
``R = GF(2)[x] / M_p(x)`` with ``M_p(x) = 1 + x + … + x^{p-1}`` (``p``
prime): each element is a ``w = p-1``-bit ring symbol, P is the plain sum
and ``Q = Σ x^i · d_i``.  Multiplication by ``x^i`` is a GF(2) linear map,
so the code drops straight into :class:`~repro.codes.linear.
BitmatrixRAID6`: ``X_i = B^i`` where ``B`` is the multiplication-by-``x``
matrix (a down-shift whose overflow folds ``x^w = 1 + x + … + x^{w-1}``
back in).  MDS holds because ``x^a + x^b`` is invertible in ``R`` for
``a ≠ b`` — verified exhaustively for p ∈ {5, 7, 11, 13} in the tests.

Note on density: in this plain power basis the Q matrices are denser than
Liberation's (the Blaum–Roth optimality statement is about a different
normal form); the test-suite pins the measured densities rather than the
theoretical minimum.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.codes.linear import BitmatrixRAID6
from repro.util.validation import require, require_prime


def mul_x_matrix(p: int) -> np.ndarray:
    """Multiplication by ``x`` in ``GF(2)[x]/M_p(x)`` as a bit-matrix."""
    require_prime(p, "p", minimum=5)
    w = p - 1
    matrix = np.zeros((w, w), dtype=bool)
    for j in range(w - 1):
        matrix[j + 1, j] = True
    # x * x^{w-1} = x^w ≡ 1 + x + … + x^{w-1}  (mod M_p)
    matrix[:, w - 1] = True
    return matrix


def blaum_roth_matrices(p: int, k: Optional[int] = None) -> List[np.ndarray]:
    """The Q bit-matrices ``X_i = B^i`` for ``k`` data disks."""
    require_prime(p, "p", minimum=5)
    w = p - 1
    k = w if k is None else k
    require(2 <= k <= w, f"k must be in [2, {w}], got {k}")
    base = mul_x_matrix(p).astype(np.uint8)
    matrices = [np.eye(w, dtype=bool)]
    current = np.eye(w, dtype=np.uint8)
    for _ in range(1, k):
        current = (current @ base) % 2
        matrices.append(current.astype(bool))
    return matrices


class BlaumRothCode(BitmatrixRAID6):
    """Blaum–Roth RAID-6 codec: ``k`` data disks + P + Q, ``w = p - 1``."""

    def __init__(
        self, p: int, k: Optional[int] = None, element_size: int = 4096
    ) -> None:
        super().__init__(blaum_roth_matrices(p, k), element_size)
        self.p = p
