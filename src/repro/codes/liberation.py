"""Liberation codes (Plank, FAST 2008) — the paper's reference [8].

A minimum-density bitmatrix RAID-6 code over ``w = p`` packets (``p``
prime): data disk ``i``'s Q matrix is the cyclic shift ``σ^i`` plus — for
``i > 0`` — exactly one extra bit at

.. math::

    \\bigl(\\;\\langle i\\,(w+1)/2\\rangle_w,\\;
            \\langle i\\,(w-1)/2 + 1\\rangle_w\\;\\bigr)

which puts the total Q density at the provable minimum ``kw + k - 1``
ones.  The construction (including the extra-bit positions) was
re-derived here by exhaustive affine search followed by exhaustive MDS
verification at w ∈ {5, 7, 11, 13}; the test-suite repeats the
verification.

Liberation codes matter to the D-Code comparison as the best-known
*bitmatrix* alternative: their near-minimal density gives RDP-class update
cost while remaining a horizontal (two-parity-disk) layout, so they share
RDP's unbalanced-I/O behaviour — which is exactly the axis D-Code attacks.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.codes.linear import BitmatrixRAID6
from repro.util.validation import require, require_prime


def shift_matrix(w: int, s: int) -> np.ndarray:
    """The cyclic-shift permutation matrix ``σ^s`` (ones at (j+s, j))."""
    m = np.zeros((w, w), dtype=bool)
    for j in range(w):
        m[(j + s) % w, j] = True
    return m


def liberation_matrices(w: int, k: int = None) -> List[np.ndarray]:
    """The Liberation Q matrices for ``k`` data disks over ``w`` packets."""
    require_prime(w, "w", minimum=5)
    k = w if k is None else k
    require(2 <= k <= w, f"k must be in [2, {w}], got {k}")
    matrices: List[np.ndarray] = []
    for i in range(k):
        m = shift_matrix(w, i)
        if i > 0:
            r = (i * (w + 1) // 2) % w
            c = (i * (w - 1) // 2 + 1) % w
            assert not m[r, c], "extra bit collides with the shift diagonal"
            m[r, c] = True
        matrices.append(m)
    return matrices


def minimum_density(w: int, k: int) -> int:
    """The provable lower bound on Q ones for an MDS bitmatrix code."""
    return k * w + k - 1


class LiberationCode(BitmatrixRAID6):
    """Liberation RAID-6 codec: ``k`` data disks + P + Q, ``w`` prime."""

    def __init__(self, w: int, k: int = None, element_size: int = 4096) -> None:
        super().__init__(liberation_matrices(w, k), element_size)

    def achieves_minimum_density(self) -> bool:
        """Whether this instance meets the ``kw + k - 1`` bound (it does
        at full length ``k = w``; shortened instances drop below the
        full-length bound proportionally)."""
        return self.density() == minimum_density(self.w, self.k)
