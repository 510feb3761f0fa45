"""Gaussian-elimination erasure decoding — the universal oracle.

Any XOR array code's recovery problem is a GF(2) linear system: unknowns
are the lost cells, and each parity group contributes the equation
``XOR(lost cells in group) = XOR(surviving cells in group)``.  Solving it
with :func:`repro.gf.bitmatrix.gf2_solve` recovers every recoverable
failure pattern, including EVENODD's adjuster coupling that defeats the
chain decoder, and doubles as the correctness oracle the chain decoder is
tested against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence

import numpy as np

from repro.codes.base import Cell, CodeLayout, column_failure_cells
from repro.codec.encoder import StripeCodec
from repro.exceptions import DecodeError, InconsistentStripeError
from repro.gf.bitmatrix import (
    InconsistentSystemError, gf2_rank, gf2_solve,
)
from repro.util.xor import xor_blocks


def _system_matrix(
    layout: CodeLayout, lost: Sequence[Cell]
) -> np.ndarray:
    """Coefficient matrix: equation per group, column per lost cell."""
    index: Dict[Cell, int] = {c: i for i, c in enumerate(lost)}
    matrix = np.zeros((len(layout.groups), len(lost)), dtype=bool)
    for gi, group in enumerate(layout.groups):
        for c in group.cells:
            j = index.get(c)
            if j is not None:
                matrix[gi, j] = True
    return matrix


def can_recover(layout: CodeLayout, failed_cols: Sequence[int]) -> bool:
    """Whether the failure pattern is information-theoretically recoverable.

    This is the MDS test the suite runs exhaustively: for a true RAID-6 MDS
    code it must hold for every pair of columns.
    """
    lost = sorted(column_failure_cells(layout, failed_cols))
    if not lost:
        return True
    matrix = _system_matrix(layout, lost)
    return gf2_rank(matrix) == len(lost)


def can_recover_cells(layout: CodeLayout, lost: Sequence[Cell]) -> bool:
    """Recoverability of an arbitrary lost-cell set (latent sector errors)."""
    cells = sorted(set(lost))
    if not cells:
        return True
    return gf2_rank(_system_matrix(layout, cells)) == len(cells)


class GaussianDecoder:
    """Decode lost cells by solving the stripe's XOR system directly."""

    def __init__(self, codec: StripeCodec) -> None:
        self.codec = codec
        self.layout = codec.layout

    def decode_columns(
        self, stripe: np.ndarray, failed_cols: Sequence[int]
    ) -> List[Cell]:
        """Rebuild all cells of the failed disks in place; returns them."""
        lost = sorted(column_failure_cells(self.layout, failed_cols))
        self.decode_cells(stripe, lost)
        return lost

    def decode_cells(self, stripe: np.ndarray, lost: Sequence[Cell]) -> None:
        """Rebuild an arbitrary lost-cell set in place."""
        cells = sorted(set(lost))
        if not cells:
            return
        lost_set: FrozenSet[Cell] = frozenset(cells)
        matrix = _system_matrix(self.layout, cells)
        rhs: List[np.ndarray] = []
        for group in self.layout.groups:
            known = [
                stripe[c.row, c.col] for c in group.cells if c not in lost_set
            ]
            if known:
                rhs.append(xor_blocks(known))
            else:
                rhs.append(
                    np.zeros(self.codec.element_size, dtype=np.uint8)
                )
        try:
            solution = gf2_solve(matrix, rhs)
        except InconsistentSystemError as exc:
            raise InconsistentStripeError(str(exc)) from exc
        if solution is None:
            raise DecodeError(
                f"failure pattern unrecoverable for {self.layout.name}: "
                f"{len(cells)} lost cells, rank-deficient system",
                unrecovered=cells,
            )
        for cell, buf in zip(cells, solution):
            stripe[cell.row, cell.col] = buf
