"""Stripe encoding over numpy buffers.

A stripe buffer is a ``(rows, cols, element_size)`` uint8 array — one
contiguous element per matrix position.  Unused positions (codes whose
geometry does not fill the whole rectangle, e.g. H-Code leaves none, but the
framework does not assume that) simply stay zero and are never read.

Encoding is the layout's parity equations evaluated with the vectorised XOR
engine.  Groups that cover other *parity* cells (RDP's diagonals cross the
row-parity column; HDP's horizontal-diagonal parities cover the
anti-diagonal parity in their row) are handled by evaluating groups in
dependency order, computed once at construction.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.codec.plan import CompiledPlans, compiled_plans, flat_stripe_view
from repro.codes.base import Cell, CodeLayout, ParityGroup
from repro.exceptions import GeometryError, InconsistentStripeError
from repro.util.validation import require_positive
from repro.util.xor import xor_blocks


class StripeCodec:
    """Encode/verify/erase stripes of a given layout at a given element size.

    Encoding runs a compiled gather-XOR plan (:mod:`repro.codec.plan`).
    """

    def __init__(self, layout: CodeLayout, element_size: int = 4096) -> None:
        require_positive(element_size, "element_size")
        self.layout = layout
        self.element_size = element_size
        self._plans = compiled_plans(layout, element_size)

    @property
    def plans(self) -> CompiledPlans:
        """The compiled plans shared by this ``(layout, element_size)``."""
        return self._plans

    # -- buffers -------------------------------------------------------------

    def blank_stripe(self) -> np.ndarray:
        """A zeroed ``(rows, cols, element_size)`` stripe buffer."""
        return np.zeros(
            (self.layout.rows, self.layout.cols, self.element_size),
            dtype=np.uint8,
        )

    def random_stripe(self, rng: np.random.Generator) -> np.ndarray:
        """A stripe with random data cells and freshly encoded parity."""
        stripe = self.blank_stripe()
        for cell in self.layout.data_cells:
            stripe[cell.row, cell.col] = rng.integers(
                0, 256, self.element_size, dtype=np.uint8
            )
        self.encode(stripe)
        return stripe

    def stripe_from_data(self, data: np.ndarray) -> np.ndarray:
        """Build an encoded stripe from a flat ``(num_data_cells, es)`` array."""
        expected = (self.layout.num_data_cells, self.element_size)
        if data.shape != expected or data.dtype != np.uint8:
            raise GeometryError(
                f"data must be uint8 with shape {expected}, got "
                f"{data.dtype} {data.shape}"
            )
        stripe = self.blank_stripe()
        for k, cell in enumerate(self.layout.data_cells):
            stripe[cell.row, cell.col] = data[k]
        self.encode(stripe)
        return stripe

    def data_view(self, stripe: np.ndarray) -> np.ndarray:
        """Flat ``(num_data_cells, es)`` copy of the stripe's data cells."""
        out = np.empty(
            (self.layout.num_data_cells, self.element_size), dtype=np.uint8
        )
        for k, cell in enumerate(self.layout.data_cells):
            out[k] = stripe[cell.row, cell.col]
        return out

    def element(self, stripe: np.ndarray, cell: Cell) -> np.ndarray:
        """View of one element buffer."""
        return stripe[cell.row, cell.col]

    # -- encode / verify -------------------------------------------------------

    def encode(self, stripe: np.ndarray) -> np.ndarray:
        """Fill every parity cell from the data cells, in place."""
        self._check_shape(stripe)
        flat = flat_stripe_view(stripe, self._plans.encode.num_cells)
        if flat is None:
            buf = np.ascontiguousarray(stripe)
            self._plans.encode.execute(
                buf.reshape(self._plans.encode.num_cells, self.element_size)
            )
            stripe[...] = buf
        else:
            self._plans.encode.execute(flat)
        return stripe

    def parity_ok(self, stripe: np.ndarray) -> bool:
        """Whether every parity equation holds."""
        return not self.broken_groups(stripe)

    def broken_groups(self, stripe: np.ndarray) -> List[ParityGroup]:
        """Groups whose equation does not hold (for scrubbing/tests)."""
        self._check_shape(stripe)
        broken = []
        for group in self.layout.groups:
            acc = xor_blocks([stripe[c.row, c.col] for c in group.cells])
            if acc.any():
                broken.append(group)
        return broken

    def verify(self, stripe: np.ndarray) -> None:
        """Raise :class:`InconsistentStripeError` unless all parity holds."""
        broken = self.broken_groups(stripe)
        if broken:
            cells = ", ".join(str(g.parity) for g in broken[:5])
            raise InconsistentStripeError(
                f"{len(broken)} parity group(s) inconsistent "
                f"(first: {cells})"
            )

    # -- erasure ---------------------------------------------------------------

    def erase_columns(
        self, stripe: np.ndarray, cols: Iterable[int]
    ) -> Tuple[Cell, ...]:
        """Zero every cell on the given disks; returns the lost cells.

        Zeroing mimics a replaced blank disk; decoding never reads lost
        cells so the fill value is irrelevant, but a deterministic value
        makes failed recoveries loudly visible in tests.
        """
        self._check_shape(stripe)
        lost: List[Cell] = []
        for col in cols:
            for cell in self.layout.cells_in_column(col):
                stripe[cell.row, cell.col] = 0
                lost.append(cell)
        return tuple(lost)

    # -- internals ---------------------------------------------------------------

    def _check_shape(self, stripe: np.ndarray) -> None:
        expected = (self.layout.rows, self.layout.cols, self.element_size)
        if stripe.shape != expected or stripe.dtype != np.uint8:
            raise GeometryError(
                f"stripe must be uint8 with shape {expected}, got "
                f"{stripe.dtype} {stripe.shape}"
            )

    def __repr__(self) -> str:
        return (
            f"<StripeCodec {self.layout.name} p={self.layout.p} "
            f"element_size={self.element_size}>"
        )
