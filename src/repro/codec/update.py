"""Single-element read-modify-write updates.

Overwriting one data element must refresh every parity that (transitively)
covers it: directly covering groups, plus — in codes whose parity groups
cover other parity cells, like RDP and HDP — the groups covering those
parities, and so on.  Deltas compose by XOR, so every parity of the
cell's write footprint changes by exactly ``old ^ new``: the update is
one XOR of the delta into the cell and those parities (the walk pushing
it through the groups in encode order is the tests' reference oracle).

:func:`update_footprint` reads which parity cells change off the write
footprint (:func:`repro.codec.plan.write_footprint`) — the layout's
*update complexity* for that cell, the metric the paper's §III-D proves
is the optimal 2 for every D-Code data element.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.codes.base import Cell, CodeLayout
from repro.codec.encoder import StripeCodec
from repro.codec.plan import flat_stripe_view, write_footprint
from repro.exceptions import GeometryError

#: Update footprints at or below this many rows XOR in place row-by-row
#: instead of through a fancy-index scatter (see apply_update).
_SMALL_FOOTPRINT = 16


def apply_update(
    codec: StripeCodec,
    stripe: np.ndarray,
    cell: Cell,
    new_value: np.ndarray,
) -> Tuple[Cell, ...]:
    """Overwrite ``cell`` with ``new_value`` and patch parity, in place.

    Returns the parity cells that were modified, in canonical order.
    Equivalent to re-encoding the stripe but touches only the RMW
    footprint, which is what a real array controller would do for a small
    write.

    It executes the cell's compiled update plan — one scatter XOR of the
    delta into the cell and its footprint parities (every touched parity
    changes by exactly ``old ^ new`` over GF(2)).
    """
    layout = codec.layout
    if not layout.is_data(cell):
        raise GeometryError(f"{cell} is not a data cell of {layout.name}")
    if new_value.shape != (codec.element_size,) or new_value.dtype != np.uint8:
        raise GeometryError(
            f"new_value must be uint8 of shape ({codec.element_size},)"
        )
    delta = np.bitwise_xor(stripe[cell.row, cell.col], new_value)
    if not delta.any():
        return ()  # no-op write: nothing to patch

    indices, touched = codec.plans.update_plan(cell)
    flat = flat_stripe_view(stripe, layout.rows * layout.cols)
    if flat is None:
        # non-viewable stripe: patch a contiguous copy
        buf = np.ascontiguousarray(stripe)
        apply_update(codec, buf, cell, new_value)
        stripe[...] = buf
        return touched
    if len(indices) <= _SMALL_FOOTPRINT:
        # typical RMW footprint (cell + 2-3 parities): in-place per-row
        # XOR beats the fancy-index scatter, which has to materialise
        # gather and XOR temporaries
        for i in indices:
            np.bitwise_xor(flat[i], delta, out=flat[i])
    else:
        flat[indices] = flat[indices] ^ delta
    return touched


def update_footprint(layout: CodeLayout, cell: Cell) -> Tuple[Cell, ...]:
    """Parity cells a write to ``cell`` modifies, in canonical order.

    ``len(update_footprint(layout, cell))`` is the update complexity of the
    cell; an update-optimal RAID-6 code yields exactly 2 everywhere.
    """
    return write_footprint(layout, (cell,)).parities


def average_update_complexity(layout: CodeLayout) -> float:
    """Mean number of parity cells updated per data-cell write."""
    total = sum(len(update_footprint(layout, c)) for c in layout.data_cells)
    return total / layout.num_data_cells
