"""Logical-address translation for striped volumes.

A volume of ``num_stripes`` stripes exposes
``num_stripes * layout.num_data_cells`` logical elements.  Logical element
``k`` lives in stripe ``k // per_stripe`` at the layout's data cell
``k % per_stripe`` (the paper's row-major "continuous" order).  A cell of
stripe ``s`` maps to physical ``(disk, offset)`` with
``offset = s * layout.rows + cell.row`` and ``disk = cell.col``, optionally
rotated by one column per stripe (RAID-5-style global balancing, kept for
the rotation ablation — the paper's §I argues it cannot balance accesses
within a stripe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.codes.base import Cell, CodeLayout
from repro.exceptions import AddressError
from repro.util.validation import require_positive


#: Stripes sharing one stripe-local pattern: ``(first stripe, stripes,
#: first data index, length, first request row)``.
Run = Tuple[int, int, int, int, int]


@dataclass(frozen=True)
class Location:
    """Physical placement of one stripe cell."""

    stripe: int
    cell: Cell
    disk: int
    offset: int


class AddressMapper:
    """Bijective logical ↔ physical translation for one volume."""

    def __init__(
        self,
        layout: CodeLayout,
        num_stripes: int,
        rotate: bool = False,
    ) -> None:
        require_positive(num_stripes, "num_stripes")
        self.layout = layout
        self.num_stripes = num_stripes
        self.rotate = rotate

    @property
    def num_elements(self) -> int:
        """Addressable logical data elements."""
        return self.num_stripes * self.layout.num_data_cells

    @property
    def disk_capacity(self) -> int:
        """Elements each disk must hold."""
        return self.num_stripes * self.layout.rows

    # -- logical -> physical ---------------------------------------------------

    def locate(self, logical: int) -> Location:
        """Placement of logical data element ``logical``."""
        if not 0 <= logical < self.num_elements:
            raise AddressError(
                f"logical element {logical} outside volume of "
                f"{self.num_elements} elements"
            )
        per = self.layout.num_data_cells
        stripe = logical // per
        cell = self.layout.data_cell(logical % per)
        return self.locate_cell(stripe, cell)

    def split(self, start: int, count: int) -> List[Run]:
        """Cut logical ``[start, start + count)`` into runs of one pattern.

        At most three: a partial head stripe, the whole stripes in
        between (which all share the pattern ``(0, per)``), a partial
        tail stripe.  Pure arithmetic — no per-element work, and the
        caller has validated the range.
        """
        per = self.layout.num_data_cells
        stripe, j0 = divmod(start, per)
        runs: List[Run] = []
        k = 0
        if j0:
            k = min(per - j0, count)
            runs.append((stripe, 1, j0, k, 0))
            stripe += 1
        whole = (count - k) // per
        if whole:
            runs.append((stripe, whole, 0, per, k))
            stripe += whole
            k += whole * per
        if k < count:
            runs.append((stripe, 1, 0, count - k, k))
        return runs

    def locate_cell(self, stripe: int, cell: Cell) -> Location:
        """Placement of any cell (data or parity) of a stripe."""
        if not 0 <= stripe < self.num_stripes:
            raise AddressError(
                f"stripe {stripe} outside volume of {self.num_stripes}"
            )
        disk = self.disk_of(stripe, cell.col)
        offset = stripe * self.layout.rows + cell.row
        return Location(stripe=stripe, cell=cell, disk=disk, offset=offset)

    def disk_of(self, stripe: int, col: int) -> int:
        """Physical disk holding layout column ``col`` of ``stripe``."""
        if self.rotate:
            return (col + stripe) % self.layout.cols
        return col

    def col_on_disk(self, stripe: int, disk: int) -> int:
        """Inverse of :meth:`disk_of`: which column ``disk`` holds."""
        if self.rotate:
            return (disk - stripe) % self.layout.cols
        return disk

    # -- physical -> logical ---------------------------------------------------

    def logical_of(self, stripe: int, cell: Cell) -> int:
        """Logical index of a data cell (raises for parity cells)."""
        return stripe * self.layout.num_data_cells + self.layout.data_index(cell)
