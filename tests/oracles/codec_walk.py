"""The codec's reference walks: what the compiled plans are held to.

Before the compiled gather-XOR plans (:mod:`repro.codec.plan`), the
codec walked parity groups and recovery steps in Python, one
``xor_blocks`` call per equation.  :class:`CodecWalk` keeps those walks
over one :class:`~repro.codec.encoder.StripeCodec` — encode in
dependency order, chain recovery step by step, and the single-element
update pushing ``old ^ new`` through the groups — for the equivalence
tests, the batched-codec benchmarks and ``scripts/bench_trajectory.py``.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.codec.decoder import ChainDecoder, RecoveryStep
from repro.codec.encoder import StripeCodec
from repro.codec.plan import toposort_groups
from repro.codes.base import Cell
from repro.exceptions import GeometryError
from repro.util.xor import xor_blocks, xor_into


class CodecWalk:
    """The per-equation Python walks of one codec."""

    def __init__(self, codec: StripeCodec) -> None:
        self.codec = codec
        self.layout = codec.layout
        self._encode_order = toposort_groups(codec.layout)
        self._decoder = ChainDecoder(codec)

    def encode(self, stripe: np.ndarray) -> np.ndarray:
        """Fill every parity cell from the data cells, group by group in
        dependency order, in place."""
        for group in self._encode_order:
            blocks = [stripe[m.row, m.col] for m in group.members]
            xor_blocks(blocks, out=stripe[group.parity.row, group.parity.col])
        return stripe

    def decode_columns(
        self, stripe: np.ndarray, failed_cols: Sequence[int]
    ) -> List[RecoveryStep]:
        """Rebuild every cell of the failed disks in place, step by step
        of the chain-recovery schedule; returns the schedule."""
        plan = self._decoder.plan_for_columns(failed_cols)
        for step in plan:
            blocks = [stripe[c.row, c.col] for c in step.reads]
            xor_blocks(blocks, out=stripe[step.cell.row, step.cell.col])
        return plan

    def apply_update(
        self, stripe: np.ndarray, cell: Cell, new_value: np.ndarray
    ) -> Tuple[Cell, ...]:
        """Overwrite ``cell`` and push its delta through the groups in
        encode order, in place; the parity cells modified, in canonical
        order."""
        if not self.layout.is_data(cell):
            raise GeometryError(f"{cell} is not a data cell")
        delta = np.bitwise_xor(stripe[cell.row, cell.col], new_value)
        if not delta.any():
            return ()  # no-op write: nothing to patch
        stripe[cell.row, cell.col] = new_value
        deltas: Dict[Cell, np.ndarray] = {cell: delta}
        touched = []
        for group in self._encode_order:
            gdelta = None
            for member in group.members:
                d = deltas.get(member)
                if d is None:
                    continue
                if gdelta is None:
                    gdelta = d.copy()
                else:
                    xor_into(gdelta, d)
            if gdelta is not None and gdelta.any():
                xor_into(stripe[group.parity.row, group.parity.col], gdelta)
                deltas[group.parity] = gdelta
                touched.append(group.parity)
        return tuple(sorted(touched))
