"""Iterative chain decoding.

Array codes recover double failures by repeatedly finding a parity equation
with exactly one unknown cell, solving it, and letting that recovery unlock
the next equation — the zig-zag chains the paper walks in §III-C (e.g. for
D-Code failures {2, 3}: ``D1,3 → D2,2 → D2,3 → D3,2 → D3,3 → P6,2`` starting
from parity ``P5,1``).  This module implements that decoder generically over
any :class:`~repro.codes.base.CodeLayout` and records the *schedule* — the
ordered list of (cell, equation) steps — which the recovery analyses and
examples replay.

EVENODD's adjuster-coupled diagonals are not single-unknown solvable this
way; layouts flag themselves ``chain_decodable`` and the volume layer routes
non-chain codes to the Gaussian decoder instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.codes.base import Cell, CodeLayout, ParityGroup, column_failure_cells
from repro.codec.encoder import StripeCodec
from repro.codec.plan import flat_stripe_view
from repro.exceptions import DecodeError, FaultToleranceExceeded


@dataclass(frozen=True)
class RecoveryStep:
    """One chain step: ``cell`` is recovered from ``group``'s equation.

    ``reads`` lists the cells XOR-ed to rebuild ``cell`` — the other
    ``len(group.cells) - 1`` cells of the equation.  At the time the step
    runs every read cell is available (original or already recovered).
    """

    cell: Cell
    group: ParityGroup

    @property
    def reads(self) -> Tuple[Cell, ...]:
        return tuple(c for c in self.group.cells if c != self.cell)


def plan_chain_recovery(
    layout: CodeLayout, lost: FrozenSet[Cell]
) -> Optional[List[RecoveryStep]]:
    """Compute a chain-recovery schedule for the lost cells, or ``None``.

    Pure structural planning — no data touched.  Returns ``None`` when the
    chain decoder gets stuck with cells still missing (either the code is
    not chain decodable for this failure, or fault tolerance is exceeded).
    The schedule greedily prefers equations with the fewest members, which
    keeps read counts low without affecting completeness: once an equation
    has a single unknown it stays solvable, so greedy order never paints
    the decoder into a corner.
    """
    missing: Set[Cell] = set(lost)
    if not missing:
        return []
    # groups indexed by the unknowns they currently contain
    unknowns: Dict[int, Set[Cell]] = {}
    groups_of: Dict[Cell, List[int]] = {}
    for gi, group in enumerate(layout.groups):
        unk = {c for c in group.cells if c in missing}
        if unk:
            unknowns[gi] = unk
            for c in unk:
                groups_of.setdefault(c, []).append(gi)

    schedule: List[RecoveryStep] = []
    ready = [gi for gi, unk in unknowns.items() if len(unk) == 1]
    while ready:
        # pick the smallest equation among the currently solvable ones
        ready.sort(key=lambda gi: len(layout.groups[gi].cells))
        gi = ready.pop(0)
        unk = unknowns.get(gi)
        if not unk or len(unk) != 1:
            continue  # stale entry — already solved through another group
        (cell,) = unk
        schedule.append(RecoveryStep(cell, layout.groups[gi]))
        missing.discard(cell)
        for other in groups_of.get(cell, ()):
            uo = unknowns.get(other)
            if uo and cell in uo:
                uo.discard(cell)
                if len(uo) == 1:
                    ready.append(other)
    if missing:
        return None
    return schedule


def plan_slice(
    plan: Sequence[RecoveryStep], wanted: Sequence[Cell]
) -> Tuple[List[RecoveryStep], FrozenSet[Cell]]:
    """The part of a recovery plan needed to rebuild only ``wanted`` cells.

    Returns the required steps (in plan order) and the *disk reads* they
    imply: inputs that are themselves rebuilt by an earlier step cost
    their own inputs instead of a disk access.  This is how a degraded
    read under a double failure prices partial reconstruction — the
    full-plan cost would overcharge reads that only rebuild unwanted
    cells.
    """
    step_of: Dict[Cell, RecoveryStep] = {s.cell: s for s in plan}
    needed: Set[Cell] = set()
    disk_reads: Set[Cell] = set()

    def visit(cell: Cell) -> None:
        if cell in needed:
            return
        step = step_of.get(cell)
        if step is None:
            disk_reads.add(cell)
            return
        needed.add(cell)
        for read in step.reads:
            visit(read)

    for cell in wanted:
        if cell not in step_of:
            raise DecodeError(
                f"cell {cell} is not rebuilt by this plan",
                unrecovered=[cell],
            )
        visit(cell)
    ordered = [s for s in plan if s.cell in needed]
    return ordered, frozenset(disk_reads)


def can_chain_recover(layout: CodeLayout, failed_cols: Sequence[int]) -> bool:
    """Whether the chain decoder recovers from these whole-disk failures."""
    lost = column_failure_cells(layout, failed_cols)
    return plan_chain_recovery(layout, lost) is not None


class ChainDecoder:
    """Execute chain-recovery schedules against stripe buffers.

    Schedules run as compiled gather-XOR plans (memoised per schedule
    through the codec's :class:`~repro.codec.plan.CompiledPlans`).
    """

    def __init__(self, codec: StripeCodec) -> None:
        self.codec = codec
        self.layout = codec.layout

    def plan_for_columns(self, failed_cols: Sequence[int]) -> List[RecoveryStep]:
        """Schedule for whole-disk failures (cached per column set).

        Delegates to the codec's shared
        :meth:`~repro.codec.plan.CompiledPlans.recovery_schedule` cache,
        so every decoder over the same codec (and the batched decode
        path) reuses one planning run per failure pattern.
        """
        key = tuple(sorted(set(failed_cols)))
        if len(key) > 2:
            raise FaultToleranceExceeded(
                f"{self.layout.name} is RAID-6: at most 2 failed disks, "
                f"got {len(key)}",
                unrecovered=column_failure_cells(self.layout, key),
            )
        plan = self.codec.plans.recovery_schedule(key)
        if plan is None:
            raise DecodeError(
                f"chain decoding stuck for {self.layout.name} with "
                f"failed disks {key}",
                unrecovered=column_failure_cells(self.layout, key),
            )
        return plan

    def decode_columns(
        self, stripe: np.ndarray, failed_cols: Sequence[int]
    ) -> List[RecoveryStep]:
        """Rebuild all cells of the failed disks in place; returns the plan."""
        plan = self.plan_for_columns(failed_cols)
        self._execute(stripe, plan)
        return plan

    def decode_cells(
        self, stripe: np.ndarray, lost: Sequence[Cell]
    ) -> List[RecoveryStep]:
        """Rebuild an arbitrary set of lost cells in place.

        Used for partial-disk damage (latent sector errors) rather than
        whole-disk failure.
        """
        plan = plan_chain_recovery(self.layout, frozenset(lost))
        if plan is None:
            raise DecodeError(
                f"chain decoding stuck for {self.layout.name} with "
                f"{len(lost)} lost cells",
                unrecovered=lost,
            )
        self._execute(stripe, plan)
        return plan

    def _execute(self, stripe: np.ndarray, plan: List[RecoveryStep]) -> None:
        if not plan:
            return
        xplan = self.codec.plans.schedule_plan(plan)
        flat = flat_stripe_view(stripe, xplan.num_cells)
        if flat is None:
            buf = np.ascontiguousarray(stripe)
            xplan.execute(buf.reshape(xplan.num_cells, -1))
            stripe[...] = buf
        else:
            xplan.execute(flat)

    def reads_per_disk(self, plan: List[RecoveryStep]) -> Dict[int, int]:
        """How many element reads each surviving disk serves for a plan.

        A cell read more than once is fetched once and cached (the paper's
        recovery I/O accounting); recovered cells are in memory and free.
        """
        recovered: Set[Cell] = set()
        fetched: Set[Cell] = set()
        for step in plan:
            for c in step.reads:
                if c not in recovered:
                    fetched.add(c)
            recovered.add(step.cell)
        counts: Dict[int, int] = {}
        for c in fetched:
            counts[c.col] = counts.get(c.col, 0) + 1
        return counts
