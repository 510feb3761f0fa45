"""Mapping workload operations to per-disk element accesses.

This is the simulator behind the paper's Figures 4 and 5.  For every
operation it computes exactly which elements each disk must read or write:

* **normal read** — the addressed data cells, one access each (parity disks
  serve nothing, which is what starves RDP's and H-Code's parity disks and
  blows up their load-balancing factor);
* **degraded read** — surviving addressed cells plus, for each lost cell,
  the cheapest recovery set: among the parity groups covering the cell,
  pick the one whose members are not themselves failed and that adds the
  fewest elements beyond what the operation already fetched.  Contiguous
  reads in D-Code overlap their horizontal groups heavily, which is the
  mechanism behind the paper's degraded-read win over X-Code;
* **partial-stripe write** — read-modify-write: read the old data cells and
  every (transitively) affected parity cell, then write them all back.
  Parity groups that cover other parity cells (RDP, HDP) cascade.  A write
  covering a whole stripe skips the old-value reads and writes the full
  stripe (reconstruct-write);
* **degraded write** — the same, leaving the failed disks alone: their
  cells are neither read nor written, and a dirty cell on one adds the
  fetch set of its degraded read (the old value is rebuilt, so that the
  surviving parities can carry the new one).

Counts are multiplied by the operation's repeat factor ``T`` instead of
looping, so 2000-op workloads with ``T`` up to 1000 evaluate in
milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.codes.base import Cell, CodeLayout
from repro.codec.decoder import RecoveryStep, plan_chain_recovery, plan_slice
from repro.codec.plan import write_footprint
from repro.iosim.request import Operation
from repro.iosim.workloads import Workload
from repro.util.validation import require, require_positive


@dataclass
class DiskLoads:
    """Per-disk access tallies accumulated over a workload."""

    reads: np.ndarray
    writes: np.ndarray

    @classmethod
    def zeros(cls, num_disks: int) -> "DiskLoads":
        return cls(np.zeros(num_disks, dtype=np.int64),
                   np.zeros(num_disks, dtype=np.int64))

    @property
    def total(self) -> np.ndarray:
        """Total accesses per disk (reads + writes) — the paper's ``L(i)``."""
        return self.reads + self.writes

    @property
    def cost(self) -> int:
        """Total I/O accesses over all disks — the paper's ``Cost``."""
        return int(self.total.sum())

    def __iadd__(self, other: "DiskLoads") -> "DiskLoads":
        self.reads += other.reads
        self.writes += other.writes
        return self


@dataclass(frozen=True)
class StripeReadPlan:
    """Executable read plan for one stripe of a (possibly degraded) read.

    ``fetch`` — cells to read from disk.  ``recipe`` — ordered XOR steps
    rebuilding lost cells from fetched/previously-rebuilt cells; ``None``
    means the loss pattern needs algebraic decoding over the fetched set
    (the EVENODD fallback).  ``lost`` — the wanted cells that need
    rebuilding (empty for healthy stripes).
    """

    stripe: int
    fetch: "frozenset[Cell]"
    recipe: Optional[Tuple[RecoveryStep, ...]]
    lost: Tuple[Cell, ...]

    @property
    def needs_decode(self) -> bool:
        return bool(self.lost)


class AccessEngine:
    """Counts the element accesses a layout incurs for each operation.

    ``num_stripes`` sizes the logical address space
    (``num_stripes * layout.num_data_cells`` elements); operations wrap
    modulo that space.  ``failed_disk`` switches reads to degraded mode.
    ``rotate`` shifts the logical-to-physical column mapping by one per
    stripe (classic RAID-5-style parity rotation), kept as an ablation —
    the paper's §I notes rotation cannot fix intra-stripe imbalance.
    """

    #: Partial-stripe write policies: read-modify-write (patch the touched
    #: parities), reconstruct-write (read the *untouched* data instead and
    #: re-encode), or adaptive (whichever costs fewer accesses, the choice
    #: a real controller makes per request).
    WRITE_POLICIES = ("rmw", "reconstruct", "adaptive")

    def __init__(
        self,
        layout: CodeLayout,
        num_stripes: int = 64,
        failed_disk: Optional[int] = None,
        rotate: bool = False,
        write_policy: str = "rmw",
        failed_disks: Sequence[int] = (),
    ) -> None:
        require_positive(num_stripes, "num_stripes")
        failures = set(failed_disks)
        if failed_disk is not None:
            failures.add(failed_disk)
        for disk in failures:
            require(0 <= disk < layout.cols,
                    f"failed disk must be in [0, {layout.cols}), "
                    f"got {disk}")
        require(len(failures) <= 2,
                f"RAID-6 degraded mode supports at most 2 failed disks, "
                f"got {len(failures)}")
        require(write_policy in self.WRITE_POLICIES,
                f"write_policy must be one of {self.WRITE_POLICIES}, "
                f"got {write_policy!r}")
        self.layout = layout
        self.num_stripes = num_stripes
        self.failed_disks: Tuple[int, ...] = tuple(sorted(failures))
        self.failed_disk = (
            self.failed_disks[0] if len(self.failed_disks) == 1 else None
        )
        self.rotate = rotate
        self.write_policy = write_policy
        #: family order for deterministic tie-breaks in recovery selection
        self._family_rank = {f: i for i, f in enumerate(layout.families())}
        #: cached double-failure chain plans, keyed by layout column pair
        self._double_plans: Dict[Tuple[int, int], object] = {}
        # -- vectorised-accounting caches (docs/performance.md) -----------
        # Plans and per-column access counts depend only on the failure
        # pattern and the wanted cells — never on the stripe id itself —
        # so they compute once per distinct request shape and replay as
        # O(cols) numpy adds per stripe.
        self._plan_cache: Dict[object, "StripeReadPlan"] = {}
        self._fetch_count_cache: Dict[object, np.ndarray] = {}
        self._write_count_cache: Dict[
            object, Tuple[np.ndarray, np.ndarray]
        ] = {}
        self._data_cells_list = list(layout.data_cells)
        self._data_set = frozenset(layout.data_cells)

    @cached_property
    def _data_col_prefix(self) -> np.ndarray:
        """Per-column data-cell counts of logical prefix ``data_cells[:j]``
        (row ``j``), used to price healthy reads without touching cells;
        built on first use, which a volume's engines never make."""
        layout = self.layout
        per = layout.num_data_cells
        onehot = np.zeros((per, layout.cols), dtype=np.int64)
        onehot[np.arange(per), [c.col for c in layout.data_cells]] = 1
        return np.vstack(
            [np.zeros((1, layout.cols), dtype=np.int64),
             np.cumsum(onehot, axis=0)]
        )

    # -- addressing -----------------------------------------------------------

    @property
    def address_space(self) -> int:
        """Number of addressable logical data elements."""
        return self.num_stripes * self.layout.num_data_cells

    def locate(self, logical: int) -> Tuple[int, Cell]:
        """Map a logical element to ``(stripe_index, cell)`` (modulo space)."""
        logical %= self.address_space
        per = self.layout.num_data_cells
        return logical // per, self.layout.data_cell(logical % per)

    def physical_disk(self, stripe: int, col: int) -> int:
        """Physical disk holding column ``col`` of stripe ``stripe``."""
        if self.rotate:
            return (col + stripe) % self.layout.cols
        return col

    def failed_column(self, stripe: int) -> Optional[int]:
        """Layout column of ``stripe`` on the failed disk (single-failure
        helper; ``None`` when healthy or doubly degraded)."""
        if len(self.failed_disks) != 1:
            return None
        if self.rotate:
            return (self.failed_disks[0] - stripe) % self.layout.cols
        return self.failed_disks[0]

    def failed_columns(self, stripe: int) -> Tuple[int, ...]:
        """Layout columns of ``stripe`` sitting on failed disks."""
        if self.rotate:
            return tuple(
                sorted((f - stripe) % self.layout.cols
                       for f in self.failed_disks)
            )
        return self.failed_disks

    def _range_by_stripe(
        self, start: int, length: int
    ) -> List[Tuple[int, List[Cell]]]:
        """Split a logical range into per-stripe cell lists, in order.

        Segment arithmetic (stripe-at-a-time slices of the logical cell
        order) rather than a per-element walk; adjacent entries landing in
        the same stripe merge, exactly as the historical element loop did.
        """
        out: List[Tuple[int, List[Cell]]] = []
        per = self.layout.num_data_cells
        space = self.address_space
        pos = start % space
        remaining = length
        while remaining > 0:
            stripe, j = divmod(pos, per)
            take = min(per - j, remaining)
            cells = self._data_cells_list[j:j + take]
            if out and out[-1][0] == stripe:
                out[-1][1].extend(cells)
            else:
                out.append((stripe, list(cells)))
            pos = (pos + take) % space
            remaining -= take
        return out

    def _accumulate(
        self, acc: np.ndarray, counts: np.ndarray, stripe: int
    ) -> None:
        """Add per-column ``counts`` of ``stripe`` into per-disk ``acc``."""
        if self.rotate:
            acc += np.roll(counts, stripe % self.layout.cols)
        else:
            acc += counts

    # -- reads ------------------------------------------------------------------

    def read_accesses(self, start: int, length: int) -> DiskLoads:
        """Per-disk accesses of one execution of a read ``<S, L, 1>``."""
        loads = DiskLoads.zeros(self.layout.cols)
        if not self.failed_disks and not (
            # wrap-around onto a single stripe dedups fetched cells —
            # only the plan-set walk reproduces that
            self.num_stripes == 1 and length > self.layout.num_data_cells
        ):
            self._healthy_read_counts(start, length, loads.reads)
            return loads
        for stripe, wanted in self._range_by_stripe(start, length):
            self._accumulate(
                loads.reads, self._fetch_counts(stripe, wanted), stripe
            )
        return loads

    def _healthy_read_counts(
        self, start: int, length: int, reads: np.ndarray
    ) -> None:
        """Healthy-array read accounting without touching a single cell.

        The addressed cells of a stripe segment are a contiguous slice of
        the logical cell order, so their per-column counts come straight
        from the prefix table; full stripes in the middle of the range
        collapse to one multiply (plus, under rotation, a
        shift-multiplicity product).
        """
        per = self.layout.num_data_cells
        cols = self.layout.cols
        space = self.address_space
        prefix = self._data_col_prefix
        pos = start % space
        remaining = length
        # head: the partial tail of the first stripe
        j = pos % per
        if j:
            take = min(per - j, remaining)
            self._accumulate(reads, prefix[j + take] - prefix[j], pos // per)
            pos = (pos + take) % space
            remaining -= take
        # middle: whole stripes
        n_full, tail = divmod(remaining, per)
        if n_full:
            full = prefix[per]
            if self.rotate:
                stripes = (
                    pos // per + np.arange(n_full)
                ) % self.num_stripes
                mult = np.bincount(stripes % cols, minlength=cols)
                rolled = np.stack(
                    [np.roll(full, s) for s in range(cols)]
                )
                reads += mult @ rolled
            else:
                reads += full * n_full
            pos = (pos + n_full * per) % space
        # tail: the leading slice of the last stripe
        if tail:
            self._accumulate(reads, prefix[tail], pos // per)

    def _fetch_counts(self, stripe: int, wanted: List[Cell]) -> np.ndarray:
        """Per-column fetch counts of one stripe's (degraded) read plan."""
        key = (self.failed_columns(stripe), tuple(wanted))
        counts = self._fetch_count_cache.get(key)
        if counts is None:
            plan = self._plan_stripe_read(stripe, wanted)
            counts = np.bincount(
                [c.col for c in plan.fetch], minlength=self.layout.cols
            )
            self._fetch_count_cache[key] = counts
        return counts

    def read_fetch_sets(
        self, start: int, length: int
    ) -> List[Tuple[int, Set[Cell]]]:
        """Per-stripe cells fetched from disk for a read ``<S, L>``.

        In degraded mode the sets include reconstruction reads; the timing
        model (:mod:`repro.perf`) consumes these to price the request.
        """
        return [
            (plan.stripe, set(plan.fetch))
            for plan in self.stripe_read_plans(start, length)
        ]

    def stripe_read_plans(
        self, start: int, length: int
    ) -> List["StripeReadPlan"]:
        """Executable per-stripe read plans for ``<S, L>``.

        Each plan names the cells to fetch from disk and, in degraded
        mode, the ordered XOR recipe rebuilding the lost wanted cells
        from them.  :class:`~repro.array.volume.RAID6Volume` executes
        these plans verbatim, so the simulator's Figure-4/5/6/7 counts
        and the volume's real disk counters agree by construction.
        """
        return [
            self._plan_stripe_read(stripe, wanted)
            for stripe, wanted in self._range_by_stripe(start, length)
        ]

    def _stripe_read_set(self, stripe: int, wanted: Sequence[Cell]) -> Set[Cell]:
        """Cells actually fetched from disk to serve ``wanted`` in a stripe."""
        return set(self._plan_stripe_read(stripe, wanted).fetch)

    def _plan_stripe_read(
        self, stripe: int, wanted: Sequence[Cell]
    ) -> "StripeReadPlan":
        """Cached plan lookup: a plan depends only on the stripe's failure
        pattern and the wanted cells, so distinct request shapes compute
        once and replay with the stripe id patched in."""
        key = (self.failed_columns(stripe), tuple(wanted))
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = self._build_stripe_read_plan(stripe, wanted)
            self._plan_cache[key] = plan
        if plan.stripe != stripe:
            plan = replace(plan, stripe=stripe)
        return plan

    def _build_stripe_read_plan(
        self, stripe: int, wanted: Sequence[Cell]
    ) -> "StripeReadPlan":
        cols = self.failed_columns(stripe)
        if len(cols) == 0:
            return StripeReadPlan(stripe, frozenset(wanted), (), ())
        if len(cols) == 2:
            return self._plan_double_failure(stripe, wanted, cols)
        failed_col = cols[0]
        fetched: Set[Cell] = {c for c in wanted if c.col != failed_col}
        lost = [c for c in wanted if c.col == failed_col]
        recovered: Set[Cell] = set()
        recipe: List[RecoveryStep] = []
        for cell in lost:
            best: Optional[Set[Cell]] = None
            best_key = None
            best_group = None
            for group in self.layout.groups_covering(cell):
                needed = {c for c in group.cells if c != cell}
                if any(c.col == failed_col for c in needed):
                    continue  # group unusable: relies on another lost cell
                extra = needed - fetched - recovered
                key = (len(extra), self._family_rank[group.family],
                       group.parity)
                if best_key is None or key < best_key:
                    best, best_key, best_group = extra, key, group
            if best is None:
                # no single-group recovery (possible for EVENODD's coupled
                # diagonals): fall back to reading every surviving cell
                # and decoding the whole loss set algebraically
                survivors = {
                    c
                    for col in range(self.layout.cols)
                    if col != failed_col
                    for c in self.layout.cells_in_column(col)
                }
                return StripeReadPlan(
                    stripe, frozenset(fetched | survivors), None,
                    tuple(lost),
                )
            fetched |= best
            recovered.add(cell)
            recipe.append(RecoveryStep(cell, best_group))
        return StripeReadPlan(stripe, frozenset(fetched), tuple(recipe),
                              tuple(lost))

    def _plan_double_failure(
        self, stripe: int, wanted: Sequence[Cell], cols: Tuple[int, int]
    ) -> "StripeReadPlan":
        """Read plan under two concurrent failures.

        Chain-decodable codes reconstruct through the cached column-pair
        plan, charged only for the *slice* that rebuilds the wanted lost
        cells; non-chain codes (EVENODD) read every surviving cell.
        """
        lost_cols = set(cols)
        fetched: Set[Cell] = {c for c in wanted if c.col not in lost_cols}
        lost = [c for c in wanted if c.col in lost_cols]
        if not lost:
            return StripeReadPlan(stripe, frozenset(fetched), (), ())
        if not self.layout.chain_decodable:
            survivors = {
                c
                for col in range(self.layout.cols)
                if col not in lost_cols
                for c in self.layout.cells_in_column(col)
            }
            return StripeReadPlan(
                stripe, frozenset(fetched | survivors), None, tuple(lost)
            )
        plan = self._double_plans.get(cols)
        if plan is None:
            from repro.codes.base import column_failure_cells

            plan = plan_chain_recovery(
                self.layout, column_failure_cells(self.layout, cols)
            )
            if plan is None:
                raise ValueError(
                    f"{self.layout.name} cannot chain-recover columns "
                    f"{cols}"
                )
            self._double_plans[cols] = plan
        steps, disk_reads = plan_slice(plan, lost)
        return StripeReadPlan(
            stripe, frozenset(fetched | set(disk_reads)), tuple(steps),
            tuple(lost),
        )

    # -- writes -----------------------------------------------------------------

    def write_accesses(self, start: int, length: int) -> DiskLoads:
        """Per-disk accesses of one execution of a write ``<S, L, 1>``."""
        loads = DiskLoads.zeros(self.layout.cols)
        for stripe, targets in self._range_by_stripe(start, length):
            key = (self.write_policy, self.failed_columns(stripe),
                   tuple(targets))
            counts = self._write_count_cache.get(key)
            if counts is None:
                cols = self.layout.cols
                counts = self._write_count_cache[key] = tuple(
                    np.bincount([c.col for c in cells], minlength=cols)
                    for cells in self._stripe_write_io(stripe, targets)
                )
            self._accumulate(loads.reads, counts[0], stripe)
            self._accumulate(loads.writes, counts[1], stripe)
        return loads

    def write_io_sets(
        self, start: int, length: int
    ) -> List[Tuple[int, Set[Cell], Set[Cell]]]:
        """Per-stripe ``(stripe, cells read, cells written)`` for a write;
        the timing model consumes these to price write requests."""
        return [
            (stripe, *self._stripe_write_io(stripe, targets))
            for stripe, targets in self._range_by_stripe(start, length)
        ]

    def _stripe_write_io(
        self, stripe: int, targets: List[Cell]
    ) -> Tuple[Set[Cell], Set[Cell]]:
        """(cells read, cells written) of one stripe's share of a write:
        the degraded-write rule, here and nowhere else.

        Cells on a failed disk leave both sets (the disk is gone), but
        the old value of a data cell the write needs is then rebuilt:
        the reads gain the fetch set of the degraded read of those data
        cells.  The volume compiles the RMW plan of a lost dirty cell
        from these sets (``repro.array.ioplan._compile_rmw``), so its
        disk counters match.  Where that read needs algebraic decoding,
        the volume loads, re-encodes and rewrites every surviving cell.
        """
        reads, writes = self._stripe_write_sets(targets)
        lost_cols = self.failed_columns(stripe)
        if not lost_cols:
            return reads, writes
        wanted = sorted(reads & self._data_set, key=self.layout.data_index)
        reads = {c for c in reads if c.col not in lost_cols}
        writes = {c for c in writes if c.col not in lost_cols}
        if any(c.col in lost_cols for c in wanted):
            plan = self._plan_stripe_read(stripe, wanted)
            reads |= plan.fetch
            if plan.recipe is None:
                writes = set(plan.fetch)
        return reads, writes

    def _stripe_write_sets(
        self, cells: Sequence[Cell]
    ) -> Tuple[Set[Cell], Set[Cell]]:
        """(cells read, cells written) for a partial write of ``cells``."""
        targets = set(cells)
        affected = set(write_footprint(self.layout, tuple(cells)).parities)
        if len(targets) == self.layout.num_data_cells:
            # full-stripe write: encode fresh, no old values needed
            return set(), targets | affected
        rmw_reads = targets | affected
        rmw = (set(rmw_reads), set(rmw_reads))
        if self.write_policy == "rmw":
            return rmw
        # reconstruct-write: read the untouched data, rewrite targets and
        # every parity of the stripe (they are all re-encoded)
        untouched = set(self.layout.data_cells) - targets
        all_parities = set(self.layout.parity_cells)
        reconstruct = (untouched, targets | all_parities)
        if self.write_policy == "reconstruct":
            return reconstruct
        # adaptive: fewer total accesses wins; tie goes to RMW (it leaves
        # untouched parities alone, which is gentler on dedicated disks)
        rmw_cost = len(rmw[0]) + len(rmw[1])
        rec_cost = len(reconstruct[0]) + len(reconstruct[1])
        return rmw if rmw_cost <= rec_cost else reconstruct

    # -- workload driver -----------------------------------------------------------

    def apply(self, op: Operation, loads: DiskLoads) -> None:
        """Accumulate one operation (×its repeat count) into ``loads``."""
        if op.is_read:
            once = self.read_accesses(op.start, op.length)
        else:
            once = self.write_accesses(op.start, op.length)
        loads.reads += once.reads * op.times
        loads.writes += once.writes * op.times

    def run(self, workload: Workload) -> DiskLoads:
        """Per-disk loads of a whole workload."""
        loads = DiskLoads.zeros(self.layout.cols)
        for op in workload:
            self.apply(op, loads)
        return loads
