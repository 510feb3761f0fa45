"""Compiled XOR execution plans.

A naive codec walks parity groups in Python — one ``xor_blocks`` call per
equation, one list comprehension per call (the reference walk the tests
hold these plans to) — so encode/decode time is
dominated by interpreter overhead instead of XOR bandwidth (the same reason
Jerasure precompiles its schedules).  This module compiles a layout's
equations into *flat index plans* executed with vectorised gather-XOR:

* every cell of the stripe is addressed by its flat index
  ``row * cols + col`` over the ``(rows * cols, element_size)`` view;
* a schedule (encode order, chain-recovery plan) is partitioned into
  *levels* — a step lands in the level after the last step producing one of
  its inputs, so everything inside one level is independent;
* within a level, steps of equal arity ``k`` collapse into one
  :class:`GatherStep`: ``flat[dst] = XOR-reduce(flat[src])`` with ``src`` a
  ``(n, k)`` fancy index — one numpy call for ``n`` equations regardless of
  stripe count.

Plans contain only indices, so one compilation serves every element size
and every stripe of a batch: :meth:`XorPlan.execute` runs a single
``(rows * cols, element_size)`` stripe view, :meth:`XorPlan.execute_batch`
runs a whole ``(batch, rows * cols, element_size)`` tensor in the same
number of numpy calls.  Compiled plans are cached per
``(layout, element_size)`` in a module-level LRU
(:func:`compiled_plans`), so codecs built repeatedly over the same layout
— volumes, benchmarks, simulations — compile once.

:func:`write_footprint` is the one derivation of which parities a write
touches, memoised per layout and dirty-cell tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Hashable, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.codes.base import Cell, CodeLayout, ParityGroup, cell_to_flat
from repro.exceptions import GeometryError
from repro.util.ckernel import xor_kernel

#: Stripes per chunk for the numpy batch path.  A full batch gather can
#: blow past cache (64 stripes x 4 KiB elements is a ~13 MB working set per
#: step, plus ~3x that in gather temporaries) and go DRAM-bound; chunking
#: keeps each slice resident while still amortising numpy dispatch.
_BATCH_CHUNK = 8

#: Per-chunk working-set budget (bytes of stripe data) for the numpy
#: batch path.  Large-p stripes (p13 spans 13x13 cells) are an order of
#: magnitude bigger than small-p ones, so a fixed stripe count that keeps
#: p5 cache-resident thrashes at p13; the chunk is sized per geometry as
#: ``budget // stripe_bytes`` capped at :data:`_BATCH_CHUNK`.
_BATCH_BUDGET_BYTES = 2 << 20


def _batch_chunk(num_cells: int, element_size: int) -> int:
    """Geometry-keyed chunk length for :meth:`XorPlan.execute_batch_numpy`."""
    stripe_bytes = num_cells * element_size
    return max(1, min(_BATCH_CHUNK, _BATCH_BUDGET_BYTES // stripe_bytes))


def toposort_groups(layout: CodeLayout) -> List[ParityGroup]:
    """Order parity groups so every group's parity *members* come first.

    A group depends on another when it covers the other's parity cell.  All
    layouts in this library have acyclic dependencies (a cycle would make
    the code non-computable); a cycle raises :class:`GeometryError`.

    Iterative DFS — synthetic layouts can chain thousands of groups
    (parity covering parity covering parity ...), which must not be limited
    by the Python recursion limit.
    """
    parity_owner: Dict[Cell, ParityGroup] = {g.parity: g for g in layout.groups}
    order: List[ParityGroup] = []
    state: Dict[Cell, int] = {}  # 0 = visiting, 1 = done

    for root in layout.groups:
        if state.get(root.parity) == 1:
            continue
        state[root.parity] = 0
        stack: List[Tuple[ParityGroup, Iterable[Cell]]] = [
            (root, iter(root.members))
        ]
        while stack:
            group, members = stack[-1]
            descended = False
            for member in members:
                dep = parity_owner.get(member)
                if dep is None:
                    continue
                mark = state.get(dep.parity)
                if mark == 1:
                    continue
                if mark == 0:
                    raise GeometryError(
                        f"cyclic parity dependency through {dep.parity} in "
                        f"{layout.name}"
                    )
                state[dep.parity] = 0
                stack.append((dep, iter(dep.members)))
                descended = True
                break
            if not descended:
                state[group.parity] = 1
                order.append(group)
                stack.pop()
    return order


@dataclass(frozen=True)
class GatherStep:
    """One vectorised gather-XOR over a flat stripe view.

    Executes ``flat[dst[i]] = flat[src[i, 0]] ^ ... ^ flat[src[i, k-1]]``
    for every row ``i`` in one numpy call.  Destinations within a step are
    unique and never appear among the step's sources (the level partition
    guarantees it), so gather-then-scatter is safe.
    """

    dst: np.ndarray  # (n,) intp — flat destination cell indices
    src: np.ndarray  # (n, k) intp — flat source cell indices

    @property
    def arity(self) -> int:
        return int(self.src.shape[1])


@dataclass(frozen=True)
class XorPlan:
    """An ordered sequence of :class:`GatherStep`\\ s over one stripe shape.

    Two execution engines share the same compiled indices:

    * the serialised ``program`` runs in a single call through the optional
      C kernel (:mod:`repro.util.ckernel`) — minimal memory traffic, one
      dispatch per stripe batch;
    * the :class:`GatherStep` tuple runs as vectorised numpy gather-XOR —
      the portable fallback used whenever no C compiler is available.

    ``execute`` / ``execute_batch`` pick the kernel when it is loaded and
    the view qualifies (contiguous, writable); ``execute_numpy`` /
    ``execute_batch_numpy`` force the fallback (the equivalence tests
    exercise both engines explicitly).
    """

    num_cells: int  # rows * cols — the flat view's leading dimension
    steps: Tuple[GatherStep, ...]
    program: np.ndarray  # int64 [dst, k, src...] per equation, topo order

    def execute(self, flat: np.ndarray) -> np.ndarray:
        """Run the plan over one ``(num_cells, element_size)`` stripe view."""
        kernel = xor_kernel()
        if kernel is not None and flat.flags.c_contiguous and flat.flags.writeable:
            kernel.xor_exec(flat, self.program)
            return flat
        return self.execute_numpy(flat)

    def execute_batch(self, flat: np.ndarray) -> np.ndarray:
        """Run the plan over a ``(batch, num_cells, element_size)`` tensor
        — each stripe's rows contiguous, the stripes any stride apart (a
        plan's program region of a wider scratch buffer)."""
        kernel = xor_kernel()
        if kernel is not None and flat.flags.writeable and \
                flat.strides[1:] == (flat.shape[2], 1):
            kernel.xor_exec(flat, self.program)
            return flat
        return self.execute_batch_numpy(flat)

    def execute_numpy(self, flat: np.ndarray) -> np.ndarray:
        """Numpy engine over one ``(num_cells, element_size)`` view."""
        for step in self.steps:
            flat[step.dst] = np.bitwise_xor.reduce(flat[step.src], axis=-2)
        return flat

    def execute_batch_numpy(self, flat: np.ndarray) -> np.ndarray:
        """Numpy engine over a ``(batch, num_cells, element_size)`` tensor.

        Runs in cache-sized chunks along the batch axis — sized per
        geometry (:func:`_batch_chunk`), since a p13 stripe is ~7x a p5
        stripe and a fixed count would thrash at large p.  Sources
        accumulate pairwise into the gathered first column instead of a
        single ``reduce``: the reduce materialises the whole
        ``(chunk, n, k, element_size)`` gather before touching it, while
        pairwise XOR streams one ``(chunk, n, element_size)`` source at a
        time — a third of the peak memory traffic at ``k = 3``, which is
        what let batched overtake the per-stripe loop at p13.
        """
        chunk = _batch_chunk(flat.shape[1], flat.shape[-1])
        for start in range(0, flat.shape[0], chunk):
            part = flat[start : start + chunk]
            for step in self.steps:
                acc = part[:, step.src[:, 0]]  # fancy index — a copy
                for j in range(1, step.src.shape[1]):
                    np.bitwise_xor(acc, part[:, step.src[:, j]], out=acc)
                part[:, step.dst] = acc
        return flat

    @property
    def num_ops(self) -> int:
        """Total equations evaluated (for reporting)."""
        return sum(len(step.dst) for step in self.steps)


def _build_plan(
    layout: CodeLayout,
    entries: Sequence[Tuple[int, int, Sequence[int]]],
) -> XorPlan:
    """Collapse ``(level, dst, srcs)`` entries into level/arity gather steps."""
    buckets: Dict[Tuple[int, int], List[Tuple[int, Sequence[int]]]] = {}
    for level, dst, srcs in entries:
        buckets.setdefault((level, len(srcs)), []).append((dst, srcs))
    steps: List[GatherStep] = []
    for level, arity in sorted(buckets):
        group = buckets[(level, arity)]
        dst = np.array([d for d, _ in group], dtype=np.intp)
        src = np.array([list(s) for _, s in group], dtype=np.intp).reshape(
            len(group), arity
        )
        steps.append(GatherStep(dst=dst, src=src))
    program: List[int] = []
    for level, dst, srcs in sorted(entries, key=lambda e: e[0]):
        program.append(dst)
        program.append(len(srcs))
        program.extend(srcs)
    return XorPlan(
        num_cells=layout.rows * layout.cols,
        steps=tuple(steps),
        program=np.ascontiguousarray(program, dtype=np.int64),
    )


def compile_encode_plan(layout: CodeLayout) -> XorPlan:
    """Compile the layout's full parity computation into gather steps.

    Groups whose members include other parity cells (RDP's diagonals cover
    the row-parity column; HDP's horizontal-diagonals cover a parity in
    their row) land in later levels than their inputs, exactly mirroring
    the toposorted naive encode order.
    """
    parity_level: Dict[Cell, int] = {}
    owners = {g.parity for g in layout.groups}
    entries: List[Tuple[int, int, Sequence[int]]] = []
    for group in toposort_groups(layout):
        level = 0
        for member in group.members:
            if member in owners:
                level = max(level, parity_level[member] + 1)
        parity_level[group.parity] = level
        entries.append(
            (
                level,
                cell_to_flat(layout, group.parity),
                [cell_to_flat(layout, m) for m in group.members],
            )
        )
    return _build_plan(layout, entries)


def compile_schedule_plan(layout: CodeLayout, schedule: Sequence) -> XorPlan:
    """Compile a chain-recovery schedule into gather steps.

    ``schedule`` is any sequence of steps exposing ``cell`` (the rebuilt
    cell) and ``reads`` (the cells XOR-ed together) —
    :class:`repro.codec.decoder.RecoveryStep` in practice.  Steps whose
    reads are all original (not rebuilt earlier in the schedule) run in
    level 0; a step reading a rebuilt cell runs after the step producing
    it.  Zig-zag chains therefore compile to one gather row per level, while
    independent recoveries (e.g. the row-parity half of an RDP rebuild)
    fuse into wide level-0 gathers.
    """
    produced_level: Dict[Cell, int] = {}
    entries: List[Tuple[int, int, Sequence[int]]] = []
    for step in schedule:
        level = 0
        for read in step.reads:
            if read in produced_level:
                level = max(level, produced_level[read] + 1)
        produced_level[step.cell] = level
        entries.append(
            (
                level,
                cell_to_flat(layout, step.cell),
                [cell_to_flat(layout, r) for r in step.reads],
            )
        )
    return _build_plan(layout, entries)


class WriteFootprint(NamedTuple):
    """The parity cells a write may change, in canonical
    ``layout.parity_cells`` order, and for each (``feeds[i]``) the
    ascending positions, among the write's cells, of the dirty cells
    whose deltas it carries: over GF(2) it changes by their XOR."""

    parities: Tuple[Cell, ...]
    feeds: Tuple[Tuple[int, ...], ...]


@lru_cache(maxsize=128)
def _cell_footprints(layout: CodeLayout) -> Tuple[List[ParityGroup], Dict]:
    """The layout's groups in dependency order, and a memo of each data
    cell's own footprint that :func:`write_footprint` fills."""
    return toposort_groups(layout), {}


@lru_cache(maxsize=8192)
def write_footprint(
    layout: CodeLayout, cells: Tuple[Cell, ...]
) -> WriteFootprint:
    """The :class:`WriteFootprint` of a write to the data ``cells``.

    Each cell's delta is pushed symbolically through the groups in
    dependency order: a group flips iff an odd number of its members
    flipped, so parities of parities (RDP, HDP) cascade.  Deltas compose
    by XOR, so a write may change the union of its cells' footprints.
    Raises :class:`GeometryError` for a cell that is not a data cell.
    """
    order, memo = _cell_footprints(layout)
    feeds: Dict[Cell, List[int]] = {}
    for j, cell in enumerate(cells):
        touched = memo.get(cell)
        if touched is None:
            if not layout.is_data(cell):
                raise GeometryError(
                    f"{cell} is not a data cell of {layout.name}"
                )
            flips = {cell}
            for group in order:
                if sum(m in flips for m in group.members) % 2:
                    flips.add(group.parity)
            flips.discard(cell)
            touched = memo[cell] = tuple(flips)
        for parity in touched:
            feeds.setdefault(parity, []).append(j)
    fed = sorted(feeds.items())
    return WriteFootprint(
        tuple(p for p, _ in fed), tuple(tuple(f) for _, f in fed)
    )


def compile_update_plan(
    layout: CodeLayout, cell: Cell
) -> Tuple[np.ndarray, Tuple[Cell, ...]]:
    """Flat indices a single-element write XORs with its delta.

    Every parity in the footprint of ``cell`` (:func:`write_footprint`)
    changes by exactly the write's delta ``old ^ new``, so the whole
    read-modify-write is one scatter: XOR the delta into ``cell`` itself
    plus every touched parity.  Returns ``(indices, touched)`` where
    ``indices`` contains the data cell followed by the touched parities
    and ``touched`` is the parity cell tuple, in canonical order.
    """
    touched = write_footprint(layout, (cell,)).parities
    indices = np.array(
        [cell_to_flat(layout, c) for c in (cell, *touched)], dtype=np.intp
    )
    return indices, touched


class CompiledPlans:
    """All compiled plans for one ``(layout, element_size)`` pair.

    The encode plan is compiled eagerly (every codec encodes); recovery
    schedules and update footprints are compiled on first use and memoised
    per schedule / per cell.
    """

    def __init__(self, layout: CodeLayout, element_size: int) -> None:
        self.layout = layout
        self.element_size = element_size
        self.encode = compile_encode_plan(layout)
        self._schedules: Dict[Hashable, XorPlan] = {}
        self._updates: Dict[Cell, Tuple[np.ndarray, Tuple[Cell, ...]]] = {}
        self._recovery_schedules: Dict[Tuple[int, ...], list] = {}

    def recovery_schedule(self, failed_cols: Sequence[int]) -> "list | None":
        """Chain-recovery schedule for whole-column failures (memoised).

        The structural planning half of the recovery-plan cache: one
        :func:`repro.codec.decoder.plan_chain_recovery` run per
        ``(layout, failed column set)``, shared by every consumer of this
        :class:`CompiledPlans` instance — batched decode, the chain
        decoder, the volume's rebuild sweep.  Returns ``None`` (also
        memoised) when the chain decoder cannot handle the pattern
        (EVENODD's coupled diagonals) — callers fall back to Gauss.
        """
        key = tuple(sorted(set(failed_cols)))
        if key not in self._recovery_schedules:
            # local import: decoder imports this module at top level
            from repro.codec.decoder import plan_chain_recovery
            from repro.codes.base import column_failure_cells

            self._recovery_schedules[key] = plan_chain_recovery(
                self.layout, column_failure_cells(self.layout, key)
            )
        return self._recovery_schedules[key]

    def schedule_plan(self, schedule: Sequence) -> XorPlan:
        """Compiled form of a chain-recovery schedule (memoised)."""
        key: Hashable = tuple(
            (step.cell, step.group.parity) for step in schedule
        )
        plan = self._schedules.get(key)
        if plan is None:
            plan = compile_schedule_plan(self.layout, schedule)
            self._schedules[key] = plan
        return plan

    def update_plan(
        self, cell: Cell
    ) -> Tuple[np.ndarray, Tuple[Cell, ...]]:
        """:func:`compile_update_plan` of ``cell`` (memoised)."""
        entry = self._updates.get(cell)
        if entry is None:
            entry = compile_update_plan(self.layout, cell)
            self._updates[cell] = entry
        return entry


@lru_cache(maxsize=128)
def compiled_plans(layout: CodeLayout, element_size: int) -> CompiledPlans:
    """Module-level LRU of :class:`CompiledPlans` per ``(layout, element_size)``.

    Layouts hash by identity, so two codecs over the *same* layout object
    (the common case — volumes, decoders and engines all share the codec's
    layout) share one compilation; distinct but equal layouts compile
    independently, which costs only the compile time.
    """
    return CompiledPlans(layout, element_size)


def flat_stripe_view(stripe: np.ndarray, num_cells: int) -> "np.ndarray | None":
    """``(num_cells, element_size)`` view of a stripe, or ``None`` if not
    viewable (non-contiguous input — callers fall back to a copy)."""
    if not stripe.flags.c_contiguous:
        return None
    return stripe.reshape(num_cells, -1)


def flat_batch_view(batch: np.ndarray, num_cells: int) -> "np.ndarray | None":
    """``(batch, num_cells, element_size)`` view, or ``None`` (see above)."""
    if not batch.flags.c_contiguous:
        return None
    return batch.reshape(batch.shape[0], num_cells, -1)
