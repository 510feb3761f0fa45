"""Pattern-keyed I/O plans: short reads, partial writes, whole stripes.

The cells a request touches inside a stripe are a pure function of the
stripe-local *pattern* — which data cells it addresses and which layout
columns are stale — never of the stripe number.  This module compiles
that footprint once per pattern into flat index arrays and executes it
over the volume's ``(capacity * cols, element_size)`` backing view for a
*vector* of stripes sharing the pattern (one stripe is the scalar case):

* **read plans**, keyed ``(first data index, length, stale columns)`` —
  the cells to fetch and, when a wanted cell sits on a stale column, the
  compiled XOR schedule rebuilding it (the access engine's minimal
  :class:`~repro.iosim.engine.StripeReadPlan`, so disk counters keep
  matching the model);
* **RMW plans**, keyed ``(dirty data cells, stale columns)`` — the dirty
  cells and every parity of their write footprint on surviving columns,
  and one XOR schedule folding the data deltas into per-parity deltas.
  A dirty cell on a stale column is neither read nor written: the plan
  reads and writes what the access engine's degraded write does, and
  its schedule first rebuilds the lost old value, so that the surviving
  parities carry the new one to the next rebuild.  Every partial-stripe
  write runs through one — healthy or degraded, ``write()`` or cache
  destage (:func:`rmw`);
* **recovery plans**, keyed ``(stale columns, lost column or None)`` —
  the survivors to read and the XOR schedule rebuilding what the stale
  columns lose (:func:`_compile_recovery`): for one lost column the
  hybrid planner's minimal read set, otherwise every live cell and the
  codec's chain-recovery schedule.  A rebuild (:func:`rebuild`) picks
  the lost column; a load (:func:`load_stripes` — parity scrub and
  repair, integrity repair, reconstruct-writes, reads that need the
  whole stripe) picks the whole stripe image.  Patterns with no XOR
  schedule and loads with cells already known lost gather the live
  cells raw (:func:`gather_stripes`) and run the volume's algebraic
  decoder.  The live cells of a stripe are one cached :class:`CellSet`
  (:func:`_live`): what :func:`store_stripes` writes of a degraded,
  rotated or hooked whole-stripe write, crash recovery and a
  reconstruct-write, and what the integrity sweeps and journal
  inspection gather raw.

Execution is one gather of the old cells, the value-dependent
``delta.any()`` masks (a cell whose delta is zero is read but not
written, a parity whose delta cancels is neither), one XOR schedule
(:class:`~repro.codec.plan.XorPlan`) and one store.  Gathers and stores
reach the disks through the volume's two funnels, ``_read_rows`` and
``_store_rows``: one vector over every disk while those disks are quiet,
each element in plan order — stripe-major, then the plan's cell order —
when one carries a fault or corrupt hook (or a latent sector, for a
load; or the journal a crash-point phase hook, for a store), which is
the op stream fault injection indexes.  A cell that fails to read
comes back as a *located erasure*: its stripe is loaded with that cell
known-lost and decoded, and nothing else of the plan changes.

Every plan that gathers, XORs, then stores or picks — an RMW, a read
that rebuilds a cell, a column rebuild, a stripe load — is one
:class:`Plan` record with two interpreters, run by :func:`_execute`:
while the volume admits it (``RAID6Volume._kernel`` — quiet disks,
nobody observing the funnels — returns the volume's one kernel handle,
the C kernel's extension module bound when the volume was built) the
handle's ``plan_exec`` runs the record's words (:func:`repro.util.ckernel.pack_plan`) over the whole
vector of stripes and its counts land in the disks' counters in one
step; otherwise :func:`_plan_run` follows ``plan_exec`` step for step
in numpy, through the funnels.

One level up, every read and write of a logical range is one
:class:`Route` — its runs, each walked, run through its read or RMW
plan, or (a write's whole stripes) copied into the data cells, encoded
and stored — with two interpreters, run by :func:`run_route`: the
handle's ``route_exec`` where the volume admits it (a healthy read's
route is the bare walk of the range), otherwise :func:`_route_walk`, its numpy twin, run by run
through :func:`_execute` and the funnels.  Healthy and unrotated, a run
of whole stripes is one contiguous slab of the backing store and is
encoded there — in C each stripe copied and encoded while it is in
cache.

Plans hold a few small ``intp`` arrays each; a volume caches at most
:data:`MAX_PLANS` of them, least recently used first out.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (
    Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.codec.batch import blank_batch, encode_batch
from repro.codec.decoder import RecoveryStep
from repro.codec.plan import GatherStep, XorPlan, write_footprint
from repro.codes.base import Cell, column_failure_cells
from repro.exceptions import (
    AddressError, DiskFailedError, GeometryError, TransientIOError,
    UnrecoverableStripeError,
)
from repro.recovery.planner import cached_hybrid_plan
from repro.util import ckernel
from repro.util.ckernel import Packed

#: Plans cached per volume.  A pattern is ``(first index, length)`` of a
#: contiguous run, so ``per * (per + 1) / 2`` exist per failure state —
#: 630 for D-Code p=7, 10 296 at p=13; the cap bounds the cache near
#: 2 MB whatever the geometry.
MAX_PLANS = 2048

#: Bytes gathered out of an encode or rebuild buffer per planned store:
#: the copy a scatter of picked rows needs stays cache-sized, whatever
#: the element size and however many stripes the run holds.
SCATTER_BYTES = 1 << 20

#: Stripes per executor call on a multi-stripe run — reads, whole-stripe
#: stores, rebuild, scrub and the integrity sweeps alike: bounds the
#: gather and XOR scratch to a few MB however long the request is.
RUN_CHUNK = 32

#: Cells that failed to read, by index into the plan's vector of stripes.
Lost = Dict[int, List[Cell]]


class CellSet:
    """Stripe-local cells as index arrays: a plan's I/O footprint."""

    __slots__ = ("cells", "flat", "counts", "mask")

    def __init__(self, cells: Sequence[Cell], ncols: int) -> None:
        self.cells = tuple(cells)
        cols = np.array([c.col for c in cells], dtype=np.intp)
        #: index into a ``(rows * cols, element_size)`` stripe view
        self.flat = np.array([c.row for c in cells], dtype=np.intp) * ncols
        self.flat += cols
        #: ``(column, cells on it)`` for every column holding any — one
        #: read-counter bump per disk
        self.counts = tuple(
            (col, n) for col, n in enumerate(np.bincount(cols).tolist()) if n
        )
        #: the columns as a bitmask (bit ``col``)
        self.mask = sum(1 << col for col, _ in self.counts)


class Span:
    """The write items of a contiguous run of data cells — ``(cell,
    new value)`` pairs like any other — kept as the slice of the
    caller's rows they came in, ``values[i]`` for ``cells[i]``: a
    write's journal entries."""

    __slots__ = ("cells", "values")

    def __init__(self, cells: Sequence[Cell], values) -> None:
        self.cells, self.values = cells, values

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, i):
        return self.cells[i], self.values[i]

    def __iter__(self):
        return zip(self.cells, self.values)


#: An empty index array: a plan field that names no rows.
_NONE = np.zeros(0, dtype=np.intp)


class Plan(NamedTuple):
    """One gather–XOR–store/pick plan over a vector of stripes.

    Per stripe, into a scratch buffer of ``base + xor.num_cells`` rows:
    gather ``cells`` into rows ``0 .. g-1`` — the C kernel only the first
    ``gather``, the old values the deltas and the program read; copy the
    write items ``items`` of the stripe's values to rows ``values`` on,
    and fold items ``keep`` into the deltas of gathered rows ``0 ..
    len(keep)-1``, rows ``delta`` on; run ``xor`` over the rows from
    ``base`` on.  Each of the first ``n`` cells whose delta (row ``delta
    + j``) is non-zero is stored — its old value XOR its delta, a kept
    data cell its new value — and read; the other cells are read where
    ``fetch`` (row indices) names them.  Last, rows ``pick`` go to the
    output.  ``packed`` is the same record as ``plan_exec``'s words.
    """

    cells: CellSet
    xor: XorPlan
    gather: int
    n: int
    fetch: np.ndarray
    keep: np.ndarray = _NONE
    items: np.ndarray = _NONE
    pick: np.ndarray = _NONE
    delta: int = 0
    values: int = 0
    base: int = 0
    packed: Optional[Packed] = None


def _plan(cells: CellSet, xor: XorPlan, **fields) -> Plan:
    """A :class:`Plan` with its words for the C kernel."""
    plan = Plan(cells, xor, **fields)
    return plan._replace(packed=ckernel.pack_plan(plan))


class PlanCache:
    """LRU of compiled plans, one per volume (nothing is built eagerly).

    Threads sharing the volume plan concurrently.  A hit takes no lock:
    the lookup and the ``move_to_end`` that keeps the LRU order are each
    one atomic ``OrderedDict`` operation under the GIL (keys are tuples
    of strings, ints, ``None``, ranges and tuples, hashed and compared
    in C), and a hit whose entry an eviction took between the two is a
    miss.  Inserts and evictions hold the lock, and a full cache evicts
    before it inserts, so it never holds more than :data:`MAX_PLANS`.
    """

    def __init__(self) -> None:
        self._plans: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: tuple, compile_, *args):
        """The plan under ``key``, compiled by ``compile_(*args)`` on a miss.

        A compiler may return ``None`` (pattern the executor does not
        serve); that verdict is cached like a plan.
        """
        plans = self._plans
        try:
            plan = plans[key]
            plans.move_to_end(key)
            return plan
        except KeyError:
            pass
        plan = compile_(*args)
        with self._lock:
            # evict first: a reader's len() never sees the cap exceeded
            if key not in plans and len(plans) >= MAX_PLANS:
                plans.popitem(last=False)
            plans[key] = plan
        return plan


# -- compilation -----------------------------------------------------------------


def _xor_plan(equations: List[Tuple[int, List[int]]], rows: int) -> XorPlan:
    """``row[dst] = XOR(row[srcs])`` over a ``rows``-row scratch buffer.

    ``equations`` are in dependency order (the C engine runs them as
    listed); the numpy engine gets them bucketed by dependency level and
    arity like every other compiled plan.
    """
    level: Dict[int, int] = {}
    buckets: Dict[Tuple[int, int], List[Tuple[int, List[int]]]] = {}
    program: List[int] = []
    for dst, srcs in equations:
        level[dst] = 1 + max(level.get(s, -1) for s in srcs)
        buckets.setdefault((level[dst], len(srcs)), []).append((dst, srcs))
        program += [dst, len(srcs), *srcs]
    return XorPlan(
        num_cells=rows,
        steps=tuple(
            GatherStep(
                dst=np.array([d for d, _ in group], dtype=np.intp),
                src=np.array([s for _, s in group], dtype=np.intp),
            )
            for _, group in sorted(buckets.items())
        ),
        program=np.ascontiguousarray(program, dtype=np.int64),
    )


def _engine(volume, stale: Tuple[int, ...]):
    from repro.iosim.engine import AccessEngine

    return AccessEngine(
        volume.layout,
        num_stripes=volume.mapper.num_stripes,
        rotate=volume.mapper.rotate,
        failed_disks=stale,
    )


def _engine_of(volume, stripe: int):
    """The access engine of ``stripe``'s stale disks, cached per tuple
    of them (a rebuild splits the volume into regions whose failure
    states alternate within one request): its degraded plans are the
    ones the Figure 5/6/7 simulations price, so real disk counters
    match the model by construction."""
    stale = volume._stale_disks(stripe)
    return volume._ioplans.get(("engine", stale), _engine, volume, stale)


def _rebuild_equations(recipe, row: Dict[Cell, int], base: int) -> list:
    """The XOR equations of a degraded read's ``recipe`` over scratch
    rows: ``row`` places the fetched cells and gains the rebuilt ones,
    ``base`` onwards (a step reads fetched or already rebuilt cells)."""
    equations = []
    for step in recipe:
        srcs = [row[c] for c in step.reads]
        row[step.cell] = base + len(equations)
        equations.append((row[step.cell], srcs))
    return equations


def _compile_read(volume, j0, n, stale_cols, stripe):
    """The plan of a read pattern: its cells alone when every wanted cell
    is fetched directly (the gather is the answer), else a :class:`Plan`
    fetching the access engine's minimal set and picking the wanted
    cells out of what it rebuilds; ``None`` for an algebraic pattern."""
    layout = volume.layout
    wanted = layout.data_cells[j0:j0 + n]
    if not any(c.col in stale_cols for c in wanted):
        return CellSet(wanted, layout.cols)
    plan = _engine_of(volume, stripe)._plan_stripe_read(stripe, wanted)
    if plan.recipe is None:
        return None  # algebraic pattern: the stripe plan decodes it
    fetch = CellSet(sorted(plan.fetch), layout.cols)
    g = len(fetch.cells)
    row = {cell: i for i, cell in enumerate(fetch.cells)}
    equations = _rebuild_equations(plan.recipe, row, g)
    return _plan(
        fetch, _xor_plan(equations, len(row)), gather=g, n=0,
        fetch=np.arange(g),
        pick=np.array([row[c] for c in wanted], dtype=np.intp),
    )


def set_bits(mask: int) -> List[int]:
    """The set bits of ``mask``, ascending: a bucket's dirty data cells."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def _compile_rmw(volume, js, stale_cols, stripe) -> Optional[Plan]:
    """The plan of writing data cells ``js`` (ascending, or the set bits
    of a mask): the surviving dirty cells, then the parities their
    deltas patch on surviving columns — the first ``n`` cells, all it
    may store.  Its ``keep`` and ``items`` index a stripe's values by
    data cell from ``js[0]`` on (a route's run: by position).  With
    every dirty cell on a surviving column only their old values are
    gathered (a parity's delta is XOR-ed into its backing row in place).
    A dirty cell on a stale column is neither read nor written: the
    plan's cells go on with whatever else rebuilding its old value
    reads, and the scratch holds the old value of every cell, the cells
    the schedule rebuilds from them, the lost cells' new values, their
    deltas, then the deltas of the first ``n`` cells.  ``None`` for a
    reconstruct-write."""
    layout = volume.layout
    if type(js) is int:
        js = set_bits(js)
    cells = tuple([layout.data_cells[j] for j in js])
    at = np.subtract(js, js[0])  # each cell's row of the values
    keep = [j for j, cell in enumerate(cells) if cell.col not in stale_cols]
    lost = [j for j, cell in enumerate(cells) if cell.col in stale_cols]
    # a parity changes by the XOR of the deltas of the dirty cells feeding
    # it; one on a stale column waits for the rebuild
    parities, feeds = write_footprint(layout, cells)
    if lost:
        # the lost old values are rebuilt: the access engine's degraded
        # write of the dirty cells names what is read and written, the
        # degraded read of them the recipe
        engine = _engine_of(volume, stripe)
        reads, writes = engine._stripe_write_io(stripe, cells)
        read = engine._plan_stripe_read(stripe, cells)
        if read.recipe is None:
            return None  # algebraic pattern: reconstruct-write
    if stale_cols:
        live = [
            p in writes if lost else p.col not in stale_cols for p in parities
        ]
        feeds = [f for f, ok in zip(feeds, live) if ok]
        parities = [p for p, ok in zip(parities, live) if ok]
    m = len(keep)
    patched = [cells[j] for j in keep] + list(parities)
    n = len(patched)
    if not lost:
        return _plan(
            CellSet(patched, layout.cols),
            _xor_plan([(m + i, f) for i, f in enumerate(feeds)], n),
            gather=m, n=n, fetch=np.arange(m), keep=at, delta=n, base=n,
        )
    gathered = patched + sorted(reads.difference(patched))
    g, k = len(gathered), len(lost)
    row = {cell: i for i, cell in enumerate(gathered)}
    equations = _rebuild_equations(read.recipe, row, g)
    values = g + len(equations)
    deltas = values + 2 * k
    delta_row = {j: deltas + i for i, j in enumerate(keep)}
    for q, j in enumerate(lost):
        delta_row[j] = values + k + q
        equations.append((delta_row[j], [row[cells[j]], values + q]))
    equations += [
        (deltas + m + i, [delta_row[j] for j in f])
        for i, f in enumerate(feeds)
    ]
    return _plan(
        CellSet(gathered, layout.cols), _xor_plan(equations, deltas + n),
        gather=g, n=n,
        fetch=np.array(sorted(row[c] for c in read.fetch), dtype=np.intp),
        keep=at[keep], items=at[lost], delta=deltas, values=values,
    )


def _compile_live(layout, stale: Tuple[int, ...]) -> CellSet:
    return CellSet([
        cell
        for col in range(layout.cols) if col not in stale
        for cell in layout.cells_in_column(col)
    ], layout.cols)


def _live(volume, stale: Sequence[int]) -> CellSet:
    """Every cell of a stripe off its ``stale`` columns, column by
    column, each column's cells in layout order: what a load gathers
    and a whole-stripe store writes."""
    stale = tuple(sorted(stale))
    return volume._ioplans.get(
        ("live", stale), _compile_live, volume.layout, stale
    )


def _compile_recovery(
    volume, stale: Tuple[int, ...], col: Optional[int]
) -> Optional[Plan]:
    """The plan rebuilding what the ``stale`` columns lose.  With ``col``,
    the one of them lost: the hybrid planner's minimal read set and the
    schedule folding it into the column, picking the column's cells in
    layout order (a single-failure rebuild).  Otherwise every live cell
    (:func:`_live`) and the codec's chain-recovery schedule, picking the
    whole ``rows * cols`` stripe image (a load, a double-failure
    rebuild); ``None`` for a pattern with no XOR schedule (EVENODD's
    adjuster), which the volume's decoder serves."""
    layout = volume.layout
    if col is not None:
        hybrid = cached_hybrid_plan(layout, col)
        group_of = dict(hybrid.choices)
        cells = CellSet(sorted(hybrid.reads), layout.cols)
        recipe = [
            RecoveryStep(cell, group_of[cell])
            for cell in layout.cells_in_column(col)
        ]
    else:
        recipe = stale and layout.chain_decodable and \
            volume.codec.plans.recovery_schedule(stale)
        if stale and not recipe:
            return None
        cells = _live(volume, stale)
    row = {cell: i for i, cell in enumerate(cells.cells)}
    g = len(row)
    equations = _rebuild_equations(recipe or (), row, g)
    if col is None:  # row-major; a slot holding no cell picks row 0
        pick = np.zeros(layout.rows * layout.cols, dtype=np.intp)
        pick[[c.row * layout.cols + c.col for c in row]] = range(len(row))
    else:
        pick = np.arange(g, len(row))
    return _plan(
        cells, _xor_plan(equations, len(row)), gather=g, n=0,
        fetch=np.arange(g), pick=pick,
    )


# -- execution -------------------------------------------------------------------
#
# A cell's row in the flat backing view is ``offset * cols + disk``, so
# one index array ``at`` carries a gather's whole placement:
# ``divmod(at, cols)`` gives ``(offsets, disks)`` back.


def _check_stripes(volume, lo: int, hi: int) -> None:
    if lo < 0 or hi >= volume.mapper.num_stripes:
        raise AddressError(
            f"stripe outside volume of {volume.mapper.num_stripes}"
        )


def _at(volume, cells: CellSet, stripes: Sequence[int]) -> np.ndarray:
    """Flat backing rows of ``cells`` in every stripe, stripe-major."""
    layout = volume.layout
    stride = layout.rows * layout.cols
    if not volume.mapper.rotate and len(stripes) == 1:
        return cells.flat + stripes[0] * stride
    stripes = np.asarray(stripes, dtype=np.intp)[:, None]
    at = stripes * stride + cells.flat
    if volume.mapper.rotate:
        col = cells.flat % layout.cols
        at += (col + stripes) % layout.cols - col
    return at.ravel()


def _by_stripe(cells: CellSet, failed: Sequence[int]) -> Lost:
    """Failed positions of a stripe-major gather of ``cells`` as lost
    cells by stripe index."""
    lost: Lost = {}
    per = len(cells.cells)
    for k in failed:
        i, j = divmod(int(k), per)
        lost.setdefault(i, []).append(cells.cells[j])
    return lost


def _rows(flat: np.ndarray, batch: int, stride: int) -> np.ndarray:
    """Rows ``flat`` of each of ``batch`` consecutive ``stride``-row
    blocks, block-major."""
    if batch == 1:
        return flat
    return (np.arange(batch)[:, None] * stride + flat).ravel()


def _scatter(volume, stripes, at, src, rows=None) -> None:
    """Store ``src[rows]`` — one row per flat backing row of ``at``,
    stripe-major; ``src`` itself, row for row, when ``rows`` is ``None``
    — through the volume's ``_store_rows`` funnel: one call while the
    gathered copy of ``src`` stays under :data:`SCATTER_BYTES`, a longer
    vector of stripes a few whole stripes at a time."""
    per = len(at) // len(stripes)
    step = per * max(1, SCATTER_BYTES // (per * src.shape[1]))
    for lo in range(0, len(at), step):
        block = src[lo:lo + step] if rows is None else src[rows[lo:lo + step]]
        volume._store_rows(at[lo:lo + step], block)


def stale_runs(volume, surface, stripes: Sequence[int]):
    """Cut ``stripes`` into slices ``[lo, hi)`` of at most
    :data:`RUN_CHUNK` neighbours that share their stale columns:
    ``(lo, hi, stale)``."""
    lo = 0
    end = len(stripes)
    while lo < end:
        stale = volume._stale_cols(stripes[lo], surface)
        hi = lo + 1
        while hi < min(end, lo + RUN_CHUNK) and (
            surface.healthy
            or volume._stale_cols(stripes[hi], surface) == stale
        ):
            hi += 1
        yield lo, hi, stale
        lo = hi


def consecutive_runs(stripes: Sequence[int]):
    """Cut ``stripes`` into slices ``[lo, hi)`` of consecutive stripes:
    ``(lo, hi)`` — what one whole-stripe route covers
    (:func:`write_whole`)."""
    lo = 0
    for hi in range(1, len(stripes) + 1):
        if hi == len(stripes) or stripes[hi] != stripes[hi - 1] + 1:
            yield lo, hi
            lo = hi


def _reread(volume, stripes, stale, j0: int, n: int, lost=()) -> np.ndarray:
    """Data cells ``j0 .. j0 + n`` of ``stripes`` through the stripe
    plan — every surviving cell read but ``lost``, the rest decoded —
    healing what failed to read beyond the stale columns."""
    buf, failed = load_stripes(volume, stripes, stale, lost)
    for i, cells in failed.items():
        volume._heal_cells(stripes[i], cells, buf[i])
    cols = volume.layout.cols
    want = volume._data_rows[j0:j0 + n] * cols + volume._data_cols[j0:j0 + n]
    es = volume.element_size
    return buf.reshape(len(stripes), -1, es)[:, want].reshape(-1, es)


def rmw(volume, entries, surface) -> None:
    """Planned read-modify-write of a cache destage's partial buckets
    ``(stripe, row, mask)`` — ``row[j]`` the new value of data cell
    ``j`` for each set bit ``j`` of ``mask``: buckets sharing their mask
    and stale columns, in order of first appearance, run as one vector
    of stripes (:func:`_patch`) with each one's rows from its mask's
    lowest bit on: a lone bucket's read in place, a group's stacked
    into one block."""
    healthy = surface.healthy
    es = volume.element_size
    groups: Dict[tuple, list] = {}
    for entry in entries:
        stripe, _, mask = entry
        key = mask, () if healthy else volume._stale_cols(stripe, surface)
        groups.setdefault(key, []).append(entry)
    for (mask, stale), members in groups.items():
        stripes = [s for s, _, _ in members]
        _check_stripes(volume, min(stripes), max(stripes))
        j0, end = (mask & -mask).bit_length() - 1, mask.bit_length()
        rows = [row[j0:end] for _, row, _ in members]
        values = rows[0][None] if len(rows) == 1 else np.stack(rows)
        # the kernel reads them by address
        if values.dtype != np.uint8 or values.shape[1:] != (end - j0, es):
            raise GeometryError(f"mask {mask:#x} needs uint8 rows {j0}.."
                                f"{end - 1}, got {values.dtype} "
                                f"{values.shape[1:]}")
        plan = volume._ioplans.get(
            ("rmw", mask, stale),
            _compile_rmw, volume, mask, stale, stripes[0],
        )
        _patch(volume, plan, stripes, surface.failed, values, mask)


def _patch(volume, plan, stripes, failed, values, mask: int) -> None:
    """Run the RMW ``plan`` (keyed for the ``failed`` disks) over
    ``stripes``: each data cell ``j`` of ``mask`` takes ``values[i][j -
    j0]`` in stripe ``i``, ``j0`` the lowest; reconstruct-write
    (:func:`_reconstruct`) each stripe it cannot patch: all with no plan
    or when its store failed (a disk died since the surface was taken,
    retries ran out), and a stripe an old value of which fails to read —
    nothing of it landed; the cells that failed are known-lost."""
    lost = None
    if plan is not None:
        try:
            lost = _execute(volume, plan, stripes, failed, values)
        except (DiskFailedError, TransientIOError):
            pass
    if lost is None:
        lost = dict.fromkeys(range(len(stripes)), ())
    for i, unread in lost.items():
        _reconstruct(volume, stripes[i], mask, values[i], unread)


def _reconstruct(
    volume, stripe: int, mask: int, values, lost: Sequence[Cell] = ()
) -> None:
    """Write data cells ``j`` of ``mask`` — ``values[j - j0]`` each,
    ``j0`` the lowest — to ``stripe`` the long way: load its image
    (:func:`load_stripes`, cells ``lost`` known not to read), apply
    them, re-encode, store every cell off the columns stale once the
    load is done (:func:`store_stripes`): a latent sector the load met
    may have failed its disk."""
    js = set_bits(mask)
    buf = load_stripes(volume, (stripe,), volume._stale_cols(stripe), lost)[0]
    buf[0, volume._data_rows[js], volume._data_cols[js]] = \
        values[np.subtract(js, js[0])]
    volume.codec.encode(buf[0])
    store_stripes(volume, (stripe,), buf, volume._stale_cols(stripe))


def _execute(
    volume, plan: Plan, stripes: Sequence[int], failed: Tuple[int, ...],
    values: Optional[np.ndarray] = None, out: Optional[np.ndarray] = None,
) -> Lost:
    """Run ``plan`` — keyed for the ``failed`` disks of the op's surface —
    over ``stripes`` with ``values`` (``(stripes, rows, element_size)``,
    each stripe's rows that ``keep`` and ``items`` index), picking into
    ``out`` (``(stripes * len(pick), element_size)``): one ``plan_exec``
    call on the volume's kernel handle while it admits it — which adds
    its counts to the disks' counters — otherwise :func:`_plan_run`.
    Returns the cells that failed to read, by stripe index (never any in
    the kernel)."""
    c = volume._kernel(plan.cells.mask, failed)
    if c is None:
        return _plan_run(volume, plan, stripes, values, out)
    # a ``range`` or one stripe go by their first number, any other
    # vector as an array
    vector = None
    if type(stripes) is not range and len(stripes) > 1:
        vector = np.array(stripes, dtype=np.int64)
    if values is not None:
        values = np.ascontiguousarray(values)
    c.plan_exec(volume._geometry.address, plan.packed.address, stripes[0],
                vector, len(stripes), values, out, volume._io,
                volume._io_lock)
    return {}


class Route(NamedTuple):
    """One read or write of a logical range, keyed for the ``failed``
    disks of the op's surface: what ``route_exec`` and its numpy twin
    :func:`_route_walk` both follow (:func:`run_route`).

    ``runs`` are ``(stripes, j0, n, plan, stale)`` from the op's first
    stripe on — data cells ``j0 .. j0 + n`` of each of ``stripes``
    stripes with stale columns ``stale``: the op's ``mapper.split`` runs,
    cut by :func:`stale_runs`.  ``plan`` is a read's :class:`CellSet`
    (walked) or read :class:`Plan`, ``None`` for algebraic decoding; a
    write's RMW :class:`Plan`, or ``None``: whole stripes (``n`` is
    ``num_data_cells``) copied, encoded and stored, or a partial stripe
    reconstruct-written.  No runs: the healthy read's walk.  ``packed``
    is ``route_exec``'s words (:func:`repro.util.ckernel.pack_route`;
    the runs keep the plans they point at alive), ``None`` with no
    kernel and for a run it does not run — algebraic decoding, a
    reconstruct-write, whole stripes with a stale column or rotated —
    so the route is walked; ``mask``, the layout columns it touches.
    """

    mask: int
    runs: tuple = ()
    packed: Optional[Packed] = None
    failed: Tuple[int, ...] = ()


def _run_plan(volume, kind: str, j0: int, n: int, stale, stripe: int):
    """The plan of one run of a route of ``kind``: the read plan of data
    cells ``j0 .. j0 + n``, or the RMW plan of writing them."""
    if kind == "read":
        return volume._ioplans.get(
            ("read", j0, n, stale), _compile_read, volume, j0, n, stale,
            stripe,
        )
    js = range(j0, j0 + n)
    return volume._ioplans.get(
        ("rmw", js, stale), _compile_rmw, volume, js, stale, stripe
    )


def _compile_route(volume, kind: str, start: int, count: int, surface):
    """The :class:`Route` of a ``kind`` (``"read"`` or ``"rmw"``) of
    ``count`` elements from ``start`` on ``surface``."""
    per = volume.layout.num_data_cells
    runs, mask = [], 0
    words = volume._c is not None
    for s0, stripes, j0, n, _ in volume.mapper.split(start, count):
        for lo, hi, stale in stale_runs(
            volume, surface, range(s0, s0 + stripes)
        ):
            if kind == "rmw" and n == per:
                plan, cells = None, _live(volume, stale)
                words = words and not stale and not volume.mapper.rotate
            else:
                plan = cells = _run_plan(volume, kind, j0, n, stale, s0 + lo)
                if type(plan) is Plan:
                    cells = plan.cells
                words = words and plan is not None
            if cells is not None:
                mask |= cells.mask
            runs.append((hi - lo, j0, n, plan, stale))
    packed = ckernel.pack_route([
        (stripes, j0, n, plan.packed if type(plan) is Plan else None)
        for stripes, j0, n, plan, _ in runs
    ]) if words else None
    return Route(mask, tuple(runs), packed, surface.failed)


def _route(volume, name: str, kind: str, start, count, surface) -> Route:
    """The route of a ``kind``, cached under ``(name, start % per,
    count, failed disks)`` — what its runs and their patterns are a
    function of while every stripe has the same stale columns; built
    for the op alone where they vary by stripe (rotated with a failed
    disk, a rebuild in flight)."""
    if surface.rebuilding or volume.mapper.rotate and surface.failed:
        return _compile_route(volume, kind, start, count, surface)
    return volume._ioplans.get(
        (name, start % volume._per, count, surface.failed),
        _compile_route, volume, kind, start, count, surface,
    )


def read_route(volume, start: int, count: int, surface) -> Route:
    """The route of a read: its runs' read plans (:func:`_route`)."""
    return _route(volume, "route", "read", start, count, surface)


def write_route(volume, start: int, count: int, surface) -> Route:
    """The route of a write of any length (:func:`_route`): the RMW
    plans of its partial head and tail stripes and, between them, its
    whole stripes."""
    return _route(volume, "wroute", "rmw", start, count, surface)


def run_route(
    volume, start: int, count: int, route: Route,
    values: Optional[np.ndarray] = None, out: Optional[np.ndarray] = None,
) -> None:
    """Run ``route`` over logical elements ``[start, start + count)``, a
    write of ``values`` or a read into ``out`` (``(count,
    element_size)``; ``values`` must not alias the backing store, and
    the caller holds a write's stripe locks): one ``route_exec`` call
    where it has words and ``RAID6Volume._kernel`` admits it — which
    adds its counts to the disks' counters — else :func:`_route_walk`."""
    c = volume._kernel(route.mask, route.failed) \
        if route.packed is not None or not route.runs else None
    if c is None:
        _route_walk(volume, start, count, route, values, out)
        return
    if values is not None:
        values = np.ascontiguousarray(values)
    c.route_exec(
        volume._geometry.address, start, count,
        None if route.packed is None else route.packed.address,
        values, out, volume._io, volume._io_lock,
    )


def route_legs(volume, start: int, route: Route):
    """Each run of ``route`` from logical element ``start`` as ``(span,
    k, j0, n, plan, stale)``: its stripes (a ``range``) and the op's rows
    from ``k`` on that its data cells ``j0 .. j0 + n`` take."""
    stripe, k = start // volume.layout.num_data_cells, 0
    for stripes, j0, n, plan, stale in route.runs:
        yield range(stripe, stripe + stripes), k, j0, n, plan, stale
        stripe += stripes
        k += stripes * n


def _route_walk(
    volume, start: int, count: int, route: Route,
    values: Optional[np.ndarray] = None, out: Optional[np.ndarray] = None,
) -> None:
    """The numpy interpreter of :class:`Route`: ``route_exec`` run by
    run through the volume's funnels — a read run walked or rebuilt by
    its read plan (:func:`_read_run`), a write's partial stripe patched
    by its RMW plan (:func:`_patch`), its whole stripes copied, encoded
    and stored (:func:`_store_whole`).  The healthy walk first looks up
    its runs.  A write stores its partial stripes first, then its whole
    ones: that is the order of the op stream under a hook that fault
    schedules and crash points index.  Otherwise runs go in split
    order."""
    if not route.runs:
        route = read_route(volume, start, count, volume._surface())
    per = volume.layout.num_data_cells
    legs = list(route_legs(volume, start, route))
    if values is not None:
        legs.sort(key=lambda leg: leg[4] is None and leg[3] == per)
    for span, k, j0, n, plan, stale in legs:
        rows = slice(k, k + len(span) * n)
        if values is None:
            _read_run(volume, span, j0, n, plan, stale, route.failed,
                      out[rows])
            continue
        batch = values[rows].reshape(len(span), n, -1)
        if plan is None and n == per:
            _store_whole(volume, span, stale, batch, route.failed)
        else:
            _patch(volume, plan, span, route.failed, batch,
                   ((1 << n) - 1) << j0)


def _read_run(volume, stripes, j0, n, plan, stale, failed, out) -> None:
    """Data cells ``j0 .. j0 + n`` of ``stripes`` into ``out``: gathered
    straight into it or rebuilt and picked by the run's read plan.  A
    pattern that needs algebraic decoding, and a stripe holding a cell
    that fails to read, go through the stripe plan (:func:`_reread`)."""
    if plan is None:
        out[...] = _reread(volume, stripes, stale, j0, n)
        return
    if type(plan) is Plan:
        lost = _execute(volume, plan, stripes, failed, out=out)
    else:
        at = _at(volume, plan, stripes)
        # "clip" lets take() skip its bounce buffer; the rows are in range
        np.take(volume._flat_backing, at, axis=0, out=out, mode="clip")
        lost = _by_stripe(plan, volume._read_rows(at, out, plan))
    for i, cells in lost.items():
        out[i * n:(i + 1) * n] = _reread(
            volume, (stripes[i],), stale, j0, n, cells
        )


def _store_whole(volume, stripes: range, stale, values, failed) -> None:
    """Write whole ``stripes`` from their logical payload ``values``:
    copied into their data cells, encoded, stored off the ``stale``
    columns.  With none, unrotated, with quiet stores and no disk failed,
    in place in the run's slab of the stripe-major backing store,
    announced by one ``_store_rows`` call without data for the
    observers; otherwise in a private buffer that :func:`store_stripes`
    scatters — off the stale columns of the failure state now where a
    disk has failed since the route's ``failed`` were taken (the error
    policy, under an earlier run of the op), as :func:`_reconstruct`
    stores."""
    layout, codec = volume.layout, volume.codec
    batch, per, es = values.shape
    if stale or volume._failed or volume.mapper.rotate or \
            volume._hooked(store=True):
        buf = blank_batch(codec, batch)
        buf[:, volume._data_rows, volume._data_cols] = values
        encode_batch(codec, buf)
        runs = [(0, batch, stale)] if volume._failed == failed else \
            stale_runs(volume, volume._surface(), stripes)
        for lo, hi, now in runs:
            store_stripes(volume, stripes[lo:hi], buf[lo:hi], now)
        return
    slab = volume._backing[
        stripes[0] * layout.rows:(stripes[-1] + 1) * layout.rows
    ].reshape(batch, layout.rows, layout.cols, es)
    if volume._row_major_data:
        # the data cells are the head of each stripe: one block copy
        slab.reshape(batch, -1, es)[:, :per] = values
    else:
        slab[:, volume._data_rows, volume._data_cols] = values
    encode_batch(codec, slab)
    volume._store_rows(_at(volume, _live(volume, ()), stripes))


def write_whole(volume, stripes: Sequence[int], data, surface) -> None:
    """Write whole ``stripes`` — gaps allowed — from ``data``
    (``(stripes, num_data_cells, element_size)``): each run of
    consecutive ones along its whole-stripe route (:func:`write_route`,
    :func:`run_route`).  The caller holds their write locks."""
    per = volume.layout.num_data_cells
    for lo, hi in consecutive_runs(stripes):
        start, count = stripes[lo] * per, (hi - lo) * per
        run_route(
            volume, start, count, write_route(volume, start, count, surface),
            values=data[lo:hi].reshape(count, -1),
        )


def _plan_run(
    volume, plan: Plan, stripes: Sequence[int],
    values: Optional[np.ndarray] = None, out: Optional[np.ndarray] = None,
) -> Lost:
    """The numpy interpreter of :class:`Plan`: ``plan_exec`` step for
    step — gather, values and deltas, program, changed mask, read set,
    store, pick — with the gathers and the store through the volume's
    funnels, so a hooked disk meets every element in plan order.

    Every cell is gathered: the read funnel presents whatever the deltas
    make the plan read.  A plan that stores nothing reads through the
    funnel before its program runs; an RMW reads after it, once the
    deltas name the read set, and every old value is read before the
    first write lands: a stripe with one that fails is handed back
    untouched.
    """
    cells = plan.cells
    batch, es, g = len(stripes), volume.element_size, len(cells.flat)
    at = _at(volume, cells, stripes)
    scratch = np.empty((batch, plan.base + plan.xor.num_cells, es), np.uint8)
    old = scratch[:, :g]
    if plan.n:
        # straight into the scratch ("clip" lets take() skip its bounce
        # buffer; the rows are in range)
        volume._flat_backing.take(
            at.reshape(batch, g), axis=0, out=old, mode="clip"
        )
    else:
        block = volume._flat_backing[at]
        failed = volume._read_rows(at, block, cells)
        old[...] = block.reshape(batch, g, es)
    m, k = len(plan.keep), len(plan.items)
    if values is not None:
        # a run with no dirty cell lost keeps every row, in order
        kept = values if not k and values.shape[1] == m else \
            values[:, plan.keep]
        if k:
            scratch[:, plan.values:plan.values + k] = values[:, plan.items]
        np.bitwise_xor(
            old[:, :m], kept, out=scratch[:, plan.delta:plan.delta + m]
        )
    plan.xor.execute_batch(scratch[:, plan.base:])
    if not plan.n:
        scratch.take(
            plan.pick, axis=1, out=out.reshape(batch, -1, es), mode="clip"
        )
        return _by_stripe(cells, failed)
    n = plan.n
    delta = scratch[:, plan.delta:plan.delta + n]
    # a cell whose delta is zero is not written, and read only where the
    # plan fetches it
    changed = delta.any(axis=2)
    read, written = None, slice(n)  # one stripe, no mask: every row
    if batch > 1 or not changed.all():
        mask = np.zeros((batch, g), dtype=bool)
        mask[:, :n] = changed
        written = np.flatnonzero(mask)
        mask[:, plan.fetch] = True
        read = np.flatnonzero(mask)
    new = old.reshape(-1, es)  # a view of one stripe, a copy of more
    lost = _by_stripe(cells, volume._read_rows(at, new, cells, read))
    if len(lost) == batch:
        return lost
    patched = new.reshape(batch, g, es)
    np.bitwise_xor(patched[:, m:n], delta[:, m:], out=patched[:, m:n])
    patched[:, :m] = kept
    if lost:  # several stripes, so ``written`` is an array
        written = written[np.isin(written // g, list(lost), invert=True)]
    volume._store_rows(at[written], new[written])
    return lost


def stripe_rows(volume, stripes: Sequence[int], missing_cols: Sequence[int]):
    """What :func:`gather_stripes` reads: each stripe's live cells and
    the flat backing row of every block, stripe-major (``divmod(at,
    cols)`` is ``(offsets, disks)``)."""
    cells = _live(volume, missing_cols)
    return cells.cells, _at(volume, cells, stripes)


def _gather(
    volume, cells: CellSet, stripes, out: np.ndarray, dest: np.ndarray,
    verify: bool = True,
) -> Lost:
    """Read ``cells`` of every stripe into rows ``dest`` (stripe-major)
    of ``out``: the cells that failed to read, by stripe index."""
    at = _at(volume, cells, stripes)
    block = volume._flat_backing[at]
    failed = volume._read_rows(at, block, cells, verify=verify)
    out[dest] = block
    return _by_stripe(cells, failed)


def gather_stripes(
    volume, stripes: Sequence[int], missing_cols: Sequence[int],
    lost: Sequence[Cell] = (), verify: bool = True,
) -> Tuple[np.ndarray, Lost]:
    """Read every cell of ``stripes`` — which share their
    ``missing_cols``; one stripe is the scalar case — outside those
    columns but ``lost`` (cells known lost in each of them) into a
    ``(stripes, rows, cols, element_size)`` buffer, the rest left as
    garbage; also the cells that failed to read, ``lost`` first, by
    stripe index.

    ``verify=False`` is the integrity sweeps' raw gather: they hash every
    block themselves, whatever the verified bitmap says.
    """
    _check_stripes(volume, min(stripes), max(stripes))
    layout = volume.layout
    cells = _live(volume, missing_cols)
    if lost:
        cells = CellSet([c for c in cells.cells if c not in lost], layout.cols)
    batch, es = len(stripes), volume.element_size
    # not zeroed: every cell is gathered here or rebuilt by the caller
    buf = np.empty((batch, layout.rows, layout.cols, es), dtype=np.uint8)
    failed = _gather(
        volume, cells, stripes, buf.reshape(-1, es),
        _rows(cells.flat, batch, layout.rows * layout.cols), verify,
    )
    if lost:
        failed = {i: list(lost) + failed.get(i, []) for i in range(batch)}
    return buf, failed


def load_stripes(
    volume, stripes: Sequence[int], missing_cols: Sequence[int],
    lost: Sequence[Cell] = (), col: Optional[int] = None,
) -> Tuple[np.ndarray, Lost]:
    """Every cell of ``stripes`` — which share their ``missing_cols``;
    one stripe is the scalar case — as ``(stripes, rows, cols,
    element_size)`` images, or with ``col``, one of those columns, its
    cells alone, ``(stripes, cells, element_size)``; also the cells that
    failed to read, ``lost`` (cells known lost in each stripe) first, by
    stripe index.

    One :func:`_execute` of the recovery plan — the hybrid planner's
    minimal read set of ``col`` when it alone is lost, else every live
    cell — keyed for the disks failed now (a load stores nothing).  The
    volume's decoder finishes what the plan cannot, raising a typed
    :class:`~repro.exceptions.UnrecoverableStripeError` for a stripe
    that lost more than its code decodes: a pattern with no XOR
    schedule, and cells known ``lost``, gather the live cells raw
    (:func:`gather_stripes`); a stripe whose cells fail to read is
    decoded in its image — or, on the minimal read set, loaded again
    with them known-lost."""
    _check_stripes(volume, min(stripes), max(stripes))
    layout, es, batch = volume.layout, volume.element_size, len(stripes)
    stale = tuple(sorted(missing_cols))
    lone = None if lost or len(stale) > 1 else col
    plan = None if lost else volume._ioplans.get(
        ("recover", stale, lone), _compile_recovery, volume, stale, lone
    )
    if plan is None:
        buf, failed = gather_stripes(volume, stripes, stale, lost)
        decode = range(batch) if stale else failed
    else:
        buf = np.empty((batch, len(plan.pick), es), dtype=np.uint8)
        failed = decode = _execute(
            volume, plan, stripes, volume._failed, out=buf.reshape(-1, es)
        )
    if col is not None:
        rows = [cell.row for cell in layout.cells_in_column(col)]
    if lone is not None:
        for i, cells in failed.items():
            image = load_stripes(volume, (stripes[i],), stale, cells)[0]
            buf[i] = image[0, rows, col]
        return buf, failed
    buf = buf.reshape(batch, layout.rows, layout.cols, es)
    if decode:
        gone = sorted(column_failure_cells(layout, stale))
        for i in decode:
            volume._decode_cells_checked(
                stripes[i], buf[i], gone + failed.get(i, [])
            )
    return (buf if col is None else buf[:, rows, col]), failed


def store_stripes(
    volume, stripes: Sequence[int], buf, skip_cols: Sequence[int]
) -> None:
    """Scatter every cell of the encoded ``buf`` — one ``(rows, cols,
    element_size)`` image per stripe — outside ``skip_cols`` to its disk."""
    _check_stripes(volume, min(stripes), max(stripes))
    cells = _live(volume, skip_cols)
    src = np.ascontiguousarray(buf).reshape(-1, volume.element_size)
    _scatter(
        volume, stripes, _at(volume, cells, stripes), src,
        _rows(cells.flat, len(stripes), len(src) // len(stripes)),
    )


def store_cells(volume, stripe: int, cells: Sequence[Cell], buf) -> None:
    """Write ``cells`` of ``stripe`` from its ``(rows, cols,
    element_size)`` image ``buf``: one store (repairs and heals)."""
    footprint = CellSet(cells, volume.layout.cols)
    volume._store_rows(
        _at(volume, footprint, (stripe,)),
        buf.reshape(-1, volume.element_size)[footprint.flat],
    )


def _compile_resync(layout) -> Tuple[CellSet, CellSet]:
    return (
        CellSet(layout.data_cells, layout.cols),
        CellSet(layout.parity_cells, layout.cols),
    )


def resync(volume, stripes: Sequence[int]) -> None:
    """Re-encode the parity of ``stripes`` from their data cells: one
    gather of the data cells, one encode, one store of the parity cells.

    A data cell that fails to read raises a typed
    :class:`~repro.exceptions.UnrecoverableStripeError`: the parity of a
    torn stripe cannot stand in for it.
    """
    _check_stripes(volume, min(stripes), max(stripes))
    layout = volume.layout
    data, parity = volume._ioplans.get(("resync",), _compile_resync, layout)
    batch, stride = len(stripes), layout.rows * layout.cols
    buf = blank_batch(volume.codec, batch)
    flat = buf.reshape(-1, volume.element_size)
    failed = _gather(
        volume, data, stripes, flat, _rows(data.flat, batch, stride)
    )
    for i, cells in failed.items():
        raise UnrecoverableStripeError(
            stripes[i], cells, reason="data cell unreadable during resync"
        )
    encode_batch(volume.codec, buf)
    _scatter(
        volume, stripes, _at(volume, parity, stripes), flat,
        _rows(parity.flat, batch, stride),
    )


def rebuild(
    volume, stripes: Sequence[int], stale: Tuple[int, ...], col: int
) -> None:
    """Rebuild layout column ``col`` of ``stripes``, whose stale columns
    ``stale`` include it: one load of the column (:func:`load_stripes`),
    one store.  Nothing is stored when a stripe turns out unrecoverable
    (:class:`~repro.exceptions.UnrecoverableStripeError`).
    """
    layout = volume.layout
    column = volume._ioplans.get(
        ("column", col), CellSet, layout.cells_in_column(col), layout.cols
    )
    src = load_stripes(volume, stripes, stale, col=col)[0]
    _scatter(
        volume, stripes, _at(volume, column, stripes),
        src.reshape(-1, volume.element_size),
    )
