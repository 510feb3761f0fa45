"""One differential oracle for the volume's executors.

Every read and write of :class:`~repro.array.volume.RAID6Volume` is one
``ioplan.Route`` run by the C kernel's ``route_exec`` or by its numpy
twin ``ioplan._route_walk``; every plan outside a route (a destage's
RMW, a stripe load, a rebuild) by ``plan_exec`` or ``ioplan._plan_run``;
a disk with a hook gets the same plans element by element.
:class:`Mirror` applies each op to four volumes that must stay
indistinguishable:

* ``kernel`` — the C kernel wherever ``RAID6Volume._kernel`` admits it;
* ``numpy`` — the numpy interpreters only (``_c = None``: no kernel);
* ``hooked`` — a fault hook that does nothing on every disk, so every
  gather and store goes element by element;
* ``reference`` — the per-element walk of :mod:`tests.oracles.walk`,
  retired for the rest of the stream once rot or a latent sector is
  planted or an integrity sweep runs (the walk models a quiet surface).

After every op the returned bytes (or the error raised), the backing
images, ``io_counters()`` and ``heal_log`` agree; where attached, so do
the checksum stores, the verified bitmaps, the dirty-stripe sets, the
journals' state and the write-back caches.  An op that returns leaves
none of its journal intents open.

:func:`run_stream` drives one seeded op stream, drawn from the
benchmark's traffic (``bench/workloads.py``): short reads and writes in
its 7:3 mix with fresh, zero-delta and half-changed data, whole-stripe
sweeps, cache writes through a cache sized as a serving shard sizes
it, ``_write_rest`` bursts, failures, rebuilds, latent sectors (with
the error policy escalating a disk in the middle of an op), rot,
observers attached and detached, and the scrubs.  An error is a
failure unless :func:`excused` (damage was planted); a failure names
the seed and the index and name of the op.

:func:`watch` installs the spies that fill a :class:`~collections.
Counter` hit table: which interpreter ran each route and plan, each
route run's kind, each reason ``_kernel`` stood down for, and each
read and write's shape and failure class (:data:`ROWS`).  The spies
also check the dispatch itself: ``_kernel`` refuses exactly where
:func:`stand_down` names a reason, a route runs in ``route_exec``
exactly when every run is of a kind the kernel runs and ``_kernel``
admits it, and a destage's group of buckets sharing a plan runs in
one ``plan_exec`` call (a lone bucket's values read in place off the
cache slab) or one ``_plan_run`` call.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import List, Optional, Tuple

import numpy as np

from repro.array import ioplan
from repro.array.cache import StripeCache
from repro.array.integrity import IntegrityChecker
from repro.array.volume import RAID6Volume
from repro.exceptions import ReproError
from repro.faults.health import HealthState
from repro.journal import WriteIntentLog
from repro.serve.checkpoint import DirtyStripeTracker

from bench.workloads import CACHE_STRIPES, EVICT_BATCH
from tests.conftest import bucket
from tests.oracles import walk

ES = 16
#: more than ``ioplan.RUN_CHUNK`` stripes: every chunked sweep has a seam
STRIPES = 33
#: the benchmark's short ops: 1 to 20 elements, 7 reads to 3 writes
MAX_LEN = 20
#: errors a disk may take before the stream's error policy fails it
ESCALATE_AFTER = 4
#: what an op may raise alike on every volume and be compared by: the
#: typed errors and a raw ``ValueError`` (:func:`excused` says when a
#: stream goes on — never past a raw one)
RAISED = (ReproError, ValueError)


def _noop_hook(disk, op, offset) -> None:
    """A fault hook that lets every element through."""


def _walk_rest(volume, entries, surface=None) -> None:
    """``_write_rest`` by the walk: each bucket on its own."""
    cells = volume.layout.data_cells
    for stripe, row, mask in entries:
        walk.write_stripe(volume, stripe, [
            (cells[j], row[j]) for j in ioplan.set_bits(mask)
        ])


def _walk_seed(volume) -> None:
    """The reads of an integrity checker's seeding sweep, by the walk:
    every cell off its stripe's stale columns."""
    layout = volume.layout
    for stripe in range(volume.mapper.num_stripes):
        stale = volume._stale_cols(stripe)
        for col in range(layout.cols):
            if col not in stale:
                for cell in layout.cells_in_column(col):
                    walk._read_cell(volume, stripe, cell)


class Mirror:
    """One op stream on the ``kernel``, ``numpy``, ``hooked`` and
    ``reference`` volumes; ``**kwargs`` go to each
    :class:`RAID6Volume`, ``journaled`` gives each engine volume a
    journal of its own (the walk journals nothing), ``cache`` is each
    side's write-back cache's ``(max_dirty_stripes, evict_batch)``."""

    NAMES = ("kernel", "numpy", "hooked", "walk")

    def __init__(self, layout, stripes: int = STRIPES, es: int = ES,
                 journaled: bool = False, hits: Optional[Counter] = None,
                 cache: Tuple[int, int] = (CACHE_STRIPES, EVICT_BATCH),
                 **kwargs) -> None:
        def volume(journal=None):
            return RAID6Volume(layout, num_stripes=stripes, element_size=es,
                               journal=journal, **kwargs)

        self.volumes = tuple(
            volume(WriteIntentLog() if journaled else None) for _ in range(3)
        )
        self.kernel, self.numpy, self.hooked = self.volumes
        self.numpy._c = None
        for disk in self.hooked.disks:
            disk.fault_hook = _noop_hook
        self.reference = volume()
        self.reference._write_rest = functools.partial(
            _walk_rest, self.reference
        )
        self.layout, self.per, self.es = layout, layout.num_data_cells, es
        self.hits = Counter() if hits is None else hits
        self.caches = {
            v: StripeCache(v, max_dirty_stripes=cache[0],
                           evict_batch=cache[1])
            for v in self.sides
        }
        self.checkers: Optional[list] = None
        self.trackers: Optional[list] = None
        self.cursors: Optional[list] = None
        #: rot planted; rot or a latent sector planted
        self.rotten = self.damaged = False

    @property
    def sides(self) -> tuple:
        if self.reference is None:
            return self.volumes
        return self.volumes + (self.reference,)

    def retire(self) -> None:
        """Drop the walk's volume: the ops from here on have no quiet
        reference."""
        self.reference = None

    def narrow(self) -> None:
        """Drop the hooked volume and the walk's: the kernel against
        numpy alone, for sweeps too long to run element by element."""
        self.volumes, self.hooked = self.volumes[:2], None
        self.retire()

    # -- comparison -------------------------------------------------------

    def check(self) -> None:
        """Every side's backing image, per-disk counters, heal log,
        failure state, rebuild position and cache, and between the
        engine volumes the checksums, verified bitmaps, dirty sets and
        journals, equal."""
        first = self.kernel
        cursor = first.rebuild_cursor
        for name, other in zip(self.NAMES[1:], self.sides[1:]):
            assert np.array_equal(first._backing, other._backing), \
                f"{name}: backing image"
            assert first.io_counters() == other.io_counters(), \
                f"{name}: io counters {other.io_counters()} against " \
                f"{first.io_counters()}"
            assert first.heal_log == other.heal_log, f"{name}: heal log"
            assert first.failed_disks == other.failed_disks, name
            theirs = other.rebuild_cursor
            assert (cursor is None) == (theirs is None), name
            assert cursor is None or (cursor.pos, cursor.active) == \
                (theirs.pos, theirs.active), f"{name}: rebuild cursor"
            a, b = self.caches[first], self.caches.get(other)
            if b is not None:
                assert a.dirty_stripes == b.dirty_stripes, f"{name}: cache"
                assert a.destage_count == b.destage_count, f"{name}: cache"
        if self.checkers:
            a = self.checkers[0].store
            for checker in self.checkers[1:]:
                assert a._sums == checker.store._sums, "checksums"
                assert np.array_equal(a._verified, checker.store._verified)
        if self.trackers:
            dirty = [t.drain() for t in self.trackers]
            assert dirty[1:] == dirty[:-1], f"dirty stripes {dirty}"
        if first.journal is not None:
            journals = [_journal_state(v.journal) for v in self.volumes]
            assert journals[1:] == journals[:-1], f"journals {journals}"

    def each(self, op, ref=None):
        """``op(volume)`` on every engine volume and ``ref`` (``op`` by
        default) on the walk's: the kernel's result once every side
        returned the same (arrays byte for byte) or raised the same
        error, and the volumes still agree (:meth:`check`).  An op that
        returns leaves none of its journal intents open."""
        marks = [None if v.journal is None else v.journal.next_seq
                 for v in self.volumes]
        outcomes = []
        for volume in self.volumes:
            outcomes.append(_outcome(op, volume))
        if self.reference is not None:
            outcomes.append(_outcome(ref or op, self.reference))
        raised, first = outcomes[0]
        for name, (other_raised, other) in zip(self.NAMES[1:], outcomes[1:]):
            if raised or other_raised:
                assert (type(first), str(first)) == \
                    (type(other), str(other)), \
                    f"{name}: {other!r} against {first!r}"
            elif isinstance(first, np.ndarray):
                assert np.array_equal(first, other), f"{name}: bytes"
            else:
                assert first == other, f"{name}: {other!r} against {first!r}"
        self.check()
        if raised:
            raise first
        for name, volume, mark in zip(self.NAMES, self.volumes, marks):
            if volume.journal is not None:
                left = [i.seq for i in volume.journal.open_intents()
                        if i.seq >= mark]
                assert not left, f"{name}: intents {left} left open"
        return first

    # -- reads and writes -------------------------------------------------

    def _classify(self, op: str, start: int, count: int) -> tuple:
        """The hit-table row of ``op``'s shape and the failure class it
        meets, counted once the op returns."""
        per = self.per
        head, tail = start % per, (start + count) % per
        stripes = (start + count - 1) // per - start // per + 1
        whole = stripes - (head > 0) - (tail > 0)
        if not whole:
            shape = "short" if stripes == 1 else "cross"
        else:
            shape = "whole" if not head and not tail else "mixed"
        volume = self.kernel
        if volume.health is HealthState.REBUILDING:
            state = "rebuilding"
        else:
            state = ("healthy", "one", "two")[len(volume.failed_disks)]
        return "shape", op, shape, state

    def read(self, start: int, count: int) -> np.ndarray:
        row = self._classify("read", start, count)
        got = self.each(
            lambda v: v.read(start, count).copy(),
            lambda v: walk.read(v, start, count),
        )
        self.hits[row] += 1
        return got

    def write(self, start: int, data: np.ndarray) -> None:
        row = self._classify("write", start, len(data))
        self.each(lambda v: v.write(start, data.copy()),
                  lambda v: walk.write(v, start, data))
        self.hits[row] += 1

    def write_rest(self, entries) -> None:
        """One ``_write_rest`` queue of ``(stripe, items)`` buckets, each
        as its row and mask (:func:`tests.conftest.bucket`)."""
        self.each(lambda v: v._write_rest([
            bucket(self.layout, stripe, items) for stripe, items in entries
        ]))

    def cache_write(self, start: int, data: np.ndarray) -> None:
        self.each(lambda v: self.caches[v].write(start, data.copy()))

    def flush(self) -> int:
        return self.each(lambda v: self.caches[v].flush())

    # -- failures and rebuilds --------------------------------------------

    def fail_disk(self, disk: int) -> None:
        self.each(lambda v: v.fail_disk(disk))

    def start_rebuild(self, disk: int, batch: int) -> None:
        self.cursors = [None] * len(self.sides)

        def start(v):
            cursor = v.start_rebuild(disk, batch=batch)
            self.cursors[self.sides.index(v)] = cursor

        self.each(start)

    def step(self) -> int:
        """One step of every side's rebuild cursor: stripes rebuilt."""
        cursors = dict(zip(self.sides, self.cursors))
        return self.each(
            lambda v: cursors[v].step(),
            lambda v: walk.rebuild_step(cursors[v]),
        )

    def rebuild(self, disk: int, batch: int) -> None:
        """Replace ``disk`` and step its cursor to the end."""
        self.start_rebuild(disk, batch)
        while self.cursors[0].active:
            self.step()

    # -- damage -------------------------------------------------------------

    def mark_bad(self, disk: int, offset: int) -> None:
        """A latent sector on every engine volume."""
        self.retire()
        self.damaged = True
        self.each(lambda v: v.disks[disk].mark_bad(offset))

    def rot(self, disk: int, offset: int) -> None:
        """Flip one block behind the volumes' backs, as if it had not
        been read since it was written: a vector gather trusts a
        verified bit, an element-by-element load re-hashes."""
        self.retire()
        self.rotten = self.damaged = True
        for i, volume in enumerate(self.volumes):
            volume.disks[disk]._store[offset] ^= 0xFF
            if self.checkers:
                self.checkers[i].store._verified[disk, offset] = False
        self.check()

    # -- observers ------------------------------------------------------------

    def attach_checker(self) -> None:
        self.checkers = []
        self.each(lambda v: self.checkers.append(IntegrityChecker(v)),
                  _walk_seed)

    def detach_checker(self) -> None:
        for checker in self.checkers:
            checker.detach()
        self.checkers = None

    def attach_tracker(self) -> None:
        self.trackers = [DirtyStripeTracker(v) for v in self.volumes]

    def detach_tracker(self) -> None:
        for tracker in self.trackers:
            tracker.detach()
        self.trackers = None

    def phase_hook(self, on: bool) -> None:
        """A crash-point phase hook that does nothing, on or off."""
        for volume in self.volumes:
            volume.journal.phase_hook = (lambda phase, stripe: None) \
                if on else None

    # -- scrubs ---------------------------------------------------------------

    def scrub(self) -> List[int]:
        return self.each(lambda v: v.scrub(), walk.scrub)

    def scrub_and_repair(self):
        stripes = self.kernel.mapper.num_stripes
        cells = self.layout.rows * self.layout.cols

        def report(v):
            r = v.scrub_and_repair()
            return (dict(r), r.elements_read, r.elements_written,
                    r.stripes_scanned)

        def reference(v):
            assert walk.scrub(v) == []
            return {}, stripes * cells, 0, stripes

        return self.each(report, reference)

    def resync(self, stripes) -> int:
        return self.each(lambda v: v.resync_stripes(stripes),
                         lambda v: walk.resync(v, stripes) or len(
                             set(stripes)))

    def integrity(self, method: str):
        """An integrity checker's ``find_corruption`` or
        ``scrub_campaign`` on every engine volume (the walk has none)."""
        self.retire()
        checkers = dict(zip(self.volumes, self.checkers))
        return self.each(lambda v: getattr(checkers[v], method)())


def _journal_state(journal) -> tuple:
    """What a journal holds: its counts and its open intents (a write
    that raised leaves its intents open for recovery)."""
    return journal.stats, journal.next_seq, [
        (i.seq, i.stripe, i.dirty_cells) for i in journal.open_intents()
    ]


def _outcome(op, volume) -> Tuple[bool, object]:
    try:
        return False, op(volume)
    except RAISED as exc:
        return True, exc


# -- the hit table -----------------------------------------------------------------

#: a route run the kernel runs (``route_exec``), by kind; the others are
#: walked in numpy
C_RUNS = {"walk", "rebuild", "rmw", "whole"}

SHAPES = ("short", "cross", "whole", "mixed")
STATES = ("healthy", "one", "two", "rebuilding")
REASONS = ("hook", "latent", "behind", "integrity", "observer",
           "phase_hook", "numpy")

#: every row the hit table must count at least once, over the stream
#: tests together
ROWS: Tuple[tuple, ...] = (
    *(("route", interp) for interp in ("route_exec", "_route_walk")),
    # a read plan runs in plan_exec only inside a route walked for the
    # sake of another run (algebraic, or on a latent sector's disk):
    # plan_exec runs it as it runs a load, and no row asks for it
    ("plan", "read", "_plan_run"),
    *(("plan", kind, interp)
      for kind in ("rmw", "load", "column")
      for interp in ("plan_exec", "_plan_run")),
    # a destage's groups of buckets sharing their plan, each one
    # plan_exec call or one _plan_run
    *(("destage", interp) for interp in ("plan_exec", "_plan_run")),
    *(("run", kind) for kind in (
        "view", "walk", "rebuild", "algebraic",
        "rmw", "reconstruct", "whole", "whole-scatter",
    )),
    *(("stand_down", reason) for reason in REASONS + ("admitted",)),
    *(("shape", op, shape, state)
      for op in ("read", "write") for shape in SHAPES for state in STATES),
    ("escalate",),
)


def needs_kernel(row: tuple) -> bool:
    """Whether only the C kernel can hit ``row``."""
    return "route_exec" in row or "plan_exec" in row or "admitted" in row


def stand_down(volume, cols: int, failed) -> Optional[str]:
    """Why ``RAID6Volume._kernel`` must refuse an op over layout columns
    ``cols`` keyed for the ``failed`` disks, or ``None``: it may run in C."""
    touched = cols | volume._spread
    if volume._hooks & touched:
        return "hook"
    if volume._latent & touched:
        return "latent"
    if volume._failed != failed:
        return "behind"
    if volume.integrity is not None:
        return "integrity"
    if volume._observers:
        return "observer"
    if volume.journal is not None and volume.journal.phase_hook is not None:
        return "phase_hook"
    if volume._c is None:
        return "numpy"
    return None


class Spied:
    """Kernel handle ``c`` of ``volume`` making each entry point's call
    through ``spy(name, volume, call, args)``, which makes it and returns
    ``call(*args)``; ``args`` end ``values, out, counters, lock``."""

    def __init__(self, c, volume, spy) -> None:
        self.c, self.volume, self.spy = c, volume, spy

    def __getattr__(self, name):
        call = getattr(self.c, name)
        return lambda *args: self.spy(name, self.volume, call, args)


def spy_kernel(monkeypatch, spy) -> None:
    """Every kernel handle ``RAID6Volume._kernel`` admits, handed out as
    a :class:`Spied` making its calls through ``spy``."""
    kernel = RAID6Volume._kernel

    def spied(volume, cols, failed):
        c = kernel(volume, cols, failed)
        return None if c is None else Spied(c, volume, spy)

    monkeypatch.setattr(RAID6Volume, "_kernel", spied)


def kernel_calls(monkeypatch, name: str, writes=None) -> list:
    """The volume of each ``name`` call (``"plan_exec"``, ``"route_exec"``)
    of an admitted kernel handle, in order; with ``writes`` set, only the
    calls that store values (``True``) or only those that do not."""
    calls = []

    def spy(called, volume, call, args):
        if called == name and writes in (None, args[-4] is not None):
            calls.append(volume)
        return call(*args)

    spy_kernel(monkeypatch, spy)
    return calls


def run_kinds(volume, route, write: bool) -> List[str]:
    """The kind of each run of ``route``: a healthy read's bare walk is
    one ``"walk"``."""
    if not route.runs:
        return ["walk"]
    per = volume.layout.num_data_cells
    kinds = []
    for _, _, n, plan, stale in route.runs:
        planned = type(plan) is ioplan.Plan
        if not write:
            kinds.append(
                "rebuild" if planned else "algebraic" if plan is None
                else "walk"
            )
        elif planned:
            kinds.append("rmw")
        elif n < per:
            kinds.append("reconstruct")
        else:
            kinds.append(
                "whole-scatter" if stale or volume.mapper.rotate else "whole"
            )
    return kinds


def _load_kind(volume, stripes, missing_cols, lost=(), col=None) -> str:
    """The plan a ``load_stripes`` call runs: the minimal read set of
    one column lost alone (``"column"``), or every live cell."""
    lone = col is not None and not lost and len(missing_cols) < 2
    return "column" if lone else "load"


def watch(monkeypatch, hits: Counter) -> None:
    """Spy on the executor's branches, counting into ``hits``, and
    require the dispatch :func:`stand_down` and :data:`C_RUNS` specify."""
    ran: List[str] = []

    def record(name, volume, call, args):
        ran.append(name)
        return call(*args)

    for name in ("_route_walk", "_plan_run"):  # the numpy interpreters
        monkeypatch.setattr(ioplan, name, functools.partial(
            lambda name, call, *args: record(name, args[0], call, args),
            name, getattr(ioplan, name),
        ))

    kernel = RAID6Volume._kernel

    def kernel_spy(volume, cols, failed):
        reason = stand_down(volume, cols, failed)
        run = kernel(volume, cols, failed)
        assert (run is None) == (reason is not None), \
            f"_kernel {'refused' if run is None else 'admitted'}; " \
            f"expected {reason or 'admitted'}"
        hits["stand_down", reason or "admitted"] += 1
        return None if run is None else Spied(run, volume, record)

    monkeypatch.setattr(RAID6Volume, "_kernel", kernel_spy)

    run_route = ioplan.run_route

    def route_spy(volume, start, count, route, values=None, out=None):
        kinds = run_kinds(volume, route, values is not None)
        for kind in kinds:
            hits["run", kind] += 1
        c = set(kinds) <= C_RUNS and \
            stand_down(volume, route.mask, route.failed) is None
        del ran[:]
        run_route(volume, start, count, route, values, out)
        interp = ran[0]
        assert interp == ("route_exec" if c else "_route_walk"), \
            f"{kinds} ran in {interp}"
        hits["route", interp] += 1

    monkeypatch.setattr(ioplan, "run_route", route_spy)

    # the kind of plan ``_execute`` runs: that of the innermost entry
    # point it runs under
    under: List[str] = []

    def entry(name, kind):
        inner = getattr(ioplan, name)

        def entered(*args, **kwargs):
            under.append(kind(*args, **kwargs))
            try:
                return inner(*args, **kwargs)
            finally:
                under.pop()

        monkeypatch.setattr(ioplan, name, entered)

    entry("rmw", lambda *args: "destage")
    entry("_patch", lambda *args: "rmw")
    entry("_read_run", lambda *args: "read")
    entry("load_stripes", _load_kind)

    execute = ioplan._execute

    def execute_spy(volume, plan, stripes, failed, values=None, out=None):
        before = len(ran)
        lost = execute(volume, plan, stripes, failed, values, out)
        assert under and len(ran) > before, \
            f"_execute ran {ran[before:]} under {under}"
        hits["plan", under[-1], ran[before]] += 1
        if under[-2:] == ["destage", "rmw"]:  # a group's RMW
            runs = ran[before:]
            assert runs in (["plan_exec"], ["_plan_run"]), \
                f"{len(stripes)} buckets ran {runs}"
            hits["destage", runs[0]] += 1
        return lost

    monkeypatch.setattr(ioplan, "_execute", execute_spy)

    zero_copy = RAID6Volume._read_zero_copy

    def view_spy(volume, stripe):
        view = zero_copy(volume, stripe)
        if view is not None:
            hits["run", "view"] += 1
        return view

    monkeypatch.setattr(RAID6Volume, "_read_zero_copy", view_spy)


def table(hits: Counter) -> str:
    """The hit table, one ``row: count`` line per row of :data:`ROWS`."""
    return "\n".join(
        f"{' '.join(row):<40} {hits[row]:>6}" for row in ROWS
    )


# -- the op stream -------------------------------------------------------------------
#
# Each op draws its arguments from the stream's generator and runs them
# on the mirror; the menu of :func:`draw` holds the ops the volumes'
# state admits.


def _fresh(rng, count: int, es: int) -> np.ndarray:
    return rng.integers(0, 256, (count, es), dtype=np.uint8)


def _short(mirror, rng) -> Tuple[int, int]:
    count = int(rng.integers(1, MAX_LEN + 1))
    return int(rng.integers(0, mirror.kernel.num_elements - count + 1)), count


def _fill(mirror, rng, start: int, count: int) -> np.ndarray:
    """Fresh bytes, the bytes at ``start`` now (a zero delta), or those
    with every other element fresh."""
    fresh, kind = _fresh(rng, count, mirror.es), int(rng.integers(3))
    if kind == 0:
        return fresh
    data = mirror.read(start, count)
    if kind == 2:
        data[::2] = fresh[::2]
    return data


def _live(mirror, rng) -> int:
    volume = mirror.kernel
    return int(rng.choice([d for d in range(len(volume.disks))
                           if d not in volume._vulnerable_disks()]))


def read(mirror, rng):
    mirror.read(*_short(mirror, rng))


def write(mirror, rng):
    start, count = _short(mirror, rng)
    mirror.write(start, _fill(mirror, rng, start, count))


def cache_write(mirror, rng):
    start, count = _short(mirror, rng)
    if rng.random() < 0.25:  # a sweep of 1 to 3 stripes through it
        count = mirror.per * int(rng.integers(1, 4))
        start = mirror.per * int(rng.integers(
            0, mirror.kernel.mapper.num_stripes - count // mirror.per + 1
        ))
    mirror.cache_write(start, _fill(mirror, rng, start, count))


def sweep(mirror, rng):
    """Whole stripes, read or written, aligned or with a head and a tail:
    up to six, or one in six times nearly the whole volume, across a
    RUN_CHUNK seam."""
    per, stripes = mirror.per, mirror.kernel.mapper.num_stripes
    k = int(rng.integers(1, min(7, stripes)) if rng.random() < 5 / 6
            else rng.integers(max(stripes - 6, 1), stripes))
    start = int(rng.integers(0, stripes - k)) * per + (
        0 if rng.random() < 0.5 else int(rng.integers(1, per))
    )
    if rng.random() < 0.4:
        mirror.write(start, _fresh(rng, k * per, mirror.es))
    else:
        mirror.read(start, k * per)


def burst(mirror, rng):
    """One ``_write_rest`` queue of 1 to 8 buckets, whole or scattered
    cells — one time in three the same cells in every bucket, one
    vector of stripes — every other bucket a zero delta."""
    per, cells = mirror.per, mirror.layout.data_cells
    stripes = mirror.kernel.mapper.num_stripes

    def pattern():
        return range(per) if rng.random() < 0.3 else sorted(
            rng.choice(per, int(rng.integers(1, per)), replace=False)
        )

    same = pattern() if rng.random() < 1 / 3 else None
    entries = []
    for i, stripe in enumerate(sorted(rng.choice(
        stripes, int(rng.integers(1, min(9, stripes + 1))), replace=False,
    ).tolist())):
        chosen = same or pattern()
        values = _fresh(rng, per, mirror.es)
        if i % 2:
            values = mirror.read(stripe * per, per)
        entries.append((stripe, [(cells[j], values[j]) for j in chosen]))
    mirror.write_rest(entries)


def flush(mirror, rng):
    mirror.flush()


def observer(mirror, rng):
    which = str(rng.choice(["checker", "tracker"]))
    attached = getattr(mirror, which + "s") is not None
    getattr(mirror, ("detach_" if attached else "attach_") + which)()


def phase_hook(mirror, rng):
    mirror.phase_hook(mirror.kernel.journal.phase_hook is None)


def step(mirror, rng):
    mirror.step()


def scrub(mirror, rng):
    mirror.scrub()


def scrub_and_repair(mirror, rng):
    mirror.scrub_and_repair()


def resync(mirror, rng):
    mirror.resync(sorted(rng.choice(
        mirror.kernel.mapper.num_stripes, int(rng.integers(1, 5)),
        replace=False,
    ).tolist()))


def fail_disk(mirror, rng):
    failed = mirror.kernel.failed_disks
    mirror.fail_disk(int(rng.choice(
        [d for d in range(mirror.layout.cols) if d not in failed]
    )))


def start_rebuild(mirror, rng):
    mirror.start_rebuild(int(rng.choice(mirror.kernel.failed_disks)),
                         int(rng.integers(1, 9)))


def mark_bad(mirror, rng):
    """A few sectors of one disk in two neighbouring stripes: a sweep
    over them meets them all, and may escalate the disk on the way."""
    rows, disk = mirror.layout.rows, _live(mirror, rng)
    first = int(rng.integers(0, mirror.kernel.mapper.num_stripes - 1))
    for offset in sorted(rng.choice(2 * rows, int(rng.integers(1, 4)),
                                    replace=False)):
        mirror.mark_bad(disk, first * rows + int(offset))


def escalate(mirror, rng):
    """Enough latent sectors under the first bucket of a destage, in one
    column of its stripe, for the error policy to fail their disk in
    the middle of it: the one-cell buckets after it run plans keyed for
    the disks failed before."""
    volume, cells = mirror.kernel, mirror.layout.data_cells
    stripes = volume.mapper.num_stripes
    stripe = int(rng.integers(0, stripes))
    cols = [volume.mapper.col_on_disk(stripe, d)
            for d in range(len(volume.disks))]
    disk = int(rng.choice([
        d for d in range(len(volume.disks))
        if d not in volume._vulnerable_disks()
        and any(c.col == cols[d] for c in cells)
    ]))
    need = ESCALATE_AFTER - volume.error_counters.total(disk)
    chosen = [c for c in cells if c.col == cols[disk]][:max(need, 1)]
    for cell in chosen:
        mirror.mark_bad(disk, volume.mapper.locate_cell(stripe, cell).offset)
    others = rng.choice(np.setdiff1d(np.arange(stripes), [stripe]), 3,
                        replace=False)
    values = _fresh(rng, len(chosen) + 3, mirror.es)
    mirror.write_rest(
        [(stripe, list(zip(chosen, values)))]
        + [(int(s), [(cells[int(rng.integers(mirror.per))], values[-1 - i])])
           for i, s in enumerate(others)]
    )


def rot(mirror, rng):
    mirror.rot(_live(mirror, rng), int(rng.integers(
        0, mirror.kernel.mapper.num_stripes * mirror.layout.rows
    )))


def integrity_sweep(mirror, rng):
    mirror.integrity(str(rng.choice(["find_corruption", "scrub_campaign"])))


#: the stream's phases: ``(name, ops)``; each but the first opens with
#: the failure or the rebuilds that put the volumes in its state
PHASES = (("healthy", 15), ("one", 12), ("two", 12), ("rebuilding", 12),
          ("late", 40))


def draw(mirror: Mirror, rng, phase: str):
    """The next op of ``phase``, drawn among those the volumes' state
    admits: traffic in every phase, the scrubs while healthy, rebuild
    steps while one is in flight; observers attached and detached only
    ``healthy`` and ``late``; failures, rebuilds, rot, latent sectors
    and the integrity sweeps only ``late``, once the walk has checked
    the rest."""
    volume = mirror.kernel
    vulnerable = volume._vulnerable_disks()
    failed = volume.failed_disks
    cursor = volume.rebuild_cursor
    rebuilding = cursor is not None and cursor.active
    healthy = not failed and not rebuilding
    menu = [(read, 35), (write, 15), (sweep, 6), (cache_write, 10),
            (burst, 4), (flush, 1)]
    if phase in ("healthy", "late"):
        menu.append((observer, 2))
    if rebuilding:
        menu.append((step, 8))
    if healthy:
        menu += [(scrub, 1), (scrub_and_repair, 1), (resync, 1)]
    if volume.journal is not None:
        menu.append((phase_hook, 1))
    if phase == "late":
        damaged = mirror.rotten or volume._latent
        if len(vulnerable) < 2 and not (vulnerable and damaged):
            menu.append((fail_disk, 2))
        if failed and not rebuilding:
            menu.append((start_rebuild, 3))
        if len(vulnerable) < 2:
            menu += [(mark_bad, 4), (escalate, 1), (rot, 1)]
        if healthy and mirror.checkers:
            menu.append((integrity_sweep, 1))
    ops, weights = zip(*menu)
    weights = np.array(weights, dtype=float)
    return ops[rng.choice(len(ops), p=weights / weights.sum())]


def excused(mirror: Mirror, exc: Exception) -> bool:
    """Whether a stream goes on past ``exc``, which every volume raised
    alike: a typed error once a latent sector or rot is planted.  Any
    other error is the volumes' fault."""
    return mirror.damaged and isinstance(exc, ReproError)


def run_stream(mirror: Mirror, seed: int) -> None:
    """Prime ``mirror`` with a seeded image, then run the :data:`PHASES`
    of ops drawn from ``seed``: healthy; one disk failed; two; one
    rebuilt while traffic runs, then the other; the ``late`` free-for-
    all.  Last, flush the caches, finish a rebuild in flight and read
    the whole volume.  An error the volumes raise alike is part of the
    stream where :func:`excused`; an assertion, and any other error,
    names the seed and the op's index and name."""
    rng = np.random.default_rng(seed)
    volume = mirror.kernel
    ops = 0

    def run(op, *args):
        nonlocal ops
        escalated = len(volume.error_counters.escalated)
        try:
            op(*args)
        except RAISED as exc:
            if not excused(mirror, exc):
                raise AssertionError(
                    f"seed {seed}, op {ops}: {op.__name__} raised {exc!r}"
                ) from exc
            mirror.hits["raised", type(exc).__name__] += 1
        except AssertionError as exc:
            raise AssertionError(
                f"seed {seed}, op {ops}: {op.__name__}: {exc}"
            ) from exc
        if len(volume.error_counters.escalated) > escalated:
            mirror.hits["escalate", ] += 1
        ops += 1

    def finish():
        """Step the rebuild in flight to its end, or to a stripe it
        cannot rebuild."""
        cursor = volume.rebuild_cursor
        while cursor is not None and cursor.active:
            pos = cursor.pos
            run(mirror.step)
            if cursor.pos == pos:
                return

    def traffic(phase, steps):
        for _ in range(steps):
            run(draw(mirror, rng, phase), mirror, rng)

    total = volume.num_elements
    pair = rng.choice(mirror.layout.cols, 2, replace=False).tolist()
    run(mirror.write, 0, _fresh(rng, total, mirror.es))
    for phase, steps in PHASES:
        if phase not in ("healthy", "rebuilding"):
            run(mirror.fail_disk, pair[phase == "two"])
        if phase != "rebuilding":
            traffic(phase, steps)
            continue
        for disk in pair:  # each rebuilt while traffic runs
            run(mirror.start_rebuild, disk, int(rng.integers(4, 9)))
            traffic(phase, steps)
            finish()
    run(mirror.flush)
    finish()
    run(mirror.read, 0, total)
