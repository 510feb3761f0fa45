"""The C plan kernel: when it runs, and what only threads can show.

While the disks a plan touches are quiet and nothing observes the
volume's funnels, an RMW plan — and a read plan that rebuilds a cell —
runs as one ``plan_exec`` call, and a read — healthy, or degraded along
its route of read plans — or a write along its route of RMW plans and
whole stripes as one ``route_exec`` call (``RAID6Volume._kernel``);
otherwise the numpy executor runs it.  The differential oracle
(``tests/oracles/diff.py``) holds the two to the same bytes and counts
op by op over seeded streams; here its :class:`Mirror` runs one short
stream per code, the single-failure rebuild of every column and every
plan a short read or write runs under every failure, pinning which
interpreter ran; the stand-down tests pin when
the kernel must not run, the eviction tests that a route keeps its
plans alive, and the threaded tests that counts stay exact and parity
whole while threads run the kernel with the GIL released.

Under ``REPRO_PURE_NUMPY=1`` (or without a compiler) both sides run the
numpy executor and the comparisons still hold.
"""

import gc
import itertools
import os
import sys
import threading

import numpy as np
import pytest

from repro.array import ioplan
from repro.array.disk import DiskState
from repro.array.integrity import IntegrityChecker
from repro.array.volume import RAID6Volume
from repro.codes import make_code
from repro.exceptions import LatentSectorError
from repro.journal import WriteIntentLog
from repro.recovery.planner import cached_hybrid_plan
from repro.serve.checkpoint import DirtyStripeTracker
from repro.util import ckernel
from repro.util.ckernel import xor_kernel

from tests.conftest import ALL_ARRAY_CODES, SMALL_PRIMES
from tests.oracles.diff import Mirror, kernel_calls, spy_kernel

ES = 32
STRIPES = 8

#: the C kernel is built
KERNEL = xor_kernel() is not None
needs_kernel = pytest.mark.skipif(not KERNEL, reason="no C kernel")


def _spy(monkeypatch, name):
    """The volume of every call of ``ioplan.<name>``, in order."""
    calls = []
    inner = getattr(ioplan, name)

    def spy(volume, *args, **kwargs):
        calls.append(volume)
        return inner(volume, *args, **kwargs)

    monkeypatch.setattr(ioplan, name, spy)
    return calls


@pytest.fixture
def kernel_runs(monkeypatch):
    """The volume of every C kernel plan run (``plan_exec``), in order."""
    return kernel_calls(monkeypatch, "plan_exec")


@pytest.fixture
def kernel_reads(monkeypatch):
    """The volume of every C kernel read (``route_exec``), in order."""
    return kernel_calls(monkeypatch, "route_exec", writes=False)


@pytest.fixture
def kernel_writes(monkeypatch):
    """The volume of every C kernel write along a route (``route_exec``),
    in order."""
    return kernel_calls(monkeypatch, "route_exec", writes=True)


@pytest.fixture
def walks(monkeypatch):
    """The volume of every route walked in numpy (``_route_walk``), in
    order."""
    return _spy(monkeypatch, "_route_walk")


def _stream(mirror: Mirror, rng, steps: int):
    """Short reads and writes — fresh, zero-delta and half-changed —
    cache writes destaged as multi-stripe bursts, and ``_write_rest``
    bursts of one pattern over every stripe."""
    per, total = mirror.per, STRIPES * mirror.per
    for step in range(steps):
        n = int(rng.integers(1, 2 * per + 2))
        start = int(rng.integers(0, total - n + 1))
        fresh = rng.integers(0, 256, (n, ES), dtype=np.uint8)
        kind = step % 5
        if kind == 0:
            mirror.read(start, n)
        elif kind == 1:
            mirror.write(start, fresh)
        elif kind == 2:
            current = mirror.read(start, n)
            current[::2] = fresh[::2]  # every other element a zero delta
            mirror.write(start, current)
        elif kind == 3:
            mirror.cache_write(start, fresh)
        else:
            j0 = int(rng.integers(0, per - 2))
            values = rng.integers(0, 256, (STRIPES, 3, ES), dtype=np.uint8)
            cells = mirror.layout.data_cells[j0:j0 + 3]
            mirror.write_rest([
                (s, list(zip(cells, values[s]))) for s in range(STRIPES)
            ])
    mirror.flush()


class TestEngineDifferential:
    @pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @pytest.mark.parametrize("rotate", (False, True))
    def test_one_stream_two_engines(
        self, code_name, p, rotate, kernel_runs, kernel_writes
    ):
        """Healthy, a latent sector healed on the way, one disk failed
        (dirty cells on it included), a rebuild in flight and done: the
        kernel volume, the numpy one, the per-element one and (up to the
        latent sector) the walk agree after every op."""
        layout = make_code(code_name, p)
        mirror = Mirror(layout, stripes=STRIPES, es=ES, rotate=rotate,
                        cache=(3, 2))
        kernel, numpy = mirror.kernel, mirror.numpy
        per = mirror.per
        rng = np.random.default_rng(sum(map(ord, code_name)) * 100 + p)
        image = rng.integers(0, 256, (STRIPES * per, ES), dtype=np.uint8)
        mirror.write(0, image)
        _stream(mirror, rng, 25)
        # a latent sector: plans touching its disk stand down until the
        # read that meets it heals it
        loc = kernel.mapper.locate_cell(2, layout.data_cells[per // 2])
        mirror.mark_bad(loc.disk, loc.offset)
        mirror.read(2 * per, per)
        assert kernel.heal_log and not kernel.disks[loc.disk].bad_sectors
        _stream(mirror, rng, 10)
        # degraded: every write that names a cell on the failed column
        # patches around it; reads rebuild it
        failed = 1
        mirror.fail_disk(failed)
        col = kernel.mapper.col_on_disk(4, failed)
        on_failed = [
            j for j in range(per) if layout.data_cells[j].col == col
        ]
        runs = len(kernel_runs) + len(kernel_writes)
        for j in on_failed[:3]:
            mirror.write(
                4 * per + j, rng.integers(0, 256, (2, ES), dtype=np.uint8)
            )
        if KERNEL and on_failed:
            # lost dirty cells, in C: a plan run, or a route unrotated
            assert len(kernel_runs) + len(kernel_writes) > runs
        _stream(mirror, rng, 25)
        # a rebuild in flight: stale ahead of the cursor, healthy behind
        mirror.start_rebuild(failed, batch=3)
        mirror.step()
        _stream(mirror, rng, 15)
        while mirror.cursors[0].active:
            mirror.step()
        _stream(mirror, rng, 10)
        assert mirror.scrub() == []
        for volume in (numpy, mirror.hooked):
            assert volume not in kernel_runs and volume not in kernel_writes
        if KERNEL:
            assert kernel_runs.count(kernel) > 0
            assert kernel in kernel_writes  # rotated too


def _fail_source(volume, stripe, disk):
    """Hook the disk of a rebuild source of ``disk`` in ``stripe`` so
    that reading it raises a latent sector error; its location."""
    col = volume.mapper.col_on_disk(stripe, disk)
    source = min(cached_hybrid_plan(volume.layout, col).reads)
    loc = volume.mapper.locate_cell(stripe, source)

    def hook(d, op, offset):
        if op == "read" and offset == loc.offset:
            raise LatentSectorError(d.disk_id, offset)

    volume.disks[loc.disk].fault_hook = hook
    return loc


class TestRebuildPlan:
    @pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @pytest.mark.parametrize("rotate", (False, True))
    def test_every_lost_column(self, code_name, p, rotate, kernel_runs):
        """The single-failure rebuild is one pick plan: in the C kernel
        on one volume, through ``_plan_run`` on the others, for every
        lost column — then once more with a source that fails to read
        through a hook (every side on ``_plan_run``).  Same bytes, same
        per-disk counts, same heal log as the walk's rebuild."""
        layout = make_code(code_name, p)
        per = layout.num_data_cells
        image = np.random.default_rng(p).integers(
            0, 256, (STRIPES * per, ES), dtype=np.uint8
        )
        for disk in range(layout.cols):
            mirror = Mirror(layout, stripes=STRIPES, es=ES, rotate=rotate)
            mirror.write(0, image)
            mirror.fail_disk(disk)
            del kernel_runs[:]
            mirror.rebuild(disk, batch=3)
            assert mirror.numpy not in kernel_runs
            if KERNEL:
                assert mirror.kernel in kernel_runs
            assert np.array_equal(mirror.read(0, STRIPES * per), image)
        mirror.retire()
        mirror.fail_disk(0)
        loc = [_fail_source(v, 2, 0) for v in mirror.volumes][0]
        del kernel_runs[:]
        mirror.rebuild(0, batch=3)
        assert kernel_runs == []  # a source disk is hooked
        for v in mirror.volumes:
            assert v.error_counters.total(loc.disk) == 1
            v.disks[loc.disk].fault_hook = None
        assert np.array_equal(mirror.read(0, STRIPES * per), image)


def _patterns(per):
    """``(start, count)`` on a three-stripe volume that run every plan a
    range of ``count <= 2 * per + 1`` elements runs: each run pattern
    ``(j0, n)``, ``j0 + n <= per``, once as a range within one stripe
    (the stripe cycles, so rotation moves under them), then from each
    ``j0`` a range onto the next stripe and one across a whole stripe,
    their tails ``j0 + 1`` long: every head and tail run joined in a
    route."""
    for j in range(per):
        for n in range(1, per - j + 1):
            yield j + per * ((j + n) % 3), n
    for j in range(per):
        yield j + per, per + 1
        yield j, 2 * per + 1


def _sweep_mirror(layout, image, failed=(), **kwargs) -> Mirror:
    """A three-stripe :class:`Mirror`, narrowed to the kernel and numpy
    volumes sharing one plan cache (each plan compiled once), holding
    ``image`` with ``failed`` disks failed.  The streams of
    ``tests/oracles/test_diff.py`` hold the element-by-element volume
    and the walk to the others; the sweeps check bytes against
    ``image``."""
    mirror = Mirror(layout, stripes=3, es=ES, **kwargs)
    mirror.narrow()
    mirror.numpy._ioplans = mirror.kernel._ioplans
    mirror.write(0, image)
    for disk in failed:
        mirror.fail_disk(disk)
    return mirror


def _write_own_rows(mirror: Mirror, shadow, stripe: int, mask: int) -> None:
    """One ``_write_rest`` bucket of data cells ``mask`` on ``stripe``,
    its row a view of each volume's own backing rows of ``stripe`` from
    the second on: a lone bucket's values are read in place, so the RMW
    reads its values from rows it also stores to.  ``shadow`` takes the
    values the rows held before."""
    layout, per = mirror.layout, mirror.per
    first = stripe * layout.rows * layout.cols + 1
    values = mirror.kernel._flat_backing[first:first + per].copy()
    mirror.each(lambda v: v._write_rest(
        [(stripe, v._flat_backing[first:first + per], mask)]
    ))
    for j in ioplan.set_bits(mask):
        shadow[stripe * per + j] = values[j]


class TestKernelReads:
    @pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @pytest.mark.parametrize("rotate", (False, True))
    def test_every_short_range_and_the_whole_volume(
        self, code_name, p, rotate, kernel_reads
    ):
        """The ranges that run every plan of a short read
        (:func:`_patterns`) on a three-stripe volume, then the whole
        volume: the kernel's healthy read returns the other volumes'
        bytes and counts its reads on the same disks."""
        layout = make_code(code_name, p)
        per = layout.num_data_cells
        total = 3 * per
        image = np.random.default_rng(p).integers(
            0, 256, (total, ES), dtype=np.uint8
        )
        mirror = _sweep_mirror(layout, image, rotate=rotate)
        kernel = mirror.kernel
        zero_copy = kernel._row_major_data and not rotate
        expected = 0
        for start, count in _patterns(per):
            got = mirror.read(start, count)
            assert np.array_equal(got, image[start:start + count])
            aligned = count == per and start % per == 0
            expected += not (zero_copy and aligned)
        assert np.array_equal(mirror.read(0, total), image)
        assert kernel_reads == [kernel] * len(kernel_reads)
        if KERNEL:
            assert len(kernel_reads) == expected + 1


class TestDegradedKernelReads:
    @pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_every_short_range_every_failure(
        self, code_name, p, kernel_reads, walks
    ):
        """Every column failed — at p = 5 every pair of columns too —
        and the ranges that run every plan of a short read
        (:func:`_patterns`) on a three-stripe volume: the kernel's
        degraded read returns the other volumes' bytes and counts its
        reads on the same disks.
        The kernel serves each read whose route has words; the others —
        EVENODD's algebraic doubles, and only those — are walked
        (``_route_walk``) on every volume."""
        layout = make_code(code_name, p)
        per = layout.num_data_cells
        total = 3 * per
        image = np.random.default_rng(p).integers(
            0, 256, (total, ES), dtype=np.uint8
        )
        failures = [(col,) for col in range(layout.cols)]
        if p == 5:
            failures += list(itertools.combinations(range(layout.cols), 2))
        algebraic = 0
        for failed in failures:
            mirror = _sweep_mirror(layout, image, failed)
            kernel = mirror.kernel
            walked = [mirror.numpy]
            for start, count in _patterns(per):
                del kernel_reads[:], walks[:]
                got = mirror.read(start, count)
                assert np.array_equal(got, image[start:start + count])
                route = ioplan.read_route(
                    kernel, start, count, kernel._surface()
                )
                served = route.packed is not None
                algebraic += not served
                assert kernel_reads == ([kernel] if served else [])
                assert walks == (walked if served else [kernel] + walked)
        if KERNEL:
            # EVENODD decodes some double failures algebraically
            assert bool(algebraic) == (code_name == "evenodd" and p == 5)

    @needs_kernel
    def test_evicted_plans_stay_behind_their_route(
        self, monkeypatch, kernel_reads
    ):
        """A route holds its read plans, not just their addresses: with
        a plan cache of a handful, other reads evict the plans behind a
        route that stays cached, and replaying the route still reads
        the right bytes.  (With no kernel no route is compiled.)"""
        monkeypatch.setattr(ioplan, "MAX_PLANS", 6)
        layout = make_code("dcode", 7)
        per = layout.num_data_cells
        volume = RAID6Volume(layout, num_stripes=4, element_size=ES)
        image = np.random.default_rng(3).integers(
            0, 256, (volume.num_elements, ES), dtype=np.uint8
        )
        volume.write(0, image)
        volume.fail_disk(layout.data_cells[7].col)
        start, count = per + 5, per  # two runs, both rebuilding a cell
        key = ("route", start % per, count, volume.failed_disks)
        cache = volume._ioplans
        volume.read(start, count)
        route = cache._plans[key]
        plans = [run[3] for run in route.runs if type(run[3]) is ioplan.Plan]
        assert len(plans) == 2
        for other in range(10):
            volume.read(2 * per + other, 3 + other)
            volume.read(start, count)  # keeps the route, not its plans
        cached = list(cache._plans.values())
        assert cached[-1] is route
        assert not any(v is plan for v in cached for plan in plans)
        del cached, plans  # only the route holds its plans now
        gc.collect()
        clobber = [np.full(4096, 0xAB, np.int64) for _ in range(64)]
        del kernel_reads[:]
        for _ in range(3):
            got = volume.read(start, count)
            assert np.array_equal(got, image[start:start + count])
        assert cache._plans[key] is route
        assert kernel_reads == [volume] * 3
        del clobber


class TestKernelWrites:
    @pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_every_short_write_every_failure(
        self, code_name, p, kernel_writes, kernel_runs
    ):
        """Healthy, every column failed — at p = 5 every pair of columns
        too — and the ranges that run every plan of a short write
        (:func:`_patterns`) on a three-stripe volume — from every start
        % per at p = 5 (every third with two failed), every fourth at p
        = 7 — the volumes hold the same bytes and count the same I/O
        after every write, with fresh values or, by turns, every other
        element changed (half the deltas zero); of the writes with no
        route words, every fourth count.  The route serves exactly the writes whose
        partial stripes have an RMW plan each and, with a failed disk,
        that cover no whole stripe; the others' routes have no words and
        are walked in numpy.  Only EVENODD at p = 5 has short writes
        with no plan: it rebuilds some lost old values algebraically.
        Then a one-bucket ``_write_rest`` from each data cell, its values
        the stripe's own backing rows (:func:`_write_own_rows`)."""
        layout = make_code(code_name, p)
        per = layout.num_data_cells
        total = 3 * per
        rng = np.random.default_rng(p)
        image = rng.integers(0, 256, (total, ES), dtype=np.uint8)
        failures = [()] + [(col,) for col in range(layout.cols)]
        if p == 5:
            failures += list(itertools.combinations(range(layout.cols), 2))
        unplanned = 0
        for failed in failures:
            mirror = _sweep_mirror(layout, image, failed)
            kernel = mirror.kernel
            shadow = image.copy()
            step = 4 if p == 7 else 3 if len(failed) == 2 else 1
            for start, count in _patterns(per):
                if start % per % step:
                    continue
                short = count < per + -start % per
                runs = [
                    run for run in kernel.mapper.split(start, count)
                    if run[3] < per  # the partial stripes
                ]
                planned = all(
                    kernel._ioplans.get(
                        ("rmw", range(j0, j0 + n), failed),
                        ioplan._compile_rmw, kernel, range(j0, j0 + n),
                        failed, s0,
                    ) is not None
                    for s0, _, j0, n, _ in runs
                )
                routed = (short or not failed) and planned
                unplanned += short and not routed
                if not routed and count % 4:
                    continue  # walked routes: every fourth
                data = rng.integers(0, 256, (count, ES), dtype=np.uint8)
                if count % 2:
                    half = shadow[start:start + count].copy()
                    half[::2] = data[::2]
                    data = half
                del kernel_writes[:]
                mirror.write(start, data)
                shadow[start:start + count] = data
                served = routed and KERNEL
                assert kernel_writes == ([kernel] if served else [])
            ran = kernel_runs.count(kernel)
            for j0 in range(per):
                n = min(1 + j0 % 4, per - j0)
                mask = (1 << j0 + n) - (1 << j0)
                if j0 % 3 == 2 and j0 + n + 1 < per:
                    mask |= 1 << j0 + n + 1  # a gap
                _write_own_rows(mirror, shadow, j0 % 3, mask)
            if KERNEL and not failed:
                assert kernel_runs.count(kernel) - ran == per
            assert np.array_equal(mirror.read(0, total), shadow)
        assert bool(unplanned) == (code_name == "evenodd" and p == 5)

    @pytest.mark.parametrize("kernel", (True, False))
    def test_an_empty_write_is_rejected(self, kernel):
        """Either executor rejects a write of no elements up front, with
        the error an empty read raises, and touches nothing."""
        volume = RAID6Volume(make_code("dcode", 5), num_stripes=2,
                             element_size=ES)
        if not kernel:
            volume._c = None
        with pytest.raises(ValueError) as empty_read:
            volume.read(3, 0)
        with pytest.raises(ValueError) as empty_write:
            volume.write(3, np.zeros((0, ES), np.uint8))
        assert str(empty_write.value) == str(empty_read.value)
        assert not volume._backing.any() and not volume._io.any()

    @needs_kernel
    def test_evicted_plans_stay_behind_their_route(
        self, monkeypatch, kernel_writes
    ):
        """A write route holds its RMW plans: with a plan cache of a
        handful, other writes evict the plans behind a route that stays
        cached, and replaying the route still writes the right bytes —
        data and parity (a scrub finds nothing)."""
        monkeypatch.setattr(ioplan, "MAX_PLANS", 6)
        layout = make_code("dcode", 7)
        per = layout.num_data_cells
        volume = RAID6Volume(layout, num_stripes=4, element_size=ES)
        rng = np.random.default_rng(5)
        shadow = rng.integers(0, 256, (volume.num_elements, ES), np.uint8)
        volume.write(0, shadow)
        start, count = 2 * per - 4, 9  # the tail of stripe 1, head of 2

        def write(at, n):
            data = rng.integers(0, 256, (n, ES), dtype=np.uint8)
            volume.write(at, data)
            shadow[at:at + n] = data

        key = ("wroute", start % per, count, ())
        cache = volume._ioplans
        write(start, count)
        route = cache._plans[key]
        plans = [run[3] for run in route.runs if type(run[3]) is ioplan.Plan]
        assert len(plans) == 2
        for other in range(10):
            write(3 * per + other, 3 + other)
            write(start, count)  # keeps the route, not its plans
        cached = list(cache._plans.values())
        assert cached[-1] is route
        assert not any(v is plan for v in cached for plan in plans)
        del cached, plans  # only the route holds its plans now
        gc.collect()
        clobber = [np.full(4096, 0xAB, np.int64) for _ in range(64)]
        del kernel_writes[:]
        for _ in range(3):
            write(start, count)
        assert cache._plans[key] is route
        assert kernel_writes == [volume] * 3
        assert np.array_equal(volume.read(0, volume.num_elements), shadow)
        assert volume.scrub() == []
        del clobber


def _together(run, jobs):
    """``run(job)`` for every job on a thread of its own, started
    together, with a short switch interval; every thread must finish."""
    barrier = threading.Barrier(len(jobs))

    def start(job):
        barrier.wait(timeout=30)
        run(job)

    threads = [threading.Thread(target=start, args=(job,)) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def _threads(volume, jobs):
    """Every job list on a thread of its own (:func:`_together`): each
    thread must read back what it wrote."""
    misread = []

    def run(ops):
        for start, data in ops:
            volume.write(start, data)
            if not np.array_equal(volume.read(start, len(data)), data):
                misread.append(start)

    _together(run, jobs)
    assert misread == []


@needs_kernel
def test_threaded_kernel_counts_are_exact(
    kernel_runs, kernel_reads, kernel_writes
):
    """More threads than cores write and read, in one stripe or across
    two, on disjoint stripes of one volume while the kernel drops the
    GIL: the image and every disk's read and write totals equal those
    of the same ops run one after the other."""
    _threaded_counts(kernel_runs, kernel_reads, kernel_writes)


@needs_kernel
def test_threaded_degraded_kernel_counts_are_exact(
    kernel_runs, kernel_reads, kernel_writes
):
    """The same with disk 0 failed: the routes of degraded writes and
    reads run concurrently, the totals stay exact."""
    _threaded_counts(kernel_runs, kernel_reads, kernel_writes, failed=0)


@needs_kernel
def test_threads_sharing_stripes_keep_their_parity(kernel_writes):
    """Two threads write disjoint cells of the same two stripes along
    routes across the stripe boundary while the kernel drops the GIL:
    the stripes' write locks serialise their parity updates, so none is
    lost — every stripe scrubs clean — and each cell holds the value
    its thread wrote last.  (Large elements widen the window a race
    would need.)  Then one thread writes stripes 62 – 65 of a 66-stripe
    volume in one call — partial 62 and 65, whole 63 and 64, the locks
    wrapping from 63 to 0 — while the other writes the cells of 62 and
    65 it leaves out, and of 61: the same."""
    layout = make_code("dcode", 7)
    per = layout.num_data_cells
    es = 1 << 16
    volume = RAID6Volume(layout, num_stripes=4, element_size=es)
    pool = np.random.default_rng(2).integers(0, 256, (64, es), np.uint8)
    # thread 0: cells 2per-3, 2per-2 and 2per+2, 2per+3; thread 1: cells
    # 2per-1 .. 2per+1
    _race(volume, pool, 1000, [
        [(2 * per - 3, 2, 0), (2 * per + 2, 2, 20)],
        [(2 * per - 1, 3, 40)],
    ])
    assert kernel_writes.count(volume) == 3 * 1000
    volume = RAID6Volume(layout, num_stripes=66, element_size=4096)
    assert len(volume._stripe_locks) == 64
    long = 3 * per + 26  # cells 4 .. per-1 of 62, 0 .. 29 of 65
    pool = np.random.default_rng(3).integers(
        0, 256, (long + 16, 4096), np.uint8
    )
    _race(volume, pool, 200, [
        [(62 * per + 4, long, 0)],
        [(62 * per - 2, 6, 3), (65 * per + 30, per - 30, 9)],
    ])
    assert kernel_writes.count(volume) == 3 * 200


def _race(volume, pool, rounds, jobs):
    """Each job list on a thread of its own, ``rounds`` times: write
    ``n`` rows of ``pool`` from row ``k + i % 16`` at ``start`` for each
    ``(start, n, k)``, round ``i`` — then every stripe scrubs clean and
    each range holds its last round's rows."""

    def run(writes):
        for i in range(rounds):
            for start, n, k in writes:
                volume.write(start, pool[k + i % 16:k + i % 16 + n])

    _together(run, jobs)
    assert volume.scrub() == []
    last = (rounds - 1) % 16
    for writes in jobs:
        for start, n, k in writes:
            assert np.array_equal(
                volume.read(start, n), pool[k + last:k + last + n]
            )


def test_the_geometry_is_packed_once_at_construction(monkeypatch):
    """A volume packs its geometry for the kernel once, in its
    constructor: four threads racing its first writes and reads pack
    none, so no kernel call reads words a second packing replaced."""
    packed = []
    pack = ckernel.pack_geometry

    def spy(*args):
        packed.append(threading.get_ident())
        return pack(*args)

    monkeypatch.setattr(ckernel, "pack_geometry", spy)
    volume = RAID6Volume(make_code("dcode", 5), num_stripes=4,
                         element_size=ES)
    assert packed == [threading.get_ident()]
    data = np.full((3, ES), 5, np.uint8)
    per = volume.layout.num_data_cells
    _threads(volume, [[(t * per + 1, data)] for t in range(4)])
    assert packed == [threading.get_ident()]


def _threaded_counts(kernel_runs, kernel_reads, kernel_writes, failed=None):
    assert ckernel.SYMBOLS == ("xor_exec", "plan_exec", "route_exec")
    layout = make_code("dcode", 7)
    per = layout.num_data_cells
    rng = np.random.default_rng(11)
    # more threads than cores, within a small memory budget
    workers = min(2 * (os.cpu_count() or 1) + 1, 9)
    # thread t owns the stripe pairs (2q + 1, 2q + 2) with q % workers ==
    # t: pair 31 is stripes 63 and 64, whose write locks are the last
    # and the first of the volume's 64
    pairs = 35
    pool = rng.integers(0, 256, (4 * per, 4096), dtype=np.uint8)
    jobs = [[] for _ in range(workers)]
    for i in range(100 * workers):
        t = i % workers
        first = 2 * int(rng.choice(np.arange(t, pairs, workers))) + 1
        n = int(rng.integers(2, per // 2))
        if i % 2:  # across the pair's two stripes
            start = (first + 1) * per - int(rng.integers(1, n))
        else:
            stripe = first + int(rng.integers(0, 2))
            start = stripe * per + int(rng.integers(0, per - n))
        k = int(rng.integers(0, len(pool) - n))
        jobs[t].append((start, pool[k:k + n]))
    jobs[31 % workers].append((64 * per - 2, pool[:5]))
    volumes = [
        RAID6Volume(layout, num_stripes=2 * pairs + 1, element_size=4096)
        for _ in range(2)
    ]
    assert len(volumes[0]._stripe_locks) == 64
    if failed is not None:
        for volume in volumes:
            volume.fail_disk(failed)
    _threads(volumes[0], jobs)
    for ops in jobs:
        for start, data in ops:
            volumes[1].write(start, data)
            volumes[1].read(start, len(data))
    assert np.array_equal(volumes[0]._backing, volumes[1]._backing)
    assert volumes[0].io_counters() == volumes[1].io_counters()
    ops = 100 * workers + 1
    assert kernel_writes.count(volumes[0]) == ops  # every write routed
    assert kernel_runs.count(volumes[0]) == 0
    assert kernel_reads.count(volumes[0]) == ops


class TestStandDown:
    """The kernel runs only where the numpy executor would do nothing
    but gather, XOR, store and count."""

    @pytest.fixture
    def volume(self):
        volume = RAID6Volume(make_code("dcode", 7), num_stripes=4,
                             element_size=ES)
        volume.write(0, np.ones((volume.num_elements, ES), np.uint8))
        return volume

    def _ran(self, volume, calls, fill=2, n=3):
        """Whether a short write to stripe 0 ran in the kernel, as
        ``calls`` spies on it: a plan run or a route."""
        del calls[:]
        volume.write(6, np.full((n, ES), fill, np.uint8))
        return volume in calls

    def _read_ran(self, volume, kernel_reads, n=3):
        """Whether a short read of stripe 0 ran in the kernel."""
        del kernel_reads[:]
        volume.read(6, n)
        return volume in kernel_reads

    @needs_kernel
    def test_quiet_volume_runs_the_kernel(
        self, volume, kernel_writes, kernel_reads
    ):
        assert self._ran(volume, kernel_writes)
        assert self._read_ran(volume, kernel_reads)

    @pytest.mark.parametrize("attr", ("fault_hook", "corrupt_hook"))
    def test_hook_on_a_touched_disk(
        self, volume, kernel_runs, kernel_reads, kernel_writes, attr
    ):
        touched = volume.layout.data_cells[6].col
        noop = {
            "fault_hook": lambda disk, op, offset: None,
            "corrupt_hook": lambda disk, offset: None,
        }[attr]
        setattr(volume.disks[touched], attr, noop)
        assert not self._ran(volume, kernel_runs)
        assert not self._read_ran(volume, kernel_reads)
        setattr(volume.disks[touched], attr, None)
        assert self._ran(volume, kernel_writes, 3) == KERNEL
        assert self._read_ran(volume, kernel_reads) == KERNEL

    @needs_kernel
    def test_hook_elsewhere(
        self, volume, kernel_runs, kernel_reads, kernel_writes
    ):
        """Unrotated, a hook on a disk the plan does not touch leaves it
        in the kernel; rotated, every disk may be touched.  A read
        admits the data columns whole, and D-Code keeps data on every
        column."""
        plan = ioplan._compile_rmw(volume, [6], (), 0)
        other = next(
            d for d in range(len(volume.disks)) if not plan.cells.mask >> d & 1
        )
        volume.disks[other].fault_hook = lambda disk, op, offset: None
        assert self._ran(volume, kernel_writes, n=1)
        assert not self._read_ran(volume, kernel_reads, n=1)
        rotated = RAID6Volume(volume.layout, num_stripes=4, element_size=ES,
                              rotate=True)
        rotated.disks[other].fault_hook = lambda disk, op, offset: None
        assert not self._ran(rotated, kernel_runs, n=1)
        assert not self._read_ran(rotated, kernel_reads, n=1)

    def test_latent_sector_until_remapped(
        self, volume, kernel_runs, kernel_reads, kernel_writes
    ):
        col = volume.layout.data_cells[6].col
        volume.inject_latent_error(col, 3, 0)  # another stripe, same disk
        assert not self._ran(volume, kernel_runs)
        assert not self._read_ran(volume, kernel_reads)
        per = volume.layout.num_data_cells
        volume.write(3 * per, np.zeros((per, ES), np.uint8))  # remaps it
        assert not volume.disks[col].bad_sectors
        assert self._ran(volume, kernel_writes, 3) == KERNEL
        assert self._read_ran(volume, kernel_reads) == KERNEL

    def test_phase_hook(
        self, volume, kernel_runs, kernel_reads, kernel_writes
    ):
        volume.journal = WriteIntentLog(phase_hook=lambda phase, s: None)
        assert not self._ran(volume, kernel_runs)
        assert not self._read_ran(volume, kernel_reads)
        volume.journal.phase_hook = None
        # journaled: the write's route runs in the kernel
        assert self._ran(volume, kernel_writes, 3) == KERNEL
        assert self._read_ran(volume, kernel_reads) == KERNEL

    @pytest.mark.parametrize("verify_reads", (False, True))
    def test_integrity_checker_attached(
        self, volume, kernel_runs, kernel_reads, kernel_writes, verify_reads
    ):
        checker = IntegrityChecker(volume, verify_reads=verify_reads)
        assert not self._ran(volume, kernel_runs)
        assert not self._read_ran(volume, kernel_reads)
        assert checker.find_corruption() == {}
        volume.fail_disk(volume.layout.data_cells[7].col)
        del kernel_runs[:]
        volume.read(5, 4)  # a read plan rebuilding cell 7
        assert volume not in kernel_runs
        checker.detach()
        assert self._ran(volume, kernel_writes, 3) == KERNEL

    def test_dirty_stripe_tracker_attached(
        self, volume, kernel_runs, kernel_reads, kernel_writes
    ):
        tracker = DirtyStripeTracker(volume)
        assert not self._ran(volume, kernel_runs)
        assert not self._read_ran(volume, kernel_reads)
        assert tracker.drain() == {0}
        tracker.detach()
        assert self._ran(volume, kernel_writes, 3) == KERNEL
        assert self._read_ran(volume, kernel_reads) == KERNEL

    def test_disk_failed_behind_the_surface(
        self, volume, monkeypatch, kernel_reads
    ):
        """A disk dies after the op took its surface: the plan it was
        keyed for touches a dead disk, so the numpy executor runs it and
        finds that out before a byte lands; the reconstruct-write that
        takes over loads the stripe in the kernel (a load stores
        nothing), and the read after it takes a fresh surface and,
        degraded, runs in the kernel."""
        stores = []  # per kernel plan run: whether it had values to store

        def spy(name, vol, call, args):
            if name == "plan_exec":
                stores.append(args[-4] is not None)
            return call(*args)

        spy_kernel(monkeypatch, spy)
        per = volume.layout.num_data_cells
        row = np.full((per, ES), 9, np.uint8)
        surface = volume._surface()
        dead = volume.layout.data_cells[1].col
        volume.disks[dead].fail()
        del kernel_reads[:]
        ioplan.rmw(volume, [(2, row, 0b111)], surface)
        assert stores == ([False] if KERNEL else [])
        assert np.array_equal(volume.read(2 * per, 3), row[:3])
        assert (volume in kernel_reads) == KERNEL

    def test_rebuild_in_flight(self, volume, kernel_reads):
        """A failed disk alone leaves reads in the kernel, and so does a
        rebuild in flight: behind the cursor a stripe is whole again,
        ahead of it the disk is stale, so the route is built for the op,
        its runs cut where the stale columns change."""
        volume.fail_disk(0)
        assert self._read_ran(volume, kernel_reads) == KERNEL
        cursor = volume.start_rebuild(0, batch=1)
        cursor.step()  # stripe 0, the one read, is rebuilt
        assert cursor.covers(0) and not cursor.covers(1)
        assert self._read_ran(volume, kernel_reads) == KERNEL
        del kernel_reads[:]
        assert np.array_equal(
            volume.read(3, volume.num_elements - 3),
            np.ones((volume.num_elements - 3, ES)),
        )
        assert kernel_reads == ([volume] if KERNEL else [])
        cursor.run()
        assert self._read_ran(volume, kernel_reads) == KERNEL
        assert np.array_equal(
            volume.read(0, volume.num_elements),
            np.ones((volume.num_elements, ES)),
        )

    @pytest.mark.parametrize("case", (
        "fault_hook", "latent", "integrity", "tracker", "behind", "rebuild",
    ))
    def test_degraded_read(
        self, volume, monkeypatch, kernel_reads, walks, case
    ):
        """A read of stripe 0 rebuilding data cell 7, whose disk is
        failed, runs in the kernel — until ``case``: a hook or a latent
        sector on a disk it touches, an integrity checker or a
        dirty-stripe tracker attached, a disk failed behind its surface.
        Then ``_route_walk`` runs the same route in numpy.  A rebuild in
        flight keeps it in the kernel."""
        lost = volume.layout.data_cells[7].col
        touched = volume.layout.data_cells[6].col  # read, not lost
        volume.fail_disk(lost)

        def ran():
            del kernel_reads[:], walks[:]
            assert np.array_equal(volume.read(6, 3), np.ones((3, ES)))
            assert (volume in kernel_reads) != (volume in walks)
            return volume in kernel_reads

        assert ran() == KERNEL
        if case == "fault_hook":
            volume.disks[touched].fault_hook = lambda d, op, offset: None
        elif case == "latent":
            volume.inject_latent_error(touched, 3, 0)
        elif case == "integrity":
            IntegrityChecker(volume)
        elif case == "tracker":
            DirtyStripeTracker(volume)
        elif case == "behind":
            # the read keeps the surface taken before the disk died
            surface = volume._surface()
            other = next(
                d for d in range(len(volume.disks)) if d not in (lost, touched)
            )
            volume.disks[other].fail()
            monkeypatch.setattr(volume, "_surface", lambda: surface)
        else:
            volume.start_rebuild(lost, batch=1).step()
        assert ran() == (case == "rebuild" and KERNEL)

    @pytest.mark.parametrize("case", (
        "fault_hook", "latent", "phase_hook", "integrity", "tracker",
        "behind", "rebuild", "rotated", "journal", "aliased",
    ))
    def test_short_write(self, volume, monkeypatch, kernel_writes, walks,
                         case):
        """A short write across stripes 0 and 1 runs along its route in
        the kernel — until ``case``: a hook or a latent sector on a disk
        it touches, the journal's phase hook, an integrity checker or a
        dirty-stripe tracker attached, a disk failed behind its surface.
        Then ``_route_walk`` runs the same route in numpy.  A rebuild in
        flight, a rotated volume, a journal attached and a payload that
        is a zero-copy view of the volume (copied first) keep it in the
        kernel."""
        per = volume.layout.num_data_cells
        start, n = per - 2, 4
        touched = volume.layout.data_cells[per - 1].col
        data = np.full((n, ES), 7, np.uint8)

        def ran(volume):
            del kernel_writes[:], walks[:]
            volume.write(start, data)
            assert (volume in kernel_writes) != (volume in walks)
            return volume in kernel_writes

        assert ran(volume) == KERNEL
        if case == "fault_hook":
            volume.disks[touched].fault_hook = lambda d, op, offset: None
        elif case == "latent":
            volume.inject_latent_error(touched, 3, 0)
        elif case == "phase_hook":
            volume.journal = WriteIntentLog(phase_hook=lambda phase, s: None)
        elif case == "integrity":
            IntegrityChecker(volume)
        elif case == "tracker":
            DirtyStripeTracker(volume)
        elif case == "behind":
            # the write keeps the surface taken before the disk died
            surface = volume._surface()
            volume.disks[touched].fail()
            monkeypatch.setattr(volume, "_surface", lambda: surface)
        elif case == "rebuild":
            volume.fail_disk(0)
            volume.start_rebuild(0, batch=1).step()
        elif case == "rotated":
            volume = RAID6Volume(volume.layout, num_stripes=4,
                                 element_size=ES, rotate=True)
        elif case == "journal":
            volume.journal = WriteIntentLog()
        else:
            data = volume.read(2 * per, per)[:n]
            assert np.shares_memory(data, volume._backing)
        assert ran(volume) == (
            case in ("rebuild", "rotated", "journal", "aliased")
            and KERNEL
        )
        if case == "behind":
            monkeypatch.undo()
        assert np.array_equal(volume.read(start, n), data)


class TestDiskBitmasks:
    """The volume's per-disk bitmasks follow every mutator."""

    def test_masks_follow_the_disks(self):
        volume = RAID6Volume(make_code("rdp", 5), num_stripes=2,
                             element_size=ES)
        disk = volume.disks[2]
        disk.fault_hook = lambda d, op, offset: None
        assert volume._hooks == 1 << 2
        disk.fault_hook = None
        disk.corrupt_hook = lambda d, offset: None
        assert volume._hooks == 1 << 2
        disk.corrupt_hook = None
        assert volume._hooks == 0
        disk.mark_bad(1)
        disk.mark_bad(3)
        assert volume._latent == 1 << 2
        disk.write(1, np.zeros(ES, np.uint8))
        assert volume._latent == 1 << 2  # one left
        disk.commit_block(1, [3])
        assert volume._latent == 0
        disk.mark_bad(0)
        disk.write_block(np.array([0]), np.zeros((1, ES), np.uint8))
        assert volume._latent == 0
        volume.fail_disk(2)
        assert volume.failed_disks == (2,)
        volume.start_rebuild(2).run()
        assert volume.failed_disks == ()
        volume.disks[4].state = DiskState.FAILED  # as a loader restores it
        assert volume.failed_disks == (4,)
        disk.mark_bad(0)
        volume.disks[2].replace()
        assert volume._latent == 0
