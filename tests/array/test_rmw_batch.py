"""Planned I/O and cross-stripe RMW: what the differential oracle does
not pin.

Every plan (``repro.array.ioplan``) reaches the disks one of two ways:
as one vector while the disks it touches are quiet, element by element
in plan order when one carries a hook.  :class:`~tests.oracles.diff.
Mirror` holds the two branches, the C kernel and the reference walk of
``tests/oracles/walk.py`` to each other over seeded op streams
(``tests/oracles/test_diff.py``); the tests here run it on hand-built
cases that pin *how* an op ran — how many plan executions and stores,
which whole stripes were encoded in place in the backing store, what a
payload aliasing the volume does, what a disk dying under a store
leaves — and the plan cache and the surface snapshot.

The partial-stripe queue (``_write_rest``) hands the partial entries of
a burst — healthy stripes and degraded ones — to one ``ioplan.rmw``
call, which runs the entries sharing a dirty-cell pattern and stale
columns as one vector of stripes.  That must be byte-identical on disk
*and* counter-identical per disk to writing the stripes one at a time
(the paper's load metrics are counted I/Os, so a fast path that changed
the counts would corrupt every comparison built on them) —
:class:`TestThreadEquivalence` holds bursts against the walk.
"""

import copy
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.array import ioplan
from repro.array.cache import StripeCache
from repro.array.disk import SimDisk
from repro.array.integrity import IntegrityChecker
from repro.array.volume import RAID6Volume
from repro.codec.plan import XorPlan
from repro.codes import make_code
from repro.exceptions import (
    DiskFailedError, GeometryError, SimulatedCrashError,
)
from repro.faults.policy import ErrorPolicy
from repro.journal import WriteIntentLog, recover_on_mount
from repro.recovery.planner import cached_hybrid_plan
from repro.util.ckernel import xor_kernel

from tests.conftest import ALL_ARRAY_CODES, SMALL_PRIMES, bucket
from tests.oracles import walk
from tests.oracles.diff import Mirror, draw, spy_kernel

ES = 32
STRIPES = 16


def _burst(layout, rng, stripes, max_cells=3, es=ES):
    """Mixed multi-cell partial-stripe entries: four dirty-cell patterns,
    every fourth stripe sharing one."""
    per = layout.num_data_cells
    entries = []
    for k, s in enumerate(stripes):
        q = k % 4
        n = 1 + (q % min(max_cells, per - 1))
        cells = [layout.data_cells[(q + j) % (per - 1)] for j in range(n)]
        entries.append(
            (
                s,
                [
                    (c, rng.integers(0, 256, es, dtype=np.uint8))
                    for c in sorted(set(cells))
                ],
            )
        )
    return entries


def _write(vol, entries):
    vol._write_rest([bucket(vol.layout, s, items) for s, items in entries])


def _walk(vol, entries):
    """The same burst by the reference walk, stripe by stripe."""
    for stripe, items in copy.deepcopy(entries):
        walk.write_stripe(vol, stripe, items)


def _prime(vol, rng):
    data = rng.integers(
        0, 256, (vol.num_elements, ES), dtype=np.uint8
    )
    vol.write(0, data)
    return data


@pytest.fixture
def layout():
    return make_code("dcode", 7)


def _assert_same(a, b):
    assert np.array_equal(a._backing, b._backing)
    assert a.io_counters() == b.io_counters()


def _volume(layout, stripes=STRIPES, es=ES, **kwargs):
    return RAID6Volume(
        layout, num_stripes=stripes, element_size=es, **kwargs
    )


def _pair(layout, **kwargs):
    """A default volume and one for the reference walk (:func:`_walk`)."""
    return _volume(layout, **kwargs), _volume(layout, **kwargs)


@pytest.fixture
def slab_runs(monkeypatch):
    """By volume, ``(first stripe, stripes)`` of every whole-stripe run
    the numpy executor (``ioplan._store_whole``) encodes in place in its
    slab of the backing store — no stale column, unrotated, quiet
    stores — in order."""
    runs = {}
    store_whole = ioplan._store_whole

    def spy(volume, stripes, stale, values, failed):
        if not (stale or volume._failed or volume.mapper.rotate
                or volume._hooked(store=True)):
            runs.setdefault(volume, []).append((stripes[0], len(stripes)))
        store_whole(volume, stripes, stale, values, failed)

    monkeypatch.setattr(ioplan, "_store_whole", spy)
    return runs


def spy_stores(volume, monkeypatch):
    """``(rows, came with data)`` of every planned store of ``volume``,
    in order, on whichever engine ran it: a call of its store funnel
    ``_store_rows``, or a C kernel run of an RMW plan or of a write's
    route (the rows its counts say it wrote); a
    ``SimDisk.write_block`` call fails.

    The funnel is spied on the class, so spying never stands the kernel
    down."""
    stores = []
    funnel = RAID6Volume._store_rows

    def spy(self, at, data=None):
        if self is volume:
            stores.append((len(at), data is not None))
        funnel(self, at, data)

    monkeypatch.setattr(RAID6Volume, "_store_rows", spy)

    def kernel_spy(name, vol, call, args):
        written = int(vol._io[1].sum())
        call(*args)
        if vol is volume and args[-4] is not None:
            stores.append((int(vol._io[1].sum()) - written, True))

    def per_disk(*args, **kwargs):
        raise AssertionError("a planned store went disk by disk")

    spy_kernel(monkeypatch, kernel_spy)
    monkeypatch.setattr(SimDisk, "write_block", per_disk)
    return stores


@pytest.fixture
def xor_batches(monkeypatch):
    """Batch size of every plan execution, in order, on whichever engine
    ran it: a numpy ``XorPlan.execute_batch`` call, or one C kernel run
    of a whole plan (``plan_exec``)."""
    sizes = []
    execute_batch = XorPlan.execute_batch

    def spy(plan, scratch):
        sizes.append(len(scratch))
        return execute_batch(plan, scratch)

    def kernel_spy(name, volume, call, args):
        if name == "plan_exec":
            sizes.append(args[4])  # the number of stripes
        return call(*args)

    monkeypatch.setattr(XorPlan, "execute_batch", spy)
    spy_kernel(monkeypatch, kernel_spy)
    return sizes


class TestThreadEquivalence:
    """One cross-stripe ``_write_rest`` burst on a default volume vs the
    same burst walked stripe by stripe, element by element."""

    def test_same_cell_burst_is_one_call(
        self, layout, xor_batches, monkeypatch
    ):
        """32 stripes, one dirty cell each: one XOR schedule over the
        vector of stripes — on either branch — and one store of every
        row on every disk."""
        rng = np.random.default_rng(5)
        mirror = Mirror(layout, stripes=32, es=ES)
        quiet = mirror.kernel
        cell = layout.data_cells[4]
        entries = [
            (s, [(cell, rng.integers(0, 256, ES, dtype=np.uint8))])
            for s in range(32)
        ]
        del xor_batches[:]
        stores = spy_stores(quiet, monkeypatch)
        mirror.write_rest(entries)
        assert xor_batches == [32] * len(mirror.volumes)
        written = [w for _, w in quiet.io_counters().values() if w]
        assert stores == [(sum(written), True)] and len(written) > 1

    def test_duplicate_stripe_in_burst_rejected(self, layout):
        """Every old value of a vectorised burst is gathered before any
        write lands, so naming a stripe twice would leave ``v1`` where
        the sequential loop leaves ``old``: a typed error, nothing
        touched."""
        quiet = _volume(layout)
        _prime(quiet, np.random.default_rng(6))
        cell = layout.data_cells[4]
        loc = quiet.mapper.locate_cell(0, cell)
        old = quiet.disks[loc.disk]._store[loc.offset].copy()
        v1 = old ^ 0xFF
        image, counters = quiet._backing.copy(), quiet.io_counters()
        with pytest.raises(ValueError, match="at most once"):
            quiet._write_rest([
                bucket(layout, s, [(cell, v)])
                for s, v in ((0, v1), (0, old), (1, v1))
            ])
        assert np.array_equal(quiet._backing, image)
        assert quiet.io_counters() == counters

    def test_bucket_rows_checked(self, layout):
        """The kernel reads a bucket's rows by address: a row too short
        for its mask, or of another dtype or element size, is a typed
        error before anything is read or written."""
        quiet = _volume(layout)
        _prime(quiet, np.random.default_rng(6))
        image, counters = quiet._backing.copy(), quiet.io_counters()
        for row, mask in (
            (np.zeros((3, ES), np.uint8), 0b1010),
            (np.zeros((8, ES), np.int16), 0b1),
            (np.zeros((8, ES // 2), np.uint8), 0b110),
        ):
            with pytest.raises(GeometryError):
                quiet._write_rest([(0, row, mask)])
        assert np.array_equal(quiet._backing, image)
        assert quiet.io_counters() == counters

    def test_gapped_mask_group_is_strided_by_its_span(self, layout):
        """Buckets sharing a mask with gaps in it run as one vector of
        stripes, each stripe's values the mask's span of rows: every
        interpreter writes the same, healthy and with a disk failed."""
        rng = np.random.default_rng(7)
        mirror = Mirror(layout, stripes=STRIPES, es=ES)
        cells = layout.data_cells
        for failed in (None, 1):
            if failed is not None:
                mirror.fail_disk(failed)
            mirror.write_rest([
                (s, [(cells[j], rng.integers(0, 256, ES, dtype=np.uint8))
                     for j in (0, 2, 5)])
                for s in range(6)
            ])

    def test_zero_delta_burst_writes_nothing_twice(self, layout):
        rng = np.random.default_rng(5)
        mirror = Mirror(layout, stripes=STRIPES, es=ES)
        entries = _burst(layout, rng, range(8))
        mirror.write_rest(entries)
        # the repeat pass must read old data but skip every write
        quiet = mirror.kernel
        _, writes_before = map(sum, zip(*quiet.io_counters().values()))
        mirror.write_rest(entries)  # identical payloads: all-zero deltas
        _, writes_after = map(sum, zip(*quiet.io_counters().values()))
        assert writes_after == writes_before

    def test_journaled_group_matches_serial_per_stripe(
        self, layout, xor_batches
    ):
        """One group intent covers the vectorised burst; per-stripe
        ``_write_stripe_batch`` calls journal and write each stripe
        alone."""
        rng = np.random.default_rng(5)
        grouped, alone = (
            _volume(layout, journal=WriteIntentLog()) for _ in range(2)
        )
        ref = _volume(layout)
        entries = _burst(layout, rng, range(10))
        _write(grouped, entries)
        assert max(xor_batches) > 1
        del xor_batches[:]
        for stripe, items in entries:
            alone._write_stripe_batch(*bucket(layout, stripe, items))
        assert xor_batches == [1] * len(entries)
        _walk(ref, entries)
        _assert_same(grouped, ref)
        _assert_same(alone, ref)
        assert grouped.journal.stats.groups == 1
        assert alone.journal.stats.groups == 0
        assert not grouped.journal.dirty and not alone.journal.dirty

    def test_rotated_burst_is_one_vector(self, layout, xor_batches):
        """A rotated burst needs no fallback: the plan's placement
        rotates per stripe, the vector still executes as one call."""
        rng = np.random.default_rng(5)
        quiet, ref = _pair(layout, rotate=True)
        entries = _burst(layout, rng, range(10))
        _write(quiet, entries)
        assert sum(xor_batches) == len(entries) > len(xor_batches)
        _walk(ref, entries)
        _assert_same(quiet, ref)

    def test_phase_hook_keeps_the_planned_writes(
        self, layout, xor_batches, monkeypatch
    ):
        """A crash-point phase hook changes how a plan's store reaches
        the disks — element by element, an ``inter_column`` checkpoint
        at each column change — not which plan runs: the burst is still
        one vectorised RMW, its gather still one vector."""
        rng = np.random.default_rng(5)
        phases = []
        hooked = _volume(
            layout,
            journal=WriteIntentLog(
                phase_hook=lambda ph, s: phases.append(ph)
            ),
        )
        plain = _volume(layout)
        entries = _burst(layout, rng, range(6))
        _write(plain, entries)
        del xor_batches[:]
        writes = []
        write = SimDisk.write

        def spy(disk, offset, data):
            writes.append(disk.disk_id)
            write(disk, offset, data)

        def unread(disk, offset):
            raise AssertionError("the gather went element by element")

        monkeypatch.setattr(SimDisk, "write", spy)
        monkeypatch.setattr(SimDisk, "read_view", unread)
        _write(hooked, entries)
        monkeypatch.undo()
        _assert_same(hooked, plain)
        assert sum(xor_batches) == len(entries) > len(xor_batches)
        assert len(writes) == sum(w for _, w in hooked.io_counters().values())
        # group framing stays on under the hook (chaos campaigns tear at
        # group boundaries), so the phases fire once per member
        assert phases.count("pre_intent") == len(entries)
        assert phases.count("pre_commit") == len(entries)
        assert phases.count("inter_column") > 0

    def test_full_stripe_entry_disables_vectorised_path(
        self, layout, xor_batches
    ):
        """A full-stripe entry is an encode, not an RMW: it takes its
        whole-stripe route while the partial entries around it still
        share their calls."""
        rng = np.random.default_rng(5)
        quiet, ref = _pair(layout)
        same = _burst(layout, rng, (1,))[0][1]
        entries = [
            (
                0,
                [
                    (c, rng.integers(0, 256, ES, dtype=np.uint8))
                    for c in layout.data_cells
                ],
            ),
            (1, same),
            (2, copy.deepcopy(same)),
        ]
        _write(quiet, entries)
        # the partial entries: one vector; then the whole stripe's
        # encode, inside the route's kernel call or a one-stripe numpy
        # batch
        kernel = xor_kernel() is not None
        assert xor_batches == ([2] if kernel else [2, 1])
        _walk(ref, entries)
        _assert_same(quiet, ref)


# -- hand-built cases on the differential oracle --------------------------------

ORACLE_STRIPES = 5
ORACLE_ES = 16


def _mirror(layout, failed=(), stripes=ORACLE_STRIPES, es=ORACLE_ES,
            **kwargs) -> Mirror:
    """A :class:`Mirror` holding a random image, ``failed`` disks failed,
    an integrity checker and a dirty-stripe tracker attached."""
    mirror = Mirror(layout, stripes=stripes, es=es, **kwargs)
    mirror.write(0, np.random.default_rng(7).integers(
        0, 256, (mirror.kernel.num_elements, es), dtype=np.uint8
    ))
    for disk in failed:
        mirror.fail_disk(disk)
    mirror.attach_checker()
    mirror.attach_tracker()
    return mirror


def _mirror_burst(mirror, j0, values, via_cache, stripes=None):
    """Write ``values[i]`` at data index ``j0`` of ``stripes[i]`` (stripe
    ``i`` by default) as one queue: ``_write_rest`` directly, or a cache
    flush."""
    per = mirror.per
    cells = mirror.layout.data_cells[j0:j0 + values.shape[1]]
    if stripes is None:
        stripes = range(len(values))
    if not via_cache:
        mirror.write_rest([
            (stripe, list(zip(cells, rows)))
            for stripe, rows in zip(stripes, values)
        ])
        return
    for stripe, rows in zip(stripes, values):
        mirror.cache_write(stripe * per + j0, rows)
    mirror.flush()


def _loc(mirror, stripe, cell):
    """``(disk, offset)`` of ``cell`` of ``stripe``."""
    loc = mirror.kernel.mapper.locate_cell(stripe, cell)
    return loc.disk, loc.offset


def _failed_sets(cols):
    return ((), (1,), (0, cols - 1))


def _drive(mirror, payload):
    """A deterministic mixed workload, disks failing along the way."""
    per = mirror.per
    # multi-stripe aligned write
    mirror.write(0, payload[: 6 * per])
    # unaligned multi-stripe write (head + full + tail partial stripes)
    mirror.write(per // 2, payload[6 * per : 6 * per + 4 * per + 3])
    # small partial writes (RMW path)
    mirror.write(7 * per + 1, payload[:3])
    # multi-stripe read spanning the written region
    mirror.read(0, 8 * per)
    # degraded reads
    mirror.fail_disk(1)
    mirror.read(0, 6 * per)
    mirror.fail_disk(mirror.layout.cols - 1)
    mirror.read(per // 3, 5 * per)


class TestPlannedVsWalk:
    """Whole stripes in place and off it, aliasing payloads, bad rebuild
    sources: the vector branch, the per-element branch, the kernel and
    the walk."""

    @pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @pytest.mark.parametrize("rotate", (False, True))
    @pytest.mark.parametrize("failures", (0, 1, 2))
    @settings(
        max_examples=4, deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(seed=st.integers(0, 2**16), steps=st.integers(4, 9))
    def test_op_stream(self, code_name, p, rotate, failures, seed, steps):
        """A short stream of the differential oracle's traffic on a
        volume with observers attached and ``failures`` disks failed; a
        failure shrinks to a short one."""
        layout = make_code(code_name, p)
        self._run(layout, _failed_sets(layout.cols)[failures], seed, steps,
                  rotate=rotate)

    @pytest.mark.parametrize("failures", (0, 1))
    @pytest.mark.parametrize(
        "kwargs", ({"journaled": True},), ids=("journal",)
    )
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(seed=st.integers(0, 2**16), steps=st.integers(4, 9))
    def test_journaled_and_parallel(self, layout, failures, kwargs, seed,
                                    steps):
        self._run(layout, _failed_sets(layout.cols)[failures], seed, steps,
                  **kwargs)

    def _run(self, layout, failed, seed, steps, **kwargs):
        """``steps`` ops of the oracle's traffic (``diff.draw``), drawn
        from ``seed``, on a :func:`_mirror` with ``failed`` disks
        failed; then a flush."""
        mirror = _mirror(layout, failed, **kwargs)
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            draw(mirror, rng, "traffic")(mirror, rng)
        mirror.flush()

    @pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_volume_io_identical(self, code_name, p):
        self._drive_both(make_code(code_name, p), stripes=16, es=64)

    def test_rotated_volume_identical(self):
        self._drive_both(
            make_code("dcode", 5), stripes=12, es=32, rotate=True
        )

    def _drive_both(self, layout, stripes, es, **kwargs):
        rng = np.random.default_rng(
            sum(map(ord, layout.name)) * 1000 + layout.p
        )
        payload = rng.integers(
            0, 256, (12 * layout.num_data_cells, es), dtype=np.uint8
        )
        _drive(_mirror(layout, stripes=stripes, es=es, **kwargs), payload)

    @pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
    @pytest.mark.parametrize("rotate", (False, True))
    @pytest.mark.parametrize("failures", (0, 1, 2))
    def test_whole_stripe_ops(self, code_name, rotate, failures):
        self._whole_stripe_ops(
            make_code(code_name, 5), failures, rotate=rotate
        )

    @pytest.mark.parametrize("rotate", (False, True))
    @pytest.mark.parametrize("failures", (0, 1, 2))
    @pytest.mark.parametrize("chunk", (2, ioplan.RUN_CHUNK))
    def test_whole_stripe_ops_journaled(
        self, layout, rotate, failures, chunk, monkeypatch
    ):
        """Also with runs cut every two stripes: the chunk seams."""
        monkeypatch.setattr(ioplan, "RUN_CHUNK", chunk)
        self._whole_stripe_ops(
            layout, failures, rotate=rotate, journaled=True
        )

    def _whole_stripe_ops(self, layout, failures, **kwargs):
        """Full-stripe bursts through ``write`` and through a cache
        flush, rebuild of every failed disk, then parity scrub and the
        integrity sweeps over planted rot."""
        failed = _failed_sets(layout.cols)[failures]
        mirror = _mirror(layout, failed, **kwargs)
        per = layout.num_data_cells
        rng = np.random.default_rng(failures)

        def fresh(count):
            return rng.integers(0, 256, (count, ORACLE_ES), dtype=np.uint8)

        mirror.write(per, fresh(3 * per))  # a run of whole stripes
        mirror.write(per // 2, fresh(3 * per))  # head + two whole + tail
        mirror.write(2 * per - 1, fresh(per + 2))  # one whole among partials
        _mirror_burst(mirror, 0, fresh(ORACLE_STRIPES * per).reshape(
            ORACLE_STRIPES, per, ORACLE_ES
        ), via_cache=True)
        image = mirror.read(0, ORACLE_STRIPES * per)
        for batch, disk in zip((2, ORACLE_STRIPES), failed):
            mirror.rebuild(disk, batch)
        assert mirror.scrub() == []
        assert mirror.integrity("find_corruption") == {}
        rotten = [
            (0, layout.data_cells[1]),
            (3, layout.data_cells[per - 1]),
            (3, layout.parity_cells[0]),
        ]
        for stripe, cell in rotten:
            mirror.rot(*_loc(mirror, stripe, cell))
        assert mirror.integrity("find_corruption") == {
            0: [rotten[0][1]],
            3: sorted(  # columns ascending, like the walk
                (c for s, c in rotten if s == 3),
                key=lambda c: (c.col, c.row),
            ),
        }
        # verified loads reconstruct around located rot: parity holds
        assert mirror.scrub() == []
        report = mirror.integrity("scrub_campaign")
        assert report.repaired_data == rotten[:2]
        assert report.repaired_parity == rotten[2:]
        assert mirror.integrity("scrub_campaign").clean
        assert np.array_equal(mirror.read(0, ORACLE_STRIPES * per), image)

    @pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @pytest.mark.parametrize("journaled", (False, True))
    def test_whole_stripes_encoded_in_place(
        self, code_name, p, journaled, slab_runs
    ):
        """Healthy and unrotated, every run of consecutive whole stripes
        is encoded in its slab of the backing store — 2 and 32 stripes
        through ``write``, a list with gaps through ``_write_rest`` and
        a cache destage — and no observer can tell: bytes, counters,
        checksums, verified bits, dirty set.  A lone whole stripe is a
        run like any other."""
        layout = make_code(code_name, p)
        mirror = _mirror(layout, journaled=journaled, stripes=40)
        slab_runs.clear()  # the mirror's own image
        per = layout.num_data_cells
        rng = np.random.default_rng(p)

        def fresh(stripes):
            return rng.integers(
                0, 256, (stripes * per, ORACLE_ES), dtype=np.uint8
            )

        mirror.write(3 * per, fresh(1))
        assert slab_runs[mirror.numpy] == [(3, 1)]
        slab_runs.clear()
        mirror.write(3 * per, fresh(2))
        mirror.write(5 * per, fresh(32))
        mirror.write(per - 2, fresh(3))  # head + two whole stripes + tail
        assert slab_runs[mirror.numpy] == [(3, 2), (5, 32), (1, 2)]
        slab_runs.clear()
        scattered = (1, 2, 3, 7, 9, 10)
        for via_cache in (False, True):
            _mirror_burst(
                mirror, 0, fresh(len(scattered)).reshape(-1, per, ORACLE_ES),
                via_cache, stripes=scattered,
            )
        assert slab_runs[mirror.numpy] == 2 * [(1, 3), (7, 1), (9, 2)]
        assert mirror.scrub() == []
        assert mirror.integrity("find_corruption") == {}

    @pytest.mark.parametrize(
        "rotate,failures", ((False, 1), (False, 2), (True, 0), (True, 2))
    )
    @pytest.mark.parametrize("journaled", (False, True))
    def test_whole_stripes_off_the_slab(
        self, layout, rotate, failures, journaled, slab_runs
    ):
        """Rotation scatters a stripe's columns and a stale column must
        not be written: those volumes keep the encode tensor and the
        scatter of it — also with a rebuild cursor inside the run, ahead
        of which the stale column stays; behind it, with one disk
        failed, stripes are whole again and encoded in place."""
        failed = _failed_sets(layout.cols)[failures]
        mirror = _mirror(layout, failed, journaled=journaled, rotate=rotate)
        slab_runs.clear()  # the mirror's own image, before a disk failed
        per = layout.num_data_cells
        rng = np.random.default_rng(failures)
        whole = (ORACLE_STRIPES * per, ORACLE_ES)
        mirror.write(0, rng.integers(0, 256, whole, dtype=np.uint8))
        if failed:
            mirror.start_rebuild(failed[0], batch=2)
            mirror.step()
            mirror.write(0, rng.integers(0, 256, whole, dtype=np.uint8))
            while mirror.cursors[0].active:
                mirror.step()
        assert slab_runs.get(mirror.numpy, []) == (
            [(0, 2)] if failures == 1 and not rotate else []
        )

    @pytest.mark.parametrize("code_name", ("dcode", "rdp"))
    @pytest.mark.parametrize("journaled", (False, True))
    @pytest.mark.parametrize("shift", (0, 3))
    def test_payload_aliasing_the_backing(
        self, code_name, journaled, shift, slab_runs
    ):
        """The payload is the volume's own memory — what a zero-copy
        read view is — at the address it is written to, and three
        elements off it: the stripes read back what the payload held
        when the call was made."""
        layout = make_code(code_name, 5)
        mirror = _mirror(layout, journaled=journaled)
        slab_runs.clear()
        per = layout.num_data_cells
        first = layout.rows * layout.cols + shift
        mirror.retire()  # the walk writes its payload in place
        for volume in mirror.volumes:
            payload = volume._flat_backing[first:first + 2 * per]
            assert np.shares_memory(payload, volume._backing)
            want = payload.copy()
            volume.write(per, payload)
            assert np.array_equal(volume.read(per, 2 * per), want)
        mirror.check()
        assert slab_runs[mirror.numpy] == [(1, 2)]
        assert mirror.scrub() == []

    def test_aliasing_payload_survives_a_crash_as_redo_image(self, layout):
        """The intents of a whole-stripe burst hold the caller's rows;
        rows that are the volume's own memory are snapshotted first, so
        a write torn half way does not tear its own redo image."""
        volume = _volume(layout, stripes=4, journal=WriteIntentLog())
        _prime(volume, np.random.default_rng(2))
        per = layout.num_data_cells
        first = layout.rows * layout.cols + 3
        payload = volume._flat_backing[first:first + 2 * per]
        want = payload.copy()
        seen = []

        def crash(phase, stripe):
            seen.append(phase)
            if seen.count("inter_column") == 3:
                raise SimulatedCrashError(phase)

        volume.journal.phase_hook = crash
        with pytest.raises(SimulatedCrashError):
            volume.write(per, payload)
        volume.journal.phase_hook = None
        assert recover_on_mount(volume).replayed == 2
        assert np.array_equal(volume.read(per, 2 * per), want)
        assert volume.scrub() == []

    @pytest.mark.parametrize("journaled", (False, True))
    def test_in_place_write_remaps_a_latent_sector(
        self, layout, journaled, slab_runs
    ):
        """A latent sector under the run is cleared as ``write_block``
        clears it; one outside the run stays.  A latent sector fails
        loads, not stores: the run is still encoded in place."""
        mirror = _mirror(layout, journaled=journaled)
        slab_runs.clear()
        per = layout.num_data_cells
        under, outside = 2 * layout.rows + 1, 4 * layout.rows
        for volume in mirror.sides:  # the walk too: a store remaps
            volume.disks[3].mark_bad(under)
            volume.disks[3].mark_bad(outside)
        mirror.write(per, np.ones((2 * per, ORACLE_ES), dtype=np.uint8))
        for volume in mirror.sides:
            assert volume.disks[3].bad_sectors == {outside}
        assert slab_runs[mirror.numpy] == [(1, 2)]

    @pytest.mark.parametrize("rotate", (False, True))
    @pytest.mark.parametrize("damage", ("rot", "latent"))
    def test_rebuild_walks_around_a_bad_source(self, layout, rotate, damage):
        """A rebuild source that is rotten, or a latent sector, is a
        located erasure: its stripe is loaded through the stripe plan
        with the source known-lost and decoded around it (one failed
        disk — a second would leave the stripe nothing to reconstruct
        with)."""
        failed = _failed_sets(layout.cols)[1]
        mirror = _mirror(layout, failed, rotate=rotate)
        per = layout.num_data_cells
        image = mirror.read(0, ORACLE_STRIPES * per)
        stripe = 2
        col = mirror.kernel.mapper.col_on_disk(stripe, failed[0])
        loc = mirror.kernel.mapper.locate_cell(
            stripe, min(cached_hybrid_plan(layout, col).reads)
        )
        getattr(mirror, {"rot": "rot", "latent": "mark_bad"}[damage])(
            loc.disk, loc.offset
        )
        mirror.rebuild(failed[0], ORACLE_STRIPES)
        # the read heals the sector
        assert np.array_equal(mirror.read(0, ORACLE_STRIPES * per), image)


    @pytest.mark.parametrize(
        "code_name,p", (("dcode", 7), ("rdp", 5), ("xcode", 5))
    )
    @pytest.mark.parametrize("rotate", (False, True))
    @pytest.mark.parametrize("journaled", (False, True))
    @pytest.mark.parametrize("failures", (1, 2))
    def test_degraded_partial_writes(
        self, code_name, p, failures, journaled, rotate
    ):
        """Partial writes to stripes with stale columns are RMWs too:
        single stripes, spans, ``_write_rest`` bursts and cache
        destages; a dirty cell on a failed column or none; zero-delta
        and parity-cancelling payloads; either side of a rebuild cursor.
        Then every disk rebuilt: scrub clean, image equal to a shadow."""
        layout = make_code(code_name, p)
        failed = _failed_sets(layout.cols)[failures]
        mirror = _mirror(layout, failed, journaled=journaled, rotate=rotate)
        quiet = mirror.kernel
        per = layout.num_data_cells
        total = ORACLE_STRIPES * per
        shadow = mirror.read(0, total)
        rng = np.random.default_rng(failures)

        def fresh(*shape):
            return rng.integers(1, 256, shape + (ORACLE_ES,), dtype=np.uint8)

        def write(start, data):
            mirror.write(start, data)
            shadow[start:start + len(data)] = data

        def burst(j0, values, via_cache):
            values[::2] = shadow.reshape(ORACLE_STRIPES, per, -1)[
                ::2, j0:j0 + values.shape[1]
            ]  # every other stripe a zero delta
            _mirror_burst(mirror, j0, values, via_cache)
            shadow.reshape(ORACLE_STRIPES, per, -1)[
                :, j0:j0 + values.shape[1]
            ] = values

        def cost(reads=True):
            return sum(
                r * reads + w for r, w in quiet.io_counters().values()
            )

        # the first data cell (bar the stripe's first) on a stale column
        stripe, stale, on_stale = next(
            (s, stale, j)
            for s in range(ORACLE_STRIPES)
            for stale in [quiet._stale_cols(s)]
            for j in range(1, per) if layout.data_cells[j].col in stale
        )
        off_stale = next(
            j for j in range(per) if layout.data_cells[j].col not in stale
        )
        before = cost()
        write(stripe * per + on_stale - 1, fresh(3))  # a lost dirty cell
        if failures == 1:  # patched, not reconstruct-written
            surviving = layout.rows * (layout.cols - 1)
            assert cost() - before < surviving
        write(stripe * per + off_stale, fresh(1))  # none
        before = cost(), cost(reads=False)
        span = slice(stripe * per + on_stale - 1, stripe * per + on_stale + 2)
        write(span.start, shadow[span].copy())  # zero delta: reads only
        assert cost() > before[0] and cost(reads=False) == before[1]
        write(span.start, shadow[span] ^ fresh())  # one delta: cancels
        write(2 * per - 2, fresh(5))  # a span over two degraded stripes
        for via_cache in (False, True):
            burst(on_stale - 1, fresh(ORACLE_STRIPES, 3), via_cache)
        # a rebuild in flight: healthy behind the cursor, stale ahead
        mirror.start_rebuild(failed[0], batch=2)
        mirror.step()
        write(per + 3, fresh(per + 2))  # stripes 1 | 2: astride the cursor
        for via_cache in (False, True):
            burst(on_stale - 1, fresh(ORACLE_STRIPES, 3), via_cache)
        while mirror.cursors[0].active:
            mirror.step()
        for disk in failed[1:]:
            mirror.rebuild(disk, ORACLE_STRIPES)
        assert mirror.scrub() == []
        assert np.array_equal(mirror.read(0, total), shadow)

    @pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_destage_byte_exact(self, code_name, p):
        """A cache's dirty buckets — ``(cell, value)`` lists in data
        order, not spans — as one ``_write_rest`` queue, healthy and with
        a disk failed: a head and a tail partial stripe around whole
        ones, and scattered cells in every stripe."""
        layout = make_code(code_name, p)
        per = layout.num_data_cells
        rng = np.random.default_rng(sum(map(ord, code_name)) * 100 + p)

        def fresh(count):
            return rng.integers(0, 256, (count, ORACLE_ES), dtype=np.uint8)

        for failed in _failed_sets(layout.cols)[:2]:
            mirror = _mirror(layout, failed)
            cache = StripeCache(
                _volume(layout, stripes=ORACLE_STRIPES, es=ORACLE_ES),
                max_dirty_stripes=ORACLE_STRIPES,
            )
            cache.write(per // 2, fresh(3 * per))
            for j in range(per + 1, ORACLE_STRIPES * per, 7):
                cache.write(j, fresh(1))
            buckets = sorted(cache.dirty_snapshot().items())
            assert any(len(items) == per for _, items in buckets)
            mirror.write_rest(buckets)

    def test_destage_burst_of_scattered_cells(self, layout):
        """A cache destage hands ``_write_rest`` arbitrary (not
        contiguous) cell sets, several stripes at once."""
        mirror = _mirror(layout)
        rng = np.random.default_rng(3)
        entries = [
            (stripe, items[::2])  # every other cell: not a contiguous run
            for stripe, items in _burst(
                layout, rng, range(ORACLE_STRIPES), max_cells=5, es=ORACLE_ES
            )
        ]
        mirror.write_rest(entries)


class TestStoreFunnel:
    """Every planned store is one ``RAID6Volume._store_rows`` call: one
    scatter into the flat backing store, one accounting pass, and the
    one thing the checksum recorder and the dirty-stripe tracker see."""

    @pytest.mark.parametrize("rotate", (False, True))
    def test_one_call_per_plan(self, layout, rotate, monkeypatch):
        volume = _volume(layout, rotate=rotate)
        _prime(volume, np.random.default_rng(6))
        stores = spy_stores(volume, monkeypatch)
        per = layout.num_data_cells
        cells = layout.rows * layout.cols
        rng = np.random.default_rng(8)

        def fresh(count):
            return rng.integers(1, 256, (count, ES), dtype=np.uint8)

        def stored(op, *args):
            """The funnel calls of one operation."""
            del stores[:]
            before = sum(w for _, w in volume.io_counters().values())
            op(*args)
            after = sum(w for _, w in volume.io_counters().values())
            assert sum(rows for rows, _ in stores) == after - before
            return list(stores)

        def runs(stripes, rows):
            """One call per run of stripes sharing their stale columns
            — rotation moves them: each stripe is a run of its own."""
            if rotate:
                return stripes * [(rows, True)]
            return [(stripes * rows, True)]

        # a quiet single-stripe RMW: three cells and their parities
        (rows, data), = stored(volume.write, 2 * per + 3, fresh(3))
        assert data and 3 < rows < cells
        # whole stripes, healthy: copied and encoded in place along the
        # write's route (no kernel: encoded in place, announced without
        # data; rotated: an encode tensor scattered)
        assert stored(volume.write, 4 * per, fresh(2 * per)) == [
            (2 * cells, rotate or xor_kernel() is not None)
        ]
        volume.fail_disk(2)
        # a dirty cell on the failed disk: the surviving parities only
        on_stale = next(
            j for j in range(per)
            if layout.data_cells[j].col in volume._stale_cols(3)
        )
        (rows, data), = stored(volume.write, 3 * per + on_stale, fresh(1))
        assert data and 0 < rows < cells
        # whole stripes, degraded: store_stripes skips the stale column
        live = cells - layout.rows
        assert stored(volume.write, 4 * per, fresh(2 * per)) == runs(2, live)
        assert stored(volume.write, 6 * per, fresh(per)) == [(live, True)]
        # rebuild: one column of every stripe of the cursor's step
        cursor = volume.start_rebuild(2, batch=4)
        assert stored(cursor.step) == runs(4, layout.rows)
        # a scatter outgrowing its copy budget goes whole stripes at a time
        monkeypatch.setattr(ioplan, "SCATTER_BYTES", 2 * layout.rows * ES)
        assert stored(cursor.step) == 2 * runs(2, layout.rows)
        cursor.run()
        assert volume.scrub() == []

    @pytest.mark.parametrize("rotate", (False, True))
    @pytest.mark.parametrize("failures", (0, 1))
    def test_observers_cannot_tell(self, layout, rotate, failures):
        """Checksum store, verified bitmap and dirty set after each kind
        of planned store — RMW, lost-cell RMW, whole stripes encoded in
        place, ``store_stripes``, ``rebuild`` — equal between the vector
        and the per-element branch."""
        failed = _failed_sets(layout.cols)[failures]
        mirror = _mirror(layout, failed, rotate=rotate)
        per = layout.num_data_cells
        rng = np.random.default_rng(failures)

        def fresh(count):
            return rng.integers(1, 256, (count, ORACLE_ES), dtype=np.uint8)

        for j in range(0, per, 4):  # every column dirty in some write
            mirror.write(per + j, fresh(3))
        mirror.write(2 * per, fresh(2 * per))
        mirror.write(4 * per, fresh(per))
        _mirror_burst(mirror, 1, fresh(3 * 2).reshape(3, 2, ORACLE_ES),
                      via_cache=True)
        for disk in failed:
            mirror.rebuild(disk, 2)
        assert mirror.scrub() == []

    def test_a_store_is_all_or_nothing_against_a_dead_disk(self, layout):
        """A disk dies between the surface snapshot and the store: not
        one row, counter or checksum of the plan lands, and the write
        starts over as a reconstruct-write against the new failure
        state."""
        volume = _volume(layout)
        _prime(volume, np.random.default_rng(6))
        checker = IntegrityChecker(volume)
        per = layout.num_data_cells
        store_rows = volume._store_rows
        died = []

        def spy(at, data=None):
            if not died:
                # the last disk the plan writes: the others come first
                died.append(int((at % layout.cols).max()))
                volume.disks[died[0]].fail()
                image = volume._backing.copy()
                counters = volume.io_counters()
                sums = dict(checker.store._sums)
                with pytest.raises(DiskFailedError):
                    store_rows(at, data)
                assert np.array_equal(volume._backing, image)
                assert volume.io_counters() == counters
                assert checker.store._sums == sums
            store_rows(at, data)

        volume._store_rows = spy
        data = np.full((10, ES), 7, dtype=np.uint8)
        volume.write(2 * per + 3, data)
        assert len(died) == 1 and volume.failed_disks == (died[0],)
        assert np.array_equal(volume.read(2 * per + 3, 10), data)
        volume.replace_and_rebuild(died[0])
        assert volume.scrub() == [] and checker.find_corruption() == {}

    @pytest.mark.parametrize("stripes", (1, 2))
    def test_whole_stripes_land_nothing_on_a_dead_disk(
        self, layout, stripes, monkeypatch
    ):
        """A disk dies after a whole-stripe write took its surface and
        looked up its route: the stripes are stored off it, as a partial
        stripe there is reconstruct-written — not one byte or counter
        lands on the dead disk, and the write reads back."""
        volume = _volume(layout)
        _prime(volume, np.random.default_rng(6))
        per = layout.num_data_cells
        write_route = ioplan.write_route

        def route_then_fail(vol, start, count, surface):
            route = write_route(vol, start, count, surface)
            vol.disks[1].fail()
            return route

        monkeypatch.setattr(ioplan, "write_route", route_then_fail)
        image, counters = volume._backing[:, 1].copy(), volume.io_counters()
        data = np.full((stripes * per, ES), 7, np.uint8)
        volume.write(per, data)
        monkeypatch.undo()
        assert volume.failed_disks == (1,)
        assert np.array_equal(volume._backing[:, 1], image)
        assert volume.io_counters()[1] == counters[1]
        assert np.array_equal(volume.read(per, stripes * per), data)
        volume.replace_and_rebuild(1)
        assert volume.scrub() == []

    @pytest.mark.parametrize("code_name", ("dcode", "rdp", "xcode"))
    @pytest.mark.parametrize("whole", (1, 2))
    @pytest.mark.parametrize("destage", (False, True))
    def test_disk_failed_by_the_head_stripe(self, code_name, whole, destage):
        """The error policy fails a disk while a write's partial head
        stripe reads its old values (a latent sector, escalated at the
        first error): the head is reconstruct-written and the whole
        stripes after it are stored off the dead disk — along
        :meth:`RAID6Volume.write`, and along a cache destage of a partial
        bucket beside whole ones.  Every byte reads back, and the rebuilt
        volume scrubs clean."""
        layout = make_code(code_name, 5)
        per = layout.num_data_cells
        volume = RAID6Volume(
            layout, num_stripes=8, element_size=ES,
            policy=ErrorPolicy(escalate_after=1),
        )
        rng = np.random.default_rng(whole)
        _prime(volume, rng)
        last = layout.data_cells[per - 1]
        dead = volume.mapper.disk_of(0, last.col)
        volume.inject_latent_error(dead, 0, last.row)
        data = rng.integers(0, 256, (1 + whole * per, ES), dtype=np.uint8)
        if destage:
            cache = StripeCache(volume, max_dirty_stripes=8)
            cache.write(per - 1, data[:1])
            cache.write(2 * per, data[1:])
            cache.flush()
            back = np.concatenate([
                volume.read(per - 1, 1), volume.read(2 * per, whole * per)
            ])
        else:
            volume.write(per - 1, data)
            back = volume.read(per - 1, len(data))
        assert volume.failed_disks == (dead,)
        assert np.array_equal(back, data)
        volume.replace_and_rebuild(dead)
        assert volume.scrub() == []


def _payload_peak(shift):
    """The ``tracemalloc`` peak of a healthy 32-stripe-long write of
    dcode p = 7 x 4 KiB (4.6 MB) ``shift`` elements past a stripe
    boundary into the second half of the volume, the same write made
    once before into the first (plans compiled, kernel loaded)."""
    layout = make_code("dcode", 7)
    per = layout.num_data_cells
    volume = RAID6Volume(layout, num_stripes=64, element_size=4096)
    data = np.random.default_rng(1).integers(
        0, 256, (32 * per, 4096), dtype=np.uint8
    )
    volume.write(shift, data)  # compile the plans, load the kernel
    start = (32 if shift == 0 else 31) * per + shift
    tracemalloc.start()
    try:
        volume.write(start, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(volume.read(start, 32 * per), data)
    return peak


def test_whole_stripe_write_moves_the_payload_once():
    """32 healthy stripes of dcode p = 7 x 4 KiB carry 4.6 MB: encoded in
    place, the write allocates index arrays and (numpy engine) one
    cache-sized XOR scratch — not a 6.4 MB encode tensor and a gather
    per disk."""
    assert _payload_peak(0) < 1 << 20


def test_head_and_tail_write_moves_the_payload_once():
    """The same with a partial head and tail stripe around 31 whole
    ones: their RMW plans add one stripe's scratch at most."""
    assert _payload_peak(5) < 1 << 20


class TestPlanCache:
    """On the numpy executor (``_c = None``) a healthy read walks
    its route of read plans, so read patterns fill the cache like write
    ones: a plan and the route that runs it."""

    def test_one_plan_for_one_pattern_on_every_stripe(self, layout):
        volume = RAID6Volume(layout, num_stripes=256, element_size=ES)
        volume._c = None
        per = layout.num_data_cells
        data = np.ones((4, ES), dtype=np.uint8)
        for stripe in range(256):
            volume.write(stripe * per + 9, data)
        assert len(volume._ioplans) == 2  # the RMW plan and its route
        for stripe in range(256):
            volume.read(stripe * per + 9, 4)
        assert len(volume._ioplans) == 4

    @pytest.mark.skipif(xor_kernel() is None, reason="no C kernel")
    def test_kernel_reads_compile_no_plan(self, layout):
        volume = RAID6Volume(layout, num_stripes=4, element_size=ES)
        per = layout.num_data_cells
        for start in range(0, 4 * per - 3):
            for n in (1, 2, 3):
                volume.read(start, n)
        volume.read(0, 4 * per)
        assert len(volume._ioplans) == 0

    def test_cache_never_exceeds_its_cap(self, monkeypatch):
        monkeypatch.setattr(ioplan, "MAX_PLANS", 40)
        layout = make_code("dcode", 13)
        volume = RAID6Volume(layout, num_stripes=2, element_size=8)
        volume._c = None
        per = layout.num_data_cells
        for j0 in range(per - 3):
            for n in (1, 2, 3):
                volume.read(j0, n)
                assert len(volume._ioplans) <= 40
        assert len(volume._ioplans) == 40
        # least recently used first out: the newest patterns survive
        assert ("read", per - 4, 3, ()) in volume._ioplans._plans

    def test_nothing_compiled_at_construction(self, layout):
        assert len(RAID6Volume(layout, num_stripes=4)._ioplans) == 0


class TestSurfaceSnapshot:
    """The fault surface is read once per plan gather and store — never
    remembered across them — so whatever moved it, the very next op sees
    it: a hook, or a latent sector under a load, sends the plans that
    touch its disk to the disks element by element; a changed failure
    state re-keys the plans."""

    @pytest.fixture
    def spied(self, layout):
        volume = RAID6Volume(
            layout, num_stripes=4, element_size=ES,
            journal=WriteIntentLog(),
        )
        _prime(volume, np.random.default_rng(1))
        calls = {"read": 0, "write": 0}
        for disk in volume.disks:
            for name, method in (("read", "read_view"), ("write", "write")):
                def spy(*args, _inner=getattr(disk, method), _name=name):
                    calls[_name] += 1
                    return _inner(*args)

                setattr(disk, method, spy)
        fills = itertools.cycle((1, 2))  # every write changes its bytes

        def walked(op):
            """Which per-element disk calls the op made."""
            calls.update(read=0, write=0)
            if op == "read":
                volume.read(40, 3)
            else:
                volume.write(40, np.full((3, ES), next(fills), np.uint8))
            return {k for k, n in calls.items() if n}

        return volume, walked

    def test_quiet_ops_never_touch_the_per_element_funnels(self, spied):
        _, walked = spied
        assert walked("read") == set() and walked("write") == set()

    @pytest.mark.parametrize("rotate", (False, True))
    def test_quiet_whole_stripe_ops_are_all_planned(
        self, layout, rotate, monkeypatch
    ):
        """Full-stripe bursts, rebuild, scrub and the integrity sweeps
        on a quiet surface: not one per-element disk call."""
        volume = _volume(layout, rotate=rotate, journal=WriteIntentLog())
        _prime(volume, np.random.default_rng(1))

        def per_element(*args, **kwargs):
            raise AssertionError("per-element disk I/O on a quiet surface")

        monkeypatch.setattr(SimDisk, "read_view", per_element)
        monkeypatch.setattr(SimDisk, "write", per_element)
        per = layout.num_data_cells
        data = np.ones((3 * per, ES), dtype=np.uint8)
        volume.write(per, data)
        cache = StripeCache(volume, max_dirty_stripes=4)
        cache.write(5 * per, data)
        cache.flush()
        volume.fail_disk(2)
        volume.fail_disk(4)
        volume.write(per, data)
        volume.replace_and_rebuild(2)
        volume.start_rebuild(4, batch=3).run()
        assert volume.scrub() == []
        checker = IntegrityChecker(volume)
        assert checker.find_corruption() == {}
        assert checker.scrub_campaign().clean

    @pytest.mark.parametrize("attr", ("fault_hook", "corrupt_hook"))
    def test_disk_hook_assignment(self, spied, attr):
        volume, walked = spied
        noop = {
            "fault_hook": lambda disk, op, offset: None,
            "corrupt_hook": lambda disk, offset: None,
        }[attr]
        read = {c.col for c in volume.layout.data_cells[5:8]}  # 40..42
        setattr(volume.disks[min(read)], attr, noop)
        assert walked("read") == {"read"}
        assert walked("write") == {"read", "write"}
        setattr(volume.disks[min(read)], attr, None)
        assert walked("read") == set() and walked("write") == set()
        # a hook on a disk the read does not touch leaves its plan alone
        other = min(set(range(len(volume.disks))) - read)
        setattr(volume.disks[other], attr, noop)
        assert walked("read") == set()

    def test_latent_sector_and_the_write_that_clears_it(self, spied):
        volume, walked = spied
        volume.disks[6].mark_bad(0)
        assert walked("read") == {"read"}
        # a latent sector fails loads: the store goes as one vector
        assert walked("write") == {"read"}
        # rewriting the sector remaps it: quiet again
        volume.write(0, np.ones((volume.layout.num_data_cells, ES), np.uint8))
        assert not volume.disks[6].bad_sectors
        assert walked("read") == set() and walked("write") == set()

    def test_journal_phase_hook(self, spied):
        volume, walked = spied
        volume.journal.phase_hook = lambda phase, stripe: None
        assert walked("read") == set()  # reads have no crash points
        assert walked("write") == {"write"}  # nor have gathers
        volume.journal.phase_hook = None
        assert walked("write") == set()

    def test_fail_replace_and_cursor_advance(self, spied):
        volume, walked = spied
        per = volume.layout.num_data_cells
        disk = volume.disks[2]
        want = volume.read(0, 4 * per).copy()
        disk.fail()  # behind the volume's back
        reads = disk.read_count
        assert np.array_equal(volume.read(0, 4 * per), want)
        assert disk.read_count == reads  # reconstructed around it
        cursor = volume.start_rebuild(2, batch=1)  # replace()s the disk
        cursor.step()
        cursor.step()
        reads = disk.read_count
        assert np.array_equal(volume.read(0, 2 * per), want[:2 * per])
        assert disk.read_count > reads  # stripes behind the cursor
        reads = disk.read_count
        assert np.array_equal(volume.read(2 * per, 2 * per), want[2 * per:])
        assert disk.read_count == reads  # stripes ahead of it
        assert walked("read") == set() and walked("write") == set()
