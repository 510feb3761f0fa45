"""Planned I/O and cross-stripe RMW: one differential oracle.

The per-element walk is the reference semantics of the volume; the
pattern-keyed plans (``repro.array.ioplan``) replace it wherever the
fault surface is quiet.  :class:`TestPlannedVsWalk` drives a
hypothesis-drawn op stream through two volumes — one quiet (plans), one
with a fault hook that does nothing (walk) — and requires them to stay
indistinguishable after every op: returned bytes, backing image,
per-disk counters, checksums, verified bitmap, dirty-stripe set.

The partial-stripe queue (``_write_rest``) additionally has three
executions — the serial per-stripe loop, per-worker chunks on the
thread pipeline, and the ``REPRO_PROCESS_POOL`` fork fan-out over the
shared-memory backing.  All three must be byte-identical on disk *and*
counter-identical per disk (the paper's load metrics are counted I/Os,
so a fast path that changed the counts would corrupt every comparison
built on them).  The fallbacks — rotation, fault hooks, instance-level
I/O wrappers like the integrity checker's — must quietly drop to the
serial path, never to a wrong answer.
"""

import copy
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.array import ioplan
from repro.array.integrity import IntegrityChecker
from repro.array.volume import RAID6Volume
from repro.codes import make_code
from repro.journal import WriteIntentLog
from repro.serve.checkpoint import DirtyStripeTracker

from tests.conftest import ALL_ARRAY_CODES, SMALL_PRIMES

ES = 32
STRIPES = 16


def _burst(layout, rng, stripes, max_cells=3, es=ES):
    """Mixed multi-cell partial-stripe entries (varying cell patterns)."""
    per = layout.num_data_cells
    entries = []
    for k, s in enumerate(stripes):
        n = 1 + (k % min(max_cells, per - 1))
        cells = [layout.data_cells[(k + j) % (per - 1)] for j in range(n)]
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
    vol._write_rest(copy.deepcopy(entries))


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


class TestThreadEquivalence:
    def test_bytes_and_counters_match_serial(self, layout):
        rng = np.random.default_rng(5)
        serial = RAID6Volume(layout, num_stripes=STRIPES, element_size=ES)
        threads = RAID6Volume(
            layout, num_stripes=STRIPES, element_size=ES, workers=4
        )
        seed = np.random.default_rng(6)
        for vol in (serial, threads):
            _prime(vol, np.random.default_rng(6))
        entries = _burst(layout, rng, range(12))
        _write(serial, entries)
        _write(threads, entries)
        _assert_same(serial, threads)
        threads.pipeline.close()

    def test_zero_delta_burst_writes_nothing_twice(self, layout):
        rng = np.random.default_rng(5)
        serial = RAID6Volume(layout, num_stripes=STRIPES, element_size=ES)
        threads = RAID6Volume(
            layout, num_stripes=STRIPES, element_size=ES, workers=4
        )
        entries = _burst(layout, rng, range(8))
        for vol in (serial, threads):
            _write(vol, entries)
            _write(vol, entries)  # identical payloads: all-zero deltas
        _assert_same(serial, threads)
        # the repeat pass must read old data but skip every write
        _, writes_before = map(sum, zip(*serial.io_counters().values()))
        _write(serial, entries)
        _, writes_after = map(sum, zip(*serial.io_counters().values()))
        assert writes_after == writes_before
        threads.pipeline.close()

    def test_journaled_group_matches_serial_per_stripe(self, layout):
        rng = np.random.default_rng(5)
        serial = RAID6Volume(
            layout,
            num_stripes=STRIPES,
            element_size=ES,
            journal=WriteIntentLog(group_commit=False),
        )
        threads = RAID6Volume(
            layout,
            num_stripes=STRIPES,
            element_size=ES,
            workers=4,
            journal=WriteIntentLog(),
        )
        entries = _burst(layout, rng, range(10))
        _write(serial, entries)
        _write(threads, entries)
        _assert_same(serial, threads)
        assert threads.journal.stats.groups == 1
        assert not threads.journal.dirty
        threads.pipeline.close()

    def test_rotation_falls_back_byte_identical(self, layout):
        rng = np.random.default_rng(5)
        serial = RAID6Volume(
            layout, num_stripes=STRIPES, element_size=ES, rotate=True
        )
        threads = RAID6Volume(
            layout,
            num_stripes=STRIPES,
            element_size=ES,
            rotate=True,
            workers=4,
        )
        assert not threads._rmw_entries_batched(
            _burst(layout, rng, range(4))
        )
        entries = _burst(layout, rng, range(10))
        _write(serial, entries)
        _write(threads, entries)
        _assert_same(serial, threads)
        threads.pipeline.close()

    def test_phase_hook_forces_serial_writes(self, layout):
        rng = np.random.default_rng(5)
        phases = []
        hooked = RAID6Volume(
            layout,
            num_stripes=STRIPES,
            element_size=ES,
            workers=4,
            journal=WriteIntentLog(
                phase_hook=lambda ph, s: phases.append(ph)
            ),
        )
        plain = RAID6Volume(layout, num_stripes=STRIPES, element_size=ES)
        entries = _burst(layout, rng, range(6))
        assert not hooked._rmw_entries_batched(copy.deepcopy(entries))
        _write(hooked, entries)
        _write(plain, entries)
        assert np.array_equal(hooked._backing, plain._backing)
        # group framing stays on under the hook (chaos campaigns tear at
        # group boundaries), so the phases fire once per member
        assert phases.count("pre_intent") == len(entries)
        assert phases.count("pre_commit") == len(entries)
        hooked.pipeline.close()

    def test_full_stripe_entry_disables_vectorised_path(self, layout):
        rng = np.random.default_rng(5)
        threads = RAID6Volume(
            layout, num_stripes=STRIPES, element_size=ES, workers=4
        )
        per = layout.num_data_cells
        full = [
            (
                0,
                [
                    (c, rng.integers(0, 256, ES, dtype=np.uint8))
                    for c in layout.data_cells
                ],
            ),
            (1, _burst(layout, rng, (1,))[0][1]),
        ]
        assert not threads._rmw_entries_batched(full)
        assert per == len(full[0][1])
        threads.pipeline.close()


class TestProcessPoolEquivalence:
    def _volumes(self, layout, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        # the fork fan-out is capped at the core count (beyond it IPC
        # only costs); pretend to have cores so the child path is
        # genuinely exercised even on single-core CI hosts
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        serial = RAID6Volume(layout, num_stripes=STRIPES, element_size=ES)
        procs = RAID6Volume(
            layout,
            num_stripes=STRIPES,
            element_size=ES,
            workers=4,
            process_pool=True,
        )
        assert procs._shm_name is not None
        return serial, procs

    def test_bytes_and_counters_match_serial(self, layout, monkeypatch):
        serial, procs = self._volumes(layout, monkeypatch)
        rng = np.random.default_rng(5)
        for vol in (serial, procs):
            _prime(vol, np.random.default_rng(6))
        entries = _burst(layout, rng, range(12))
        _write(serial, entries)
        _write(procs, entries)
        _assert_same(serial, procs)
        procs.pipeline.close()

    def test_matches_thread_pool(self, layout, monkeypatch):
        threads = RAID6Volume(
            layout, num_stripes=STRIPES, element_size=ES, workers=4
        )
        _, procs = self._volumes(layout, monkeypatch)
        rng = np.random.default_rng(5)
        entries = _burst(layout, rng, range(12))
        _write(threads, entries)
        _write(procs, entries)
        _assert_same(threads, procs)
        threads.pipeline.close()
        procs.pipeline.close()

    def test_instance_write_wrapper_falls_back_serial(
        self, layout, monkeypatch
    ):
        """Integrity-checker-style wrappers must keep seeing every write.

        Forked children operate on the class methods; an instance-level
        ``_disk_write_block`` (how the integrity checker observes I/O)
        would be silently bypassed — so the process path must refuse and
        drop to a path that honours the wrapper.
        """
        serial, procs = self._volumes(layout, monkeypatch)
        calls = []
        orig = type(procs)._disk_write_block

        def wrapper(*args, **kwargs):
            calls.append(args)
            return orig(procs, *args, **kwargs)

        procs._disk_write_block = wrapper
        rng = np.random.default_rng(5)
        entries = _burst(layout, rng, range(8))
        assert not procs._rmw_entries_process(copy.deepcopy(entries))
        _write(serial, entries)
        _write(procs, entries)
        assert np.array_equal(serial._backing, procs._backing)
        assert calls  # the wrapper observed the writes
        procs.pipeline.close()

    def test_single_stripe_burst_stays_in_process(self, layout, monkeypatch):
        _, procs = self._volumes(layout, monkeypatch)
        rng = np.random.default_rng(5)
        assert not procs._rmw_entries_process(
            _burst(layout, rng, (0,))
        )
        procs.pipeline.close()

    def test_shared_memory_backing_is_the_store(self, layout, monkeypatch):
        _, procs = self._volumes(layout, monkeypatch)
        rng = np.random.default_rng(5)
        data = _prime(procs, rng)
        got = procs.read(0, procs.num_elements)
        assert np.array_equal(got, data)
        procs.pipeline.close()


# -- the differential oracle: plans vs the per-element walk -------------------

ORACLE_STRIPES = 5
ORACLE_ES = 16


def walk_only(volume):
    """Attach a fault hook that does nothing: every op takes the walk."""
    for disk in volume.disks:
        disk.fault_hook = lambda disk, op, offset: None
    return volume


class Twin:
    """A quiet volume and its walk-only mirror, observed the same way."""

    def __init__(self, layout, failed=(), journaled=False, **kwargs):
        self.volumes = [
            RAID6Volume(
                layout, num_stripes=ORACLE_STRIPES, element_size=ORACLE_ES,
                journal=WriteIntentLog() if journaled else None, **kwargs
            )
            for _ in range(2)
        ]
        walk_only(self.volumes[1])
        rng = np.random.default_rng(7)
        image = rng.integers(
            0, 256, (self.volumes[0].num_elements, ORACLE_ES), dtype=np.uint8
        )
        for volume in self.volumes:
            volume.write(0, image)
            for disk in failed:
                volume.fail_disk(disk)
        self.checkers = [IntegrityChecker(v) for v in self.volumes]
        self.trackers = [DirtyStripeTracker(v) for v in self.volumes]
        self.assert_same()

    def assert_same(self):
        quiet, walk = self.volumes
        assert quiet._surface().quiet_io and not walk._surface().quiet_io
        assert np.array_equal(quiet._backing, walk._backing)
        assert quiet.io_counters() == walk.io_counters()
        a, b = (c.store for c in self.checkers)
        assert a._sums == b._sums
        assert np.array_equal(a._verified, b._verified)
        assert self.trackers[0].drain() == self.trackers[1].drain()
        for volume in self.volumes:
            if volume.journal is not None:
                assert not volume.journal.dirty

    def read(self, start, count):
        a, b = (v.read(start, count) for v in self.volumes)
        assert np.array_equal(a, b)
        self.assert_same()
        return a

    def write(self, start, data):
        for volume in self.volumes:
            volume.write(start, data.copy())
        self.assert_same()

    def close(self):
        for volume in self.volumes:
            volume.pipeline.close()


@st.composite
def op_streams(draw, per):
    """Short reads and writes straddling up to three stripes; a write
    carries fresh bytes, the bytes already on disk (zero delta), or
    fresh bytes in every other element only."""
    total = ORACLE_STRIPES * per
    ops = []
    for _ in range(draw(st.integers(4, 9))):
        start = draw(st.integers(0, total - 1))
        count = draw(st.integers(1, min(2 * per + 2, total - start)))
        kind = draw(st.sampled_from(("read", "fresh", "same", "half")))
        ops.append((kind, start, count, draw(st.integers(0, 2**16))))
    return ops


def _failed_sets(cols):
    return ((), (1,), (0, cols - 1))


class TestPlannedVsWalk:
    """Every registry code x p x rotation x failure state, every op."""

    @pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @pytest.mark.parametrize("rotate", (False, True))
    @pytest.mark.parametrize("failures", (0, 1, 2))
    @settings(
        max_examples=4, deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(data=st.data())
    def test_op_stream(self, code_name, p, rotate, failures, data):
        layout = make_code(code_name, p)
        self._run(
            layout, _failed_sets(layout.cols)[failures],
            data.draw(op_streams(layout.num_data_cells)), rotate=rotate,
        )

    @pytest.mark.parametrize("failures", (0, 1))
    @pytest.mark.parametrize("kwargs", (
        {"journaled": True},
        {"workers": 4},
        {"journaled": True, "workers": 4},
    ), ids=("journal", "workers4", "journal-workers4"))
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(data=st.data())
    def test_journaled_and_parallel(self, layout, failures, kwargs, data):
        self._run(
            layout, _failed_sets(layout.cols)[failures],
            data.draw(op_streams(layout.num_data_cells)), **kwargs,
        )

    def _run(self, layout, failed, ops, **kwargs):
        twin = Twin(layout, failed, **kwargs)
        try:
            for kind, start, count, seed in ops:
                if kind == "read":
                    twin.read(start, count)
                    continue
                fresh = np.random.default_rng(seed).integers(
                    0, 256, (count, ORACLE_ES), dtype=np.uint8
                )
                if kind != "fresh":
                    current = twin.read(start, count).copy()
                    if kind == "half":
                        current[::2] = fresh[::2]
                    fresh = current
                twin.write(start, fresh)
        finally:
            twin.close()

    def test_destage_burst_of_scattered_cells(self, layout):
        """A cache destage hands ``_write_rest`` arbitrary (not
        contiguous) cell sets, several stripes at once."""
        twin = Twin(layout)
        rng = np.random.default_rng(3)
        entries = [
            (stripe, items[::2])  # every other cell: not a contiguous run
            for stripe, items in _burst(
                layout, rng, range(ORACLE_STRIPES), max_cells=5, es=ORACLE_ES
            )
        ]
        for volume in twin.volumes:
            volume._write_rest(copy.deepcopy(entries))
        twin.assert_same()
        twin.close()


class TestPlanCache:
    def test_one_plan_for_one_pattern_on_every_stripe(self, layout):
        volume = RAID6Volume(layout, num_stripes=256, element_size=ES)
        per = layout.num_data_cells
        data = np.ones((4, ES), dtype=np.uint8)
        for stripe in range(256):
            volume.write(stripe * per + 9, data)
        assert len(volume._ioplans) == 1
        for stripe in range(256):
            volume.read(stripe * per + 9, 4)
        assert len(volume._ioplans) == 2

    def test_cache_never_exceeds_its_cap(self, monkeypatch):
        monkeypatch.setattr(ioplan, "MAX_PLANS", 40)
        layout = make_code("dcode", 13)
        volume = RAID6Volume(layout, num_stripes=2, element_size=8)
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
    """The fault surface is read once at the top of every op — never
    remembered across ops — so whatever moved it, the very next op sees
    it: hooks and latent sectors send it to the walk, a changed failure
    state re-keys its plans."""

    @pytest.fixture
    def spied(self, layout):
        volume = RAID6Volume(
            layout, num_stripes=4, element_size=ES,
            journal=WriteIntentLog(),
        )
        _prime(volume, np.random.default_rng(1))
        calls = {"read": 0, "write": 0}
        read_cell, write_cell = volume._read_cell, volume._write_cell

        def spy_read(stripe, cell):
            calls["read"] += 1
            return read_cell(stripe, cell)

        def spy_write(stripe, cell, value):
            calls["write"] += 1
            write_cell(stripe, cell, value)

        volume._read_cell, volume._write_cell = spy_read, spy_write
        fills = itertools.cycle((1, 2))  # every write changes its bytes

        def walked(op):
            """Which per-element funnels the op went through."""
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

    @pytest.mark.parametrize("attr", ("fault_hook", "corrupt_hook"))
    def test_disk_hook_assignment(self, spied, attr):
        volume, walked = spied
        noop = {
            "fault_hook": lambda disk, op, offset: None,
            "corrupt_hook": lambda disk, offset: None,
        }[attr]
        setattr(volume.disks[3], attr, noop)
        assert walked("read") == {"read"}
        assert walked("write") == {"read", "write"}
        setattr(volume.disks[3], attr, None)
        assert walked("read") == set() and walked("write") == set()

    def test_latent_sector_and_the_write_that_clears_it(self, spied):
        volume, walked = spied
        volume.disks[6].mark_bad(0)
        assert walked("read") == {"read"}
        assert walked("write") == {"read", "write"}
        # rewriting the sector remaps it: quiet again
        volume.write(0, np.ones((volume.layout.num_data_cells, ES), np.uint8))
        assert not volume.disks[6].bad_sectors
        assert walked("read") == set() and walked("write") == set()

    def test_journal_phase_hook(self, spied):
        volume, walked = spied
        volume.journal.phase_hook = lambda phase, stripe: None
        assert walked("read") == set()  # reads have no crash points
        assert walked("write") == {"read", "write"}
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
