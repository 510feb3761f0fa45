"""CrashRecovery: classification matrix, typed errors, truthful counters."""

import numpy as np
import pytest

from repro.array import ioplan
from repro.array.volume import RAID6Volume
from repro.codec.plan import write_footprint
from repro.codes.registry import make_code
from repro.exceptions import (
    JournalReplayError,
    SimulatedCrashError,
    TornWriteError,
    TransientIOError,
)
from repro.journal import CrashRecovery, WriteIntentLog, recover_on_mount
from repro.journal.recovery import (
    CLEAN_NEW,
    CLEAN_OLD,
    TORN_DATA,
    TORN_PARITY,
    parity_digest,
)

P = 5
ELEMENT_SIZE = 16


def make_volume(code="dcode", p=P, num_stripes=3):
    vol = RAID6Volume(
        make_code(code, p),
        num_stripes=num_stripes,
        element_size=ELEMENT_SIZE,
        journal=WriteIntentLog(),
    )
    rng = np.random.default_rng(11)
    base = rng.integers(
        0, 256, (vol.num_elements, ELEMENT_SIZE), dtype=np.uint8
    )
    vol.write(0, base)
    return vol, base


class _CrashAt:
    """Raise a simulated power loss at the n-th occurrence of a phase."""

    def __init__(self, phase, occurrence=1):
        self.phase = phase
        self.occurrence = occurrence
        self.seen = 0

    def __call__(self, phase, stripe):
        if phase == self.phase:
            self.seen += 1
            if self.seen == self.occurrence:
                raise SimulatedCrashError(self.seen)


def crash_write(vol, start, data, phase, occurrence=1):
    vol.journal.phase_hook = _CrashAt(phase, occurrence)
    with pytest.raises(SimulatedCrashError):
        vol.write(start, data)
    vol.journal.phase_hook = None  # "remount": the crash is over


def fresh_payload(n):
    return np.random.default_rng(99).integers(
        0, 256, (n, ELEMENT_SIZE), dtype=np.uint8
    )


class TestClassificationMatrix:
    def test_pre_intent_crash_needs_no_recovery(self):
        vol, base = make_volume()
        crash_write(vol, 0, fresh_payload(2), "pre_intent")
        assert not vol.journal.dirty
        assert recover_on_mount(vol) is None
        assert np.array_equal(vol.read(0, vol.num_elements), base)
        assert vol.scrub() == []

    def test_post_intent_crash_is_clean_old_replayed_to_new(self):
        vol, base = make_volume()
        new = fresh_payload(2)
        crash_write(vol, 0, new, "post_intent")
        recovery = CrashRecovery(vol)
        assert recovery.needed
        assert [c for _, _, c in recovery.scan()] == [CLEAN_OLD]
        report = recovery.run()
        assert report.replayed == 1
        assert report.outcomes[0].action == "replayed"
        # the atomicity rule: an open intent resolves to fully-NEW
        assert np.array_equal(vol.read(0, 2), new)
        assert np.array_equal(
            vol.read(2, vol.num_elements - 2), base[2:]
        )
        assert vol.scrub() == []

    def test_inter_column_crash_is_torn_data(self):
        vol, base = make_volume()
        new = fresh_payload(2)  # two dirty data cells -> crash between them
        crash_write(vol, 0, new, "inter_column")
        recovery = CrashRecovery(vol)
        assert [c for _, _, c in recovery.scan()] == [TORN_DATA]
        report = recovery.run()
        assert report.classifications() == {TORN_DATA: 1}
        assert np.array_equal(vol.read(0, 2), new)
        assert vol.scrub() == []

    def test_data_landed_parity_not_is_torn_parity(self):
        vol, base = make_volume()
        new = fresh_payload(1)  # one dirty cell: first inter_column gap
        crash_write(vol, 0, new, "inter_column")  # sits before parity
        recovery = CrashRecovery(vol)
        assert [c for _, _, c in recovery.scan()] == [TORN_PARITY]
        report = recovery.run()
        assert report.replayed == 1
        assert np.array_equal(vol.read(0, 1), new)
        assert vol.scrub() == []

    def test_pre_commit_crash_is_clean_new_committed_not_replayed(self):
        vol, base = make_volume()
        new = fresh_payload(2)
        crash_write(vol, 0, new, "pre_commit")
        recovery = CrashRecovery(vol)
        assert [c for _, _, c in recovery.scan()] == [CLEAN_NEW]
        report = recovery.run()
        assert report.replayed == 0
        assert report.clean == 1
        assert report.outcomes[0].action == "committed"
        assert report.elements_written == 0  # inspection only
        assert np.array_equal(vol.read(0, 2), new)
        assert vol.scrub() == []

    def test_full_stripe_crash_replays_whole_stripe(self):
        vol, base = make_volume()
        per = vol.layout.num_data_cells
        new = fresh_payload(per)
        crash_write(vol, per, new, "inter_column", occurrence=2)
        report = CrashRecovery(vol).run()
        assert report.replayed == 1
        assert np.array_equal(vol.read(per, per), new)
        assert np.array_equal(vol.read(0, per), base[:per])
        assert vol.scrub() == []

    def test_recovery_is_idempotent(self):
        vol, _ = make_volume()
        crash_write(vol, 0, fresh_payload(2), "post_intent")
        CrashRecovery(vol).run()
        second = CrashRecovery(vol).run()
        assert second.outcomes == []
        assert not vol.journal.dirty


class TestTypedErrors:
    def test_torn_write_error_names_stripe_and_seq(self):
        vol, base = make_volume()
        layout = vol.layout
        d0, d1 = layout.data_cells[0], layout.data_cells[1]
        rng = np.random.default_rng(5)
        payload = [
            (d0, rng.integers(0, 256, ELEMENT_SIZE, dtype=np.uint8)),
            (d1, rng.integers(0, 256, ELEMENT_SIZE, dtype=np.uint8)),
        ]
        intent = vol.journal.open(0, payload)
        loc = vol.mapper.locate_cell(0, d0)
        vol.disks[loc.disk].write(loc.offset, payload[0][1])  # torn
        # lose a column holding non-dirty data (and, vertically, parity)
        failed_col = next(
            c.col for c in layout.data_cells
            if c.col not in (d0.col, d1.col)
        )
        vol.fail_disk(failed_col)
        with pytest.raises(TornWriteError) as excinfo:
            CrashRecovery(vol).run()
        assert excinfo.value.stripe == 0
        assert excinfo.value.seq == intent.seq

    def test_replay_failure_becomes_journal_replay_error(self):
        vol, base = make_volume()
        cell = vol.layout.data_cells[0]
        new = np.random.default_rng(6).integers(
            0, 256, ELEMENT_SIZE, dtype=np.uint8
        )
        intent = vol.journal.open(0, [(cell, new)])

        def die_on_write(disk, op, offset):
            if op == "write":
                raise TransientIOError(disk.disk_id, op, offset)

        vol.disks[2].fault_hook = die_on_write
        with pytest.raises(JournalReplayError) as excinfo:
            CrashRecovery(vol).run()
        assert excinfo.value.stripe == 0
        assert excinfo.value.seq == intent.seq


class TestCounters:
    def test_report_deltas_reconcile_with_io_counters(self):
        vol, _ = make_volume()
        crash_write(vol, 0, fresh_payload(2), "post_intent")
        before = vol.io_counters()
        report = CrashRecovery(vol).run()
        after = vol.io_counters()
        reads = sum(after[d][0] - before[d][0] for d in before)
        writes = sum(after[d][1] - before[d][1] for d in before)
        assert report.elements_read == reads > 0
        assert report.elements_written == writes > 0


class TestJournalNeutrality:
    """``journal=None`` (and a quiet journal) must not change behaviour."""

    def _workload(self, vol):
        per = vol.layout.num_data_cells
        rng = np.random.default_rng(21)
        full = rng.integers(
            0, 256, (2 * per, ELEMENT_SIZE), dtype=np.uint8
        )
        partial = rng.integers(
            0, 256, (max(2, per // 3), ELEMENT_SIZE), dtype=np.uint8
        )
        vol.write(0, full)          # batched full-stripe tensor path
        vol.write(2 * per, partial)  # RMW path
        vol.read(0, vol.num_elements)

    def test_unjournaled_volume_matches_journaled_bytes_and_counters(self):
        layout = make_code("dcode", P)
        plain = RAID6Volume(layout, num_stripes=3,
                            element_size=ELEMENT_SIZE)
        journaled = RAID6Volume(layout, num_stripes=3,
                                element_size=ELEMENT_SIZE,
                                journal=WriteIntentLog())
        self._workload(plain)
        self._workload(journaled)
        assert np.array_equal(plain._backing, journaled._backing)
        # journal metadata lives in "NVRAM": the disk ledger is identical
        assert plain.io_counters() == journaled.io_counters()
        assert not journaled.journal.dirty

    def test_digest_matches_recovery_side_chain(self):
        vol, _ = make_volume()
        buf = ioplan.load_stripes(vol, (1,), ())[0][0]
        assert vol._parity_store_digest(1) == parity_digest(
            vol.layout, lambda c: buf[c.row, c.col]
        )


def footprint(layout, cells):
    """The parities a write to ``cells`` may change: what both the write
    side and recovery digest."""
    return write_footprint(layout, tuple(cells)).parities


class TestParityFootprint:
    """Footprint-limited digests: a partial write only snapshots the
    parities its dirty cells can actually flip (the write footprint,
    read identically on the write and recovery sides)."""

    def test_all_data_cells_footprint_every_parity(self):
        vol, _ = make_volume()
        layout = vol.layout
        assert footprint(layout, layout.data_cells) == \
            tuple(layout.parity_cells)

    def test_footprint_in_canonical_order(self):
        vol, _ = make_volume()
        layout = vol.layout
        fp = footprint(layout, (layout.data_cells[0],))
        order = {c: i for i, c in enumerate(layout.parity_cells)}
        assert list(fp) == sorted(fp, key=order.__getitem__)

    def test_single_cell_footprint_covers_its_groups(self):
        vol, _ = make_volume()
        layout = vol.layout
        cell = layout.data_cells[0]
        fp = set(footprint(layout, (cell,)))
        direct = {g.parity for g in layout.groups_covering(cell)}
        assert direct <= fp <= set(layout.parity_cells)

    def test_footprint_is_memoised(self):
        vol, _ = make_volume()
        cells = (vol.layout.data_cells[1],)
        assert write_footprint(vol.layout, cells) is write_footprint(
            vol.layout, tuple(list(cells))
        )

    def test_partial_write_digest_uses_footprint(self):
        """The digest an RMW intent snapshots equals the recovery-side
        chain over the same footprint subset."""
        vol, _ = make_volume()
        cell = vol.layout.data_cells[0]
        fp = footprint(vol.layout, (cell,))
        buf = ioplan.load_stripes(vol, (1,), ())[0][0]
        assert vol._parity_store_digest(1, fp) == parity_digest(
            vol.layout, lambda c: buf[c.row, c.col], fp
        )

    def test_no_digest_when_a_footprint_parity_is_stale(self):
        """A degraded RMW leaves the parities on failed columns alone,
        and so does the digest: ``None`` — never a chain over bytes of a
        dead disk — the moment one footprint parity is stale, for the
        single-stripe intent and for a group's shared pass; a footprint
        clear of the failed columns digests as ever."""
        vol, _ = make_volume()
        layout = vol.layout
        cell = layout.data_cells[0]
        fp = footprint(layout, (cell,))
        healthy = vol._parity_store_digest(1, fp)
        vol.fail_disk(fp[0].col)
        assert vol._parity_store_digest(1, fp) is None
        assert vol._footprint_digest([(0, fp[1:]), (1, fp)]) is None
        clear = next(
            fp for fp in (
                footprint(layout, (c,)) for c in layout.data_cells
            ) if all(p.col != vol.failed_disks[0] for p in fp)
        )
        assert vol._parity_store_digest(1, clear) is not None
        vol.replace_and_rebuild(vol.failed_disks[0])
        assert vol._parity_store_digest(1, fp) == healthy

    def test_rmw_crash_recovery_with_footprint_digest(self):
        """End-to-end: a torn RMW classifies and replays to fully-new
        with the footprint-limited digest."""
        vol, base = make_volume()
        rng = np.random.default_rng(33)
        new = rng.integers(0, 256, (1, ELEMENT_SIZE), dtype=np.uint8)
        crash_write(vol, 0, new, "inter_column")
        vol.journal.phase_hook = None
        report = CrashRecovery(vol).run()
        assert len(report.outcomes) == 1
        assert np.array_equal(vol.read(0, 1), new)
