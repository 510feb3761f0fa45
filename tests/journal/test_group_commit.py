"""Group commit: one coalesced journal append per cross-stripe burst.

Covers the :meth:`WriteIntentLog.open_group` / :meth:`commit_group`
lifecycle (single-lock seal, shared :class:`GroupFrame`, coalesced NVRAM
buffer), its crash atomicity (a torn staging leaves *nothing* open, a
torn commit leaves *everything* open), the volume-level clean-run
contract (group-committed bursts are byte- and counter-identical to
per-stripe journaling and to no journal at all), and persistence (one
frame object per group after a save/load cycle — recovery matches
members by frame identity).
"""

import numpy as np
import pytest

from repro.array.persistence import load_volume, save_volume
from repro.array.volume import RAID6Volume
from repro.codes import make_code
from repro.codes.base import Cell
from repro.exceptions import SimulatedCrashError
from repro.journal import GroupFrame, WriteIntentLog

from tests.conftest import bucket


def _entries(layout, rng, stripes=(0, 1, 2), cells=1, size=16):
    """A burst queue in ``_write_rest`` shape: one list item per stripe."""
    return [
        (
            s,
            [
                (
                    layout.data_cells[k],
                    rng.integers(0, 256, size, dtype=np.uint8),
                )
                for k in range(cells)
            ],
        )
        for s in stripes
    ]


@pytest.fixture
def layout():
    return make_code("dcode", 7)


class TestLifecycle:
    def test_members_share_one_frame(self, layout, rng):
        log = WriteIntentLog()
        intents = log.open_group(_entries(layout, rng))
        frames = {id(i.group) for i in intents}
        assert len(frames) == 1
        frame = intents[0].group
        assert isinstance(frame, GroupFrame)
        assert frame.size == 3
        assert frame.group_seq == intents[0].seq

    def test_consecutive_seqs_in_entry_order(self, layout, rng):
        log = WriteIntentLog()
        log.open(9, _entries(layout, rng, stripes=(9,))[0][1])  # bump seq
        intents = log.open_group(_entries(layout, rng))
        seqs = [i.seq for i in intents]
        assert seqs == list(range(seqs[0], seqs[0] + 3))
        assert [i.stripe for i in intents] == [0, 1, 2]

    def test_payloads_coalesce_into_one_buffer(self, layout, rng):
        log = WriteIntentLog()
        entries = _entries(layout, rng, cells=2)
        intents = log.open_group(entries)
        bases = {
            id(value.base) for i in intents for _, value in i.cells
        }
        assert len(bases) == 1  # one NVRAM append for the whole burst
        for intent, (_, items) in zip(intents, entries):
            for (cell, got), (want_cell, want) in zip(intent.cells, items):
                assert cell == want_cell
                assert np.array_equal(got, want)

    def test_payloads_are_copies(self, layout, rng):
        log = WriteIntentLog()
        entries = _entries(layout, rng)
        intents = log.open_group(entries)
        entries[0][1][0][1][:] = 0
        assert intents[0].cells[0][1].any()

    def test_old_digest_lands_on_frame(self, layout, rng):
        log = WriteIntentLog()
        intents = log.open_group(_entries(layout, rng), old_digest=0xBEEF)
        assert all(i.group.old_digest == 0xBEEF for i in intents)

    def test_commit_group_retires_every_member(self, layout, rng):
        log = WriteIntentLog()
        intents = log.open_group(_entries(layout, rng))
        assert log.dirty
        log.commit_group(intents)
        assert not log.dirty
        assert all(i.committed for i in intents)
        assert log.stats.opened == 3
        assert log.stats.committed == 3
        assert log.stats.groups == 1
        assert log.stats.in_flight == 0

    def test_commit_group_idempotent(self, layout, rng):
        log = WriteIntentLog()
        intents = log.open_group(_entries(layout, rng))
        log.commit_group(intents)
        log.commit_group(intents)
        assert log.stats.committed == 3

    def test_empty_group_rejected(self):
        with pytest.raises(Exception):
            WriteIntentLog().open_group([])


class TestCrashAtomicity:
    """A group is never half-registered and never half-committed."""

    @pytest.mark.parametrize("occurrence", [1, 2, 3])
    def test_crash_during_staging_leaves_nothing_open(
        self, layout, rng, occurrence
    ):
        count = {"n": 0}

        def hook(phase, stripe):
            if phase == "pre_intent":
                count["n"] += 1
                if count["n"] == occurrence:
                    raise SimulatedCrashError(stripe)

        log = WriteIntentLog(phase_hook=hook)
        with pytest.raises(SimulatedCrashError):
            log.open_group(_entries(layout, rng))
        assert not log.dirty  # every stripe stays fully-old

    @pytest.mark.parametrize("occurrence", [1, 2, 3])
    def test_crash_after_seal_leaves_whole_group_open(
        self, layout, rng, occurrence
    ):
        count = {"n": 0}

        def hook(phase, stripe):
            if phase == "post_intent":
                count["n"] += 1
                if count["n"] == occurrence:
                    raise SimulatedCrashError(stripe)

        log = WriteIntentLog(phase_hook=hook)
        with pytest.raises(SimulatedCrashError):
            log.open_group(_entries(layout, rng))
        assert len(log.open_intents()) == 3  # all-or-nothing seal

    @pytest.mark.parametrize("occurrence", [1, 2, 3])
    def test_crash_during_commit_leaves_whole_group_open(
        self, layout, rng, occurrence
    ):
        log = WriteIntentLog()
        intents = log.open_group(_entries(layout, rng))
        count = {"n": 0}

        def hook(phase, stripe):
            if phase == "pre_commit":
                count["n"] += 1
                if count["n"] == occurrence:
                    raise SimulatedCrashError(stripe)

        log.phase_hook = hook
        with pytest.raises(SimulatedCrashError):
            log.commit_group(intents)
        assert len(log.open_intents()) == 3
        assert not any(i.committed for i in intents)


class TestVolumeCleanRun:
    """Group commit must not change what lands on disk, only the journal:
    a burst through ``_write_rest`` against the same entries written
    one ``_write_stripe_batch`` call at a time, journaled or not."""

    def _volumes(self, layout):
        kw = dict(num_stripes=8, element_size=32)
        return (
            RAID6Volume(layout, **kw),  # no journal at all
            RAID6Volume(layout, journal=WriteIntentLog(), **kw),
            RAID6Volume(layout, journal=WriteIntentLog(), **kw),
        )

    @staticmethod
    def _write(grouped, per_stripe, entries):
        layout = grouped.layout
        grouped._write_rest([bucket(layout, s, items) for s, items in entries])
        for s, items in entries:
            per_stripe._write_stripe_batch(*bucket(layout, s, items))

    def test_byte_and_counter_identical(self, layout, rng):
        plain, grouped, per_stripe = self._volumes(layout)
        entries = _entries(layout, rng, stripes=(0, 2, 5), cells=2, size=32)
        plain._write_rest([bucket(layout, s, items) for s, items in entries])
        self._write(grouped, per_stripe, entries)
        assert np.array_equal(plain._backing, grouped._backing)
        assert np.array_equal(plain._backing, per_stripe._backing)
        assert plain.io_counters() == grouped.io_counters()
        assert plain.io_counters() == per_stripe.io_counters()

    def test_group_commit_actually_engaged(self, layout, rng):
        _, grouped, per_stripe = self._volumes(layout)
        entries = _entries(layout, rng, stripes=(0, 2, 5), size=32)
        self._write(grouped, per_stripe, entries)
        assert grouped.journal.stats.groups == 1
        assert grouped.journal.stats.opened == 3
        assert per_stripe.journal.stats.groups == 0
        assert per_stripe.journal.stats.opened == 3
        assert not grouped.journal.dirty
        assert not per_stripe.journal.dirty

    def test_single_stripe_burst_stays_per_stripe(self, layout, rng):
        _, grouped, _ = self._volumes(layout)
        entries = _entries(layout, rng, stripes=(3,), size=32)
        grouped._write_rest([bucket(layout, s, items) for s, items in entries])
        assert grouped.journal.stats.groups == 0  # no group of one
        assert not grouped.journal.dirty


class TestPersistenceRoundTrip:
    def test_group_frames_survive_save_load(self, layout, rng, tmp_path):
        vol = RAID6Volume(
            layout,
            num_stripes=8,
            element_size=32,
            journal=WriteIntentLog(),
        )
        entries = _entries(layout, rng, stripes=(1, 4, 6), size=32)
        intents = vol.journal.open_group(entries, old_digest=0xCAFE)
        save_volume(vol, tmp_path / "crashed.img")
        loaded = load_volume(tmp_path / "crashed.img")
        restored = loaded.journal.open_intents()
        assert [i.seq for i in restored] == [i.seq for i in intents]
        frames = {id(i.group) for i in restored}
        assert len(frames) == 1  # one shared frame, matched by identity
        frame = restored[0].group
        assert frame.group_seq == intents[0].group.group_seq
        assert frame.size == 3
        assert frame.old_digest == 0xCAFE

    def test_ungrouped_intents_round_trip_without_frames(
        self, layout, rng, tmp_path
    ):
        vol = RAID6Volume(
            layout,
            num_stripes=8,
            element_size=32,
            journal=WriteIntentLog(),
        )
        vol.journal.open(2, _entries(layout, rng, stripes=(2,), size=32)[0][1])
        save_volume(vol, tmp_path / "crashed.img")
        loaded = load_volume(tmp_path / "crashed.img")
        (intent,) = loaded.journal.open_intents()
        assert intent.group is None
