"""Volume images carry the journal and the checksum map."""

import numpy as np
import pytest

from repro.array.integrity import ChecksumStore, IntegrityChecker
from repro.array.persistence import load_volume, save_volume
from repro.array.volume import RAID6Volume
from repro.codes.registry import make_code
from repro.exceptions import SimulatedCrashError
from repro.journal import WriteIntentLog, recover_on_mount

ELEMENT_SIZE = 16


def crashed_volume():
    """A journaled volume with one write torn mid-stripe, plus the image
    the pending recovery must produce."""
    vol = RAID6Volume(
        make_code("dcode", 5), num_stripes=3,
        element_size=ELEMENT_SIZE, journal=WriteIntentLog(),
    )
    rng = np.random.default_rng(8)
    base = rng.integers(
        0, 256, (vol.num_elements, ELEMENT_SIZE), dtype=np.uint8
    )
    vol.write(0, base)
    new = rng.integers(0, 256, (3, ELEMENT_SIZE), dtype=np.uint8)

    def crash(phase, stripe):
        if phase == "inter_column":
            raise SimulatedCrashError(0)

    vol.journal.phase_hook = crash
    with pytest.raises(SimulatedCrashError):
        vol.write(0, new)
    vol.journal.phase_hook = None
    expect = base.copy()
    expect[0:3] = new
    return vol, expect


def intent_facts(journal):
    return [
        (i.seq, i.stripe, i.dirty_cells,
         i.old_parity_digest, i.new_parity_digest)
        for i in journal.open_intents()
    ]


def test_mid_campaign_round_trip(tmp_path):
    vol, expect = crashed_volume()
    assert vol.journal.dirty
    path = save_volume(vol, tmp_path / "vol.img")
    loaded = load_volume(path)
    assert loaded.journal is not None
    assert intent_facts(loaded.journal) == intent_facts(vol.journal)
    assert loaded.journal.next_seq == vol.journal.next_seq
    for got, want in zip(
        loaded.journal.open_intents(), vol.journal.open_intents()
    ):
        got_payload, want_payload = got.payload(), want.payload()
        assert list(got_payload) == list(want_payload)
        for cell in want_payload:
            assert np.array_equal(got_payload[cell], want_payload[cell])
    report = recover_on_mount(loaded)
    assert report is not None
    assert report.replayed >= 1
    assert np.array_equal(loaded.read(0, loaded.num_elements), expect)
    assert loaded.scrub() == []


def test_clean_journal_round_trips_empty(tmp_path):
    vol, _ = crashed_volume()
    recover_on_mount(vol)
    path = save_volume(vol, tmp_path / "vol.img")
    loaded = load_volume(path)
    assert loaded.journal is not None
    assert not loaded.journal.dirty
    assert loaded.journal.next_seq == vol.journal.next_seq
    assert recover_on_mount(loaded) is None


def test_checksums_round_trip(tmp_path):
    vol = RAID6Volume(
        make_code("dcode", 5), num_stripes=2,
        element_size=ELEMENT_SIZE, journal=WriteIntentLog(),
    )
    checker = IntegrityChecker(vol)
    rng = np.random.default_rng(9)
    vol.write(0, rng.integers(
        0, 256, (vol.num_elements, ELEMENT_SIZE), dtype=np.uint8
    ))
    path = save_volume(vol, tmp_path / "vol.img",
                       checksums=checker.store)
    loaded = load_volume(path)
    assert isinstance(loaded.restored_checksums, ChecksumStore)
    assert loaded.restored_checksums._sums == checker.store._sums
    resumed = IntegrityChecker(loaded, store=loaded.restored_checksums)
    assert resumed.find_corruption() == {}


def test_checksums_round_trip_after_rebuild_and_rot(tmp_path):
    """The archived digest map stays truthful through the full life
    cycle: corruption healed on read, a disk rebuilt (re-recording its
    column), then a save/load — the restored store locates fresh rot and
    reports zero false positives elsewhere."""
    vol = RAID6Volume(
        make_code("dcode", 5), num_stripes=3,
        element_size=ELEMENT_SIZE, journal=WriteIntentLog(),
    )
    checker = IntegrityChecker(vol)
    rng = np.random.default_rng(11)
    data = rng.integers(
        0, 256, (vol.num_elements, ELEMENT_SIZE), dtype=np.uint8
    )
    vol.write(0, data)
    # inject rot, heal it on a verified read
    cell = vol.layout.data_cells[1]
    loc = vol.mapper.locate_cell(0, cell)
    vol.disks[loc.disk]._store[loc.offset] ^= 0x5A
    checker.store.invalidate()
    assert np.array_equal(vol.read(0, vol.num_elements), data)
    # replace + rebuild a disk: its digests are forgotten and re-recorded
    vol.fail_disk(2)
    vol.start_rebuild(2).run()
    path = save_volume(vol, tmp_path / "vol.img", checksums=checker.store)
    loaded = load_volume(path)
    assert loaded.restored_checksums._sums == checker.store._sums
    resumed = IntegrityChecker(loaded, store=loaded.restored_checksums)
    assert resumed.find_corruption() == {}
    # the restored store still locates corruption introduced post-load
    loc2 = loaded.mapper.locate_cell(1, cell)
    loaded.disks[loc2.disk]._store[loc2.offset] ^= 0xFF
    assert resumed.find_corruption() == {1: [cell]}
    assert resumed.verify_and_repair() == {1: [cell]}
    assert np.array_equal(loaded.read(0, loaded.num_elements), data)


def test_unjournaled_volume_loads_without_journal(tmp_path):
    vol = RAID6Volume(make_code("dcode", 5), num_stripes=2,
                      element_size=ELEMENT_SIZE)
    path = save_volume(vol, tmp_path / "vol.img")
    loaded = load_volume(path)
    assert loaded.journal is None
    assert loaded.restored_checksums is None
