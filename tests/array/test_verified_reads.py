"""End-to-end verified reads: silent corruption healed on the hot path."""

import numpy as np
import pytest

from repro.array import RAID6Volume
from repro.array.integrity import IntegrityChecker
from repro.codes import Cell, DCode
from repro.faults import ErrorPolicy, FaultInjector


def corrupt_cell(volume, stripe, cell, flip=0xFF):
    """Flip bytes behind the volume's back (no counters, no checksums)."""
    loc = volume.mapper.locate_cell(stripe, cell)
    volume.disks[loc.disk]._store[loc.offset] ^= flip


@pytest.fixture
def volume(rng):
    vol = RAID6Volume(DCode(7), num_stripes=4, element_size=16)
    data = rng.integers(0, 256, (vol.num_elements, 16), dtype=np.uint8)
    vol.write(0, data)
    vol._truth = data
    return vol


@pytest.fixture
def checker(volume):
    return IntegrityChecker(volume)


class TestBatchedPath:
    """Verification on the gather path is edge-triggered: a block pays a
    CRC on its first read since attach/write/epoch.  At-rest rot on an
    already-verified block is the scrub campaign's job — so these tests
    reset the verification epoch (``invalidate()``) after corrupting,
    which is exactly the state of a freshly mounted (restored) store."""

    def test_corrupt_block_healed_on_bulk_read(self, volume, checker):
        target = Cell(1, 3)
        corrupt_cell(volume, 2, target)
        checker.store.invalidate()
        got = volume.read(0, volume.num_elements)
        assert np.array_equal(got, volume._truth)
        kinds = [e.kind for e in volume.heal_log]
        assert "corrupt" in kinds and "remap" in kinds
        # the rotten block was rewritten and re-recorded: clean from here
        assert checker.find_corruption() == {}
        assert volume.scrub() == []

    def test_corruption_counted_per_disk(self, volume, checker):
        target = Cell(0, 2)
        loc = volume.mapper.locate_cell(1, target)
        corrupt_cell(volume, 1, target)
        checker.store.invalidate()
        volume.read(0, volume.num_elements)
        assert volume.error_counters.checksum[loc.disk] >= 1
        assert sum(
            volume.error_counters.checksum[d]
            for d in range(len(volume.disks))
            if d != loc.disk
        ) == 0

    def test_two_corrupt_columns_same_stripe_healed(self, volume, checker):
        corrupt_cell(volume, 0, Cell(2, 1))
        corrupt_cell(volume, 0, Cell(4, 5))
        checker.store.invalidate()
        got = volume.read(0, volume.num_elements)
        assert np.array_equal(got, volume._truth)
        assert checker.find_corruption() == {}

    def test_steady_state_skips_hashing(self, volume, checker):
        # first read verifies every touched block...
        volume.read(0, volume.num_elements)
        bitmap = checker.store._verified
        base_true = int(bitmap.sum())
        # ...after which the bitmap is saturated for the data cells and a
        # second read flips nothing
        volume.read(0, volume.num_elements)
        assert int(bitmap.sum()) == base_true

    def test_writes_unverify_then_reverify(self, volume, checker, rng):
        per = volume.layout.num_data_cells
        patch = rng.integers(0, 256, (per, 16), dtype=np.uint8)
        volume.write(0, patch)
        assert not checker.range_verified(0)
        volume.read(0, per)
        assert checker.range_verified(0)


class TestZeroCopyGate:
    def test_view_only_when_verified(self, volume, checker, rng):
        per = volume.layout.num_data_cells
        # seeding marked everything verified: aligned read is a view
        view = volume.read(per, per)
        assert not view.flags.writeable
        # a write invalidates; the next read verifies out of a copy
        volume.write(per, rng.integers(0, 256, (per, 16), dtype=np.uint8))
        copy = volume.read(per, per)
        assert copy.flags.writeable
        # and once verified, zero-copy resumes
        again = volume.read(per, per)
        assert not again.flags.writeable


class TestScalarPath:
    def test_corrupt_block_healed_under_fault_hook(self, volume, checker):
        # an attached injector presents every read element by element
        inj = FaultInjector(seed=5).attach(volume)
        corrupt_cell(volume, 3, Cell(0, 0))
        got = volume.read(0, volume.num_elements)
        assert np.array_equal(got, volume._truth)
        assert "corrupt" in [e.kind for e in volume.heal_log]
        inj.detach()
        assert checker.find_corruption() == {}

    def test_hooked_read_reports_a_located_erasure(self, volume, checker):
        """Element by element every block is re-hashed, verified bit or
        not: the rotten one comes back to its plan as a failed position,
        logged ``corrupt`` with its disk and offset."""
        target = Cell(0, 4)
        loc = volume.mapper.locate_cell(0, target)
        corrupt_cell(volume, 0, target)
        volume.disks[loc.disk].fault_hook = lambda disk, op, offset: None
        at = np.array([loc.offset * len(volume.disks) + loc.disk])
        assert volume._read_rows(at, volume._flat_backing[at]) == [0]
        (event,) = volume.heal_log
        assert (event.kind, event.disk, event.offset) == \
            ("corrupt", loc.disk, loc.offset)
        assert volume.error_counters.checksum[loc.disk] == 1


class TestEscalation:
    def test_rotten_disk_escalated_to_failed(self, rng):
        vol = RAID6Volume(
            DCode(7), num_stripes=4, element_size=16,
            policy=ErrorPolicy(escalate_after=2),
        )
        data = rng.integers(0, 256, (vol.num_elements, 16), dtype=np.uint8)
        vol.write(0, data)
        checker = IntegrityChecker(vol)
        # repeated corruption on one disk crosses the escalation budget
        for stripe in range(3):
            corrupt_cell(vol, stripe, Cell(1, 2))
        checker.store.invalidate()
        got = vol.read(0, vol.num_elements)
        assert np.array_equal(got, data)
        loc = vol.mapper.locate_cell(0, Cell(1, 2))
        assert loc.disk in vol.error_counters.escalated
        assert vol.disks[loc.disk].failed
        assert "escalate" in [e.kind for e in vol.heal_log]


class TestOptOut:
    def test_verify_reads_off_serves_rot(self, volume):
        checker = IntegrityChecker(volume, verify_reads=False)
        target = Cell(0, 1)
        corrupt_cell(volume, 0, target)
        got = volume.read(0, volume.num_elements)
        # no verification: the rotten bytes are served as-is...
        assert not np.array_equal(got, volume._truth)
        assert volume.heal_log == []
        # ...but offline location still works
        assert checker.find_corruption() == {0: [target]}
