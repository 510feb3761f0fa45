"""CRC sweep and scrub-campaign engine tests.

Sweeps on quiet disks and element by element are held to each other by
the differential oracle (``tests/oracles/diff.py``: ``Mirror``); the
two sweep tests here run it on this module's geometry.
"""

import numpy as np
import pytest

from repro.array import RAID6Volume
from repro.array.integrity import IntegrityChecker
from repro.codes import Cell, DCode, make_code
from repro.exceptions import (
    InconsistentStripeError,
    UnrecoverableStripeError,
)
from repro.faults import FaultInjector

from tests.oracles.diff import Mirror


def corrupt_cell(volume, stripe, cell, flip=0xFF):
    loc = volume.mapper.locate_cell(stripe, cell)
    volume.disks[loc.disk]._store[loc.offset] ^= flip


def _volume(data):
    vol = RAID6Volume(DCode(7), num_stripes=4, element_size=16)
    vol.write(0, data)
    vol._truth = data
    return vol


def _mirror():
    """A :class:`Mirror` of four D-Code p = 7 volumes holding a random
    image, an integrity checker on each."""
    mirror = Mirror(DCode(7), stripes=4, es=16)
    mirror.write(0, np.random.default_rng(7).integers(
        0, 256, (mirror.kernel.num_elements, 16), dtype=np.uint8
    ))
    mirror.attach_checker()
    return mirror


def _rot(mirror, stripe, cell):
    loc = mirror.kernel.mapper.locate_cell(stripe, cell)
    mirror.rot(loc.disk, loc.offset)


@pytest.fixture
def volume(rng):
    return _volume(rng.integers(0, 256, (4 * 35, 16), dtype=np.uint8))


@pytest.fixture
def checker(volume):
    return IntegrityChecker(volume)


class TestVectorizedFind:
    def test_batched_and_serial_sweeps_agree(self):
        mirror = _mirror()
        for stripe, cell in (
            (0, Cell(1, 1)), (2, Cell(0, 4)),
            (2, mirror.layout.parity_cells[0]),
        ):
            _rot(mirror, stripe, cell)
        assert set(mirror.integrity("find_corruption")) == {0, 2}

    def test_sweeps_counter_identical(self):
        """Counters, checksums and verified bits: ``Mirror`` compares."""
        mirror = _mirror()
        _rot(mirror, 1, Cell(2, 2))
        assert mirror.integrity("find_corruption") == {1: [Cell(2, 2)]}

    def test_fault_hook_falls_back_to_serial(self, volume, checker):
        corrupt_cell(volume, 3, Cell(0, 0))
        inj = FaultInjector(seed=0).attach(volume)
        assert checker.find_corruption() == {3: [Cell(0, 0)]}
        inj.detach()

    def test_verify_and_repair_uses_sweep(self, volume, checker):
        corrupt_cell(volume, 1, Cell(3, 2))
        assert checker.verify_and_repair() == {1: [Cell(3, 2)]}
        assert np.array_equal(
            volume.read(0, volume.num_elements), volume._truth
        )


class TestScrubCampaign:
    def test_clean_volume_clean_report(self, volume, checker):
        report = checker.scrub_campaign()
        assert report.clean
        assert report.stripes_scanned == volume.mapper.num_stripes
        assert report.elements_read == (
            volume.mapper.num_stripes * volume.layout.rows
            * volume.layout.cols
        )

    def test_data_and_parity_corruption_classified(self, volume, checker):
        data_cell = Cell(0, 2)
        parity_cell = volume.layout.parity_cells[3]
        corrupt_cell(volume, 1, data_cell)
        corrupt_cell(volume, 2, parity_cell)
        report = checker.scrub_campaign()
        assert report.repaired_data == [(1, data_cell)]
        assert report.repaired_parity == [(2, parity_cell)]
        # the campaign healed byte-exact: follow-up sweeps are clean
        assert checker.scrub_campaign().clean
        assert np.array_equal(
            volume.read(0, volume.num_elements), volume._truth
        )

    def test_campaign_repairs_two_corrupt_columns(self, volume, checker):
        corrupt_cell(volume, 0, Cell(1, 0))
        corrupt_cell(volume, 0, Cell(2, 6))
        report = checker.scrub_campaign()
        assert report.repaired_count == 2
        assert np.array_equal(
            volume.read(0, volume.num_elements), volume._truth
        )

    def test_overwhelming_rot_raises_typed(self, volume, checker):
        # three whole corrupt columns exceed any RAID-6 code
        for col in (0, 2, 4):
            for cell in volume.layout.cells_in_column(col):
                corrupt_cell(volume, 1, cell)
        with pytest.raises(UnrecoverableStripeError) as exc:
            checker.scrub_campaign()
        assert exc.value.stripe == 1

    def test_unattributed_corruption_strict_raises(self, volume, checker):
        target = Cell(1, 1)
        loc = volume.mapper.locate_cell(0, target)
        corrupt_cell(volume, 0, target)
        # poison the store so the rotten bytes *match* their digest:
        # parity now disagrees with every block checksum-consistent
        checker.store.record(
            loc.disk, loc.offset, volume.disks[loc.disk]._store[loc.offset]
        )
        with pytest.raises(InconsistentStripeError):
            checker.scrub_campaign()

    def test_unattributed_corruption_lenient_reports(self, volume, checker):
        target = Cell(1, 1)
        loc = volume.mapper.locate_cell(0, target)
        corrupt_cell(volume, 0, target)
        checker.store.record(
            loc.disk, loc.offset, volume.disks[loc.disk]._store[loc.offset]
        )
        report = checker.scrub_campaign(strict=False)
        assert report.unattributed == [0]
        assert report.repaired_count == 0

    def test_serial_campaign_under_fault_hook(self, volume, checker):
        corrupt_cell(volume, 2, Cell(0, 3))
        inj = FaultInjector(seed=1).attach(volume)
        report = checker.scrub_campaign()
        inj.detach()
        assert report.repaired_data == [(2, Cell(0, 3))]
        assert np.array_equal(
            volume.read(0, volume.num_elements), volume._truth
        )

    @pytest.mark.parametrize("name", ("rdp", "xcode", "evenodd"))
    def test_other_codes(self, name, rng):
        layout = make_code(name, 5)
        vol = RAID6Volume(layout, num_stripes=3, element_size=16)
        data = rng.integers(0, 256, (vol.num_elements, 16), dtype=np.uint8)
        vol.write(0, data)
        checker = IntegrityChecker(vol)
        corrupt_cell(vol, 1, layout.data_cells[2])
        corrupt_cell(vol, 2, layout.parity_cells[0])
        report = checker.scrub_campaign()
        assert report.repaired_count == 2
        assert checker.scrub_campaign().clean
        assert np.array_equal(vol.read(0, vol.num_elements), data)

    def test_campaign_revalidates_bitmap(self, volume, checker):
        checker.store.invalidate()
        checker.scrub_campaign()
        # every block re-verified: the zero-copy gate opens again
        per = volume.layout.num_data_cells
        view = volume.read(0, per)
        assert not view.flags.writeable
