"""RAID6Volume integration tests: the full disk-array life-cycle."""

import numpy as np
import pytest

from repro.array import RAID6Volume
from repro.exceptions import AddressError, FaultToleranceExceeded


@pytest.fixture
def volume(small_layout):
    return RAID6Volume(small_layout, num_stripes=4, element_size=16)


def random_payload(rng, volume, count=None):
    count = volume.num_elements if count is None else count
    return rng.integers(0, 256, (count, volume.element_size), dtype=np.uint8)


class TestReadWrite:
    def test_full_volume_round_trip(self, volume, rng):
        data = random_payload(rng, volume)
        volume.write(0, data)
        assert np.array_equal(volume.read(0, volume.num_elements), data)

    def test_partial_write_preserves_rest(self, volume, rng):
        data = random_payload(rng, volume)
        volume.write(0, data)
        patch = random_payload(rng, volume, count=5)
        volume.write(7, patch)
        data[7:12] = patch
        assert np.array_equal(volume.read(0, volume.num_elements), data)

    def test_parity_consistent_after_random_writes(self, volume, rng):
        data = random_payload(rng, volume)
        volume.write(0, data)
        for _ in range(20):
            start = int(rng.integers(0, volume.num_elements - 3))
            patch = random_payload(rng, volume, count=3)
            volume.write(start, patch)
        assert volume.scrub() == []

    def test_unwritten_volume_reads_zero(self, volume):
        assert not volume.read(0, 10).any()

    def test_address_bounds(self, volume, rng):
        with pytest.raises(AddressError):
            volume.read(0, volume.num_elements + 1)
        with pytest.raises(AddressError):
            volume.write(volume.num_elements, random_payload(rng, volume, 1))

    def test_write_shape_checked(self, volume):
        with pytest.raises(AddressError):
            volume.write(0, np.zeros((2, 8), dtype=np.uint8))


class TestDegradedOperation:
    def test_read_with_one_failure(self, volume, rng):
        data = random_payload(rng, volume)
        volume.write(0, data)
        volume.fail_disk(0)
        assert np.array_equal(volume.read(0, volume.num_elements), data)

    def test_read_with_two_failures(self, volume, rng):
        data = random_payload(rng, volume)
        volume.write(0, data)
        volume.fail_disk(1)
        volume.fail_disk(volume.layout.cols - 1)
        assert np.array_equal(volume.read(0, volume.num_elements), data)

    def test_third_failure_rejected(self, volume):
        volume.fail_disk(0)
        volume.fail_disk(1)
        with pytest.raises(FaultToleranceExceeded):
            volume.fail_disk(2)

    def test_degraded_write_then_read(self, volume, rng):
        data = random_payload(rng, volume)
        volume.write(0, data)
        volume.fail_disk(2)
        patch = random_payload(rng, volume, count=4)
        volume.write(3, patch)
        data[3:7] = patch
        assert np.array_equal(volume.read(0, volume.num_elements), data)

    def test_degraded_full_rewrite(self, volume, rng):
        volume.fail_disk(0)
        data = random_payload(rng, volume)
        volume.write(0, data)
        assert np.array_equal(volume.read(0, volume.num_elements), data)


class TestRebuild:
    def test_single_failure_rebuild_restores_parity(self, volume, rng):
        data = random_payload(rng, volume)
        volume.write(0, data)
        volume.fail_disk(1)
        volume.replace_and_rebuild(1)
        assert volume.failed_disks == ()
        assert volume.scrub() == []
        assert np.array_equal(volume.read(0, volume.num_elements), data)

    def test_double_failure_rebuild_one_at_a_time(self, volume, rng):
        data = random_payload(rng, volume)
        volume.write(0, data)
        volume.fail_disk(0)
        volume.fail_disk(3)
        volume.replace_and_rebuild(3)
        volume.replace_and_rebuild(0)
        assert volume.scrub() == []
        assert np.array_equal(volume.read(0, volume.num_elements), data)

    def test_rebuild_requires_failed_disk(self, volume):
        with pytest.raises(ValueError):
            volume.replace_and_rebuild(0)

    def test_start_rebuild_checks_before_it_replaces(self, volume, rng):
        """A batch below one or a negative disk raises before the failed
        disk is swapped for a blank one: still degraded, bytes intact."""
        data = random_payload(rng, volume)
        volume.write(0, data)
        last = len(volume.disks) - 1
        volume.fail_disk(last)
        for disk, batch in ((last, 0), (-1, 8)):
            with pytest.raises(ValueError):
                volume.start_rebuild(disk, batch=batch)
            assert volume.failed_disks == (last,)
            assert np.array_equal(volume.read(0, volume.num_elements), data)
        volume.replace_and_rebuild(last)
        assert volume.scrub() == []

    def test_latent_error_address_checked(self, volume):
        rows = volume.layout.rows
        for stripe, row in ((0, rows), (0, -1), (4, 0), (-1, 0)):
            with pytest.raises(ValueError):
                volume.inject_latent_error(0, stripe, row)
        assert not any(disk.bad_sectors for disk in volume.disks)

    def test_rebuild_read_count_reported(self, volume, rng):
        data = random_payload(rng, volume)
        volume.write(0, data)
        volume.fail_disk(1)
        reads = volume.replace_and_rebuild(1)
        assert reads > 0


class TestCounters:
    def test_counters_track_io(self, volume, rng):
        data = random_payload(rng, volume)
        volume.write(0, data)
        before = volume.io_counters()
        volume.read(0, 5)
        after = volume.io_counters()
        total_reads_delta = sum(
            after[d][0] - before[d][0] for d in after
        )
        assert total_reads_delta == 5

    def test_reset(self, volume, rng):
        volume.write(0, random_payload(rng, volume, 3))
        volume.reset_io_counters()
        assert all(r == 0 and w == 0 for r, w in volume.io_counters().values())


class TestRotation:
    def test_rotated_volume_round_trips(self, small_layout, rng):
        volume = RAID6Volume(
            small_layout, num_stripes=4, element_size=16, rotate=True
        )
        data = random_payload(rng, volume)
        volume.write(0, data)
        volume.fail_disk(0)
        assert np.array_equal(volume.read(0, volume.num_elements), data)
        volume.replace_and_rebuild(0)
        assert volume.scrub() == []
