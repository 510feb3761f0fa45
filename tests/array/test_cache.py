"""Write-back stripe-cache tests."""

import numpy as np
import pytest

from repro.array import RAID6Volume
from repro.array.cache import StripeCache
from repro.codes import DCode
from repro.exceptions import AddressError


@pytest.fixture
def volume():
    return RAID6Volume(DCode(7), num_stripes=6, element_size=16)


@pytest.fixture
def cache(volume):
    return StripeCache(volume, max_dirty_stripes=3)


def payload(rng, n, size=16):
    return rng.integers(0, 256, (n, size), dtype=np.uint8)


class TestReadYourWrites:
    def test_buffered_write_visible_before_destage(self, cache, rng):
        data = payload(rng, 5)
        cache.write(10, data)
        assert cache.dirty_elements() == 5
        assert np.array_equal(cache.read(10, 5), data)
        # the volume itself has NOT seen it yet
        assert not np.array_equal(cache.volume.read(10, 5), data)

    def test_overlay_merges_with_volume_contents(self, cache, rng):
        base = payload(rng, 20)
        cache.volume.write(0, base)
        patch = payload(rng, 3)
        cache.write(5, patch)
        merged = cache.read(0, 20)
        assert np.array_equal(merged[:5], base[:5])
        assert np.array_equal(merged[5:8], patch)
        assert np.array_equal(merged[8:], base[8:])

    def test_rewrite_same_element_keeps_latest(self, cache, rng):
        a, b = payload(rng, 1), payload(rng, 1)
        cache.write(0, a)
        cache.write(0, b)
        assert np.array_equal(cache.read(0, 1), b)
        assert cache.dirty_elements() == 1


class TestDestaging:
    def test_flush_persists_everything(self, cache, rng):
        data = payload(rng, 30)
        cache.write(0, data)
        flushed = cache.flush()
        assert flushed >= 1
        assert cache.dirty_elements() == 0
        assert np.array_equal(cache.volume.read(0, 30), data)
        assert cache.volume.scrub() == []

    def test_lru_eviction_under_pressure(self, cache, rng):
        per = cache.volume.layout.num_data_cells
        # dirty 4 different stripes with budget 3: stripe of element 0
        # (the least recently used) must destage
        for s in range(4):
            cache.write(s * per, payload(rng, 1))
        assert len(cache.dirty_stripes) == 3
        assert 0 not in cache.dirty_stripes
        assert cache.destage_count == 1

    def test_coalescing_saves_parity_io(self, volume, rng):
        """Ten 1-element writes to one stripe: direct = 10 RMWs, cached =
        one batch — far fewer parity accesses."""
        direct = RAID6Volume(DCode(7), num_stripes=6, element_size=16)
        data = payload(rng, 10)
        for k in range(10):
            direct.write(k, data[k:k + 1])
        direct_io = sum(
            r + w for r, w in direct.io_counters().values()
        )

        cache = StripeCache(volume, max_dirty_stripes=3)
        for k in range(10):
            cache.write(k, data[k:k + 1])
        cache.flush()
        cached_io = sum(r + w for r, w in volume.io_counters().values())

        assert np.array_equal(volume.read(0, 10), data)
        assert cached_io < direct_io

    def test_full_stripe_accumulation_skips_reads(self, volume, rng):
        cache = StripeCache(volume, max_dirty_stripes=3)
        per = volume.layout.num_data_cells
        data = payload(rng, per)
        for k in range(per):  # element at a time, same stripe
            cache.write(k, data[k:k + 1])
        volume.reset_io_counters()
        cache.flush()
        reads = sum(r for r, _ in volume.io_counters().values())
        assert reads == 0  # destaged as a read-free full-stripe write


class TestValidation:
    def test_write_bounds(self, cache, rng):
        with pytest.raises(AddressError):
            cache.write(cache.volume.num_elements, payload(rng, 1))

    def test_write_shape(self, cache):
        with pytest.raises(AddressError):
            cache.write(0, np.zeros((1, 8), dtype=np.uint8))

    def test_budget_positive(self, volume):
        with pytest.raises(ValueError):
            StripeCache(volume, max_dirty_stripes=0)

    def test_empty_write_rejected(self, volume):
        """An empty write is refused as ``RAID6Volume.write`` refuses it,
        and leaves no empty bucket behind to fail the next destage and
        lose the buckets queued after it."""
        cache = StripeCache(volume)
        empty = np.zeros((0, 16), dtype=np.uint8)
        with pytest.raises(ValueError) as cached:
            cache.write(3, empty)
        with pytest.raises(ValueError) as direct:
            volume.write(3, empty)
        assert str(cached.value) == str(direct.value)
        assert cache.dirty_stripes == ()
        per = volume.layout.num_data_cells
        data = np.full((3, 16), 7, dtype=np.uint8)
        cache.write(per + 1, data)
        cache.flush()
        assert np.array_equal(volume.read(per + 1, 3), data)
