"""Write-back stripe-cache tests."""

import numpy as np
import pytest

from repro.array import RAID6Volume, ioplan
from repro.array.cache import StripeCache
from repro.codes import DCode
from repro.exceptions import AddressError
from repro.util.ckernel import xor_kernel

from tests.oracles.diff import Spied


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


class TestSlab:
    """The dirty data lives in one ``(slots, num_data_cells,
    element_size)`` slab, one slot and one dirty bitmask per stripe."""

    def test_slab_fits_the_budget_and_grows_for_a_longer_write(
        self, volume, rng
    ):
        """Short writes never grow the slab past the budget plus the two
        stripes one of them may add; a write spanning more stripes than
        there are free slots grows it, evicts as it always did, and
        leaves the slab at its budget again, the dirty rows moved."""
        cache = StripeCache(volume, max_dirty_stripes=3)
        held = []
        write_rest = volume._write_rest

        def destage(entries, surface=None):
            held.append(len(cache._slab))
            write_rest(entries, surface)

        volume._write_rest = destage
        per = volume.layout.num_data_cells
        slots = len(cache._slab)
        assert slots == 3 + 2
        for _ in range(40):
            n = int(rng.integers(1, per + 1))
            cache.write(int(rng.integers(0, volume.num_elements - n)),
                        payload(rng, n))
        assert len(cache._slab) == slots
        cache.flush()
        destaged = cache.destage_count
        shadow = volume.read(0, volume.num_elements)
        cache.write(per - 1, payload(rng, 2))  # stripes 0 and 1
        data = payload(rng, 5 * per)
        held.clear()
        cache.write(per, data)  # stripes 1 .. 5: four more than 2 free
        assert held == [6] and len(cache._slab) == slots
        shadow[per - 1] = cache.read(per - 1, 1)[0]
        shadow[per:6 * per] = data
        assert cache.dirty_stripes == (3, 4, 5)
        assert cache.destage_count == destaged + 3
        assert np.array_equal(cache.read(0, volume.num_elements), shadow)
        cache.flush()
        assert np.array_equal(volume.read(0, volume.num_elements), shadow)

    def test_overlay_of_scattered_and_whole_stripes(self, volume, rng):
        """Every other cell of one stripe, a whole stripe and single
        cells across a stripe boundary read through the overlay as a
        shadow has them — a zero-copy view copied, never written."""
        cache = StripeCache(volume, max_dirty_stripes=6)
        per = volume.layout.num_data_cells
        shadow = payload(rng, volume.num_elements)
        volume.write(0, shadow)
        for j in range(0, per, 2):
            cell = payload(rng, 1)
            cache.write(j, cell)
            shadow[j] = cell[0]
        whole = payload(rng, per)
        cache.write(2 * per, whole)
        shadow[2 * per:3 * per] = whole
        edge = payload(rng, 2)
        cache.write(4 * per - 1, edge)
        shadow[4 * per - 1:4 * per + 1] = edge
        for start, count in ((0, per), (1, 3), (per - 3, per + 6),
                             (2 * per, per), (3 * per, 2 * per),
                             (0, volume.num_elements)):
            got = cache.read(start, count)
            assert np.array_equal(got, shadow[start:start + count])
        view = volume.read(0, per)
        assert not view.flags.writeable  # the zero-copy path
        before = view.copy()
        cache.read(0, per)
        assert np.array_equal(view, before)

    def test_dirty_snapshot_items(self, volume, rng):
        """Stripe → ``(cell, value)`` of every dirty cell in data order,
        the latest value of each, as copies that later writes leave
        alone."""
        cache = StripeCache(volume, max_dirty_stripes=6)
        per = volume.layout.num_data_cells
        cells = volume.layout.data_cells
        latest = {}
        for _ in range(30):
            n = int(rng.integers(1, 9))
            start = int(rng.integers(0, 4 * per - n))
            data = payload(rng, n)
            cache.write(start, data)
            for i in range(n):
                latest[divmod(start + i, per)] = data[i]
        snapshot = cache.dirty_snapshot()
        assert sorted(snapshot) == sorted({s for s, _ in latest})
        for stripe, items in snapshot.items():
            js = sorted(j for s, j in latest if s == stripe)
            assert [cell for cell, _ in items] == [cells[j] for j in js]
            for (_, value), j in zip(items, js):
                assert np.array_equal(value, latest[stripe, j])
        frozen = {s: [v.copy() for _, v in items]
                  for s, items in snapshot.items()}
        cache.write(0, payload(rng, 4 * per))
        for stripe, items in snapshot.items():
            for (_, value), old in zip(items, frozen[stripe]):
                assert np.array_equal(value, old)

    @pytest.mark.skipif(xor_kernel() is None, reason="needs the C kernel")
    def test_quiet_destage_reads_the_slab_in_place(
        self, volume, rng, monkeypatch
    ):
        """A quiet destage makes one ``plan_exec`` call per group of
        buckets sharing a mask: a lone bucket's values read at its first
        dirty cell in its own slab row, no values array built; a group's
        stacked into one block — no numpy plan run."""
        cache = StripeCache(volume, max_dirty_stripes=6)
        per, es = volume.layout.num_data_cells, volume.element_size
        for stripe, (j0, n) in enumerate(((0, 3), (5, 2), (5, 2), (1, 7))):
            cache.write(stripe * per + j0, payload(rng, n))
            cache.write(stripe * per + j0 + n + 2, payload(rng, 1))
        # each bucket's slab row from its first dirty cell on
        heads = {
            stripe: cache._slab[slot, (mask & -mask).bit_length() - 1:]
            for stripe, (slot, mask) in cache._dirty.items()
        }
        calls = []

        def spy(name, vol, call, args):
            if name == "plan_exec":  # first stripe, stripes, values
                calls.append((args[2], args[4], args[5]))
            return call(*args)

        def numpy_run(*args, **kwargs):
            raise AssertionError("a quiet destage ran in numpy")

        volume._c = Spied(volume._c, volume, spy)
        monkeypatch.setattr(ioplan, "_plan_run", numpy_run)
        shadow = cache.read(0, volume.num_elements)
        cache.flush()
        # stripes 1 and 2 share their mask
        assert [call[:2] for call in calls] == [(0, 1), (1, 2), (3, 1)]
        for (_, _, values), stripe in zip(calls[::2], (0, 3)):
            row = heads[stripe]
            assert np.shares_memory(values, row)
            assert values.__array_interface__["data"][0] == \
                row.__array_interface__["data"][0]
        assert not np.shares_memory(calls[1][2], cache._slab)
        assert np.array_equal(volume.read(0, volume.num_elements), shadow)


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

    def test_numpy_integer_start_keeps_the_write(self):
        """An integral NumPy start buffers, reads back, destages and
        evicts like an int (its mask once went NumPy, and the destage
        that popped it lost the acknowledged write); a float start is
        refused before anything is buffered."""
        from repro.codes import make_code

        volume = RAID6Volume(make_code("dcode", 5), num_stripes=4,
                             element_size=16)
        cache = StripeCache(volume, 2)
        data = np.arange(32, dtype=np.uint8).reshape(2, 16)
        cache.write(np.int64(3), data)
        assert np.array_equal(cache.read(3, 2), data)
        assert np.array_equal(cache.read(np.int64(3), np.int64(2)), data)
        cache.flush()
        assert cache.dirty_stripes == ()
        assert np.array_equal(volume.read(3, np.int64(2)), data)
        per = volume.layout.num_data_cells
        for stripe in (1, 2, 3):  # the third evicts stripe 1
            cache.write(np.int64(stripe * per), data)
        assert cache.dirty_stripes == (2, 3)
        assert np.array_equal(volume.read(per, 2), data)
        with pytest.raises(TypeError):
            cache.write(3.0, data)
        assert cache.dirty_stripes == (2, 3)
