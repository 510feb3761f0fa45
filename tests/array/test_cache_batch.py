"""StripeCache batch destaging: ordering and eviction.  Destaged bytes
and counters are held to the reference walk by ``Mirror``
(``tests/oracles/diff.py``: its streams' cache writes, and
``test_destage_byte_exact`` in ``tests/array/test_rmw_batch.py``)."""

import numpy as np

from repro.array.cache import StripeCache
from repro.array.volume import RAID6Volume
from repro.codes.registry import make_code


def _pair(code="dcode", p=5, element_size=32, **kw):
    volume = RAID6Volume(make_code(code, p), num_stripes=16,
                         element_size=element_size)
    return volume, StripeCache(volume, **kw)


class TestBatchFlush:
    def test_flush_destages_every_dirty_stripe(self):
        volume, cache = _pair()
        per = volume.layout.num_data_cells
        data = np.random.default_rng(0).integers(
            0, 256, (5 * per, 32), dtype=np.uint8
        )
        cache.write(0, data)  # five full stripes -> the tensor destage
        assert cache.flush() == 5
        assert cache.dirty_stripes == ()
        assert cache.destage_count == 5
        assert np.array_equal(volume.read(0, 5 * per), data)

    def test_flush_mixes_full_and_partial_stripes(self):
        volume, cache = _pair()
        per = volume.layout.num_data_cells
        rng = np.random.default_rng(1)
        full = rng.integers(0, 256, (3 * per, 32), dtype=np.uint8)
        partial = rng.integers(0, 256, (3, 32), dtype=np.uint8)
        cache.write(0, full)
        cache.write(5 * per + 1, partial)  # RMW destage path
        assert cache.flush() == 4
        assert np.array_equal(volume.read(0, 3 * per), full)
        assert np.array_equal(volume.read(5 * per + 1, 3), partial)

    def test_flush_preserves_write_order_per_stripe(self):
        """Later buffered writes to the same cell win at destage time."""
        volume, cache = _pair()
        per = volume.layout.num_data_cells
        cache.write(0, np.full((2 * per, 32), 1, dtype=np.uint8))
        cache.write(0, np.full((1, 32), 9, dtype=np.uint8))
        cache.flush()
        out = volume.read(0, 1)
        assert int(out[0, 0]) == 9

    def test_parity_consistent_after_batch_flush(self):
        volume, cache = _pair()
        per = volume.layout.num_data_cells
        cache.write(0, np.random.default_rng(2).integers(
            0, 256, (6 * per, 32), dtype=np.uint8
        ))
        cache.flush()
        assert volume.scrub() == []


class TestEvictionUnderBatchGrouping:
    def test_single_overflow_destages_one_stripe(self):
        volume, cache = _pair(max_dirty_stripes=2)
        per = volume.layout.num_data_cells
        for stripe in range(3):
            cache.write(stripe * per, np.full((1, 32), stripe,
                                              dtype=np.uint8))
        # LRU (stripe 0) was evicted as a batch of one
        assert cache.destage_count == 1
        assert cache.dirty_stripes == (1, 2)
        assert int(volume.read(0, 1)[0, 0]) == 0

    def test_bulk_overflow_evicts_lru_prefix_in_one_batch(self):
        volume, cache = _pair(max_dirty_stripes=2)
        per = volume.layout.num_data_cells
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, (6 * per, 32), dtype=np.uint8)
        cache.write(0, data)  # six stripes dirty at once, budget 2
        assert cache.destage_count == 4
        assert cache.dirty_stripes == (4, 5)
        assert np.array_equal(volume.read(0, 4 * per), data[: 4 * per])

    def test_touch_refreshes_lru_position(self):
        volume, cache = _pair(max_dirty_stripes=2)
        per = volume.layout.num_data_cells
        cache.write(0, np.full((1, 32), 1, dtype=np.uint8))
        cache.write(per, np.full((1, 32), 2, dtype=np.uint8))
        cache.write(1, np.full((1, 32), 3, dtype=np.uint8))  # touch stripe 0
        cache.write(2 * per, np.full((1, 32), 4, dtype=np.uint8))
        # stripe 1 (the true LRU) was the eviction victim, not stripe 0
        assert cache.dirty_stripes == (0, 2)

    def test_read_your_writes_survives_batching(self):
        volume, cache = _pair(max_dirty_stripes=4)
        per = volume.layout.num_data_cells
        data = np.random.default_rng(4).integers(
            0, 256, (2 * per, 32), dtype=np.uint8
        )
        cache.write(0, data)
        assert np.array_equal(cache.read(0, 2 * per), data)

    def test_read_overlay_never_mutates_a_volume_view(self):
        """A dirty overlay over a zero-copy volume read must copy first."""
        volume, cache = _pair()
        per = volume.layout.num_data_cells
        volume.write(0, np.zeros((per, 32), dtype=np.uint8))
        cache.write(0, np.full((1, 32), 5, dtype=np.uint8))
        out = cache.read(0, per)
        assert int(out[0, 0]) == 5
        # the backing store still holds the destaged (old) value
        assert int(volume.read(0, 1)[0, 0]) == 0
