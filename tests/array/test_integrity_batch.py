"""Regression: the batched (tensor) write paths keep checksums current.

Every plan stores through the volume's ``_store_rows`` funnel, which
:class:`IntegrityChecker` wraps.  Every test here fails with spurious
"corruption" if a bulk path bypasses checksum recording.
"""

import numpy as np

from repro.array.cache import StripeCache
from repro.array.integrity import IntegrityChecker
from repro.array.volume import RAID6Volume
from repro.codes.registry import make_code

ELEMENT_SIZE = 32


def fresh(num_stripes=4, p=5):
    return RAID6Volume(
        make_code("dcode", p),
        num_stripes=num_stripes,
        element_size=ELEMENT_SIZE,
    )


def payload(n, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, (n, ELEMENT_SIZE), dtype=np.uint8
    )


class TestBatchedWritesKeepChecksums:
    def test_full_stripe_tensor_write_records(self):
        vol = fresh()
        checker = IntegrityChecker(vol)
        per = vol.layout.num_data_cells
        vol.write(0, payload(3 * per, seed=1))
        assert checker.find_corruption() == {}

    def test_cache_destage_records(self):
        vol = fresh()
        checker = IntegrityChecker(vol)
        per = vol.layout.num_data_cells
        cache = StripeCache(vol, max_dirty_stripes=8)
        cache.write(0, payload(per, seed=2))
        cache.write(per, payload(per, seed=3))
        cache.write(2 * per, payload(2, seed=4))
        cache.flush()
        assert checker.find_corruption() == {}

    def test_rebuild_sweep_records(self):
        vol = fresh()
        vol.write(0, payload(vol.num_elements, seed=5))
        checker = IntegrityChecker(vol)
        vol.fail_disk(1)
        vol.replace_and_rebuild(1)
        assert checker.find_corruption() == {}

    def test_mixed_span_with_journal_records(self):
        from repro.journal import WriteIntentLog

        vol = RAID6Volume(
            make_code("dcode", 5), num_stripes=4,
            element_size=ELEMENT_SIZE, journal=WriteIntentLog(),
        )
        checker = IntegrityChecker(vol)
        per = vol.layout.num_data_cells
        vol.write(per // 2, payload(2 * per, seed=7))
        assert checker.find_corruption() == {}
        assert not vol.journal.dirty


class TestRecordingWithoutVerifiedReads:
    def test_seeded_stream_leaves_no_stale_checksum(self):
        """With verified reads off nothing re-hashes a block on its way
        in, so only the recorder keeps the checksums current: a seeded
        stream of partial writes, whole-stripe bursts and cache destages
        must leave every block matching its digest.  An executor that
        stored around the wrapped ``_store_rows`` shows up here and
        nowhere else."""
        vol = fresh(num_stripes=8, p=7)
        per = vol.layout.num_data_cells
        vol.write(0, payload(vol.num_elements, seed=7))
        checker = IntegrityChecker(vol, verify_reads=False)
        cache = StripeCache(vol, max_dirty_stripes=3)
        rng = np.random.default_rng(8)
        for step in range(90):
            kind = step % 3
            if kind == 0:  # a short partial write
                n = int(rng.integers(1, per))
                start = int(rng.integers(0, vol.num_elements - n))
                vol.write(start, payload(n, seed=step))
            elif kind == 1:  # a burst of whole stripes, head and tail
                stripes = int(rng.integers(2, 4))
                start = int(rng.integers(0, 8 - stripes)) * per + 3
                n = min(stripes * per, vol.num_elements - start)
                vol.write(start, payload(n, seed=step))
            else:  # cache writes, destaged as multi-stripe bursts
                n = int(rng.integers(1, 2 * per))
                start = int(rng.integers(0, vol.num_elements - n))
                cache.write(start, payload(n, seed=step))
        cache.flush()
        assert checker.find_corruption() == {}
        assert vol.scrub() == []


class TestStillDetectsRealRot:
    def test_flipped_byte_is_located_and_repaired(self):
        vol = fresh()
        checker = IntegrityChecker(vol)
        vol.write(0, payload(2 * vol.layout.num_data_cells, seed=8))
        cell = vol.layout.data_cells[0]
        loc = vol.mapper.locate_cell(1, cell)
        vol.disks[loc.disk]._store[loc.offset, 0] ^= 0xFF
        assert checker.find_corruption() == {1: [cell]}
        assert checker.verify_and_repair() == {1: [cell]}
        assert checker.find_corruption() == {}
        assert vol.scrub() == []


class TestStoreResume:
    def test_checker_accepts_existing_store(self):
        vol = fresh()
        checker = IntegrityChecker(vol)
        vol.write(0, payload(vol.num_elements, seed=9))
        snapshot = checker.store
        twin = fresh()
        twin._backing[:] = vol._backing
        resumed = IntegrityChecker(twin, store=snapshot)
        assert resumed.store is snapshot
        assert resumed.find_corruption() == {}
