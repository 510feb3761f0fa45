"""Thread-safety regressions: cache destage racing foreground writers.

The serving coalescer (``repro.serve``) drives a :class:`StripeCache`
from per-shard executor threads while foreground writes RMW the same
volume.  Two invariants must survive that race:

* **no lost cells** — concurrent ``write``/``flush`` on the cache keep
  every buffered cell (the dirty-set bookkeeping is under the cache
  lock);
* **no parity tears** — a coalesced ``_destage_many`` racing a
  foreground RMW on overlapping stripes must leave every stripe's
  parity consistent with its data (the volume's striped write locks
  serialise the two parity read-modify-writes), so ``scrub()`` stays
  clean.

Threads are joined with generous timeouts so a regression deadlocks
into a test failure, not a hung CI job.
"""

import sys
import threading

import numpy as np

from repro.array import RAID6Volume
from repro.array.cache import StripeCache
from repro.codes import DCode

from tests.conftest import bucket

ELEM = 16
JOIN_TIMEOUT = 120.0


def _join_all(threads, errors):
    for t in threads:
        t.join(JOIN_TIMEOUT)
    alive = [t.name for t in threads if t.is_alive()]
    assert not alive, f"writer threads deadlocked: {alive}"
    assert not errors, errors


def _value(tag: int) -> np.ndarray:
    return np.full(ELEM, tag % 256, dtype=np.uint8)


class TestDestageRacingRMW:
    """Concurrent ``_destage_many`` vs. RMW on overlapping stripes."""

    def test_overlapping_stripes_stay_consistent(self):
        vol = RAID6Volume(DCode(7), num_stripes=24, element_size=ELEM)
        cache = StripeCache(vol, max_dirty_stripes=4)
        per = vol.layout.num_data_cells
        stripes = range(16)
        rounds = 10
        errors = []
        barrier = threading.Barrier(2)
        cache_final = {}
        rmw_final = {}

        def cache_writer():
            # data_index 0 of every stripe, destaged in coalesced batches
            try:
                barrier.wait()
                for r in range(rounds):
                    for s in stripes:
                        val = _value(r * 16 + s)
                        cache.write(s * per, val[None, :])
                        cache_final[s] = val
                    cache.flush()
            except BaseException as e:  # noqa: BLE001 — surfaced in join
                errors.append(e)

        def rmw_writer():
            # data_index 1 of the same stripes, as one multi-stripe RMW
            # burst per round (the cross-stripe `_write_rest` path)
            try:
                barrier.wait()
                for r in range(rounds):
                    entries = []
                    for s in stripes:
                        loc = vol.mapper.locate(s * per + 1)
                        val = _value(128 + r * 16 + s)
                        entries.append(
                            bucket(vol.layout, loc.stripe, [(loc.cell, val)])
                        )
                        rmw_final[s] = val
                    vol._write_rest(entries)
            except BaseException as e:  # noqa: BLE001 — surfaced in join
                errors.append(e)

        threads = [
            threading.Thread(target=cache_writer, name="cache-writer"),
            threading.Thread(target=rmw_writer, name="rmw-writer"),
        ]
        for t in threads:
            t.start()
        _join_all(threads, errors)
        cache.flush()

        # each cell is owned by exactly one thread, so finals are exact
        for s in stripes:
            got = vol.read(s * per, 2)
            assert np.array_equal(got[0], cache_final[s]), f"stripe {s}"
            assert np.array_equal(got[1], rmw_final[s]), f"stripe {s}"
        # the real regression: torn parity from two concurrent RMWs
        assert vol.scrub() == []

    def test_destage_racing_plain_volume_writes(self):
        vol = RAID6Volume(DCode(7), num_stripes=16, element_size=ELEM)
        cache = StripeCache(vol, max_dirty_stripes=2)
        per = vol.layout.num_data_cells
        rounds = 12
        errors = []
        barrier = threading.Barrier(2)
        final = {}

        def cache_writer():
            try:
                barrier.wait()
                for r in range(rounds):
                    for s in range(8):
                        val = _value(r * 8 + s)
                        cache.write(s * per, val[None, :])
                        final[("cache", s)] = val
                cache.flush()
            except BaseException as e:  # noqa: BLE001
                errors.append(e)

        def volume_writer():
            try:
                barrier.wait()
                for r in range(rounds):
                    for s in range(8):
                        val = _value(64 + r * 8 + s)
                        vol.write(s * per + 2, val[None, :])
                        final[("vol", s)] = val
            except BaseException as e:  # noqa: BLE001
                errors.append(e)

        threads = [
            threading.Thread(target=cache_writer, name="cache-writer"),
            threading.Thread(target=volume_writer, name="volume-writer"),
        ]
        for t in threads:
            t.start()
        _join_all(threads, errors)
        cache.flush()

        for s in range(8):
            assert np.array_equal(
                vol.read(s * per, 1)[0], final[("cache", s)]
            )
            assert np.array_equal(
                vol.read(s * per + 2, 1)[0], final[("vol", s)]
            )
        assert vol.scrub() == []


class TestConcurrentCacheWriters:
    def test_two_writers_lose_nothing(self):
        vol = RAID6Volume(DCode(7), num_stripes=32, element_size=ELEM)
        cache = StripeCache(vol, max_dirty_stripes=3)
        per = vol.layout.num_data_cells
        rounds = 15
        errors = []
        barrier = threading.Barrier(2)
        final = {}

        def writer(tid):
            # each writer owns its own stripe band; tiny budget (3)
            # forces overflow eviction -> concurrent `_destage_many`
            try:
                barrier.wait()
                for r in range(rounds):
                    for s in range(tid * 12, tid * 12 + 12):
                        val = _value(tid * 100 + r * 12 + s)
                        cache.write(s * per + tid, val[None, :])
                        final[(tid, s)] = val
            except BaseException as e:  # noqa: BLE001
                errors.append(e)

        threads = [
            threading.Thread(target=writer, args=(tid,), name=f"w{tid}")
            for tid in (0, 1)
        ]
        for t in threads:
            t.start()
        _join_all(threads, errors)
        cache.flush()
        assert cache.dirty_elements() == 0

        for (tid, s), val in final.items():
            assert np.array_equal(vol.read(s * per + tid, 1)[0], val)
        assert vol.scrub() == []


class TestCounterExactness:
    def test_concurrent_writers_lose_no_count(self):
        """Four writers on disjoint stripe bands share every disk: a
        planned store bumps each disk's write counter once, under that
        disk's lock, so the totals equal a serial run's exactly."""
        layout = DCode(7)
        per = layout.num_data_cells
        rounds, band = 40, 6

        def ops(tid):
            for r in range(rounds):
                for s in range(tid * band, (tid + 1) * band):
                    # every write changes its bytes: a fixed I/O count
                    yield s * per + tid, np.full(
                        (3, ELEM), 1 + (r + tid) % 255, dtype=np.uint8
                    )

        serial = RAID6Volume(layout, num_stripes=24, element_size=ELEM)
        for tid in range(4):
            for start, data in ops(tid):
                serial.write(start, data)

        vol = RAID6Volume(layout, num_stripes=24, element_size=ELEM)
        errors = []
        barrier = threading.Barrier(4)

        def writer(tid):
            try:
                barrier.wait()
                for start, data in ops(tid):
                    vol.write(start, data)
            except BaseException as e:  # noqa: BLE001 — surfaced in join
                errors.append(e)

        threads = [
            threading.Thread(target=writer, args=(tid,), name=f"w{tid}")
            for tid in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            _join_all(threads, errors)
        finally:
            sys.setswitchinterval(interval)
        assert vol.io_counters() == serial.io_counters()
        assert np.array_equal(vol._backing, serial._backing)
