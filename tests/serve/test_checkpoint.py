"""Incremental durable checkpoints: reloading must be byte-exact.

The engine's contract is simple to state — the state file reloads to
exactly the volume image that was last checkpointed — and everything
else (compaction, torn tails, the rename) exists to keep that contract
through crashes.  The replay test runs the full registry × both
evaluation primes, because a record stores raw stripe images whose
geometry (columns × rows) differs per code.
"""

import numpy as np
import pytest

from repro.array import RAID6Volume
from repro.array import persistence
from repro.array.persistence import load_volume
from repro.codes.registry import available_codes, make_code
from repro.exceptions import SimulatedCrashError
from repro.journal.intent import WriteIntentLog
from repro.serve.checkpoint import IncrementalCheckpointer, delta_log_path

ALL_CODES = sorted(available_codes())


def journaled_volume(code, p, num_stripes=4, element_size=16):
    volume = RAID6Volume(
        make_code(code, p),
        num_stripes=num_stripes,
        element_size=element_size,
    )
    volume.journal = WriteIntentLog()
    return volume


def write_random(volume, rng, start, count):
    data = rng.integers(
        0, 256, (count, volume.element_size), dtype=np.uint8
    )
    volume.write(start, data)


def image(volume):
    return volume._backing.tobytes()


class TestDeltaReplayByteExact:
    @pytest.mark.parametrize("code", ALL_CODES)
    @pytest.mark.parametrize("p", [5, 7])
    def test_reload_equals_checkpointed_image(self, tmp_path, code, p):
        path = tmp_path / "shard.img"
        volume = journaled_volume(code, p)
        engine = IncrementalCheckpointer(volume, path)
        full = path.stat().st_size
        rng = np.random.default_rng([17, p])
        n = volume.num_elements
        for k in range(5):
            write_random(volume, rng, (3 * k) % (n - 2), 2)
            engine.checkpoint()
        assert engine.deltas == 5 and path.stat().st_size > full
        want = volume.read(0, n).tobytes()
        engine.close()

        reloaded = load_volume(path)
        assert reloaded.read(0, n).tobytes() == want
        # parity came back too: every disk byte-identical, scrub clean
        for got, exp in zip(reloaded.disks, volume.disks):
            np.testing.assert_array_equal(got._store, exp._store)
        assert reloaded.scrub() == []

    def test_reload_without_deltas_is_base_image(self, tmp_path):
        path = tmp_path / "shard.img"
        volume = journaled_volume("dcode", 5)
        rng = np.random.default_rng(23)
        write_random(volume, rng, 0, 4)
        engine = IncrementalCheckpointer(volume, path)
        want = volume.read(0, volume.num_elements).tobytes()
        engine.close()
        reloaded = load_volume(path)
        assert reloaded.read(
            0, reloaded.num_elements
        ).tobytes() == want


class TestCompaction:
    def test_mid_campaign_compaction_resets_log_and_keeps_image(
        self, tmp_path
    ):
        path = tmp_path / "shard.img"
        volume = journaled_volume("dcode", 7)
        engine = IncrementalCheckpointer(volume, path)
        full = path.stat().st_size
        rng = np.random.default_rng(29)
        n = volume.num_elements
        for k in range(4):
            write_random(volume, rng, k, 1)
            engine.checkpoint()
        assert path.stat().st_size > full
        engine.compact()
        assert path.stat().st_size == full
        # records appended after the compaction replay on top of it
        for k in range(3):
            write_random(volume, rng, 2 * k, 2)
            engine.checkpoint()
        want = volume.read(0, n).tobytes()
        engine.close()
        reloaded = load_volume(path)
        assert reloaded.read(0, n).tobytes() == want

    def test_appends_past_the_raw_ratio_compact(self, tmp_path):
        path = tmp_path / "shard.img"
        volume = journaled_volume("dcode", 5)
        engine = IncrementalCheckpointer(volume, path)
        rng = np.random.default_rng(43)
        # each record holds a whole stripe, a quarter of this volume,
        # so COMPACT_RATIO images of appends take ~16 records
        for k in range(40):
            write_random(volume, rng, (7 * k) % (volume.num_elements - 1),
                         1)
            engine.checkpoint()
        assert engine.compactions >= 1
        assert engine.appended <= 5 * volume._backing.nbytes
        want = image(volume)
        engine.close()
        assert image(load_volume(path)) == want

    def test_crash_before_the_rename_reloads_the_old_image(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "shard.img"
        volume = journaled_volume("dcode", 5)
        engine = IncrementalCheckpointer(volume, path)
        rng = np.random.default_rng(31)
        write_random(volume, rng, 0, 2)
        engine.checkpoint()
        acked = path.read_bytes()
        want = image(volume)
        write_random(volume, rng, 10, 3)   # never acknowledged

        def crash(src, dst):
            raise SimulatedCrashError(0)

        monkeypatch.setattr(persistence.os, "replace", crash)
        with pytest.raises(SimulatedCrashError):
            engine.compact()
        assert path.read_bytes() == acked
        assert image(load_volume(path)) == want

    def test_crash_after_the_rename_reloads_the_new_image(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "shard.img"
        volume = journaled_volume("dcode", 5)
        engine = IncrementalCheckpointer(volume, path)
        rng = np.random.default_rng(33)
        write_random(volume, rng, 0, 2)
        engine.checkpoint()
        write_random(volume, rng, 10, 3)
        want = image(volume)
        replace = persistence.os.replace

        def crash(src, dst):
            replace(src, dst)
            raise SimulatedCrashError(0)

        monkeypatch.setattr(persistence.os, "replace", crash)
        with pytest.raises(SimulatedCrashError):
            engine.compact()
        assert image(load_volume(path)) == want
        assert [p.name for p in tmp_path.iterdir()] == ["shard.img"]


class TestLogRobustness:
    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = tmp_path / "shard.img"
        volume = journaled_volume("dcode", 5)
        engine = IncrementalCheckpointer(volume, path)
        rng = np.random.default_rng(37)
        write_random(volume, rng, 0, 2)
        engine.checkpoint()
        want = image(volume)
        good = path.read_bytes()
        write_random(volume, rng, 12, 2)
        engine.checkpoint()
        engine.close()
        blob = path.read_bytes()
        # a crash mid-append leaves the last record cut short anywhere:
        # in its frame, its header, its stripes or its last byte
        for cut in (1, 9, 40, len(blob) - len(good) - 1):
            path.write_bytes(blob[:len(good) + cut])
            reloaded = load_volume(path)
            assert image(reloaded) == want, cut
        # reopening drops the torn tail, and later appends replay
        engine = IncrementalCheckpointer(reloaded, path)
        assert delta_log_path(path) == path
        write_random(reloaded, rng, 20, 1)
        engine.checkpoint()
        want = image(reloaded)
        engine.close()
        assert image(load_volume(path)) == want

    def test_open_intents_round_trip_through_delta_log(self, tmp_path):
        # open ack intents must survive the appended records and come
        # back replayable
        from repro.journal.recovery import recover_on_mount

        from repro.array.cache import StripeCache

        path = tmp_path / "shard.img"
        volume = journaled_volume("dcode", 5)
        cache = StripeCache(volume, 2)
        engine = IncrementalCheckpointer(volume, path)
        rng = np.random.default_rng(41)
        data = rng.integers(0, 256, (2, 16), dtype=np.uint8)
        cache.write(0, data)              # acked but not destaged
        for stripe, items in cache.dirty_snapshot().items():
            volume.journal.open(stripe, items)
        write_random(volume, rng, 8, 1)   # dirty a stripe too
        engine.checkpoint()
        engine.close()

        reloaded = load_volume(path)
        intents = reloaded.journal.open_intents()
        assert len(intents) == 1
        report = recover_on_mount(reloaded)
        assert report is not None and report.replayed == 1
        got = reloaded.read(0, 2)
        np.testing.assert_array_equal(got, data)
