"""ShardStateStore: ack-intent ledger discipline and crash-safe persist."""

import numpy as np
import pytest

from repro.serve.shard import ShardSpec
from repro.serve.state import ShardStateStore, build_shard_state


def durable_spec(tmp_path, **kw):
    return ShardSpec(
        code="dcode", p=5, num_stripes=8, element_size=32,
        durable=True, state_path=str(tmp_path / "shard.img"),
        cache_stripes=4, **kw,
    )


def wbytes(rng, count):
    return rng.integers(0, 256, (count, 32), dtype=np.uint8)


class TestLedgerDiscipline:
    def test_sync_keeps_one_intent_per_dirty_stripe(self, tmp_path):
        volume, cache, store, report = build_shard_state(
            durable_spec(tmp_path)
        )
        assert report is None
        rng = np.random.default_rng(3)
        cache.write(0, wbytes(rng, 2))
        store.sync()
        journal = volume.journal
        assert len(journal.open_intents()) == 1
        # another write to the same stripe refreshes, never stacks
        cache.write(1, wbytes(rng, 1))
        store.sync()
        assert len(journal.open_intents()) == 1

    def test_destaged_stripe_commits_its_intent(self, tmp_path):
        volume, cache, store, _ = build_shard_state(
            durable_spec(tmp_path)
        )
        rng = np.random.default_rng(5)
        cache.write(0, wbytes(rng, 2))
        store.sync()
        cache.flush()   # stripe destaged → its redo image is in the disks
        store.sync()
        assert len(volume.journal.open_intents()) == 0

    def test_checkpoint_requires_journal(self, tmp_path):
        spec = ShardSpec(
            code="dcode", p=5, num_stripes=8, element_size=32,
        )
        volume, cache = spec.build()
        with pytest.raises(ValueError, match="journaled"):
            ShardStateStore(tmp_path / "s.img", volume, cache)


class TestCrashSafePersist:
    def test_reload_replays_acked_undestaged_writes(self, tmp_path):
        spec = durable_spec(tmp_path)
        volume, cache, store, _ = build_shard_state(spec)
        rng = np.random.default_rng(9)
        data = wbytes(rng, 4)
        cache.write(2, data)
        store.checkpoint()   # acked: in the ledger, NOT yet destaged
        assert len(volume.journal.open_intents()) > 0

        # a fresh build from the same path models the restarted worker:
        # snapshot + mount-time replay of the open ack intents
        volume2, cache2, store2, report = build_shard_state(spec)
        assert report is not None and report.replayed >= 1
        got = volume2.read(2, 4)
        np.testing.assert_array_equal(got, data)

    def test_fresh_boot_seeds_snapshot(self, tmp_path):
        spec = durable_spec(tmp_path)
        build_shard_state(spec)
        assert (tmp_path / "shard.img").exists()

    def test_persist_leaves_no_temp_droppings(self, tmp_path):
        spec = durable_spec(tmp_path)
        _, cache, store, _ = build_shard_state(spec)
        cache.write(0, wbytes(np.random.default_rng(1), 2))
        store.checkpoint()
        leftovers = [
            p.name for p in tmp_path.iterdir()
            if p.name != "shard.img"
        ]
        assert leftovers == []

    def test_checkpoint_appends_deltas_not_full_snapshots(self, tmp_path):
        spec = durable_spec(tmp_path)
        _, cache, store, _ = build_shard_state(spec)
        state = tmp_path / "shard.img"
        inode, full = state.stat().st_ino, state.stat().st_size
        rng = np.random.default_rng(11)
        for k in range(4):
            cache.write(k, wbytes(rng, 1))
            size = state.stat().st_size
            store.checkpoint()
            # one record appended in place, smaller than the full image
            assert 0 < state.stat().st_size - size < full
        assert store.deltas == 4
        assert store.compactions == 0
        assert state.stat().st_ino == inode

    def test_compaction_rewrites_base_and_truncates_log(self, tmp_path):
        spec = durable_spec(tmp_path)
        volume, cache, store, _ = build_shard_state(spec)
        rng = np.random.default_rng(13)
        data = wbytes(rng, 8)
        state = tmp_path / "shard.img"
        cache.write(0, data)
        store.checkpoint()
        appended = state.stat().st_size
        store.compact()
        assert store.compactions == 1
        # one full record (now carrying the open ack intent), no appends
        assert state.stat().st_size < appended
        volume2, _, _, _ = build_shard_state(spec)
        np.testing.assert_array_equal(volume2.read(0, 8), data)
