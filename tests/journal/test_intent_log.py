"""WriteIntentLog unit tests: lifecycle, threading, hooks, restore."""

import threading

import numpy as np
import pytest

from repro.codes.base import Cell
from repro.exceptions import SimulatedCrashError
from repro.journal import JOURNAL_PHASES, WriteIntent, WriteIntentLog


def _items(n=2, size=8):
    rng = np.random.default_rng(7)
    return [
        (Cell(0, k), rng.integers(0, 256, size, dtype=np.uint8))
        for k in range(n)
    ]


class TestLifecycle:
    def test_open_then_commit(self):
        log = WriteIntentLog()
        intent = log.open(3, _items())
        assert log.dirty
        assert [i.seq for i in log.open_intents()] == [intent.seq]
        log.commit(intent)
        assert not log.dirty
        assert intent.committed
        assert log.stats.opened == 1
        assert log.stats.committed == 1
        assert log.stats.in_flight == 0

    def test_sequence_numbers_monotonic(self):
        log = WriteIntentLog()
        seqs = [log.open(s, _items()).seq for s in range(5)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_commit_is_idempotent(self):
        log = WriteIntentLog()
        intent = log.open(0, _items())
        log.commit(intent)
        log.commit(intent)
        assert log.stats.committed == 1

    def test_payload_copied_by_default(self):
        log = WriteIntentLog()
        items = _items(1)
        intent = log.open(0, items)
        items[0][1][:] = 0
        assert intent.payload()[Cell(0, 0)].any()

    def test_copy_false_shares_buffer(self):
        log = WriteIntentLog()
        items = _items(1)
        intent = log.open(0, items, copy=False)
        assert intent.payload()[Cell(0, 0)] is items[0][1]

    def test_copied_payload_coalesces_into_one_buffer(self):
        # the redo image is one preallocated NVRAM block, not one
        # allocation per cell — every payload row views the same base
        log = WriteIntentLog()
        items = _items(4)
        intent = log.open(0, items)
        bases = {id(v.base) for _, v in intent.cells}
        assert len(bases) == 1
        assert intent.cells[0][1].base is not None
        for (cell, got), (_, want) in zip(intent.cells, items):
            assert np.array_equal(got, want), cell

    def test_open_requires_cells(self):
        with pytest.raises(Exception):
            WriteIntentLog().open(0, [])

    def test_open_full_lazy_payload(self):
        log = WriteIntentLog()
        # the redo image is the write's payload: row i belongs to cells[i]
        buf = np.arange(2 * 4, dtype=np.uint8).reshape(2, 4)
        cells = (Cell(0, 1), Cell(1, 2))
        intent = log.open_full(5, buf, cells)
        assert intent.dirty_cells == cells
        payload = intent.payload()
        assert np.array_equal(payload[Cell(0, 1)], buf[0])
        assert np.array_equal(payload[Cell(1, 2)], buf[1])
        assert np.shares_memory(payload[Cell(1, 2)], buf)  # held, not copied


class TestPhaseHook:
    def test_phases_announced_in_order(self):
        seen = []
        log = WriteIntentLog(phase_hook=lambda ph, s: seen.append(ph))
        intent = log.open(0, _items())
        log.checkpoint("inter_column", 0)
        log.commit(intent)
        assert seen == ["pre_intent", "post_intent", "inter_column",
                        "pre_commit"]
        assert set(seen) == set(JOURNAL_PHASES)

    def test_unknown_phase_rejected(self):
        log = WriteIntentLog(phase_hook=lambda ph, s: None)
        with pytest.raises(Exception):
            log.checkpoint("mid_flight", 0)

    def test_no_hook_skips_validation(self):
        # the hot path never pays for phase-name validation
        WriteIntentLog().checkpoint("anything_goes", 0)

    def test_crash_in_pre_intent_leaves_log_clean(self):
        def hook(phase, stripe):
            if phase == "pre_intent":
                raise SimulatedCrashError(0)

        log = WriteIntentLog(phase_hook=hook)
        with pytest.raises(SimulatedCrashError):
            log.open(0, _items())
        assert not log.dirty

    def test_crash_in_pre_commit_keeps_intent_open(self):
        log = WriteIntentLog()
        intent = log.open(0, _items())

        def hook(phase, stripe):
            if phase == "pre_commit":
                raise SimulatedCrashError(0)

        log.phase_hook = hook
        with pytest.raises(SimulatedCrashError):
            log.commit(intent)
        assert log.dirty
        assert not intent.committed


class TestConcurrency:
    def test_parallel_opens_unique_seqs(self):
        log = WriteIntentLog()
        out = []
        lock = threading.Lock()

        def worker(stripe):
            intent = log.open(stripe, _items())
            with lock:
                out.append(intent.seq)
            log.commit(intent)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(out)) == 16
        assert not log.dirty


class TestRestore:
    def test_restore_replaces_state(self):
        log = WriteIntentLog()
        log.open(0, _items())
        replacement = WriteIntent(7, 2, tuple(_items()))
        log.restore([replacement], next_seq=9)
        assert [i.seq for i in log.open_intents()] == [7]
        assert log.next_seq == 9

    def test_restore_bumps_next_seq_past_intents(self):
        log = WriteIntentLog()
        log.restore([WriteIntent(11, 0, tuple(_items()))], next_seq=3)
        assert log.next_seq == 12

    def test_restore_rejects_committed(self):
        done = WriteIntent(0, 0, tuple(_items()), committed=True)
        with pytest.raises(Exception):
            WriteIntentLog().restore([done], next_seq=1)
