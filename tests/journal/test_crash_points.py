"""Crash-point matrix: every registry code, both primes.

Each campaign tears writes at every journal phase (first/middle/last
occurrence, per write pattern), remounts, recovers, and verifies the
fully-old/fully-new contract against a shadow oracle — a trial with
``violations > 0`` means the write hole is open.
"""

import pytest

from repro.faults import CRASH_PATTERNS, run_crash_points
from repro.journal import JOURNAL_PHASES


def assert_green(results):
    assert results, "campaign produced no trials"
    bad = [r for r in results if not r.ok]
    assert not bad, f"atomicity violations: {bad}"


class TestMatrix:
    def test_every_code_every_prime(self, any_code_name, small_prime):
        results = run_crash_points(
            code=any_code_name, p=small_prime, seed=101
        )
        assert_green(results)
        # the sweep must actually reach every phase and pattern
        assert {r.phase for r in results} == set(JOURNAL_PHASES)
        assert {r.pattern for r in results} == set(CRASH_PATTERNS)
        # crashes really fired and recovery really replayed something
        assert any(r.crashed for r in results)
        assert any(r.replayed > 0 for r in results)


class TestDegradedWrites:
    """The sweep with disks down: partial stripes are RMWs that patch
    the surviving parities and leave the failed columns alone."""

    @pytest.mark.parametrize("code", ("dcode", "rdp", "xcode"))
    @pytest.mark.parametrize("failed", ((1,), (0, 2)))
    def test_rolled_forward_or_refused_never_garbage(self, code, failed):
        results = run_crash_points(code=code, p=5, seed=101, failed=failed)
        # old/new per stripe through degraded reads, again after the
        # rebuild, then a clean scrub
        assert_green(results)
        assert {r.phase for r in results} == set(JOURNAL_PHASES)
        assert {r.pattern for r in results} == set(CRASH_PATTERNS)
        for r in results:
            if r.refused:  # typed, and only for an intent the crash left
                assert r.crashed and r.open_at_crash
                assert r.phase != "pre_intent"
        # not vacuous either way: open intents were rolled forward too
        assert any(r.refused for r in results)
        assert any(
            r.open_at_crash and r.replayed and not r.refused
            for r in results
        )


class TestDeterminism:
    def test_same_seed_same_trials(self):
        a = run_crash_points(code="dcode", p=5, seed=42)
        b = run_crash_points(code="dcode", p=5, seed=42)
        assert a == b  # dataclass equality: every field, every trial

    def test_different_seed_changes_payloads_not_greenness(self):
        a = run_crash_points(code="dcode", p=5, seed=1)
        b = run_crash_points(code="dcode", p=5, seed=2)
        assert_green(a)
        assert_green(b)
        assert len(a) == len(b)  # trial grid depends on geometry, not seed


class TestTruthfulAccounting:
    def test_recovery_io_only_when_work_was_done(self):
        results = run_crash_points(code="dcode", p=5, seed=101)
        for r in results:
            # replay writes whole stripes; commit-only recovery reads but
            # never writes
            if r.replayed == 0:
                assert r.recovery_writes == 0
            else:
                assert r.recovery_writes > 0
                assert r.recovery_reads > 0
            # every open intent was classified exactly once
            assert sum(r.classifications.values()) >= r.open_at_crash

    def test_uncrashed_occurrences_leave_nothing_open(self):
        results = run_crash_points(code="dcode", p=5, seed=101)
        for r in results:
            if not r.crashed:
                assert r.open_at_crash == 0
