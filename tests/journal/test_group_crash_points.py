"""Group-boundary crash points: tearing a coalesced burst at its edges.

The ``burst`` pattern flushes three partial-stripe RMWs through the
write-back cache as one ``_write_rest`` call, which journals them as a
single group-committed append.  The campaign then tears the write at
the first/middle/last occurrence of every journal phase — i.e. at the
group's staging, seal, and commit boundaries — remounts, recovers, and
checks the byte-exact shadow oracle: every member stripe must come back
fully-old or fully-new, never mixed, for every registry code at both
small primes.
"""

from repro.faults import CRASH_PATTERNS, run_crash_points
from repro.journal import JOURNAL_PHASES


def assert_green(results):
    assert results, "campaign produced no trials"
    bad = [r for r in results if not r.ok]
    assert not bad, f"group-commit atomicity violations: {bad}"


class TestBurstPattern:
    def test_burst_is_a_registered_pattern(self):
        assert "burst" in CRASH_PATTERNS

    def test_every_code_every_prime(self, any_code_name, small_prime):
        results = run_crash_points(
            code=any_code_name,
            p=small_prime,
            seed=3,
            patterns=("burst",),
        )
        assert_green(results)
        assert {r.pattern for r in results} == {"burst"}
        # the sweep reaches every journal phase, so the group's staging
        # (pre_intent), seal (post_intent) and commit (pre_commit)
        # boundaries all get torn at first/middle/last occurrence
        assert {r.phase for r in results} == set(JOURNAL_PHASES)
        assert any(r.crashed for r in results)

    def test_group_boundary_occurrences_covered(self):
        results = run_crash_points(
            code="dcode", p=7, seed=3, patterns=("burst",)
        )
        assert_green(results)
        by_phase = {}
        for r in results:
            by_phase.setdefault(r.phase, set()).add(r.occurrence)
        # one pre_intent/post_intent/pre_commit per group member: the
        # first/middle/last sweep must hit all three member positions
        for phase in ("pre_intent", "post_intent", "pre_commit"):
            assert by_phase[phase] == {1, 2, 3}, phase

    def test_seal_is_all_or_nothing(self):
        results = run_crash_points(
            code="dcode", p=7, seed=3, patterns=("burst",)
        )
        assert_green(results)
        for r in results:
            if not r.crashed:
                continue
            if r.phase == "pre_intent":
                # torn during staging: the single-lock seal never ran,
                # so no member may be open
                assert r.open_at_crash == 0, r
            elif r.phase in ("post_intent", "pre_commit"):
                # torn after the seal (or during commit): the whole
                # group is open — never a partial registration
                assert r.open_at_crash == 3, r

    def test_deterministic(self):
        a = run_crash_points(code="rdp", p=5, seed=11, patterns=("burst",))
        b = run_crash_points(code="rdp", p=5, seed=11, patterns=("burst",))
        assert a == b


class TestFullMatrixStillCoversBurst:
    def test_default_pattern_set_includes_burst(self):
        results = run_crash_points(code="xcode", p=5, seed=3)
        assert_green(results)
        assert {r.pattern for r in results} == set(CRASH_PATTERNS)
