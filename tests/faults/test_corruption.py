"""Seeded silent-corruption campaigns: flips healed, overloads typed.

The acceptance bar of the silent-corruption defense: every registry
code at p in {5, 7} survives seeded campaigns of at-rest rot,
op-triggered flips, verified reads and scrub sweeps with byte-exact
repair against a shadow oracle whenever corruption stays within two
columns per stripe, and only *typed* errors beyond that.
"""

import pytest

from repro.faults import run_corruption_campaign

from tests.conftest import ALL_ARRAY_CODES

SEEDS = range(3)


@pytest.mark.parametrize("code", ALL_ARRAY_CODES)
@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("seed", SEEDS)
def test_campaign_has_no_integrity_violations(code, p, seed):
    result = run_corruption_campaign(code, p, seed=seed)
    assert result.ok, (
        f"{code} p={p} seed={seed}: "
        f"{result.integrity_violations} violations, "
        f"events={result.events}"
    )
    assert result.flips > 0
    assert result.verifications > 0


def test_same_seed_replays_identically():
    a = run_corruption_campaign("dcode", 7, seed=4)
    b = run_corruption_campaign("dcode", 7, seed=4)
    assert a.events == b.events
    assert (a.flips, a.read_heals, a.scrub_repairs, a.overloads) == \
        (b.flips, b.read_heals, b.scrub_repairs, b.overloads)


def test_different_seeds_diverge():
    a = run_corruption_campaign("dcode", 7, seed=4)
    b = run_corruption_campaign("dcode", 7, seed=5)
    assert a.events != b.events


def test_campaigns_exercise_every_defense_layer():
    """Across a handful of seeds the schedule must hit every mechanism:
    read-path heals, scrub-campaign repairs, typed overloads."""
    read_heals = scrub_repairs = overloads = 0
    for seed in range(6):
        r = run_corruption_campaign("dcode", 7, seed=seed, rounds=30)
        assert r.ok
        read_heals += r.read_heals
        scrub_repairs += r.scrub_repairs
        overloads += r.overloads
    assert read_heals > 0
    assert scrub_repairs > 0
    assert overloads > 0
