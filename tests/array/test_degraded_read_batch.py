"""Planned degraded reads: equivalence with the per-stripe plan walk.

The planned degraded-read path (``repro.array.ioplan.read_runs``,
docs/performance.md "Planned short-op I/O") must be byte-exact AND
per-disk counter-identical to the per-stripe reconstruction walk for
every registry code — both execute the same
:class:`~repro.iosim.engine.StripeReadPlan` per stripe, so the disk
traffic they account is the same by construction.  These tests pin that
equivalence across single and double failures, rebuild-cursor stale
boundaries, rotation, and the walk's own triggers (latent sectors,
algebraic patterns).
"""

import numpy as np
import pytest

from repro.array.volume import RAID6Volume
from repro.codes.registry import make_code

from tests.conftest import ALL_ARRAY_CODES, SMALL_PRIMES

ES = 32
STRIPES = 12


def _make_volume(code_name, p, scalar=False, rotate=False):
    vol = RAID6Volume(
        make_code(code_name, p), num_stripes=STRIPES,
        element_size=ES, rotate=rotate,
    )
    if scalar:
        # a fault hook — even one that does nothing — makes every
        # stripe take the per-element walk: the reference semantics
        for disk in vol.disks:
            disk.fault_hook = lambda disk, op, offset: None
    return vol


def _fill(vol, seed):
    rng = np.random.default_rng(seed)
    payload = rng.integers(
        0, 256, (vol.num_elements, ES), dtype=np.uint8
    )
    vol.write(0, payload)
    return payload


def _assert_same_read(ref, fast, start, count):
    ref.reset_io_counters()
    fast.reset_io_counters()
    a = ref.read(start, count)
    b = fast.read(start, count)
    assert np.array_equal(a, b)
    assert ref.io_counters() == fast.io_counters()


class TestBatchedScalarEquivalence:
    """Every registry code, both small primes, single + double failure."""

    @pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @pytest.mark.parametrize("failure", ("single", "double"))
    def test_bytes_and_counters_identical(self, code_name, p, failure):
        ref = _make_volume(code_name, p, scalar=True)
        fast = _make_volume(code_name, p)
        seed = sum(map(ord, code_name)) * 100 + p
        payload = _fill(ref, seed)
        _fill(fast, seed)
        failed = [1] if failure == "single" else [1, ref.layout.cols - 1]
        for vol in (ref, fast):
            for disk in failed:
                vol.fail_disk(disk)
        # unaligned range: head/tail partial stripes exercise the
        # small-group remainder path alongside the tensor groups
        start, count = 3, ref.num_elements - 5
        _assert_same_read(ref, fast, start, count)
        assert np.array_equal(
            fast.read(start, count), payload[start:start + count]
        )

    def test_full_aligned_range(self):
        ref = _make_volume("dcode", 7, scalar=True)
        fast = _make_volume("dcode", 7)
        _fill(ref, 5)
        _fill(fast, 5)
        for vol in (ref, fast):
            vol.fail_disk(2)
        _assert_same_read(ref, fast, 0, ref.num_elements)

    def test_healthy_stripes_mixed_with_degraded(self):
        """Rebuild-covered stripes (no stale disks) and uncovered ones
        land in different plan groups of the same read."""
        ref = _make_volume("dcode", 5, scalar=True)
        fast = _make_volume("dcode", 5)
        _fill(ref, 9)
        _fill(fast, 9)
        for vol in (ref, fast):
            vol.fail_disk(1)
            cursor = vol.start_rebuild(1, batch=2)
            # cover the first 4 stripes; the rest stay degraded
            cursor.step()
            cursor.step()
            assert cursor.covers(3) and not cursor.covers(4)
        _assert_same_read(ref, fast, 0, ref.num_elements)


class TestFallbacks:
    def test_rotation_disables_tensor_path(self):
        """Under rotation every stripe has its own stale column, so no
        two stripes share a plan — each executes alone, still matching
        the walk."""
        ref = _make_volume("dcode", 5, scalar=True, rotate=True)
        vol = _make_volume("dcode", 5, rotate=True)
        payload = _fill(vol, 3)
        _fill(ref, 3)
        vol.fail_disk(1)
        ref.fail_disk(1)
        _assert_same_read(ref, vol, 0, vol.num_elements)
        assert np.array_equal(vol.read(0, vol.num_elements), payload)

    def test_latent_sector_disables_tensor_path(self):
        ref = _make_volume("dcode", 5, scalar=True)
        fast = _make_volume("dcode", 5)
        payload = _fill(ref, 4)
        _fill(fast, 4)
        for vol in (ref, fast):
            vol.fail_disk(1)
            vol.inject_latent_error(disk=3, stripe=2, row=0)
            assert not vol._surface().quiet_io
        # both volumes heal the bad sector through the per-stripe
        # self-healing walk — same bytes, same counters
        _assert_same_read(ref, fast, 0, ref.num_elements)
        assert np.array_equal(
            fast.read(0, fast.num_elements), payload
        )

    def test_gauss_pattern_falls_back_per_stripe(self):
        """EVENODD double failures need algebraic decoding — the plan's
        recipe is None and the executor hands the stripes back."""
        ref = _make_volume("evenodd", 5, scalar=True)
        fast = _make_volume("evenodd", 5)
        _fill(ref, 6)
        _fill(fast, 6)
        for vol in (ref, fast):
            vol.fail_disk(0)
            vol.fail_disk(1)
        _assert_same_read(ref, fast, 0, ref.num_elements)

    def test_single_stripe_read_skips_batching(self):
        """One degraded stripe is a batch of one: the same plan, the
        same minimal fetch."""
        ref = _make_volume("dcode", 7, scalar=True)
        fast = _make_volume("dcode", 7)
        _fill(ref, 8)
        _fill(fast, 8)
        for vol in (ref, fast):
            vol.fail_disk(1)
        per = ref.layout.num_data_cells
        _assert_same_read(ref, fast, per * 3, per)


class TestPlannerCache:
    def test_planner_reused_per_failure_pattern(self):
        vol = _make_volume("dcode", 5)
        _fill(vol, 2)
        vol.fail_disk(1)
        p1 = vol._read_planner(vol.failed_disks)
        p2 = vol._read_planner(vol.failed_disks)
        assert p1 is p2
        assert vol._read_planner(()) is not p1

    def test_degraded_reads_count_minimal_fetch(self):
        """The batched path must not read more than plan.fetch per
        stripe: total reads stay below full-stripe reconstruction."""
        vol = _make_volume("dcode", 7)
        _fill(vol, 1)
        vol.fail_disk(1)
        vol.reset_io_counters()
        vol.read(0, vol.num_elements)
        reads = sum(r for r, _ in vol.io_counters().values())
        survivors = vol.layout.cols - 1
        cells_per_col = len(vol.layout.cells_in_column(0))
        full_reconstruction = (
            STRIPES * survivors * cells_per_col
        )
        assert reads < full_reconstruction
