"""Planned degraded reads, held to the differential oracle.

Degraded reads (``repro.array.ioplan.read_route``, walked in numpy by
``ioplan._route_walk``; docs/performance.md "Planned I/O") execute the
access engine's :class:`~repro.iosim.engine.StripeReadPlan` per stripe,
so the disk traffic they account is the model's by construction.  These
tests drive them through :class:`~tests.oracles.diff.Mirror` — the C
kernel, the vector branch, the per-element branch and the reference
walk, byte-exact and per-disk counter-identical — across single and
double failures, rebuild-cursor stale boundaries, rotation, latent
sectors and algebraic patterns; and pin what the mirror does not see:
the access engine cached per failure state, and the minimal fetch.
"""

import numpy as np
import pytest

from repro.array import ioplan
from repro.array.volume import RAID6Volume
from repro.codes.registry import make_code

from tests.conftest import ALL_ARRAY_CODES, SMALL_PRIMES
from tests.oracles.diff import Mirror

ES = 32
STRIPES = 12


def _mirror(code_name, p, failed=(), **kwargs):
    mirror = Mirror(make_code(code_name, p), stripes=STRIPES, es=ES,
                    **kwargs)
    mirror.write(0, np.random.default_rng(7).integers(
        0, 256, (mirror.kernel.num_elements, ES), dtype=np.uint8
    ))
    for disk in failed:
        mirror.fail_disk(disk)
    return mirror


def _volume(code_name, p):
    vol = RAID6Volume(
        make_code(code_name, p), num_stripes=STRIPES, element_size=ES
    )
    vol.write(0, np.random.default_rng(1).integers(
        0, 256, (vol.num_elements, ES), dtype=np.uint8
    ))
    return vol


class TestBatchedScalarEquivalence:
    """Every registry code, both small primes, single + double failure."""

    @pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    @pytest.mark.parametrize("failure", ("single", "double"))
    def test_bytes_and_counters_identical(self, code_name, p, failure):
        cols = make_code(code_name, p).cols
        mirror = _mirror(
            code_name, p, (1,) if failure == "single" else (1, cols - 1)
        )
        # unaligned range: head/tail partial stripes beside the vector
        # of whole ones
        mirror.read(3, mirror.kernel.num_elements - 5)

    def test_full_aligned_range(self):
        mirror = _mirror("dcode", 7, (2,))
        mirror.read(0, mirror.kernel.num_elements)

    def test_healthy_stripes_mixed_with_degraded(self):
        """Rebuild-covered stripes (no stale disks) and uncovered ones
        land in different plan groups of the same read."""
        mirror = _mirror("dcode", 5, (1,))
        mirror.start_rebuild(1, batch=2)
        # cover the first 4 stripes; the rest stay degraded
        mirror.step()
        mirror.step()
        assert mirror.cursors[0].covers(3) and not mirror.cursors[0].covers(4)
        mirror.read(0, mirror.kernel.num_elements)


class TestFallbacks:
    def test_rotation_disables_tensor_path(self):
        """Under rotation every stripe has its own stale column, so no
        two stripes share a plan — each executes alone."""
        mirror = _mirror("dcode", 5, (1,), rotate=True)
        mirror.read(0, mirror.kernel.num_elements)

    def test_latent_sector_disables_tensor_path(self):
        """A latent sector sends the plans touching its disk element by
        element; both branches decode around it and heal it alike."""
        mirror = _mirror("dcode", 5, (1,))
        image = mirror.read(0, mirror.kernel.num_elements)
        layout = mirror.layout
        loc = mirror.kernel.mapper.locate_cell(
            2, layout.cells_in_column(3)[0]
        )
        mirror.mark_bad(loc.disk, loc.offset)
        assert np.array_equal(
            mirror.read(0, mirror.kernel.num_elements), image
        )
        for volume in mirror.volumes:
            assert not any(d.bad_sectors for d in volume.disks)

    def test_gauss_pattern_falls_back_per_stripe(self):
        """EVENODD double failures need algebraic decoding — the plan's
        recipe is None and the stripe plan decodes the stripes."""
        mirror = _mirror("evenodd", 5, (0, 1))
        mirror.read(0, mirror.kernel.num_elements)

    def test_single_stripe_read_skips_batching(self):
        """One degraded stripe is a batch of one: the same plan, the
        same minimal fetch."""
        mirror = _mirror("dcode", 7, (1,))
        per = mirror.layout.num_data_cells
        mirror.read(per * 3, per)


class TestPlannerCache:
    def test_planner_reused_per_failure_pattern(self):
        """One access engine per tuple of stale disks, cached beside the
        plans: a second pattern on the same failure state reuses it, a
        new failure state gets its own."""
        vol = _volume("dcode", 5)
        vol.fail_disk(1)
        lost = next(c for c in vol.layout.data_cells if c.col == 1)
        ioplan._engine_of(vol, 0)._plan_stripe_read(0, [lost])
        engine = vol._ioplans._plans[("engine", (1,))]
        ioplan._engine_of(vol, 3)._plan_stripe_read(
            3, [lost, vol.layout.data_cells[0]]
        )
        assert vol._ioplans._plans[("engine", (1,))] is engine
        vol.fail_disk(3)
        ioplan._engine_of(vol, 0)._plan_stripe_read(0, [lost])
        assert vol._ioplans._plans[("engine", (1, 3))] is not engine

    def test_degraded_reads_count_minimal_fetch(self):
        """The batched path must not read more than plan.fetch per
        stripe: total reads stay below full-stripe reconstruction."""
        vol = _volume("dcode", 7)
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
