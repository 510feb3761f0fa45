"""Double-failure degraded reads in the access engine."""

import itertools

import numpy as np
import pytest

from repro.codes import Cell, DCode, EvenOdd, XCode, make_code
from repro.codec.decoder import (
    plan_chain_recovery,
    plan_slice,
)
from repro.codes.base import column_failure_cells
from repro.exceptions import DecodeError
from repro.iosim.engine import AccessEngine


class TestPlanSlice:
    @pytest.fixture
    def plan(self):
        layout = DCode(7)
        return layout, plan_chain_recovery(
            layout, column_failure_cells(layout, (2, 3))
        )

    def test_slice_of_everything_is_whole_plan(self, plan):
        layout, full = plan
        lost = [s.cell for s in full]
        steps, _ = plan_slice(full, lost)
        assert steps == list(full)

    def test_slice_of_one_cell_is_smaller(self, plan):
        layout, full = plan
        first_lost = full[0].cell
        steps, reads = plan_slice(full, [first_lost])
        assert len(steps) == 1
        assert len(reads) == len(full[0].reads)

    def test_slice_reads_exclude_rebuilt_intermediates(self, plan):
        layout, full = plan
        # the last rebuilt cell depends on earlier rebuilds: its slice
        # must not list those intermediates as disk reads
        last = full[-1].cell
        steps, reads = plan_slice(full, [last])
        rebuilt = {s.cell for s in steps}
        assert last in rebuilt
        assert not (set(reads) & rebuilt)

    def test_slice_respects_plan_order(self, plan):
        _, full = plan
        lost = [s.cell for s in full[:5]]
        steps, _ = plan_slice(full, lost)
        positions = [full.index(s) for s in steps]
        assert positions == sorted(positions)

    def test_unplanned_cell_rejected(self, plan):
        _, full = plan
        with pytest.raises(DecodeError):
            plan_slice(full, [Cell(0, 0)])  # survives — not in the plan


class TestEngineDoubleDegraded:
    def test_two_failed_disks_accepted(self):
        engine = AccessEngine(DCode(7), num_stripes=2, failed_disks=(1, 4))
        assert engine.failed_disks == (1, 4)
        assert engine.failed_disk is None

    def test_three_failures_rejected(self):
        with pytest.raises(ValueError):
            AccessEngine(DCode(7), failed_disks=(0, 1, 2))

    def test_failed_disk_and_disks_merge(self):
        engine = AccessEngine(DCode(7), failed_disk=0, failed_disks=(3,))
        assert engine.failed_disks == (0, 3)

    def test_never_reads_failed_disks(self):
        engine = AccessEngine(DCode(7), num_stripes=2, failed_disks=(2, 5))
        loads = engine.read_accesses(0, engine.address_space)
        assert loads.reads[2] == 0
        assert loads.reads[5] == 0

    def test_surviving_reads_unaffected(self):
        engine = AccessEngine(DCode(7), num_stripes=2, failed_disks=(5, 6))
        # row 0 elements on disks 0..4 survive
        loads = engine.read_accesses(0, 5)
        assert loads.cost == 5

    def test_double_costs_more_than_single_for_small_reads(self):
        layout = DCode(7)
        single = AccessEngine(layout, num_stripes=2, failed_disks=(2,))
        double = AccessEngine(layout, num_stripes=2, failed_disks=(2, 3))
        total_single = sum(
            single.read_accesses(s, 5).cost for s in range(0, 70, 5)
        )
        total_double = sum(
            double.read_accesses(s, 5).cost for s in range(0, 70, 5)
        )
        assert total_double > total_single

    def test_whole_stripe_read_fully_amortises_recovery(self):
        """Reading everything: recovery inputs coincide with the wanted
        set plus parities, so single and double modes converge."""
        layout = DCode(7)
        space = layout.num_data_cells * 2
        double = AccessEngine(layout, num_stripes=2, failed_disks=(2, 3))
        # cost equals data cells (wanted survivors + parity substitutes)
        assert double.read_accesses(0, space).cost == space

    def test_slice_cheaper_than_full_reconstruction(self):
        """Reading one lost element must not charge the whole plan."""
        layout = DCode(7)
        engine = AccessEngine(layout, num_stripes=2, failed_disks=(2, 3))
        one = engine.read_accesses(layout.data_index(Cell(0, 2)), 1)
        survivors = sum(
            len(layout.cells_in_column(c)) for c in range(7)
            if c not in (2, 3)
        )
        assert 0 < one.cost < survivors

    def test_evenodd_falls_back_to_full_read(self):
        layout = EvenOdd(5)
        engine = AccessEngine(layout, num_stripes=1, failed_disks=(0, 1))
        loads = engine.read_accesses(0, 1)  # D(0,0) is lost
        survivors = sum(
            len(layout.cells_in_column(c)) for c in range(layout.cols)
            if c not in (0, 1)
        )
        assert loads.cost == survivors

    @pytest.mark.parametrize("code", ("dcode", "xcode", "rdp", "hdp"))
    def test_all_pairs_serviceable(self, code):
        layout = make_code(code, 5)
        for pair in itertools.combinations(range(layout.cols), 2):
            engine = AccessEngine(layout, num_stripes=1,
                                  failed_disks=pair)
            loads = engine.read_accesses(0, layout.num_data_cells)
            assert loads.cost > 0
            assert loads.reads[pair[0]] == 0
            assert loads.reads[pair[1]] == 0

    def test_dcode_beats_xcode_doubly_degraded(self):
        """The paper's degraded-read advantage persists under doubles."""
        costs = {}
        for code in ("dcode", "xcode"):
            layout = make_code(code, 7)
            engine = AccessEngine(layout, num_stripes=2,
                                  failed_disks=(2, 3))
            costs[code] = sum(
                engine.read_accesses(s, 5).cost
                for s in range(0, layout.num_data_cells, 5)
            )
        assert costs["dcode"] < costs["xcode"]

    def test_degraded_write_drops_both_columns(self):
        layout = DCode(5)
        engine = AccessEngine(layout, num_stripes=1, failed_disks=(0, 4))
        for _, reads, writes in engine.write_io_sets(0, 6):
            assert all(c.col not in (0, 4) for c in reads | writes)

    @pytest.mark.parametrize("failed", ((2,), (0, 4)))
    def test_degraded_write_rebuilds_lost_dirty_cells(self, failed):
        """A write leaves the failed columns alone, but the old value of
        a dirty cell on one has to be rebuilt: the reads gain the fetch
        set of the dirty cells' degraded read."""
        layout = DCode(5)
        healthy = AccessEngine(layout, num_stripes=1)
        engine = AccessEngine(layout, num_stripes=1, failed_disks=failed)
        targets = list(layout.data_cells[1:7])  # dirty cells on 0, 2, 4
        (_, reads0, writes0), = healthy.write_io_sets(1, 6)
        (_, reads, writes), = engine.write_io_sets(1, 6)
        kept = {c for c in reads0 if c.col not in failed}
        fetch = engine._stripe_read_set(0, targets)
        assert reads == kept | fetch and fetch - kept
        assert writes == {c for c in writes0 if c.col not in failed}
        loads = engine.write_accesses(1, 6)
        assert loads.reads.sum() == len(reads)
        assert loads.writes.sum() == len(writes)

    def test_degraded_write_clear_of_the_failed_columns(self):
        layout = DCode(5)
        healthy = AccessEngine(layout, num_stripes=1)
        engine = AccessEngine(layout, num_stripes=1, failed_disks=(3,))
        (_, reads0, writes0), = healthy.write_io_sets(0, 3)  # cols 0..2
        (_, reads, writes), = engine.write_io_sets(0, 3)
        assert reads == {c for c in reads0 if c.col != 3}
        assert writes == {c for c in writes0 if c.col != 3}

    def test_degraded_write_needing_algebra_rewrites_the_stripe(self):
        """EVENODD's coupled diagonals: no chain rebuilds the lost old
        value, so the stripe is loaded, re-encoded and stored whole."""
        layout = EvenOdd(5)
        engine = AccessEngine(layout, num_stripes=1, failed_disks=(0, 1))
        (_, reads, writes), = engine.write_io_sets(0, 1)  # D(0,0) is lost
        survivors = {
            cell for col in range(2, layout.cols)
            for cell in layout.cells_in_column(col)
        }
        assert reads == writes == survivors

    def test_rotation_with_double_failure(self):
        layout = DCode(5)
        engine = AccessEngine(layout, num_stripes=3, failed_disks=(0, 2),
                              rotate=True)
        loads = engine.read_accesses(0, engine.address_space)
        assert loads.reads[0] == 0
        assert loads.reads[2] == 0
