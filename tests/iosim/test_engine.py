"""AccessEngine tests: the element-exact accounting behind Figures 4/5."""

import numpy as np
import pytest

from repro.codes import Cell, DCode, RDP, XCode, make_code
from repro.iosim.engine import AccessEngine, DiskLoads
from repro.iosim.request import ReadOp, WriteOp
from repro.iosim.workloads import read_only_workload


class TestNormalReads:
    def test_read_touches_exactly_the_addressed_cells(self):
        engine = AccessEngine(DCode(7), num_stripes=2)
        loads = engine.read_accesses(0, 7)
        # first 7 logical elements of D-Code(7) = row 0, one per disk
        assert list(loads.reads) == [1] * 7
        assert not loads.writes.any()

    def test_read_cost_equals_length(self, small_layout):
        engine = AccessEngine(small_layout, num_stripes=4)
        for length in (1, 5, 17):
            assert engine.read_accesses(3, length).cost == length

    def test_parity_disks_idle_on_rdp_reads(self):
        layout = RDP(7)
        engine = AccessEngine(layout, num_stripes=4)
        loads = engine.read_accesses(0, 30)
        assert loads.reads[layout.row_parity_disk] == 0
        assert loads.reads[layout.diagonal_parity_disk] == 0

    def test_wraparound_addressing(self, small_layout):
        engine = AccessEngine(small_layout, num_stripes=2)
        space = engine.address_space
        a = engine.read_accesses(space - 1, 2)
        assert a.cost == 2  # wraps to element 0 instead of failing

    def test_locate_consistent_with_layout_order(self):
        layout = DCode(5)
        engine = AccessEngine(layout, num_stripes=3)
        stripe, cell = engine.locate(layout.num_data_cells + 1)
        assert stripe == 1
        assert cell == layout.data_cell(1)


class TestDegradedReads:
    def test_surviving_cells_read_directly(self):
        layout = DCode(7)
        engine = AccessEngine(layout, num_stripes=2, failed_disk=6)
        loads = engine.read_accesses(0, 3)  # row 0, disks 0..2 — unaffected
        assert loads.cost == 3

    def test_lost_cell_costs_recovery_reads(self):
        layout = DCode(7)
        engine = AccessEngine(layout, num_stripes=2, failed_disk=0)
        loads = engine.read_accesses(0, 1)  # exactly the lost cell D0,0
        # a whole parity group minus the lost cell must be fetched
        assert loads.cost == 7 - 2  # group of n-2=5 members + parity - lost
        assert loads.reads[0] == 0

    def test_dcode_contiguous_degraded_read_is_cheap(self):
        """The Figure-1 point: the run shares its horizontal group."""
        layout = DCode(7)
        engine = AccessEngine(layout, num_stripes=2, failed_disk=2)
        # read the full first horizontal group run (elements 0..4)
        loads = engine.read_accesses(0, 5)
        # D0,2 is lost; its horizontal group is exactly the run + parity
        assert loads.cost == 5  # 4 surviving + 1 parity — zero waste

    def test_xcode_contiguous_degraded_read_is_expensive(self):
        layout = XCode(7)
        engine = AccessEngine(layout, num_stripes=2, failed_disk=2)
        loads = engine.read_accesses(0, 5)
        # the lost cell's diagonal groups barely overlap the run
        assert loads.cost > 5

    def test_never_reads_failed_disk(self, small_layout):
        engine = AccessEngine(small_layout, num_stripes=2, failed_disk=1)
        for start in range(0, engine.address_space, 7):
            loads = engine.read_accesses(start, 6)
            assert loads.reads[1] == 0

    def test_all_failure_cases_recoverable(self, small_layout):
        for failed in range(small_layout.cols):
            engine = AccessEngine(
                small_layout, num_stripes=2, failed_disk=failed
            )
            loads = engine.read_accesses(0, small_layout.num_data_cells)
            assert loads.cost >= small_layout.num_data_cells - len(
                small_layout.cells_in_column(failed)
            )


class TestWrites:
    def test_rmw_accounting_single_element(self):
        layout = DCode(7)
        engine = AccessEngine(layout, num_stripes=2)
        loads = engine.write_accesses(0, 1)
        # element + its two parities: each read once and written once
        assert loads.reads.sum() == 3
        assert loads.writes.sum() == 3

    def test_rdp_update_cascade_counted(self):
        layout = RDP(7)
        engine = AccessEngine(layout, num_stripes=2)
        loads = engine.write_accesses(0, 1)
        # data + row parity + up to two diagonal parities
        assert loads.reads.sum() in (3, 4)
        assert loads.writes.sum() == loads.reads.sum()

    def test_full_stripe_write_skips_old_reads(self, small_layout):
        engine = AccessEngine(small_layout, num_stripes=2)
        loads = engine.write_accesses(0, small_layout.num_data_cells)
        assert loads.reads.sum() == 0
        assert loads.writes.sum() == (
            small_layout.num_data_cells + small_layout.num_parity_cells
        )

    def test_contiguous_write_cheaper_on_dcode_than_xcode(self):
        """The Figure-1(b)/(d) contrast, quantified."""
        d_engine = AccessEngine(DCode(7), num_stripes=2)
        x_engine = AccessEngine(XCode(7), num_stripes=2)
        d_cost = d_engine.write_accesses(0, 5).cost
        x_cost = x_engine.write_accesses(0, 5).cost
        assert d_cost < x_cost

    def test_writes_touch_both_parities_of_each_element(self):
        layout = DCode(5)
        engine = AccessEngine(layout, num_stripes=2)
        cell = layout.data_cell(0)
        _, writes = engine._stripe_write_sets([cell])
        assert len(writes - {cell}) == 2


class TestOperationsAndWorkloads:
    def test_times_multiplies_counts(self, small_layout):
        engine = AccessEngine(small_layout, num_stripes=2)
        once = DiskLoads.zeros(small_layout.cols)
        engine.apply(ReadOp(0, 4, 1), once)
        many = DiskLoads.zeros(small_layout.cols)
        engine.apply(ReadOp(0, 4, 9), many)
        assert np.array_equal(many.reads, once.reads * 9)

    def test_write_op_routed(self, small_layout):
        engine = AccessEngine(small_layout, num_stripes=2)
        loads = DiskLoads.zeros(small_layout.cols)
        engine.apply(WriteOp(0, 2, 2), loads)
        assert loads.writes.sum() > 0

    def test_run_accumulates(self, small_layout, rng):
        engine = AccessEngine(small_layout, num_stripes=4)
        wl = read_only_workload(engine.address_space, rng, num_ops=20)
        loads = engine.run(wl)
        assert loads.cost == sum(op.length * op.times for op in wl)


class TestRotation:
    def test_rotation_spreads_rdp_parity_load(self, rng):
        layout = RDP(5)
        wl_space = layout.num_data_cells * 10
        flat = AccessEngine(layout, num_stripes=10, rotate=False)
        spun = AccessEngine(layout, num_stripes=10, rotate=True)
        wl = read_only_workload(wl_space, np.random.default_rng(5),
                                num_ops=200)
        flat_loads = flat.run(wl)
        spun_loads = spun.run(wl)
        # unrotated RDP: parity disks see nothing; rotated: everyone works
        assert flat_loads.total.min() == 0
        assert spun_loads.total.min() > 0

    def test_failed_disk_maps_through_rotation(self):
        layout = DCode(5)
        engine = AccessEngine(
            layout, num_stripes=4, failed_disk=2, rotate=True
        )
        for stripe in range(4):
            col = engine.failed_column(stripe)
            assert engine.physical_disk(stripe, col) == 2


class TestValidation:
    def test_bad_failed_disk(self):
        with pytest.raises(ValueError):
            AccessEngine(DCode(5), failed_disk=9)

    def test_bad_num_stripes(self):
        with pytest.raises(ValueError):
            AccessEngine(DCode(5), num_stripes=0)
