"""Faults on the plans: the executor's per-element branch.

A plan whose disks carry a fault hook (or, for a load, a latent sector)
reaches them element by element, in plan order — stripe-major, then the
plan's cell order — and that op stream is what ``FaultSpec.at_op``
indexes.  A cell that fails to read comes back to its plan as a located
erasure: decoded through the stripe plan, never read again.  Every test
runs for D-Code, RDP and X-Code at p = 5.
"""

import numpy as np
import pytest

from repro.array import SimDisk, ioplan
from repro.array.integrity import IntegrityChecker, crc32
from repro.array.volume import RAID6Volume
from repro.codec.plan import XorPlan
from repro.codes import make_code
from repro.exceptions import SimulatedCrashError
from repro.faults import FaultInjector, FaultSpec
from repro.recovery.planner import cached_hybrid_plan

ES = 16


def payload(n, seed):
    return np.random.default_rng(seed).integers(
        0, 256, (n, ES), dtype=np.uint8
    )


@pytest.fixture(params=("dcode", "rdp", "xcode"))
def volume(request):
    vol = RAID6Volume(
        make_code(request.param, 5), num_stripes=4, element_size=ES
    )
    vol.write(0, payload(vol.num_elements, 0))
    return vol


def encoded(volume, data):
    """The image a whole-stripe write of ``data`` stores."""
    image = volume.codec.blank_stripe()
    for cell, value in zip(volume.layout.data_cells, data):
        image[cell.row, cell.col] = value
    volume.codec.encode(image)
    return image


@pytest.fixture
def disk_reads(monkeypatch):
    """``(disk, offset)`` of every element read, in order."""
    reads = []
    read_view = SimDisk.read_view

    def spy(disk, offset):
        reads.append((disk.disk_id, offset))
        return read_view(disk, offset)

    monkeypatch.setattr(SimDisk, "read_view", spy)
    return reads


@pytest.mark.parametrize("k", (0, 2))
def test_transient_in_an_rmw_gather_is_retried(volume, k):
    per = volume.layout.num_data_cells
    inj = FaultInjector().attach(volume)
    inj.arm(FaultSpec("transient", at_op=k, op="read"))
    new = payload(3, 1)
    volume.write(per + 1, new)
    (fault,) = inj.events("transient")
    assert fault.op_index == k
    retried = [
        (e.disk, e.offset) for e in volume.heal_log if e.kind == "retry_ok"
    ]
    assert retried == [(fault.disk, fault.offset)]
    assert volume.error_counters.backoff_ms == volume.policy.backoff_ms
    inj.detach()
    assert np.array_equal(volume.read(per + 1, 3), new)
    assert volume.scrub() == []


def test_latent_sector_in_a_degraded_read_plan(volume):
    """The sector is a source of the plan rebuilding a lost cell: its
    stripe is decoded around it, the sector rewritten through the store
    funnel and its checksum re-recorded."""
    layout = volume.layout
    checker = IntegrityChecker(volume)
    truth = volume.read(0, volume.num_elements).copy()
    volume.fail_disk(1)
    per, stripe = layout.num_data_cells, 2
    j = next(j for j, c in enumerate(layout.data_cells) if c.col == 1)
    plan = ioplan._engine_of(volume, stripe)._plan_stripe_read(
        stripe, [layout.data_cells[j]]
    )
    source = min(plan.fetch)
    loc = volume.mapper.locate_cell(stripe, source)
    volume.disks[loc.disk].mark_bad(loc.offset)
    checker.store._sums[(loc.disk, loc.offset)] = 0  # stale until healed
    stores = []
    store_rows = volume._store_rows

    def spy(at, data=None):
        stores.append(at.tolist())
        store_rows(at, data)

    volume._store_rows = spy
    start = stripe * per + j
    assert np.array_equal(volume.read(start, 1), truth[start:start + 1])
    assert stores == [[loc.offset * layout.cols + loc.disk]]
    assert volume.disks[loc.disk].bad_sectors == frozenset()
    remaps = [
        (e.disk, e.stripe, e.offset)
        for e in volume.heal_log if e.kind == "remap"
    ]
    assert remaps == [(loc.disk, stripe, loc.offset)]
    assert checker.store.expected(loc.disk, loc.offset) == crc32(
        volume.disks[loc.disk]._store[loc.offset]
    )


@pytest.mark.parametrize("k", (0, 1, 7))
def test_crash_lands_exactly_the_ops_before_it(volume, k):
    """A whole-stripe write is one store and no load; torn at its k-th
    op, exactly the first k rows of the stripe plan — column by column,
    in each column its cells in layout order — hold the new image."""
    per = volume.layout.num_data_cells
    stripe = 1
    old = volume._flat_backing.copy()
    new = payload(per, 2)
    image = encoded(volume, new)
    inj = FaultInjector().attach(volume)
    inj.arm(FaultSpec("crash", at_op=k))
    with pytest.raises(SimulatedCrashError):
        volume.write(stripe * per, new)
    assert inj.events("crash")[0].op_index == k
    cells, at = ioplan.stripe_rows(volume, (stripe,), ())
    for i, (cell, row) in enumerate(zip(cells, at.tolist())):
        want = image[cell.row, cell.col] if i < k else old[row]
        assert np.array_equal(volume._flat_backing[row], want), i


def test_disk_killed_mid_store_drops_the_rest_of_its_share(volume):
    layout = volume.layout
    per, cols, stripe = layout.num_data_cells, layout.cols, 1
    cells, at = ioplan.stripe_rows(volume, (stripe,), ())
    k = len(layout.cells_in_column(0)) + 1  # column 1's second cell
    doomed = int(at[k] % cols)
    new = payload(per, 3)
    image = encoded(volume, new)
    inj = FaultInjector().attach(volume)
    inj.arm(FaultSpec("disk_death", at_op=k, op="write"))
    volume.write(stripe * per, new)
    assert volume.disks[doomed].failed
    share = [i for i in range(len(at)) if at[i] % cols == doomed]
    dropped = [e.offset for e in volume.heal_log if e.kind == "dropped_write"]
    assert dropped == [at[i] // cols for i in share if i >= k]
    landed = [i for i in share if i < k]
    assert landed and all(
        np.array_equal(
            volume._flat_backing[at[i]], image[cells[i].row, cells[i].col]
        )
        for i in landed
    )
    inj.detach()
    assert np.array_equal(volume.read(stripe * per, per), new)


def test_a_hooked_rmw_is_the_plan(volume, monkeypatch):
    """Under a hook the RMW is the same plan — one XOR schedule — its
    every element an op."""
    sizes = []
    execute_batch = XorPlan.execute_batch

    def spy(plan, scratch):
        sizes.append(len(scratch))
        return execute_batch(plan, scratch)

    monkeypatch.setattr(XorPlan, "execute_batch", spy)
    inj = FaultInjector().attach(volume)
    before = sum(r + w for r, w in volume.io_counters().values())
    volume.write(volume.layout.num_data_cells + 1, payload(3, 4))
    assert sizes == [1]
    after = sum(r + w for r, w in volume.io_counters().values())
    assert inj.ops == after - before > 0


class TestChargedOnce:
    """A cell that fails to read is charged once: the fallback takes it
    as a known erasure and reads everything else of its stripe."""

    def test_latent_sector_under_an_rmw_dirty_cell(self, volume, disk_reads):
        layout = volume.layout
        per, stripe, j = layout.num_data_cells, 1, 2
        loc = volume.mapper.locate_cell(stripe, layout.data_cells[j])
        volume.disks[loc.disk].mark_bad(loc.offset)
        reads_before = volume.disks[loc.disk].read_count
        new = payload(2, 5)
        volume.write(stripe * per + j, new)  # falls back to reconstruct
        assert disk_reads.count((loc.disk, loc.offset)) == 1
        assert volume.error_counters.total(loc.disk) == 1
        assert volume.disks[loc.disk].read_count - reads_before == sum(
            disk == loc.disk for disk, _ in disk_reads
        )
        assert volume.disks[loc.disk].bad_sectors == frozenset()
        assert np.array_equal(volume.read(stripe * per + j, 2), new)

    def test_latent_sector_under_a_short_read(self, volume, disk_reads):
        layout = volume.layout
        per, stripe, j = layout.num_data_cells, 2, 1
        truth = volume.read(stripe * per, per).copy()
        loc = volume.mapper.locate_cell(stripe, layout.data_cells[j])
        volume.disks[loc.disk].mark_bad(loc.offset)
        reads_before = volume.disks[loc.disk].read_count
        assert np.array_equal(
            volume.read(stripe * per + j, 3), truth[j:j + 3]
        )
        assert disk_reads.count((loc.disk, loc.offset)) == 1
        assert volume.error_counters.total(loc.disk) == 1
        assert volume.disks[loc.disk].read_count - reads_before == sum(
            disk == loc.disk for disk, _ in disk_reads
        )
        assert volume.disks[loc.disk].bad_sectors == frozenset()


@pytest.fixture
def disk_ops(monkeypatch):
    """``(disk, op, offset)`` of every per-element read and write, in
    order."""
    ops = []
    read_view, write = SimDisk.read_view, SimDisk.write

    def spy_read(disk, offset):
        ops.append((disk.disk_id, "read", offset))
        return read_view(disk, offset)

    def spy_write(disk, offset, data):
        ops.append((disk.disk_id, "write", offset))
        return write(disk, offset, data)

    monkeypatch.setattr(SimDisk, "read_view", spy_read)
    monkeypatch.setattr(SimDisk, "write", spy_write)
    return ops


@pytest.mark.parametrize("k", (0, 5))
def test_a_hooked_rebuild_is_its_pick_plan(volume, disk_ops, k):
    """Rebuilding one lost column under a hook presents the pick plan:
    the hybrid planner's read set of every stripe — stripe-major, cells
    in sorted order — then the column's cells, stripe-major, in layout
    order.  ``FaultSpec.at_op`` indexes exactly that stream: a transient
    armed at op ``k`` meets its ``k``-th read, which is retried."""
    layout, mapper = volume.layout, volume.mapper
    truth = volume.read(0, volume.num_elements).copy()
    disk, stripes = 1, range(volume.mapper.num_stripes)
    volume.fail_disk(disk)
    cursor = volume.start_rebuild(disk, batch=len(stripes))
    inj = FaultInjector().attach(volume)
    inj.arm(FaultSpec("transient", at_op=k, op="read"))
    del disk_ops[:]
    cursor.step()
    col = mapper.col_on_disk(0, disk)
    reads = sorted(cached_hybrid_plan(layout, col).reads)

    def at(stripe, cell, op):
        loc = mapper.locate_cell(stripe, cell)
        return (loc.disk, op, loc.offset)

    expected = [at(s, c, "read") for s in stripes for c in reads]
    # the transient read is retried in place
    expected.insert(k + 1, expected[k])
    expected += [
        at(s, c, "write") for s in stripes
        for c in layout.cells_in_column(col)
    ]
    assert disk_ops == expected
    (fault,) = inj.events("transient")
    assert fault.op_index == k
    assert (fault.disk, "read", fault.offset) == expected[k]
    inj.detach()
    assert np.array_equal(volume.read(0, volume.num_elements), truth)
    assert volume.scrub() == []
