"""A disk the error policy fails in the middle of an op, and rot met by
an algebraic decode: what the op stores, and what it raises.

* A reconstruct-write stores off the columns stale *after* its load: a
  latent sector the load meets may escalate its disk, and the store
  then skips it (as a whole-stripe store does) instead of raising
  ``DiskFailedError`` with the burst half landed.
* An integrity campaign repairs only cells on live disks and stops once
  its own sweep has escalated one, as ``scrub_and_repair`` does.
* EVENODD's decoder meets a stripe holding rot and an erasure as an
  inconsistent stripe — a typed :class:`InconsistentStripeError`, not
  the raw ``ValueError`` of the GF(2) solver.
"""

import numpy as np
import pytest

from repro.array import ioplan
from repro.array.integrity import IntegrityChecker
from repro.array.volume import RAID6Volume
from repro.codes import make_code
from repro.exceptions import InconsistentStripeError
from repro.faults.policy import ErrorPolicy

from tests.conftest import bucket

ES = 16
STRIPES = 8


def _volume(code, p, escalate_after, seed, stripes=STRIPES):
    """A primed volume whose error policy fails a disk at its
    ``escalate_after``-th error, and its image."""
    volume = RAID6Volume(
        make_code(code, p), num_stripes=stripes, element_size=ES,
        policy=ErrorPolicy(escalate_after=escalate_after),
    )
    image = np.random.default_rng(seed).integers(
        0, 256, (volume.num_elements, ES), dtype=np.uint8
    )
    volume.write(0, image)
    return volume, image


def _mark_bad(volume, stripe, cells) -> int:
    """Latent sectors under ``cells`` of ``stripe``, all on one disk:
    that disk."""
    (disk,) = {volume.mapper.disk_of(stripe, c.col) for c in cells}
    for cell in cells:
        volume.disks[disk].mark_bad(
            volume.mapper.locate_cell(stripe, cell).offset
        )
    return disk


@pytest.mark.parametrize("code", ["dcode", "xcode"])
def test_reconstruct_write_stores_off_the_disk_its_load_failed(code):
    """A burst's middle bucket has a latent sector under its dirty cell:
    its RMW gather fails there (the disk's first error), so it is
    reconstruct-written, and the load of its stripe meets a second
    latent sector on the same disk, outside the RMW's cells — the error
    that fails the disk.  The store skips the dead disk, the bucket
    after it patches around it, and every byte reads back."""
    volume, image = _volume(code, 7, escalate_after=2, seed=7)
    layout = volume.layout
    per = layout.num_data_cells
    stripe, j = 3, 0
    cell = layout.data_cells[j]
    rmw = ioplan._compile_rmw(volume, [j], (), stripe)
    other = next(
        c for c in layout.cells_in_column(cell.col)
        if c not in rmw.cells.cells
    )
    disk = _mark_bad(volume, stripe, [cell, other])
    new = np.random.default_rng(8).integers(0, 256, (3, ES), dtype=np.uint8)
    writes = [(1, 5), (stripe, j), (6, 2)]
    volume._write_rest([
        bucket(layout, s, [(layout.data_cells[k], value)])
        for (s, k), value in zip(writes, new)
    ])
    assert volume.failed_disks == (disk,)
    for (s, k), value in zip(writes, new):
        image[s * per + k] = value
    assert np.array_equal(volume.read(0, volume.num_elements), image)


def test_scrub_campaign_stops_at_a_disk_it_escalated():
    """Two latent sectors on one disk of one stripe: the campaign's own
    sweep fails the disk at the second.  It repairs nothing onto the
    dead disk, reports no repair there, and stops after the run of
    stripes in hand; the image still reads back through the failure,
    and a rebuild restores it."""
    stripes = ioplan.RUN_CHUNK + 8
    volume, image = _volume("dcode", 5, escalate_after=2, seed=3,
                            stripes=stripes)
    checker = IntegrityChecker(volume)
    cells = volume.layout.cells_in_column(1)[:2]
    disk = _mark_bad(volume, 2, cells)
    report = checker.scrub_campaign()
    assert volume.failed_disks == (disk,)
    assert not report.repaired_data and not report.repaired_parity
    assert report.stripes_scanned == ioplan.RUN_CHUNK
    assert np.array_equal(volume.read(0, volume.num_elements), image)
    volume.replace_and_rebuild(disk)
    assert volume.scrub() == []
    assert np.array_equal(volume.read(0, volume.num_elements), image)


def _rot(volume, stripe, cell) -> None:
    """Flip one block of ``stripe`` behind the volume's back."""
    loc = volume.mapper.locate_cell(stripe, cell)
    volume.disks[loc.disk]._store[loc.offset] ^= 0xFF


def test_evenodd_scrub_of_rot_and_an_erasure_is_typed():
    """``scrub()`` on EVENODD p = 5 decodes around a latent sector in a
    stripe that also holds rot: the stripe is inconsistent."""
    volume, _ = _volume("evenodd", 5, escalate_after=2, seed=2)
    layout = volume.layout
    _mark_bad(volume, 4, [layout.data_cells[0]])
    _rot(volume, 4, layout.data_cells[-1])
    with pytest.raises(InconsistentStripeError):
        volume.scrub()


def test_evenodd_read_of_rot_and_an_erasure_is_typed():
    """A degraded ``read()`` on EVENODD p = 7 rebuilds a cell that fails
    to read in a stripe that also holds rot: the stripe is
    inconsistent."""
    volume, _ = _volume("evenodd", 7, escalate_after=4, seed=4)
    layout = volume.layout
    per = layout.num_data_cells
    _mark_bad(volume, 5, [layout.data_cells[3]])
    _rot(volume, 5, layout.parity_cells[0])
    with pytest.raises(InconsistentStripeError):
        volume.read(5 * per, per)
