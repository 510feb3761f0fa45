"""One dispatch per op: every read and write runs its route.

Whatever the volume carries — a fault hook, a latent sector, a
dirty-stripe tracker, an integrity checker, a journal — and whether it
rotates or has a rebuild in flight, ``RAID6Volume.read`` and ``write``
hand their logical range to one route, run once: by ``route_exec``
(``ioplan._route_exec``) where the C kernel admits it, else by its numpy
twin ``ioplan._route_walk``.  Nothing in ``volume.py`` splits a range
itself.  :class:`~tests.array.test_plan_kernel.Engines` holds each op
stream on the kernel volume to the numpy volume — returned bytes, backing
image, per-disk counters, heal log — and both scrub clean.

Under ``REPRO_PURE_NUMPY=1`` (or without a compiler) both sides walk.
"""

import sys

import numpy as np
import pytest

from repro.array import ioplan
from repro.array import volume as volume_module
from repro.array.integrity import IntegrityChecker
from repro.array.mapping import AddressMapper
from repro.codes import make_code
from repro.journal import WriteIntentLog
from repro.serve.checkpoint import DirtyStripeTracker

from tests.array.test_plan_kernel import ES, Engines

CASES = (
    "fault_hook", "latent", "tracker", "integrity", "journal", "rotate",
    "rebuild",
)


@pytest.fixture
def dispatch(monkeypatch):
    """``(volume, interpreter)`` of every route run, in order; and every
    ``mapper.split`` call made from ``volume.py`` fails the test."""
    calls = []
    for name in ("_route_walk", "_route_exec"):
        def spy(volume, *args, _inner=getattr(ioplan, name), _name=name):
            calls.append((volume, _name))
            return _inner(volume, *args)

        monkeypatch.setattr(ioplan, name, spy)
    split = AddressMapper.split

    def no_split(self, start, count):
        caller = sys._getframe(1).f_code.co_filename
        assert caller != volume_module.__file__, "volume.py split a range"
        return split(self, start, count)

    monkeypatch.setattr(AddressMapper, "split", no_split)
    return calls


def _engines(code, case):
    layout = make_code(code, 5)
    engines = Engines(layout, rotate=case == "rotate")
    per = engines.per
    image = np.random.default_rng(len(case)).integers(
        0, 256, (engines.volumes[0].num_elements, ES), dtype=np.uint8
    )
    engines.write(0, image)
    for volume in engines.volumes:
        if case == "fault_hook":
            volume.disks[2].fault_hook = lambda disk, op, offset: None
        elif case == "latent":
            cell = layout.data_cells[per // 2]
            loc = volume.mapper.locate_cell(1, cell)
            volume.disks[loc.disk].mark_bad(loc.offset)
        elif case == "tracker":
            DirtyStripeTracker(volume)
        elif case == "integrity":
            IntegrityChecker(volume)
        elif case == "journal":
            volume.journal = WriteIntentLog()
        elif case == "rebuild":
            volume.fail_disk(1)
            volume.start_rebuild(1, batch=2).step()
    return engines


@pytest.mark.parametrize("code", ("dcode", "rdp", "evenodd"))
@pytest.mark.parametrize("case", CASES)
def test_every_op_runs_its_route(code, case, dispatch):
    """Short, stripe-crossing, long and whole-stripe reads and writes:
    each is exactly one route run on each volume — on the numpy volume
    always ``_route_walk`` — save an aligned read handed out as a
    zero-copy view, which runs none."""
    engines = _engines(code, case)
    kernel, numpy = engines.volumes
    per = engines.per
    rng = np.random.default_rng(7)
    reads = [(3, 5), (per - 2, 4), (per + 1, 2 * per), (0, 3 * per),
             (2 * per, per)]
    writes = [(5, 3), (per - 2, 4), (per + 3, 2 * per + 2),
              (2 * per, 2 * per), (0, per)]
    for (rstart, rcount), (wstart, wcount) in zip(reads, writes):
        got = []
        for volume in engines.volumes:
            del dispatch[:]
            out = volume.read(rstart, rcount)
            view = np.shares_memory(out, volume._backing)
            assert len(dispatch) == (0 if view else 1)
            got.append(out.copy())
        if not view:
            assert dispatch == [(numpy, "_route_walk")]
        assert np.array_equal(*got)
        engines.assert_same()
        del dispatch[:]
        engines.write(wstart, rng.integers(
            0, 256, (wcount, ES), dtype=np.uint8
        ))
        assert [v for v, _ in dispatch].count(kernel) == 1
        assert [n for v, n in dispatch if v is numpy] == ["_route_walk"]
    if case == "rebuild":
        for volume in engines.volumes:
            volume.rebuild_cursor.run()
    assert kernel.scrub() == [] and numpy.scrub() == []
    engines.assert_same()
