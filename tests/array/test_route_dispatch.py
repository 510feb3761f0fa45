"""One dispatch per op: every read and write runs its route.

Whatever the volume carries — a fault hook, a latent sector, a
dirty-stripe tracker, an integrity checker, a journal — and whether it
rotates or has a rebuild in flight, ``RAID6Volume.read`` and ``write``
hand their logical range to one route, run once: by ``route_exec`` on
the volume's kernel handle where the C kernel admits it, else by its numpy
twin ``ioplan._route_walk``.  Nothing in ``volume.py`` splits a range
itself.  :class:`~tests.oracles.diff.Mirror` holds each op on the
kernel volume to the numpy volume, the per-element one and (but past a
latent sector) the reference walk — returned bytes, backing image,
per-disk counters, heal log — and all scrub clean.

Under ``REPRO_PURE_NUMPY=1`` (or without a compiler) both sides walk.
"""

import sys

import numpy as np
import pytest

from repro.array import ioplan
from repro.array import volume as volume_module
from repro.array.mapping import AddressMapper
from repro.array.volume import RAID6Volume
from repro.codes import make_code
from repro.journal import WriteIntentLog

from tests.array.test_plan_kernel import ES
from tests.oracles.diff import Mirror, spy_kernel

CASES = (
    "fault_hook", "latent", "tracker", "integrity", "journal", "rotate",
    "rebuild",
)


@pytest.fixture
def dispatch(monkeypatch):
    """``(volume, interpreter)`` of every route run — or ``"view"``, a
    read handed out as a zero-copy view — in order; and every
    ``mapper.split`` call made from ``volume.py`` fails the test."""
    calls, walk = [], ioplan._route_walk

    def record(name, volume, call, args):
        if name != "plan_exec":
            calls.append((volume, name))
        return call(*args)

    monkeypatch.setattr(ioplan, "_route_walk", lambda *args: record(
        "_route_walk", args[0], walk, args))
    spy_kernel(monkeypatch, record)
    zero_copy = RAID6Volume._read_zero_copy

    def view(volume, *args):
        out = zero_copy(volume, *args)
        if out is not None:
            calls.append((volume, "view"))
        return out

    monkeypatch.setattr(RAID6Volume, "_read_zero_copy", view)
    split = AddressMapper.split

    def no_split(self, start, count):
        caller = sys._getframe(1).f_code.co_filename
        assert caller != volume_module.__file__, "volume.py split a range"
        return split(self, start, count)

    monkeypatch.setattr(AddressMapper, "split", no_split)
    return calls


def _mirror(code, case):
    layout = make_code(code, 5)
    mirror = Mirror(layout, stripes=8, es=ES, rotate=case == "rotate")
    per = mirror.per
    mirror.write(0, np.random.default_rng(len(case)).integers(
        0, 256, (mirror.kernel.num_elements, ES), dtype=np.uint8
    ))
    if case == "latent":
        loc = mirror.kernel.mapper.locate_cell(1, layout.data_cells[per // 2])
        mirror.mark_bad(loc.disk, loc.offset)
    elif case == "tracker":
        mirror.attach_tracker()
    elif case == "integrity":
        mirror.attach_checker()
    elif case == "rebuild":
        mirror.fail_disk(1)
        mirror.start_rebuild(1, batch=2)
        mirror.step()
    for volume in mirror.volumes:
        if case == "fault_hook":
            volume.disks[2].fault_hook = lambda disk, op, offset: None
        elif case == "journal":
            volume.journal = WriteIntentLog()
    return mirror


@pytest.mark.parametrize("code", ("dcode", "rdp", "evenodd"))
@pytest.mark.parametrize("case", CASES)
def test_every_op_runs_its_route(code, case, dispatch):
    """Short, stripe-crossing, long and whole-stripe reads and writes:
    each is exactly one route run on each volume — on the numpy and the
    per-element volumes always ``_route_walk`` — save an aligned read
    handed out as a zero-copy view, which runs none."""
    mirror = _mirror(code, case)
    per = mirror.per
    rng = np.random.default_rng(7)
    reads = [(3, 5), (per - 2, 4), (per + 1, 2 * per), (0, 3 * per),
             (2 * per, per)]
    writes = [(5, 3), (per - 2, 4), (per + 3, 2 * per + 2),
              (2 * per, 2 * per), (0, per)]
    for (rstart, rcount), (wstart, wcount) in zip(reads, writes):
        for op in (
            lambda: mirror.read(rstart, rcount),
            lambda: mirror.write(wstart, rng.integers(
                0, 256, (wcount, ES), dtype=np.uint8
            )),
        ):
            del dispatch[:]
            op()
            for volume in mirror.volumes:
                runs = [name for v, name in dispatch if v is volume]
                assert len(runs) == 1, runs
                if volume is mirror.hooked:  # never a view
                    assert runs == ["_route_walk"]
                elif volume is mirror.numpy:
                    assert runs in (["_route_walk"], ["view"])
    if case == "rebuild":
        while mirror.cursors[0].active:
            mirror.step()
    assert mirror.scrub() == []
