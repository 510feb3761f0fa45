"""Stripe loads and column rebuilds: one recovery plan, two interpreters.

A load — parity scrub, scrub-and-repair, a reconstruct-write's read of
its stripe — and a double-failure rebuild run the recovery plan of
their stale columns (``ioplan._compile_recovery``): every live cell
gathered, the chain-recovery schedule, the image (or the lost column)
picked.  While the volume admits it the C kernel's ``plan_exec`` runs
it; otherwise ``ioplan._plan_run`` does.  The differential oracle
(``tests/oracles/diff.py``) holds the two — with the per-element branch
and, where it has one, the reference walk — to the same bytes, counters
and heal log; here each operation runs on its own, and a spy pins which
interpreter ran.  EVENODD's double failures have no XOR schedule: every
side decodes them algebraically.
"""

import itertools

import numpy as np
import pytest

from repro.array import ioplan
from repro.array.integrity import IntegrityChecker
from repro.codes import make_code
from repro.util.ckernel import xor_kernel

from tests.array.test_plan_kernel import (  # noqa: F401 — a fixture
    ES, _spy, kernel_runs, needs_kernel,
)
from tests.conftest import ALL_ARRAY_CODES
from tests.oracles.diff import Mirror, kernel_calls

STRIPES = 6

#: every registry code at p = 5, and the paper's code at p = 7
GEOMETRIES = [(code, 5) for code in ALL_ARRAY_CODES] + [("dcode", 7)]


def _mirror(code, p, rotate, stripes=STRIPES):
    """A :class:`Mirror` holding one random image, its counters zeroed,
    and the image."""
    mirror = Mirror(make_code(code, p), stripes=stripes, es=ES,
                    rotate=rotate)
    image = np.random.default_rng(p * 31 + stripes).integers(
        0, 256, (stripes * mirror.per, ES), dtype=np.uint8
    )
    mirror.write(0, image)
    for volume in mirror.sides:
        volume.reset_io_counters()
    return mirror, image


def _in_kernel(kernel_runs, mirror, expected=True):
    """The kernel volume ran a plan in C (when there is a kernel and the
    pattern has an XOR schedule, ``expected``), the others never."""
    assert mirror.numpy not in kernel_runs
    assert mirror.hooked not in kernel_runs
    if xor_kernel() is not None:
        assert (mirror.kernel in kernel_runs) == expected


def _failed_pairs(cols, code):
    """Two failed-disk pairs per geometry, the sample fixed per code."""
    pairs = list(itertools.combinations(range(cols), 2))
    rng = np.random.default_rng(len(code) * cols)
    return [pairs[i] for i in rng.choice(len(pairs), 2, replace=False)]


@pytest.mark.parametrize("rotate", (False, True))
@pytest.mark.parametrize("code,p", GEOMETRIES)
class TestKernelAgainstNumpy:
    def test_scrub(self, code, p, rotate, kernel_runs):
        mirror, _ = _mirror(code, p, rotate)
        for volume in mirror.sides:  # rot one parity cell of stripe 2
            cell = volume.layout.parity_cells[0]
            loc = volume.mapper.locate_cell(2, cell)
            volume._backing[loc.offset, loc.disk] ^= 0x5A
        assert mirror.scrub() == [2]
        _in_kernel(kernel_runs, mirror)

    def test_scrub_and_repair(self, code, p, rotate, kernel_runs):
        """Latent sectors in the first run of stripes: that run loads
        through the numpy funnels on every side, the next — its disks
        quiet again, the sectors rewritten — in the kernel on one."""
        mirror, image = _mirror(code, p, rotate, ioplan.RUN_CHUNK + 4)
        rng = np.random.default_rng(p)
        layout = mirror.layout
        sectors = {
            (int(rng.integers(layout.cols)), int(s),
             int(rng.integers(layout.rows)))
            for s in rng.choice(ioplan.RUN_CHUNK, 4, replace=False)
        }
        for disk, stripe, row in sorted(sectors):
            mirror.mark_bad(disk, stripe * layout.rows + row)
        repaired, _, written, _ = mirror.scrub_and_repair()
        _in_kernel(kernel_runs, mirror)
        assert sum(map(len, repaired.values())) == written == len(sectors)
        assert np.array_equal(mirror.read(0, len(image)), image)

    def test_degraded_reconstruct_write(self, code, p, rotate, kernel_runs):
        """A reconstruct-write loads its stripe past one and two failed
        disks, then re-encodes and stores it."""
        mirror, image = _mirror(code, p, rotate)
        mirror.retire()  # the walk would patch, not reconstruct-write
        layout = mirror.layout
        per = layout.num_data_cells
        mask = (1 << per - 1) - 2  # data cells 1 .. per - 2
        value = np.full(ES, 0xC3, dtype=np.uint8)
        for failed in ([0], [0, layout.cols - 1]):
            for disk in failed:
                mirror.fail_disk(disk)
            stripe = len(failed)
            del kernel_runs[:]
            mirror.each(lambda v: ioplan._reconstruct(
                v, stripe, mask, np.tile(value, (per - 2, 1))
            ))
            _in_kernel(kernel_runs, mirror, layout.chain_decodable)
            image[stripe * per + 1:stripe * per + per - 1] = value
            assert np.array_equal(mirror.read(0, len(image)), image)

    def test_double_failure_rebuild(self, code, p, rotate, kernel_runs):
        layout = make_code(code, p)
        for pair in _failed_pairs(layout.cols, code):
            mirror, image = _mirror(code, p, rotate)
            for disk in pair:
                mirror.fail_disk(disk)
            del kernel_runs[:]
            mirror.rebuild(pair[0], batch=8)
            _in_kernel(kernel_runs, mirror, layout.chain_decodable)
            mirror.rebuild(pair[1], batch=8)
            assert np.array_equal(mirror.read(0, len(image)), image)


@needs_kernel
def test_quiet_scrub_and_double_rebuild_run_in_the_kernel(monkeypatch):
    """A quiet scrub and a quiet double-failure rebuild are ``plan_exec``
    calls, never the numpy interpreter; an attached integrity checker
    (verified loads, a store observer) makes both stand down."""
    kernel_runs = kernel_calls(monkeypatch, "plan_exec")
    numpy_runs = _spy(monkeypatch, "_plan_run")
    mirror, image = _mirror("dcode", 7, False)
    volume = mirror.kernel

    def ran(op):
        del kernel_runs[:], numpy_runs[:]
        op()
        return bool(kernel_runs), bool(numpy_runs)

    def double_rebuild():
        volume.fail_disk(1)
        volume.fail_disk(4)
        volume.replace_and_rebuild(1)  # disk 4 still failed
        assert np.array_equal(volume.read(0, len(image)), image)
        volume.replace_and_rebuild(4)

    assert ran(volume.scrub) == (True, False)
    assert ran(double_rebuild) == (True, False)
    checker = IntegrityChecker(volume)
    assert ran(volume.scrub) == (False, True)
    assert ran(double_rebuild) == (False, True)
    checker.detach()
    assert ran(volume.scrub) == (True, False)
