"""Stripe loads and column rebuilds: one recovery plan, two interpreters.

A load — parity scrub, scrub-and-repair, a reconstruct-write's read of
its stripe — and a double-failure rebuild run the recovery plan of
their stale columns (``ioplan._compile_recovery``): every live cell
gathered, the chain-recovery schedule, the image (or the lost column)
picked.  While the volume admits it the C kernel's ``plan_exec`` runs
it; otherwise ``ioplan._plan_run`` does.  Each test runs the same
operation on two volumes that differ only in that the second has no
kernel, and requires the same bytes, the same per-disk counters and the
same heal log.  EVENODD's double failures have no XOR schedule: both
sides decode them algebraically.

Under ``REPRO_PURE_NUMPY=1`` (or without a compiler) both sides run the
numpy executor and the comparisons still hold.
"""

import itertools

import numpy as np
import pytest

from repro.array import ioplan
from repro.array.integrity import IntegrityChecker
from repro.codes import make_code
from repro.util.ckernel import xor_kernel

from tests.array.test_plan_kernel import (  # noqa: F401 — a fixture
    ES, Engines, _spy, kernel_runs, needs_kernel,
)
from tests.conftest import ALL_ARRAY_CODES

STRIPES = 6

#: every registry code at p = 5, and the paper's code at p = 7
GEOMETRIES = [(code, 5) for code in ALL_ARRAY_CODES] + [("dcode", 7)]


def _pair(code, p, rotate, stripes=STRIPES):
    """Two volumes holding one random image — the first with the
    kernel, the second on the numpy executor alone — and the image."""
    layout = make_code(code, p)
    engines = Engines(layout, stripes=stripes, rotate=rotate)
    image = np.random.default_rng(p * 31 + stripes).integers(
        0, 256, (stripes * layout.num_data_cells, ES), dtype=np.uint8
    )
    engines.write(0, image)
    for volume in engines.volumes:
        volume.reset_io_counters()
    return engines, image


def _each(engines, op):
    """``op`` on both volumes: its results, once the volumes agree."""
    results = [op(volume) for volume in engines.volumes]
    engines.assert_same()
    return results


def _in_kernel(kernel_runs, engines, expected=True):
    """The kernel side ran a plan in C (when there is a kernel and the
    pattern has an XOR schedule, ``expected``), the numpy side never."""
    kernel, numpy = engines.volumes
    assert numpy not in kernel_runs
    if xor_kernel() is not None:
        assert (kernel in kernel_runs) == expected


def _failed_pairs(cols, code):
    """Two failed-disk pairs per geometry, the sample fixed per code."""
    pairs = list(itertools.combinations(range(cols), 2))
    rng = np.random.default_rng(len(code) * cols)
    return [pairs[i] for i in rng.choice(len(pairs), 2, replace=False)]


@pytest.mark.parametrize("rotate", (False, True))
@pytest.mark.parametrize("code,p", GEOMETRIES)
class TestKernelAgainstNumpy:
    def test_scrub(self, code, p, rotate, kernel_runs):
        engines, _ = _pair(code, p, rotate)
        for volume in engines.volumes:  # rot one parity cell of stripe 2
            cell = volume.layout.parity_cells[0]
            loc = volume.mapper.locate_cell(2, cell)
            volume._backing[loc.offset, loc.disk] ^= 0x5A
        kernel, numpy = _each(engines, lambda v: v.scrub())
        assert kernel == numpy == [2]
        _in_kernel(kernel_runs, engines)

    def test_scrub_and_repair(self, code, p, rotate, kernel_runs):
        """Latent sectors in the first run of stripes: that run loads
        through the numpy funnels on both sides, the next — its disks
        quiet again, the sectors rewritten — in the kernel on one."""
        engines, image = _pair(code, p, rotate, stripes=ioplan.RUN_CHUNK + 4)
        rng = np.random.default_rng(p)
        layout = engines.volumes[0].layout
        sectors = {
            (int(rng.integers(layout.cols)), int(s),
             int(rng.integers(layout.rows)))
            for s in rng.choice(ioplan.RUN_CHUNK, 4, replace=False)
        }
        for volume in engines.volumes:
            for disk, stripe, row in sorted(sectors):
                volume.inject_latent_error(disk, stripe, row)
        kernel, numpy = _each(engines, lambda v: v.scrub_and_repair())
        _in_kernel(kernel_runs, engines)
        assert dict(kernel) == dict(numpy)
        assert kernel.repaired_count == len(sectors)
        for key in ("elements_read", "elements_written", "stripes_scanned"):
            assert getattr(kernel, key) == getattr(numpy, key), key
        assert kernel.elements_written == len(sectors)
        assert np.array_equal(engines.read(0, len(image)), image)

    def test_degraded_reconstruct_write(self, code, p, rotate, kernel_runs):
        """A reconstruct-write loads its stripe past one and two failed
        disks, then re-encodes and stores it."""
        engines, image = _pair(code, p, rotate)
        layout = engines.volumes[0].layout
        per = layout.num_data_cells
        cells = layout.data_cells[1:per - 1]
        value = np.full(ES, 0xC3, dtype=np.uint8)
        for failed in ([0], [0, layout.cols - 1]):
            for disk in failed:
                engines.each(lambda v: v.fail_disk(disk))
            stripe = len(failed)
            del kernel_runs[:]
            engines.each(lambda v: ioplan._reconstruct(
                v, stripe, [(cell, value) for cell in cells]
            ))
            _in_kernel(kernel_runs, engines, layout.chain_decodable)
            image[stripe * per + 1:stripe * per + per - 1] = value
            assert np.array_equal(engines.read(0, len(image)), image)

    def test_double_failure_rebuild(self, code, p, rotate, kernel_runs):
        layout = make_code(code, p)
        for pair in _failed_pairs(layout.cols, code):
            engines, image = _pair(code, p, rotate)
            for disk in pair:
                engines.each(lambda v: v.fail_disk(disk))
            del kernel_runs[:]
            reads = _each(engines, lambda v: v.replace_and_rebuild(pair[0]))
            assert reads[0] == reads[1]
            _in_kernel(kernel_runs, engines, layout.chain_decodable)
            reads = _each(engines, lambda v: v.replace_and_rebuild(pair[1]))
            assert reads[0] == reads[1]
            assert np.array_equal(engines.read(0, len(image)), image)


@needs_kernel
def test_quiet_scrub_and_double_rebuild_run_in_the_kernel(monkeypatch):
    """A quiet scrub and a quiet double-failure rebuild are ``plan_exec``
    calls, never the numpy interpreter; an attached integrity checker
    (verified loads, a store observer) makes both stand down."""
    kernel_runs = _spy(monkeypatch, "_kernel_run")
    numpy_runs = _spy(monkeypatch, "_plan_run")
    engines, image = _pair("dcode", 7, False)
    volume = engines.volumes[0]

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
