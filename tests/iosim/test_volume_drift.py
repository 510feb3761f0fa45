"""Model fidelity: the volume's disk counters equal the simulator's loads.

The paper's Figures 4–7 are :class:`~repro.iosim.engine.AccessEngine`
counts; :class:`~repro.array.volume.RAID6Volume` is the system those
counts claim to describe.  For every registry code, the three §IV-A
traffic mixes, every single-disk failure and both mappings — and every
pair of failed disks at p = 5 — executing a stream on the volume must
move each disk's read and write counter by exactly what the engine
predicts for it — drift 0, so the two cannot silently diverge.
"""

import itertools

import numpy as np
import pytest

from repro.array.volume import RAID6Volume
from repro.codes import make_code
from repro.iosim.engine import AccessEngine
from repro.iosim.workloads import PAPER_WORKLOADS

from tests.conftest import ALL_ARRAY_CODES, SMALL_PRIMES

STRIPES = 6
ES = 8
OPS = 40


def _execute(volume, op, rng):
    """One ``<S, L, 1>`` on the volume, wrapping like the engine does."""
    start, left = op.start, op.length
    while left:
        n = min(left, volume.num_elements - start)
        if op.is_read:
            volume.read(start, n)
        else:
            volume.write(start, rng.integers(1, 256, (n, ES), dtype=np.uint8))
        start, left = 0, left - n


def _assert_no_drift(layout, failure_sets, rotate=False):
    """Each mix on a volume with each set of failed disks: its counters
    equal the engine's loads."""
    space = STRIPES * layout.num_data_cells
    for mix, (name, generate) in enumerate(PAPER_WORKLOADS):
        workload = generate(
            space, np.random.default_rng([layout.p, mix]), num_ops=OPS,
            max_times=1,
        )
        for failed in failure_sets:
            volume = RAID6Volume(
                layout, num_stripes=STRIPES, element_size=ES, rotate=rotate
            )
            rng = np.random.default_rng(mix)
            volume.write(0, rng.integers(1, 256, (space, ES), dtype=np.uint8))
            for disk in failed:
                volume.fail_disk(disk)
            volume.reset_io_counters()
            for op in workload:
                _execute(volume, op, rng)
            loads = AccessEngine(
                layout, num_stripes=STRIPES, rotate=rotate,
                failed_disks=failed,
            ).run(workload)
            counters = volume.io_counters()
            where = f"{name}, failed disks {failed}"
            assert [r for r, _ in counters.values()] == list(loads.reads), where
            assert [w for _, w in counters.values()] == list(loads.writes), where


@pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
@pytest.mark.parametrize("p", SMALL_PRIMES)
@pytest.mark.parametrize("rotate", (False, True))
def test_volume_counters_equal_engine_loads(code_name, p, rotate):
    layout = make_code(code_name, p)
    _assert_no_drift(
        layout, [(), *((disk,) for disk in range(layout.cols))], rotate
    )


@pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
def test_double_failures_equal_engine_loads(code_name):
    """Every pair of failed disks at p = 5: a lost dirty cell's RMW plan
    compiles from the engine's degraded write, which prices it too."""
    layout = make_code(code_name, 5)
    _assert_no_drift(
        layout, list(itertools.combinations(range(layout.cols), 2))
    )
