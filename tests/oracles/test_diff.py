"""The differential oracle over every registry code, both small primes,
rotated or not, journaled or not, from a fixed seed list.

Each stream holds the kernel, numpy, hooked and walk volumes of
:class:`~tests.oracles.diff.Mirror` to each other op by op; a failure
names its seed and op index (replay it alone by its test id).
:func:`test_every_branch_was_hit` then requires every row of the hit
table to have been counted — running first whatever stream of the
module did not run, so it holds alone too.  Rows only the C kernel can
hit are waived when there is none.
"""

import itertools
from collections import Counter

import pytest

from repro.codes import make_code
from repro.faults.policy import ErrorPolicy
from repro.util.ckernel import xor_kernel

from tests.conftest import ALL_ARRAY_CODES, SMALL_PRIMES
from tests.oracles.diff import (
    ESCALATE_AFTER, ROWS, Mirror, needs_kernel, run_stream, table, watch,
)

SEEDS = (1,)

CONFIGS = [
    (code, p, rotate, journaled, seed)
    for code, p, rotate, journaled, seed in itertools.product(
        ALL_ARRAY_CODES, SMALL_PRIMES, (False, True), (False, True), SEEDS
    )
]


@pytest.fixture(scope="module")
def hits():
    """The hit table of the module's streams, and the configs that ran."""
    return Counter(), set()


def _run(monkeypatch, hits, code, p, rotate, journaled, seed):
    counts, ran = hits
    watch(monkeypatch, counts)
    mirror = Mirror(
        make_code(code, p), rotate=rotate, journaled=journaled, hits=counts,
        policy=ErrorPolicy(escalate_after=ESCALATE_AFTER),
    )
    run_stream(mirror, seed)
    ran.add((code, p, rotate, journaled, seed))


@pytest.mark.parametrize(
    "code,p,rotate,journaled,seed", CONFIGS,
    ids=[
        f"{code}-{p}-{'rotated' if rotate else 'plain'}-"
        f"{'journaled' if journaled else 'bare'}-{seed}"
        for code, p, rotate, journaled, seed in CONFIGS
    ],
)
def test_stream(monkeypatch, hits, code, p, rotate, journaled, seed):
    _run(monkeypatch, hits, code, p, rotate, journaled, seed)


def test_every_branch_was_hit(monkeypatch, hits):
    counts, ran = hits
    for config in CONFIGS:
        if config not in ran:
            with monkeypatch.context() as patch:
                _run(patch, hits, *config)
    missing = [
        row for row in ROWS if not counts[row]
        and (xor_kernel() is not None or not needs_kernel(row))
    ]
    assert not missing, f"rows never hit: {missing}\n{table(counts)}"
