"""Shared fixtures for the repro test-suite."""

import numpy as np
import pytest

from repro.codes.registry import EVALUATION_CODES, make_code

#: Every XOR array code in the registry (the evaluation five + extras).
ALL_ARRAY_CODES = tuple(EVALUATION_CODES) + ("evenodd", "pcode")

#: The paper's evaluation primes.
PAPER_PRIMES = (5, 7, 11, 13)

#: Primes small enough for exhaustive data-backed decoding tests.
SMALL_PRIMES = (5, 7)


@pytest.fixture
def rng():
    """Deterministic RNG; tests that need other seeds build their own."""
    return np.random.default_rng(20150527)  # IPDPS'15 conference date


@pytest.fixture(params=ALL_ARRAY_CODES)
def any_code_name(request):
    return request.param


@pytest.fixture(params=SMALL_PRIMES)
def small_prime(request):
    return request.param


@pytest.fixture
def small_layout(any_code_name, small_prime):
    """Every (code, small prime) combination."""
    return make_code(any_code_name, small_prime)


def bucket(layout, stripe, items):
    """A destage bucket ``(stripe, row, mask)`` — what
    ``RAID6Volume._write_rest`` takes — of ``(cell, value)`` data items:
    ``row[j]`` the value of data cell ``j``, bit ``j`` of ``mask`` set."""
    items = list(items)
    row = np.zeros((layout.num_data_cells, len(items[0][1])), np.uint8)
    mask = 0
    for cell, value in items:
        j = layout.data_index(cell)
        row[j] = value
        mask |= 1 << j
    return stripe, row, mask
