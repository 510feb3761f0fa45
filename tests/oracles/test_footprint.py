"""The write footprint held to a delta propagation of its own.

``repro.codec.plan.write_footprint`` is the one record of which parities
a write touches and which dirty cells feed each: the RMW plans, the
journal digests, crash recovery, the access engine and the
update-complexity metric all read it.  The oracle here derives the same
thing independently — every dirty cell's delta a GF(2) unknown of its
own, pushed through the groups in dependency order — and the two must
agree exactly, order included: the journal digest chains the parities in
canonical ``parity_cells`` order, so a reordered footprint would be a
different digest.
"""

import pytest

from repro.codec.plan import toposort_groups, write_footprint
from repro.codes import make_code
from repro.exceptions import GeometryError

from tests.conftest import ALL_ARRAY_CODES, PAPER_PRIMES, SMALL_PRIMES


def cascade(layout, cells):
    """``(parities, feeds)`` of a write to ``cells``: a parity's delta is
    the XOR of its members', here the set of dirty cells (by position in
    ``cells``) whose unknowns survive in it."""
    deltas = {cell: frozenset([j]) for j, cell in enumerate(cells)}
    for group in toposort_groups(layout):
        delta = frozenset()
        for member in group.members:
            delta ^= deltas.get(member, frozenset())
        if delta:
            deltas[group.parity] = delta
    parities = tuple(p for p in layout.parity_cells if p in deltas)
    return parities, tuple(tuple(sorted(deltas[p])) for p in parities)


@pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
@pytest.mark.parametrize("p", PAPER_PRIMES)
def test_every_data_cell(code_name, p):
    layout = make_code(code_name, p)
    for cell in layout.data_cells:
        assert tuple(write_footprint(layout, (cell,))) == cascade(
            layout, (cell,)
        ), cell


@pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_every_contiguous_run(code_name, p):
    layout = make_code(code_name, p)
    cells = layout.data_cells
    for j0 in range(len(cells)):
        for j1 in range(j0 + 1, len(cells) + 1):
            run = cells[j0:j1]
            assert tuple(write_footprint(layout, run)) == cascade(
                layout, run
            ), (j0, j1)


def test_only_data_cells_have_a_footprint():
    layout = make_code("dcode", 5)
    with pytest.raises(GeometryError):
        write_footprint(layout, (layout.data_cells[0], layout.parity_cells[0]))
