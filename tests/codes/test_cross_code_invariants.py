"""Cross-cutting invariants every registered layout must satisfy."""

import pytest

from repro.codes import make_code
from repro.codes.base import describe_families
from repro.codes.registry import available_codes
from repro.codec.encoder import StripeCodec
from repro.codec.plan import toposort_groups

PRIMES = (5, 7, 11)


@pytest.fixture(params=sorted(available_codes()))
def code_name(request):
    return request.param


@pytest.fixture(params=PRIMES)
def layout(code_name, request):
    return make_code(code_name, request.param)


class TestStructuralInvariants:
    def test_framework_invariants(self, layout):
        layout.check_invariants()

    def test_every_disk_holds_cells(self, layout):
        for col in range(layout.cols):
            assert layout.cells_in_column(col)

    def test_every_data_cell_covered(self, layout):
        """Direct coverage is >= 1 everywhere; RDP's missing-diagonal
        cells legitimately sit in only their row group (their second
        line of defence runs through the diagonal that crosses the row
        parity), every other registered code covers each cell twice."""
        for cell in layout.data_cells:
            covering = len(layout.groups_covering(cell))
            if layout.name == "rdp":
                assert covering >= 1
            else:
                assert covering >= 2, cell

    def test_parity_cells_not_data(self, layout):
        for cell in layout.parity_cells:
            assert not layout.is_data(cell)

    def test_families_nonempty_and_described(self, layout):
        fams = describe_families(layout)
        assert fams
        assert sum(fams.values()) == len(layout.groups)

    def test_logical_order_covers_every_data_cell_once(self, layout):
        assert len(set(layout.data_cells)) == layout.num_data_cells

    def test_encode_order_is_total(self, layout):
        order = toposort_groups(layout)
        assert len(order) == len(layout.groups)

    def test_repr_mentions_name(self, layout):
        assert layout.name in repr(layout)


class TestCodecCompatibility:
    def test_codec_builds_and_zero_encodes(self, layout):
        codec = StripeCodec(layout, element_size=8)
        stripe = codec.blank_stripe()
        codec.encode(stripe)
        assert not stripe.any()

    def test_grid_render_covers_all_cells(self, layout):
        grid = layout.layout_grid()
        rendered = sum(1 for row in grid for cell in row if cell != ".")
        assert rendered == layout.num_cells

    def test_storage_efficiency_bounds(self, layout):
        assert 0.0 < layout.storage_efficiency < 1.0


class TestRegistryConsistency:
    def test_name_matches_registry_key(self, code_name):
        assert make_code(code_name, 7).name == code_name

    def test_description_present(self, code_name):
        assert make_code(code_name, 7).description
