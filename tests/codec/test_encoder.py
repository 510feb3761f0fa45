"""StripeCodec tests: encoding, verification, erasure, buffer handling."""

import numpy as np
import pytest

from repro.codes import Cell, make_code
from repro.codes.base import CodeLayout, ParityGroup
from repro.codec.encoder import StripeCodec
from repro.codec.plan import toposort_groups
from repro.exceptions import GeometryError, InconsistentStripeError


@pytest.fixture
def codec(small_layout):
    return StripeCodec(small_layout, element_size=32)


class TestBuffers:
    def test_blank_stripe_shape(self, codec):
        stripe = codec.blank_stripe()
        assert stripe.shape == (
            codec.layout.rows, codec.layout.cols, 32
        )
        assert stripe.dtype == np.uint8
        assert not stripe.any()

    def test_random_stripe_is_consistent(self, codec, rng):
        assert codec.parity_ok(codec.random_stripe(rng))

    def test_stripe_from_data_round_trip(self, codec, rng):
        data = rng.integers(
            0, 256, (codec.layout.num_data_cells, 32), dtype=np.uint8
        )
        stripe = codec.stripe_from_data(data)
        assert np.array_equal(codec.data_view(stripe), data)
        assert codec.parity_ok(stripe)

    def test_stripe_from_data_shape_checked(self, codec):
        with pytest.raises(GeometryError):
            codec.stripe_from_data(np.zeros((1, 32), dtype=np.uint8))

    def test_element_view_is_view(self, codec, rng):
        stripe = codec.random_stripe(rng)
        cell = codec.layout.data_cells[0]
        view = codec.element(stripe, cell)
        view[:] = 0
        assert not stripe[cell.row, cell.col].any()


class TestEncode:
    def test_encode_all_zero_gives_zero_parity(self, codec):
        stripe = codec.blank_stripe()
        codec.encode(stripe)
        assert not stripe.any()

    def test_encode_matches_group_equations(self, codec, rng):
        stripe = codec.random_stripe(rng)
        for group in codec.layout.groups:
            acc = np.zeros(32, dtype=np.uint8)
            for m in group.members:
                acc ^= stripe[m.row, m.col]
            assert np.array_equal(
                acc, stripe[group.parity.row, group.parity.col]
            ), group.parity

    def test_encode_is_idempotent(self, codec, rng):
        stripe = codec.random_stripe(rng)
        again = stripe.copy()
        codec.encode(again)
        assert np.array_equal(stripe, again)

    def test_encode_linear(self, codec, rng):
        a = codec.random_stripe(rng)
        b = codec.random_stripe(rng)
        xored = a ^ b
        codec.encode(xored)
        assert np.array_equal(xored, a ^ b)

    def test_shape_mismatch_rejected(self, codec):
        with pytest.raises(GeometryError):
            codec.encode(np.zeros((1, 1, 32), dtype=np.uint8))


class TestVerify:
    def test_broken_groups_empty_when_consistent(self, codec, rng):
        assert codec.broken_groups(codec.random_stripe(rng)) == []

    def test_corruption_detected(self, codec, rng):
        stripe = codec.random_stripe(rng)
        cell = codec.layout.data_cells[3]
        stripe[cell.row, cell.col, 0] ^= 0xFF
        broken = codec.broken_groups(stripe)
        # every group covering the cell must trip
        expected = {g.parity for g in codec.layout.groups_covering(cell)}
        assert expected <= {g.parity for g in broken}

    def test_verify_raises(self, codec, rng):
        stripe = codec.random_stripe(rng)
        stripe[codec.layout.parity_cells[0].row,
               codec.layout.parity_cells[0].col, 0] ^= 1
        with pytest.raises(InconsistentStripeError):
            codec.verify(stripe)

    def test_verify_passes(self, codec, rng):
        codec.verify(codec.random_stripe(rng))


class TestErase:
    def test_erase_zeroes_and_reports(self, codec, rng):
        stripe = codec.random_stripe(rng)
        lost = codec.erase_columns(stripe, [0])
        assert set(lost) == set(codec.layout.cells_in_column(0))
        for cell in lost:
            assert not stripe[cell.row, cell.col].any()

    def test_erase_multiple_columns(self, codec, rng):
        stripe = codec.random_stripe(rng)
        lost = codec.erase_columns(stripe, [0, 2])
        assert len(lost) == len(codec.layout.cells_in_column(0)) + len(
            codec.layout.cells_in_column(2)
        )


class TestToposort:
    def test_dependencies_respected_for_all_codes(self, small_layout):
        order = toposort_groups(small_layout)
        position = {g.parity: i for i, g in enumerate(order)}
        for g in order:
            for m in g.members:
                if m in position:  # member is another group's parity
                    assert position[m] < position[g.parity]

    def test_cycle_detected(self):
        a, b = Cell(0, 0), Cell(0, 1)
        layout = CodeLayout(
            name="cyclic", p=2, rows=1, cols=3,
            data_cells=[Cell(0, 2)],
            groups=[
                ParityGroup(a, (b, Cell(0, 2)), "x"),
                ParityGroup(b, (a, Cell(0, 2)), "y"),
            ],
        )
        with pytest.raises(GeometryError, match="cyclic"):
            StripeCodec(layout, element_size=8)
