"""Local Reconstruction Code tests (Azure LRC)."""

import itertools

import numpy as np
import pytest

from repro.codes.linear import LocalReconstructionCode
from repro.exceptions import DecodeError, GeometryError


@pytest.fixture
def azure():
    """Azure's production parameters, scaled-down element size."""
    return LocalReconstructionCode(k=12, l=2, r=2, element_size=32)


@pytest.fixture
def stripe(azure, rng):
    data = rng.integers(0, 256, (azure.k, azure.element_size),
                        dtype=np.uint8)
    return azure.encode(data)


class TestGeometry:
    def test_disk_count(self, azure):
        assert azure.num_disks == 16

    def test_groups(self, azure):
        assert azure.group_members(0) == list(range(6))
        assert azure.group_members(1) == list(range(6, 12))
        assert azure.local_parity_disk(0) == 12
        assert azure.group_of(7) == 1

    def test_efficiency_between_raid6_and_replication(self, azure):
        assert 0.5 < azure.storage_efficiency == pytest.approx(12 / 16)

    def test_repair_cost(self, azure):
        # 6 reads instead of 12 — the LRC selling point
        assert azure.repair_cost_single_data_failure() == 6

    def test_l_must_divide_k(self):
        with pytest.raises(ValueError):
            LocalReconstructionCode(k=10, l=3, r=2)


class TestEncode:
    def test_local_parity_is_group_xor(self, azure, stripe):
        for g in range(2):
            members = azure.group_members(g)
            xor = np.bitwise_xor.reduce(stripe[members], axis=0)
            assert np.array_equal(stripe[azure.local_parity_disk(g)], xor)

    def test_parity_ok(self, azure, stripe):
        assert azure.parity_ok(stripe)
        stripe[14, 0] ^= 1
        assert not azure.parity_ok(stripe)


class TestSingleFailureRepair:
    def test_data_loss_repaired_locally(self, azure, stripe):
        damaged = stripe.copy()
        damaged[3] = 0
        order = azure.decode(damaged, [3])
        assert order == [3]
        assert np.array_equal(damaged, stripe)

    def test_local_parity_loss(self, azure, stripe):
        damaged = stripe.copy()
        damaged[12] = 0
        azure.decode(damaged, [12])
        assert np.array_equal(damaged, stripe)

    def test_global_parity_loss(self, azure, stripe):
        damaged = stripe.copy()
        damaged[15] = 0
        azure.decode(damaged, [15])
        assert np.array_equal(damaged, stripe)


class TestMultiFailure:
    def test_every_triple_recoverable(self, azure, stripe):
        """LRC(12,2,2) tolerates any r+1 = 3 failures."""
        for lost in itertools.combinations(range(azure.num_disks), 3):
            damaged = stripe.copy()
            for d in lost:
                damaged[d] = 0
            azure.decode(damaged, list(lost))
            assert np.array_equal(damaged, stripe), lost

    def test_decodable_four_failure_pattern(self, azure, stripe):
        """One loss per group + both globals: locals repair first, then
        globals are recomputed — a decodable 4-pattern."""
        lost = [0, 6, 14, 15]
        damaged = stripe.copy()
        for d in lost:
            damaged[d] = 0
        azure.decode(damaged, lost)
        assert np.array_equal(damaged, stripe)

    def test_undecodable_four_pattern_raises(self, azure, stripe):
        """Four data losses in one group exceed local+global capacity."""
        lost = [0, 1, 2, 3]
        assert not azure.is_decodable(lost)
        with pytest.raises(DecodeError):
            azure.decode(stripe.copy(), lost)

    def test_not_mds(self, azure):
        assert not azure.is_mds()
        assert azure.is_decodable([0, 6, 14, 15])

    def test_mixed_three_in_one_group(self, azure, stripe):
        """Three data losses in one group: local parity + 2 globals."""
        lost = [0, 1, 2]
        damaged = stripe.copy()
        for d in lost:
            damaged[d] = 0
        azure.decode(damaged, lost)
        assert np.array_equal(damaged, stripe)


class TestValidation:
    def test_bad_disk_index(self, azure, stripe):
        with pytest.raises(GeometryError):
            azure.decode(stripe.copy(), [99])

    def test_stripe_shape_checked(self, azure):
        with pytest.raises(GeometryError):
            azure.parity_ok(np.zeros((3, 32), dtype=np.uint8))

    def test_small_config_round_trip(self, rng):
        lrc = LocalReconstructionCode(k=4, l=2, r=1, element_size=16)
        data = rng.integers(0, 256, (4, 16), dtype=np.uint8)
        stripe = lrc.encode(data)
        for lost in itertools.combinations(range(lrc.num_disks), 2):
            damaged = stripe.copy()
            for d in lost:
                damaged[d] = 0
            if lrc.is_decodable(list(lost)):
                lrc.decode(damaged, list(lost))
                assert np.array_equal(damaged, stripe)
