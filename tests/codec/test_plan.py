"""Unit tests for compiled XOR execution plans."""

import sys

import numpy as np
import pytest

from repro.codec.batch import encode_batch, random_batch
from repro.codec.decoder import plan_chain_recovery
from repro.codec.encoder import StripeCodec
from repro.codec.plan import (
    CompiledPlans,
    GatherStep,
    XorPlan,
    compile_encode_plan,
    compile_update_plan,
    compiled_plans,
    flat_batch_view,
    flat_stripe_view,
    toposort_groups,
)
from repro.codes import Cell, make_code
from repro.codes.base import CodeLayout, ParityGroup, cell_to_flat
from repro.exceptions import GeometryError
from repro.util.ckernel import xor_kernel

from tests.oracles.codec_walk import CodecWalk


def chain_layout(length):
    """Synthetic 1-row layout: parity i covers parity i-1, a chain of
    ``length`` dependent groups hanging off one data cell."""
    groups = [
        ParityGroup(
            parity=Cell(0, i + 1), members=(Cell(0, i),), family="chain"
        )
        for i in range(length)
    ]
    return CodeLayout(
        name=f"chain{length}",
        p=2,
        rows=1,
        cols=length + 1,
        data_cells=(Cell(0, 0),),
        groups=groups,
    )


class TestToposort:
    def test_matches_group_count(self, small_prime):
        layout = make_code("dcode", small_prime)
        order = toposort_groups(layout)
        assert len(order) == len(layout.groups)

    def test_dependencies_come_first(self, small_prime):
        for name in ("rdp", "hdp"):
            layout = make_code(name, small_prime)
            seen = set()
            for group in toposort_groups(layout):
                for member in group.members:
                    if layout.is_parity(member):
                        assert member in seen, (group, member)
                seen.add(group.parity)

    def test_deep_chain_exceeds_recursion_limit(self):
        # A chain several times the interpreter recursion limit: the old
        # recursive DFS would hit RecursionError here.
        depth = sys.getrecursionlimit() * 3
        layout = chain_layout(depth)
        order = toposort_groups(layout)
        assert len(order) == depth
        positions = {g.parity: i for i, g in enumerate(order)}
        assert all(
            positions[Cell(0, i + 1)] < positions[Cell(0, i + 2)]
            for i in range(depth - 1)
        )

    def test_cycle_raises(self):
        cyclic = CodeLayout(
            name="cyclic",
            p=2,
            rows=1,
            cols=3,
            data_cells=(Cell(0, 0),),
            groups=(
                ParityGroup(
                    parity=Cell(0, 1), members=(Cell(0, 2),), family="a"
                ),
                ParityGroup(
                    parity=Cell(0, 2), members=(Cell(0, 1),), family="b"
                ),
            ),
        )
        with pytest.raises(GeometryError, match="cyclic"):
            toposort_groups(cyclic)


class TestEncodePlan:
    def test_one_entry_per_group(self, small_prime):
        layout = make_code("dcode", small_prime)
        plan = compile_encode_plan(layout)
        assert plan.num_ops == len(layout.groups)
        assert plan.num_cells == layout.rows * layout.cols

    def test_destinations_are_parity_cells(self, small_prime):
        layout = make_code("xcode", small_prime)
        plan = compile_encode_plan(layout)
        parity_flats = {cell_to_flat(layout, c) for c in layout.parity_cells}
        for step in plan.steps:
            assert set(step.dst.tolist()) <= parity_flats

    def test_step_dst_never_among_own_src(self, small_prime):
        for name in ("rdp", "hcode", "hdp", "xcode", "dcode"):
            layout = make_code(name, small_prime)
            plan = compile_encode_plan(layout)
            for step in plan.steps:
                assert not (set(step.dst.tolist()) & set(step.src.ravel().tolist()))

    def test_program_serialisation_round_trips(self, small_prime):
        layout = make_code("dcode", small_prime)
        plan = compile_encode_plan(layout)
        prog = plan.program
        decoded = []
        i = 0
        while i < prog.size:
            dst, k = int(prog[i]), int(prog[i + 1])
            decoded.append((dst, tuple(prog[i + 2 : i + 2 + k].tolist())))
            i += 2 + k
        by_parity = {
            cell_to_flat(layout, g.parity): tuple(
                cell_to_flat(layout, m) for m in g.members
            )
            for g in layout.groups
        }
        assert dict(decoded) == by_parity
        assert len(decoded) == len(layout.groups)

    def test_levels_respect_parity_dependencies(self, small_prime):
        # RDP's diagonal parity reads the row-parity column, so its plan
        # needs at least two steps (levels) while X-Code needs exactly one
        # level per family at a single arity.
        rdp = compile_encode_plan(make_code("rdp", small_prime))
        assert len(rdp.steps) >= 2


class TestKernelVsNumpy:
    @pytest.mark.skipif(xor_kernel() is None, reason="no C compiler")
    def test_engines_agree_on_encode(self, rng, small_prime):
        layout = make_code("dcode", small_prime)
        codec = StripeCodec(layout, element_size=64)
        stripe = codec.random_stripe(rng)
        for cell in layout.data_cells:
            stripe[cell.row, cell.col] = rng.integers(
                0, 256, 64, dtype=np.uint8
            )
        via_kernel = stripe.copy()
        codec.plans.encode.execute(
            flat_stripe_view(via_kernel, codec.plans.encode.num_cells)
        )
        via_numpy = stripe.copy()
        codec.plans.encode.execute_numpy(
            flat_stripe_view(via_numpy, codec.plans.encode.num_cells)
        )
        assert np.array_equal(via_kernel, via_numpy)

    @pytest.mark.skipif(xor_kernel() is None, reason="no C compiler")
    def test_engines_agree_on_batch(self, rng, small_prime):
        layout = make_code("xcode", small_prime)
        codec = StripeCodec(layout, element_size=32)
        stripes = random_batch(codec, rng, 11)
        for cell in layout.data_cells:
            stripes[:, cell.row, cell.col] = rng.integers(
                0, 256, (11, 32), dtype=np.uint8
            )
        via_kernel = stripes.copy()
        codec.plans.encode.execute_batch(
            flat_batch_view(via_kernel, codec.plans.encode.num_cells)
        )
        via_numpy = stripes.copy()
        codec.plans.encode.execute_batch_numpy(
            flat_batch_view(via_numpy, codec.plans.encode.num_cells)
        )
        assert np.array_equal(via_kernel, via_numpy)

    def test_wide_equations_use_generic_kernel_path(self, rng):
        # p=13 gives arity-11 equations — past the fused fixed-arity cases,
        # exercising the kernel's pairwise fallback.
        layout = make_code("dcode", 13)
        codec = StripeCodec(layout, element_size=16)
        stripe = codec.random_stripe(rng)
        reference = stripe.copy()
        CodecWalk(codec).encode(reference)
        compiled = stripe.copy()
        codec.encode(compiled)
        assert np.array_equal(reference, compiled)


class TestUpdatePlan:
    def test_rejects_parity_cell(self, small_prime):
        layout = make_code("dcode", small_prime)
        with pytest.raises(GeometryError):
            compile_update_plan(layout, layout.parity_cells[0])

    def test_indices_start_with_cell(self, small_prime):
        layout = make_code("dcode", small_prime)
        cell = layout.data_cells[0]
        indices, touched = compile_update_plan(layout, cell)
        assert indices[0] == cell_to_flat(layout, cell)
        assert len(indices) == len(touched) + 1
        assert all(layout.is_parity(c) for c in touched)


class TestCaching:
    def test_compiled_plans_lru_shares_layout(self, small_prime):
        layout = make_code("dcode", small_prime)
        assert compiled_plans(layout, 512) is compiled_plans(layout, 512)
        assert compiled_plans(layout, 512) is not compiled_plans(layout, 256)

    def test_codecs_share_plans(self, small_prime):
        layout = make_code("hdp", small_prime)
        a = StripeCodec(layout, element_size=128)
        b = StripeCodec(layout, element_size=128)
        assert a.plans is b.plans
        assert isinstance(a.plans, CompiledPlans)

    def test_schedule_plan_memoised(self, small_prime):
        layout = make_code("dcode", small_prime)
        codec = StripeCodec(layout, element_size=32)
        lost = frozenset(
            set(layout.cells_in_column(0)) | set(layout.cells_in_column(1))
        )
        schedule = plan_chain_recovery(layout, lost)
        assert codec.plans.schedule_plan(schedule) is codec.plans.schedule_plan(
            schedule
        )

    def test_update_plan_memoised(self, small_prime):
        layout = make_code("dcode", small_prime)
        codec = StripeCodec(layout, element_size=32)
        cell = layout.data_cells[3]
        assert codec.plans.update_plan(cell)[0] is codec.plans.update_plan(cell)[0]


class TestFlatViews:
    def test_contiguous_stripe_views_share_memory(self):
        stripe = np.zeros((5, 7, 16), dtype=np.uint8)
        flat = flat_stripe_view(stripe, 35)
        assert flat.base is stripe
        assert flat.shape == (35, 16)

    def test_non_contiguous_returns_none(self):
        stripe = np.zeros((5, 7, 16), dtype=np.uint8)[:, ::2]
        assert flat_stripe_view(stripe, 20) is None

    def test_batch_view(self):
        batch = np.zeros((3, 5, 7, 16), dtype=np.uint8)
        flat = flat_batch_view(batch, 35)
        assert flat.shape == (3, 35, 16)
        assert flat.base is batch


class TestEmptyPlan:
    def test_empty_program_is_noop(self):
        plan = XorPlan(
            num_cells=4,
            steps=(),
            program=np.zeros(0, dtype=np.int64),
        )
        flat = np.arange(16, dtype=np.uint8).reshape(4, 4)
        before = flat.copy()
        plan.execute(flat)
        plan.execute_numpy(flat)
        assert np.array_equal(flat, before)


class TestBatchChunking:
    """Geometry-keyed chunk sizing for the numpy batch path."""

    def test_small_geometry_uses_full_chunk(self):
        from repro.codec.plan import _BATCH_CHUNK, _batch_chunk

        layout = make_code("dcode", 5)
        assert _batch_chunk(layout.num_cells, 1024) == _BATCH_CHUNK

    def test_large_geometry_shrinks_chunk(self):
        from repro.codec.plan import _BATCH_CHUNK, _batch_chunk

        layout = make_code("dcode", 13)
        chunk = _batch_chunk(layout.num_cells, 4096)
        assert 1 <= chunk < _BATCH_CHUNK
        # the chunk's working set stays within the budget
        from repro.codec.plan import _BATCH_BUDGET_BYTES

        assert chunk * layout.num_cells * 4096 <= _BATCH_BUDGET_BYTES

    def test_never_below_one(self):
        from repro.codec.plan import _batch_chunk

        assert _batch_chunk(10 ** 6, 10 ** 6) == 1

    @pytest.mark.parametrize("p", (5, 13))
    @pytest.mark.parametrize("batch", (1, 7, 8, 32))
    def test_chunked_batch_encode_matches_single(self, rng, p, batch):
        # chunk boundaries must not change results: every stripe of the
        # batch encodes exactly like a one-stripe call, for batch sizes
        # below, at, and above the chunk length (forced numpy path)
        codec = StripeCodec(make_code("dcode", p), element_size=64)
        stripes = random_batch(codec, rng, batch)
        want = stripes.copy()
        for i in range(batch):
            codec.encode(want[i])
        plan = compiled_plans(codec.layout, 64).encode
        plan.execute_batch_numpy(
            flat_batch_view(stripes, codec.layout.num_cells)
        )
        assert np.array_equal(stripes, want)
