"""Unit tests for the XOR block engine."""

import numpy as np
import pytest

from repro.util.xor import as_element, xor_accumulate, xor_blocks, xor_into


@pytest.fixture
def blocks(rng):
    return [rng.integers(0, 256, 64, dtype=np.uint8) for _ in range(5)]


class TestAsElement:
    def test_bytes_round_trip(self):
        arr = as_element(b"\x01\x02\x03")
        assert arr.dtype == np.uint8
        assert list(arr) == [1, 2, 3]

    def test_ndarray_passthrough_is_view(self):
        src = np.arange(16, dtype=np.uint8)
        view = as_element(src)
        assert view.base is src or view is src

    def test_bytes_input_is_zero_copy_view(self):
        buf = b"\x10\x20\x30\x40"
        arr = as_element(buf)
        assert arr.base is buf  # frombuffer view, no intermediate copy
        assert not arr.flags.writeable  # immutable source stays immutable

    def test_bytearray_input_aliases_buffer(self):
        buf = bytearray(b"\x01\x02\x03")
        arr = as_element(buf)
        assert arr.flags.writeable
        arr[0] = 0xFF
        assert buf[0] == 0xFF  # view, not a copy

    def test_memoryview_input(self):
        buf = bytearray(b"\x05\x06")
        arr = as_element(memoryview(buf))
        assert list(arr) == [5, 6]
        arr[1] = 9
        assert buf[1] == 9

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            as_element(np.zeros(4, dtype=np.float64))

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            as_element([1, 2, 3])


class TestXorBlocks:
    def test_single_block_copies(self, blocks):
        out = xor_blocks(blocks[:1])
        assert np.array_equal(out, blocks[0])
        assert out is not blocks[0]

    def test_pairwise_xor(self, blocks):
        out = xor_blocks(blocks[:2])
        assert np.array_equal(out, blocks[0] ^ blocks[1])

    def test_self_inverse(self, blocks):
        out = xor_blocks([blocks[0], blocks[1], blocks[0]])
        assert np.array_equal(out, blocks[1])

    def test_associativity_order_independent(self, blocks):
        forward = xor_blocks(blocks)
        backward = xor_blocks(list(reversed(blocks)))
        assert np.array_equal(forward, backward)

    def test_out_parameter_in_place(self, blocks):
        out = np.zeros_like(blocks[0])
        result = xor_blocks(blocks[:3], out=out)
        assert result is out
        assert np.array_equal(out, blocks[0] ^ blocks[1] ^ blocks[2])

    def test_empty_without_out_raises(self):
        with pytest.raises(ValueError):
            xor_blocks([])

    def test_empty_with_out_zeroes(self, blocks):
        out = blocks[0].copy()
        xor_blocks([], out=out)
        assert not out.any()


class TestXorInto:
    def test_in_place(self, blocks):
        dst = blocks[0].copy()
        result = xor_into(dst, blocks[1])
        assert result is dst
        assert np.array_equal(dst, blocks[0] ^ blocks[1])

    def test_double_application_cancels(self, blocks):
        dst = blocks[0].copy()
        xor_into(dst, blocks[1])
        xor_into(dst, blocks[1])
        assert np.array_equal(dst, blocks[0])


class TestXorAccumulate:
    def test_matches_xor_blocks(self, blocks):
        dst = blocks[0].copy()
        xor_accumulate(dst, blocks[1:])
        assert np.array_equal(dst, xor_blocks(blocks))

    def test_empty_iterable_is_noop(self, blocks):
        dst = blocks[0].copy()
        xor_accumulate(dst, [])
        assert np.array_equal(dst, blocks[0])


class TestKernelGilContract:
    def test_loaded_kernel_releases_gil(self):
        # threads sharing a volume (a shard's destage thread beside a
        # foreground write) rely on the C kernel dropping the GIL for
        # the duration of xor_exec; loading through ctypes.PyDLL (which
        # holds it) must fail this test, and a build without any kernel
        # reports False
        import ctypes

        from repro.util.ckernel import kernel_releases_gil, xor_kernel

        lib = xor_kernel()
        if lib is None:
            assert kernel_releases_gil() is False
        else:
            assert kernel_releases_gil() is True
            assert isinstance(lib, ctypes.CDLL)
            assert not isinstance(lib, ctypes.PyDLL)

    def test_the_contract_names_every_entry_point(self):
        # kernel_releases_gil checks SYMBOLS: every function the C
        # source exports (the rest are static) must be one of them
        import re

        from repro.util import ckernel

        exported = re.findall(
            r"^(?:void|int64_t) (\w+)\(", ckernel._SOURCE, re.M
        )
        assert tuple(exported) == ckernel.SYMBOLS
