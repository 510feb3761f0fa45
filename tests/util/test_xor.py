"""Unit tests for the XOR block engine."""

import sys
import threading
import time

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


def _counter_advances(call, attempts: int = 10) -> bool:
    """Whether a second Python thread, counting with short sleeps,
    advances while ``call()`` runs, in one of ``attempts`` calls.

    The switch interval is raised far beyond a call's length for the
    probe, so a call that holds the GIL is never asked to drop it: the
    count can then only move while a call has released it."""
    count, stop = [0], []

    def counter():
        while not stop:
            count[0] += 1
            time.sleep(1e-4)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    thread = threading.Thread(target=counter)
    thread.start()
    try:
        for _ in range(attempts):
            before = count[0]
            call()
            if count[0] != before:
                return True
        return False
    finally:
        stop.append(True)
        thread.join(timeout=30)
        sys.setswitchinterval(interval)


class TestKernelGilContract:
    """Threads sharing a volume (a shard's destage thread beside a
    foreground write) rely on every entry point of the C kernel
    releasing the GIL around its C body."""

    def test_loaded_kernel_releases_gil(self):
        # one long call per entry point, over 64 stripes of dcode p = 7
        # at 4 KiB: an encode, a whole-stripe RMW plan, a whole-stripe
        # write along its route
        from repro.array import ioplan
        from repro.array.volume import RAID6Volume
        from repro.codes import make_code
        from repro.util.ckernel import SYMBOLS, xor_kernel

        lib = xor_kernel()
        if lib is None:
            pytest.skip("no C kernel")
        stripes = 64
        volume = RAID6Volume(make_code("dcode", 7), num_stripes=stripes,
                             element_size=4096)
        per = volume.layout.num_data_cells
        values = np.random.default_rng(0).integers(
            0, 256, (stripes * per, 4096), dtype=np.uint8
        )
        geometry, io, lock = volume._geometry.address, volume._io, \
            volume._io_lock
        program = volume.codec.plans.encode.program
        block = volume._backing.reshape(stripes, -1, 4096)
        plan = ioplan._run_plan(volume, "rmw", 0, per, (), 0)
        route = ioplan.write_route(volume, 0, stripes * per,
                                   volume._surface())
        calls = {
            "xor_exec": lambda: lib.xor_exec(block, program),
            "plan_exec": lambda: lib.plan_exec(
                geometry, plan.packed.address, 0, None, stripes,
                values.reshape(stripes, per, -1), None, io, lock,
            ),
            "route_exec": lambda: lib.route_exec(
                geometry, 0, stripes * per, route.packed.address, values,
                None, io, lock,
            ),
        }
        assert tuple(calls) == SYMBOLS
        held = [name for name, call in calls.items()
                if not _counter_advances(call)]
        assert held == []
        # the calls stored what they were handed
        assert np.array_equal(volume.read(0, stripes * per), values)
        assert volume.scrub() == []

    def test_the_contract_names_every_entry_point(self):
        # the module's method table is SYMBOLS, in the C source's
        # table and in the loaded module alike
        import re

        from repro.util import ckernel

        table = re.findall(r'\{"(\w+)", FASTCALL\(', ckernel._SOURCE)
        assert tuple(table) == ckernel.SYMBOLS
        lib = ckernel.xor_kernel()
        if lib is None:
            pytest.skip("no C kernel")
        exported = sorted(
            name for name in vars(lib) if not name.startswith("__")
        )
        assert exported == sorted(ckernel.SYMBOLS)
        assert all(callable(getattr(lib, name)) for name in exported)


def test_kernel_refuses_buffers_it_cannot_use():
    """Short, strided, read-only or missing arrays and counters of the
    wrong size raise before the C body runs: nothing is written past
    them and nothing is counted."""
    from repro.array.volume import RAID6Volume
    from repro.codes import make_code

    volume = RAID6Volume(make_code("dcode", 5), num_stripes=4,
                         element_size=64)
    if volume._c is None:
        pytest.skip("no C kernel")
    route_exec, geometry = volume._c.route_exec, volume._geometry.address
    io, lock = volume._io, volume._io_lock
    read_only = np.zeros((10, 64), np.uint8)
    read_only.flags.writeable = False
    for out, counters in (
        (np.zeros((5, 64), np.uint8), io),            # short
        (np.zeros((10, 128), np.uint8)[:, ::2], io),  # strided
        (read_only, io),
        (None, io),                                   # no output
        (np.zeros((10, 64), np.uint8), io[:1]),       # counters too small
    ):
        with pytest.raises(ValueError):
            route_exec(geometry, 0, 10, None, None, out, counters, lock)
    with pytest.raises(ValueError):
        route_exec(0, 0, 10, None, None, np.zeros((10, 64), np.uint8), io,
                   lock)
    assert not io.any()
