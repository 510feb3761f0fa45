"""Whole stripes along a write's route: what stays in C, what walks.

A healthy, unrotated write of any length, journaled or not, is one
``route_exec`` call: its partial head and tail stripes run their RMW
plans, and each whole stripe between them has its rows copied into its
data cells and the codec's encode program run over it in place.  With a
failed disk or rotated, the same route is walked in numpy
(``ioplan._route_walk``).  :class:`~tests.oracles.diff.Mirror` holds
each write shape on the kernel volume to the numpy volume, the
per-element one and the walk — bytes, per-disk counters, a clean scrub
— healthy, with a failed disk, rotated and journaled; the spies pin
that a healthy long write never reaches the batched codec and that
observers and latent sectors stand the route down to the walk, the
observers seeing the rows they see on the numpy executor.

Under ``REPRO_PURE_NUMPY=1`` (or without a compiler) both sides run the
numpy executor and the comparisons still hold.
"""

import numpy as np
import pytest

from repro.array import ioplan
from repro.array import volume as volume_module
from repro.array.volume import RAID6Volume
from repro.codec.plan import XorPlan
from repro.codes import make_code
from repro.serve.checkpoint import DirtyStripeTracker
from repro.util.ckernel import xor_kernel

from tests.array.test_plan_kernel import (  # noqa: F401 — a fixture
    ES, kernel_writes, needs_kernel,
)
from tests.conftest import ALL_ARRAY_CODES, SMALL_PRIMES
from tests.oracles.diff import Mirror, Spied

STRIPES = 36


def _shapes(per):
    """``(start, count)`` of each write shape: aligned runs of 2 and 32
    whole stripes, a head partial + whole stripes + a tail partial, a
    lone aligned whole stripe, and a write ending on the last stripe."""
    return [
        (per, 2 * per),
        (2 * per, 32 * per),
        (per + 3, 4 * per + 2),
        (5 * per, per),
        (STRIPES * per - 3 * per - 1, 3 * per + 1),
    ]


@pytest.mark.parametrize("code_name", ALL_ARRAY_CODES)
@pytest.mark.parametrize("p", SMALL_PRIMES)
@pytest.mark.parametrize(
    "state", ("healthy", "failed", "rotated", "journaled")
)
def test_long_writes_two_engines(code_name, p, state, kernel_writes):
    """Every write shape, each written twice (fresh bytes, then the same
    bytes: zero deltas on the partial stripes): the kernel volume, the
    numpy volume, the per-element one and the walk hold the same bytes
    and count the same I/O, and scrub clean (rebuilt, if a disk
    failed).  Healthy, journaled or not, each write is one
    ``route_exec`` call; with a failed disk or rotated, none: the route
    is walked."""
    layout = make_code(code_name, p)
    mirror = Mirror(layout, stripes=STRIPES, es=ES,
                    rotate=state == "rotated",
                    journaled=state == "journaled")
    per = mirror.per
    rng = np.random.default_rng(sum(map(ord, code_name)) * 10 + p)
    mirror.write(0, rng.integers(0, 256, (STRIPES * per, ES), np.uint8))
    if state == "failed":
        mirror.fail_disk(1)
    for start, count in _shapes(per):
        data = rng.integers(0, 256, (count, ES), dtype=np.uint8)
        for _ in range(2):
            del kernel_writes[:]
            mirror.write(start, data)
            if xor_kernel() is None or state in ("failed", "rotated"):
                assert kernel_writes == []
            else:
                assert kernel_writes == [mirror.kernel]
    if state == "failed":
        mirror.rebuild(1, batch=8)
    assert mirror.scrub() == []


def _no_batched_encode(monkeypatch):
    """Make the batched codec and the whole-stripe writer fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("a healthy long write left its route")

    monkeypatch.setattr(volume_module, "encode_batch", refuse)
    monkeypatch.setattr(ioplan, "encode_batch", refuse)
    monkeypatch.setattr(XorPlan, "execute_batch", refuse)
    monkeypatch.setattr(RAID6Volume, "_full_stripe_write_batched", refuse)


@needs_kernel
@pytest.mark.parametrize("shift", (0, 3))
def test_a_long_write_is_one_route_exec_call(monkeypatch, shift):
    """A healthy 32-stripe write — aligned, and with a head and a tail
    partial stripe — is one ``route_exec`` call and never reaches
    ``encode_batch``, an ``XorPlan`` batch or
    ``_full_stripe_write_batched``."""
    layout = make_code("dcode", 7)
    per = layout.num_data_cells
    volume = RAID6Volume(layout, num_stripes=40, element_size=ES)
    rng = np.random.default_rng(shift)
    volume.write(0, rng.integers(0, 256, (40 * per, ES), np.uint8))
    calls = []

    def spy(name, vol, call, args):
        calls.append(args[1:3])  # start, count
        return call(*args)

    volume._c = Spied(volume._c, volume, spy)
    _no_batched_encode(monkeypatch)
    start, count = 4 * per + shift, 32 * per
    data = rng.integers(0, 256, (count, ES), dtype=np.uint8)
    volume.write(start, data)
    assert calls == [(start, count)]
    monkeypatch.undo()
    assert np.array_equal(volume.read(start, count), data)
    assert volume.scrub() == []


def _spy_stores(monkeypatch):
    """``(rows, data)`` of every store funnel call, by volume — spied on
    the class, so spying never stands the kernel down."""
    seen = {}
    funnel = RAID6Volume._store_rows

    def spy(self, at, data=None):
        seen.setdefault(self, []).append(
            (at.copy(), None if data is None else np.array(data))
        )
        funnel(self, at, data)

    monkeypatch.setattr(RAID6Volume, "_store_rows", spy)
    return seen


@pytest.mark.parametrize("case", ("tracker", "integrity", "latent"))
@pytest.mark.parametrize("shift", (0, 3))
def test_observers_and_latent_sectors_stand_the_route_down(
    monkeypatch, kernel_writes, case, shift
):
    """With a ``DirtyStripeTracker`` or an ``IntegrityChecker`` attached,
    or a latent sector on a disk the write touches, a healthy long
    write walks its route in numpy, not in ``route_exec``: the store
    funnel's observers see the rows and bytes they see on the numpy
    executor, store for store, and the write remaps the latent sector
    as it does there."""
    layout = make_code("dcode", 7)
    mirror = Mirror(layout, stripes=12, es=ES)
    per = mirror.per
    rng = np.random.default_rng(7)
    mirror.write(0, rng.integers(0, 256, (12 * per, ES), np.uint8))
    if case == "tracker":  # drained here, not by the mirror
        trackers = [DirtyStripeTracker(v) for v in mirror.volumes]
    elif case == "integrity":
        mirror.attach_checker()
        checkers = mirror.checkers
    else:
        mirror.retire()
        for volume in mirror.volumes:
            volume.disks[3].mark_bad(4 * layout.rows + 2)
            volume.disks[3].mark_bad(11 * layout.rows)
    del kernel_writes[:]
    stores = _spy_stores(monkeypatch)
    data = rng.integers(0, 256, (6 * per, ES), dtype=np.uint8)
    mirror.write(2 * per + shift, data)
    assert kernel_writes == []
    if case != "latent":  # a plan off disk 3 may still run in C
        a, b = (stores.get(v, []) for v in (mirror.kernel, mirror.numpy))
        assert len(a) == len(b) > 0
        for (at_a, data_a), (at_b, data_b) in zip(a, b):
            assert np.array_equal(at_a, at_b)
            assert (data_a is None) == (data_b is None)
            assert data_a is None or np.array_equal(data_a, data_b)
    if case == "tracker":
        assert trackers[0].drain() == trackers[1].drain() == set(
            range(2, 8 + (shift > 0))
        )
    elif case == "integrity":
        assert checkers[0].store._sums == checkers[1].store._sums
        assert checkers[0].find_corruption() == {}
    else:
        for volume in mirror.volumes:
            assert volume.disks[3].bad_sectors == {11 * layout.rows}
    assert mirror.kernel.scrub() == []
