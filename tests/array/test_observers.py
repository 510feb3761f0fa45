"""Observers of the store funnel attach and detach in any order.

An :class:`~repro.array.integrity.IntegrityChecker` and the serving
layer's :class:`~repro.serve.checkpoint.DirtyStripeTracker` both see
every planned store through the volume's observer tuple.  Detaching one
must take exactly that one off — whatever attached or detached since —
and once none is left the store funnel is the class's again and the C
kernel runs the quiet plans.
"""

import itertools

import numpy as np
import pytest

from repro.array.integrity import IntegrityChecker
from repro.array.volume import RAID6Volume
from repro.codes import make_code
from repro.serve.checkpoint import DirtyStripeTracker
from repro.util.ckernel import xor_kernel

ES = 16


def _volume():
    volume = RAID6Volume(make_code("dcode", 5), num_stripes=4,
                         element_size=ES)
    volume.write(0, np.ones((volume.num_elements, ES), np.uint8))
    return volume


def _kernel_admits(volume):
    return volume._kernel(volume._walk.mask, volume.failed_disks) is not None


@pytest.mark.parametrize("order", list(itertools.permutations((0, 1))))
def test_detach_in_any_order_leaves_nothing_wired(order):
    volume = _volume()
    observers = [IntegrityChecker(volume), DirtyStripeTracker(volume)]
    checker, tracker = observers
    assert not _kernel_admits(volume)
    per = volume.layout.num_data_cells
    volume.write(per + 1, np.full((2, ES), 3, np.uint8))
    assert tracker.drain() == {1}
    for i in order:
        observers[i].detach()
    assert "_store_rows" not in volume.__dict__
    assert volume.integrity is None
    sums = dict(checker.store._sums)
    volume.write(2 * per + 1, np.full((2, ES), 4, np.uint8))
    assert checker.store._sums == sums  # the detached checker hashes nothing
    assert tracker.drain() == set()
    assert _kernel_admits(volume) == (xor_kernel() is not None)
    assert volume._observers == ()


def test_one_detached_the_other_still_observes():
    volume = _volume()
    checker = IntegrityChecker(volume)
    tracker = DirtyStripeTracker(volume)
    checker.detach()
    per = volume.layout.num_data_cells
    sums = dict(checker.store._sums)
    volume.write(3 * per, np.full((3, ES), 5, np.uint8))
    assert tracker.drain() == {3}
    assert checker.store._sums == sums
    assert not _kernel_admits(volume)  # the tracker still observes
    tracker.detach()
    assert _kernel_admits(volume) == (xor_kernel() is not None)
