"""The reference walk held to a shadow copy, apart from the plans it
judges: writes (RMW, reconstruct-write, whole stripes), reads healthy
and degraded, rebuild of two disks, parity scrub."""

import numpy as np
import pytest

from repro.array.volume import RAID6Volume
from repro.codes import make_code

from tests.oracles import walk

ES = 8


@pytest.mark.parametrize("code", ("dcode", "rdp", "evenodd"))
def test_walk_keeps_a_shadow(code):
    layout = make_code(code, 5)
    vol = RAID6Volume(layout, num_stripes=4, element_size=ES)
    per, total = layout.num_data_cells, vol.num_elements
    rng = np.random.default_rng(3)
    shadow = rng.integers(0, 256, (total, ES), dtype=np.uint8)
    walk.write(vol, 0, shadow)

    def write(start, count):
        data = rng.integers(0, 256, (count, ES), dtype=np.uint8)
        walk.write(vol, start, data)
        shadow[start:start + count] = data

    write(3, 5)
    write(per - 2, per + 4)
    assert walk.scrub(vol) == []
    assert np.array_equal(walk.read(vol, 0, total), shadow)
    failed = (1, layout.cols - 1)
    for disk in failed:
        vol.fail_disk(disk)
    assert np.array_equal(walk.read(vol, 0, total), shadow)
    write(2, per)  # degraded: RMW or reconstruct-write per stripe
    assert np.array_equal(walk.read(vol, 1, total - 1), shadow[1:])
    for disk in failed:
        cursor = vol.start_rebuild(disk, batch=3)
        while cursor.active:
            walk.rebuild_step(cursor)
    assert vol.rebuild_cursor is None and not vol.failed_disks
    assert walk.scrub(vol) == []
    assert np.array_equal(walk.read(vol, 0, total), shadow)
