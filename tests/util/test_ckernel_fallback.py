"""A host without the Python headers runs the numpy engine, as a host
without ``cc`` does: the kernel's build fails, nothing is cached, and
every operation stays byte-exact."""

import numpy as np

from repro.array.volume import RAID6Volume
from repro.codes import make_code
from repro.util import ckernel


def test_no_python_headers_falls_back_to_numpy(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(cache))
    monkeypatch.delenv("REPRO_PURE_NUMPY", raising=False)
    # an include directory with no Python.h, and no outcome cached yet
    monkeypatch.setattr(ckernel, "_INCLUDE", str(tmp_path))
    monkeypatch.setattr(ckernel, "_tried", False)
    monkeypatch.setattr(ckernel, "_lib", None)
    assert ckernel.xor_kernel() is None
    assert [p.suffix for p in cache.iterdir()] == [".c"]  # no module

    layout = make_code("dcode", 5)
    volume = RAID6Volume(layout, num_stripes=8, element_size=64)
    per = layout.num_data_cells
    rng = np.random.default_rng(5)
    image = rng.integers(0, 256, (8 * per, 64), dtype=np.uint8)
    volume.write(0, image)
    short = rng.integers(0, 256, (per + 3, 64), dtype=np.uint8)
    volume.write(per - 2, short)
    image[per - 2:2 * per + 1] = short
    assert volume._kernel(volume._walk.mask, ()) is None
    assert np.array_equal(volume.read(0, 8 * per), image)
    assert np.array_equal(volume.read(3, 9), image[3:12])
    volume.fail_disk(2)
    assert np.array_equal(volume.read(0, 8 * per), image)
    volume.replace_and_rebuild(2)
    assert volume.scrub() == []
    assert np.array_equal(volume.read(0, 8 * per), image)
