"""Volume image tests: round trips and the loader's refusals."""

import json
import zlib

import numpy as np
import pytest

from repro.array import RAID6Volume
from repro.array.persistence import (
    _FRAME,
    _HLEN,
    MAGIC,
    PersistenceError,
    load_volume,
    save_volume,
)
from repro.codes import DCode, make_code


@pytest.fixture
def volume(rng):
    vol = RAID6Volume(DCode(7), num_stripes=3, element_size=16)
    data = rng.integers(0, 256, (vol.num_elements, 16), dtype=np.uint8)
    vol.write(0, data)
    vol._truth = data
    return vol


class TestRoundTrip:
    def test_contents_identical(self, volume, tmp_path):
        path = save_volume(volume, tmp_path / "vol.img")
        restored = load_volume(path)
        assert np.array_equal(
            restored.read(0, restored.num_elements), volume._truth
        )
        assert restored.scrub() == []

    def test_geometry_restored(self, volume, tmp_path):
        restored = load_volume(save_volume(volume, tmp_path / "v.img"))
        assert restored.layout.name == "dcode"
        assert restored.layout.p == 7
        assert restored.mapper.num_stripes == 3
        assert restored.element_size == 16

    def test_failed_disks_survive(self, volume, tmp_path):
        volume.fail_disk(2)
        restored = load_volume(save_volume(volume, tmp_path / "v.img"))
        assert restored.failed_disks == (2,)
        assert np.array_equal(
            restored.read(0, restored.num_elements), volume._truth
        )

    def test_bad_sectors_survive(self, volume, tmp_path):
        volume.inject_latent_error(disk=1, stripe=0, row=0)
        restored = load_volume(save_volume(volume, tmp_path / "v.img"))
        assert restored.disks[1].bad_sectors
        # and reads still reconstruct through them
        assert np.array_equal(
            restored.read(0, restored.num_elements), volume._truth
        )

    def test_rotation_flag_survives(self, rng, tmp_path):
        vol = RAID6Volume(make_code("rdp", 5), num_stripes=2,
                          element_size=8, rotate=True)
        data = rng.integers(0, 256, (vol.num_elements, 8), dtype=np.uint8)
        vol.write(0, data)
        restored = load_volume(save_volume(vol, tmp_path / "r.img"))
        assert restored.mapper.rotate
        assert np.array_equal(restored.read(0, restored.num_elements), data)


def reframe(path, edit):
    """Rewrite the image's one record with ``edit`` applied to its JSON
    header, under a valid frame: what a writer that got the geometry
    wrong would leave."""
    blob = path.read_bytes()
    head = len(MAGIC) + _FRAME.size
    (hlen,) = _HLEN.unpack_from(blob, head)
    header = json.loads(blob[head + _HLEN.size:head + _HLEN.size + hlen])
    edit(header)
    hdr = json.dumps(header).encode()
    body = _HLEN.pack(len(hdr)) + hdr + blob[head + _HLEN.size + hlen:]
    path.write_bytes(
        MAGIC + _FRAME.pack(len(body), zlib.crc32(body)) + body
    )


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="no volume image"):
            load_volume(tmp_path / "nope.img")

    def test_wrong_format_version(self, volume, tmp_path):
        # the magic carries the record layout's version
        path = save_volume(volume, tmp_path / "v.img")
        blob = path.read_bytes()
        path.write_bytes(b"RVI9" + blob[len(MAGIC):])
        with pytest.raises(PersistenceError, match="not a volume image"):
            load_volume(path)

    def test_torn_full_record_is_refused(self, volume, tmp_path):
        path = save_volume(volume, tmp_path / "v.img")
        blob = path.read_bytes()
        # empty, mid-frame, mid-header, all but the last byte
        for keep in (0, 7, 100, len(blob) - 1):
            path.write_bytes(blob[:keep])
            with pytest.raises(PersistenceError, match="torn"):
                load_volume(path)

    def test_corrupt_full_record_is_refused(self, volume, tmp_path):
        path = save_volume(volume, tmp_path / "v.img")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="torn"):
            load_volume(path)

    def test_shape_mismatch_detected(self, volume, tmp_path):
        path = save_volume(volume, tmp_path / "v.img")

        def halve_elements(header):
            header["geometry"]["element_size"] = 8

        reframe(path, halve_elements)
        with pytest.raises(PersistenceError, match="geometry expects"):
            load_volume(path)

    def test_first_record_must_hold_every_stripe(self, volume, tmp_path):
        path = save_volume(volume, tmp_path / "v.img")

        def grow(header):
            header["geometry"]["num_stripes"] = 4

        reframe(path, grow)
        with pytest.raises(PersistenceError, match="every stripe"):
            load_volume(path)
