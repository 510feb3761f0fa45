"""Zero-copy stripe-aligned reads (the ISSUE's no-buffer-copy regression)."""

import numpy as np
import pytest

from repro.array.volume import RAID6Volume
from repro.codes.registry import make_code


def _volume(code="dcode", p=5, **kw):
    return RAID6Volume(make_code(code, p), num_stripes=8, element_size=32,
                       **kw)


class TestZeroCopyRead:
    def test_aligned_read_is_a_view(self):
        volume = _volume()
        per = volume.layout.num_data_cells
        data = np.random.default_rng(3).integers(
            0, 256, (per, 32), dtype=np.uint8
        )
        volume.write(2 * per, data)
        out = volume.read(2 * per, per)
        # the regression assertion: no buffer copy happened
        assert np.shares_memory(out, volume._backing)
        assert not out.flags.writeable
        assert np.array_equal(out, data)

    def test_view_reflects_later_writes(self):
        volume = _volume()
        per = volume.layout.num_data_cells
        volume.write(0, np.full((per, 32), 7, dtype=np.uint8))
        out = volume.read(0, per)
        volume.write(0, np.full((per, 32), 9, dtype=np.uint8))
        # a view aliases the live backing store (documented semantics)
        assert out[0, 0] == 9

    def test_unaligned_read_is_a_copy(self):
        volume = _volume()
        per = volume.layout.num_data_cells
        volume.write(0, np.zeros((2 * per, 32), dtype=np.uint8))
        for start, count in ((1, per), (0, per - 1), (0, 2 * per)):
            out = volume.read(start, count)
            assert not np.shares_memory(out, volume._backing)
            assert out.flags.writeable

    def test_rotated_volume_never_hands_out_views(self):
        volume = _volume(rotate=True)
        per = volume.layout.num_data_cells
        volume.write(0, np.zeros((per, 32), dtype=np.uint8))
        out = volume.read(0, per)
        assert not np.shares_memory(out, volume._backing)

    def test_degraded_read_is_a_copy(self):
        volume = _volume()
        per = volume.layout.num_data_cells
        volume.write(0, np.ones((per, 32), dtype=np.uint8))
        volume.fail_disk(0)
        out = volume.read(0, per)
        assert not np.shares_memory(out, volume._backing)
        assert np.array_equal(out, np.ones((per, 32), dtype=np.uint8))

    def test_latent_sector_disables_the_view(self):
        volume = _volume()
        per = volume.layout.num_data_cells
        volume.write(0, np.ones((per, 32), dtype=np.uint8))
        volume.inject_latent_error(0, stripe=0, row=0)
        out = volume.read(0, per)
        assert not np.shares_memory(out, volume._backing)

    def test_read_counters_match_copy_path(self):
        aligned = _volume()
        reference = _volume(rotate=True)  # rotation forces the copy path
        per = aligned.layout.num_data_cells
        data = np.zeros((per, 32), dtype=np.uint8)
        aligned.write(0, data)
        reference.write(0, data)
        aligned.reset_io_counters()
        reference.reset_io_counters()
        aligned.read(0, per)
        reference.read(0, per)
        total = lambda v: sum(d.read_count for d in v.disks)  # noqa: E731
        assert total(aligned) == total(reference) == per

    @pytest.mark.parametrize("code", ["rdp", "hcode", "hdp", "evenodd",
                                      "pcode"])
    def test_non_row_major_layouts_fall_back(self, code):
        """Only layouts whose logical order is the row-major matrix prefix
        qualify; everything else must silently take the copy path."""
        volume = _volume(code=code, p=5)
        per = volume.layout.num_data_cells
        data = np.random.default_rng(5).integers(
            0, 256, (per, 32), dtype=np.uint8
        )
        volume.write(0, data)
        out = volume.read(0, per)
        if not volume._row_major_data:
            assert not np.shares_memory(out, volume._backing)
        assert np.array_equal(out, data)


class TestViewWrittenBack:
    @pytest.mark.parametrize("code", ("dcode", "xcode"))
    @pytest.mark.parametrize("shift", (1, 3, -1))
    @pytest.mark.parametrize("kernel", (True, False))
    def test_view_written_at_a_shifted_offset(self, code, shift, kernel):
        """A zero-copy view of stripe 0 written back ``shift`` elements
        on (``-1``: ``per - 1``) lands every row as the view held it when
        the write was made — the head stripe's RMW must not move rows
        the tail still reads — and parity follows, on either executor."""
        volume = RAID6Volume(make_code(code, 7), num_stripes=8,
                             element_size=16)
        if not kernel:
            volume._c = None
        per = volume.layout.num_data_cells
        shift %= per
        volume.write(0, np.random.default_rng(shift).integers(
            0, 256, (8 * per, 16), dtype=np.uint8
        ))
        view = volume.read(0, per)
        assert np.shares_memory(view, volume._backing)
        want = view.copy()
        volume.write(shift, view)
        assert np.array_equal(volume.read(shift, per), want)
        assert volume.scrub() == []
