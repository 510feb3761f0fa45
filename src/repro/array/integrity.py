"""Block-checksum integrity layer: locating and healing silent corruption.

Parity alone *detects* that a stripe is inconsistent but cannot say which
cell rotted — RAID-6 can rebuild erasures (known positions), not errors
(unknown positions).  Production arrays therefore keep a per-block
checksum out of band; a mismatching block becomes a located erasure and
the ordinary decoder repairs it.  This module provides that layer for
:class:`~repro.array.volume.RAID6Volume`:

* :class:`ChecksumStore` — CRC-32 per ``(disk, offset)``, updated on every
  write, plus a runtime verified-bitmap that makes foreground
  verification edge-triggered;
* :class:`IntegrityChecker` — wires end-to-end **verified reads** into
  the volume (a healthy read that returns bytes disagreeing with their
  CRC is treated as an erasure: reconstructed from parity, rewritten,
  re-recorded, counted in ``heal_log`` and toward
  :class:`~repro.faults.policy.ErrorPolicy` escalation), volume-wide
  corruption location (:meth:`IntegrityChecker.find_corruption`, a
  CRC sweep), verify-and-repair, and :meth:`IntegrityChecker.
  scrub_campaign` — the scrub engine that finds flips the disk
  never reported and disambiguates data- vs parity-corruption by
  cross-checking parity consistency against the checksum store.

Verified-read cost model (docs/robustness.md, "Silent corruption &
durability"): each block pays one CRC on its *first* read since
attach/write — after that a bitmap lookup suffices, so steady-state
batched reads stay within a few percent of unverified ones.  Writes
clear the block's bit (catching corruption-on-write at the next read);
scrub campaigns re-verify everything regardless of the bitmap, bounding
the detection latency of at-rest rot.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.array import ioplan
from repro.array.volume import _CELL_ERRORS, RAID6Volume
from repro.codes.base import Cell
from repro.exceptions import InconsistentStripeError, LatentSectorError
from repro.util.validation import require


def crc32(block: np.ndarray) -> int:
    """CRC-32 of one element buffer."""
    return zlib.crc32(block.tobytes()) & 0xFFFFFFFF


class ChecksumStore:
    """Out-of-band CRC-32 map keyed by ``(disk, offset)``.

    Blocks never written have an implicit checksum of the all-zero block,
    matching the volume's zero-initialised disks.

    When :meth:`attach_geometry` has been called (the
    :class:`IntegrityChecker` does this), the store additionally tracks a
    per-block **verified bitmap** — purely runtime state, never
    persisted: a set bit means the block's content was CRC-checked since
    it was last written, so the batched read paths can skip re-hashing
    it.  :meth:`record` clears the bit (fresh writes are unverified until
    read back); :meth:`forget_disk` clears the disk's whole column.
    """

    def __init__(self, element_size: int) -> None:
        self._sums: Dict[Tuple[int, int], int] = {}
        self._zero_sum = crc32(np.zeros(element_size, dtype=np.uint8))
        self._verified: Optional[np.ndarray] = None

    def attach_geometry(self, num_disks: int, capacity: int) -> None:
        """Allocate the verified bitmap for ``num_disks × capacity``."""
        if self._verified is None or \
                self._verified.shape != (num_disks, capacity):
            self._verified = np.zeros((num_disks, capacity), dtype=bool)

    def record(self, disk: int, offset: int, block: np.ndarray) -> None:
        self._sums[(disk, offset)] = crc32(block)
        if self._verified is not None:
            self._verified[disk, offset] = False

    def expected(self, disk: int, offset: int) -> int:
        return self._sums.get((disk, offset), self._zero_sum)

    def matches(self, disk: int, offset: int, block: np.ndarray) -> bool:
        return crc32(block) == self.expected(disk, offset)

    def mark_verified(self, disk: int, offsets: np.ndarray) -> None:
        if self._verified is not None:
            self._verified[disk, offsets] = True

    def invalidate(self) -> None:
        """Clear the whole verified bitmap (every next read re-checks)."""
        if self._verified is not None:
            self._verified[:] = False

    def forget_disk(self, disk: int) -> None:
        """Drop every checksum of a disk (after replacement).

        Forgotten entries fall back to the implicit all-zero digest —
        which is exactly what a freshly blanked replacement disk holds —
        and the disk's verified bits clear, so every block re-verifies as
        the rebuild cursor repopulates (and re-records) it.
        """
        for key in [k for k in self._sums if k[0] == disk]:
            del self._sums[key]
        if self._verified is not None:
            self._verified[disk, :] = False


@dataclass
class ScrubCampaignReport:
    """Result of one :meth:`IntegrityChecker.scrub_campaign` sweep.

    ``repaired_data`` / ``repaired_parity`` list the healed cells as
    ``(stripe, cell)`` — classified by whether the rotten block held data
    or parity, which the digest cross-check makes unambiguous.
    ``unattributed`` lists stripes whose parity is inconsistent while
    every block *matches* its digest — corruption that predates the
    checksum record (or a rotten store), which cannot be located and is
    never auto-repaired.
    """

    stripes_scanned: int = 0
    elements_read: int = 0
    repaired_data: List[Tuple[int, Cell]] = field(default_factory=list)
    repaired_parity: List[Tuple[int, Cell]] = field(default_factory=list)
    unattributed: List[int] = field(default_factory=list)

    @property
    def repaired_count(self) -> int:
        return len(self.repaired_data) + len(self.repaired_parity)

    @property
    def clean(self) -> bool:
        return not self.repaired_count and not self.unattributed

    def __repr__(self) -> str:
        return (
            f"<ScrubCampaignReport stripes={self.stripes_scanned} "
            f"data={len(self.repaired_data)} "
            f"parity={len(self.repaired_parity)} "
            f"unattributed={len(self.unattributed)} "
            f"reads={self.elements_read}>"
        )


class IntegrityChecker:
    """Attach checksumming to a volume and scrub with error *location*.

    Wraps *both* of the volume's write funnels — per-element
    ``_write_cell`` and the planned paths' ``_store_rows``, one call per
    plan — so batched bulk writes, cache destages and rebuild sweeps
    keep the checksum map current exactly like the serial path does.
    Pass ``store=`` (e.g. the one
    :func:`~repro.array.persistence.load_volume` hands back on a v2
    archive) to resume an existing map instead of re-seeding from the
    current disk contents.

    With ``verify_reads=True`` (the default) the volume's read paths
    check every block against the store — scalar reads on every access,
    batched gathers edge-triggered through the verified bitmap — and
    surface mismatches as located erasures that the self-healing ladder
    repairs inline.  Seeded checksums start *verified* (they were just
    computed from the bytes on disk); a resumed store starts fully
    unverified, so the first read after a mount re-checks everything it
    touches.
    """

    def __init__(
        self,
        volume: RAID6Volume,
        store: Optional[ChecksumStore] = None,
        verify_reads: bool = True,
    ) -> None:
        self.volume = volume
        self.verify_reads = verify_reads
        # route every future write through the recorders
        self._inner_write = volume._write_cell
        volume._write_cell = self._recording_write  # type: ignore[assignment]
        self._inner_store_rows = volume._store_rows
        volume._store_rows = (  # type: ignore[assignment]
            self._recording_store_rows
        )
        volume.integrity = self
        if store is not None:
            self.store = store
            self.store.attach_geometry(
                len(volume.disks), volume.mapper.disk_capacity
            )
            return
        self.store = ChecksumStore(volume.element_size)
        self.store.attach_geometry(
            len(volume.disks), volume.mapper.disk_capacity
        )
        self._seed()

    def detach(self) -> None:
        """Restore the volume's unwrapped write funnels and read paths."""
        volume = self.volume
        if volume.__dict__.get("_write_cell") == self._recording_write:
            volume._write_cell = self._inner_write  # type: ignore[assignment]
        if volume.__dict__.get("_store_rows") == self._recording_store_rows:
            volume._store_rows = (  # type: ignore[assignment]
                self._inner_store_rows
            )
        if volume.integrity is self:
            volume.integrity = None

    # -- seeding ------------------------------------------------------------

    def _seed(self) -> None:
        """Record a checksum for every currently readable block.

        Seeded digests are marked verified — they were computed from the
        bytes just read, so re-hashing them on the next read would prove
        nothing new.  Failed disks and latent sectors are skipped.
        """
        for _, _, disk, offset, crc in self._blocks():
            if crc is not None:
                self.store._sums[(disk, offset)] = crc
                self.store.mark_verified(disk, offset)

    def _blocks(self):
        """``(stripe, cell, disk, offset, CRC-32)`` of every block on a
        live disk, read raw — ``None`` for the CRC of a latent sector:
        the planned sweep of :meth:`_chunks` on a quiet surface, the
        per-element walk otherwise, counter-identical to each other."""
        volume = self.volume
        for stripes, _, rows in self._chunks():
            if rows is not None:
                for i, cell, disk, offset, crc in rows:
                    yield stripes[i], cell, disk, offset, crc
                continue
            for stripe in stripes:
                for col in range(volume.layout.cols):
                    for cell in volume.layout.cells_in_column(col):
                        loc = volume.mapper.locate_cell(stripe, cell)
                        disk = volume.disks[loc.disk]
                        if disk.failed:
                            continue
                        try:
                            crc = crc32(disk.read(loc.offset))
                        except LatentSectorError:
                            crc = None
                        yield stripe, cell, loc.disk, loc.offset, crc

    def _chunks(self):
        """The volume in runs of at most ``ioplan.RUN_CHUNK`` stripes:
        ``(stripes, buf, rows)``, or ``(stripes, None, None)`` — walk it.

        ``buf`` is one raw gather of every block outside the run's stale
        columns (:func:`repro.array.ioplan.load_stripes`), ``rows`` one
        ``(index into stripes, cell, disk, offset, CRC-32)`` per block
        read, whatever the verified bitmap says — stripe-major, columns
        ascending like the walk.  The sweep stands down under hooks and
        latent sectors, and mid-rebuild, where the walk also visits the
        replacement's blank region.  The surface is snapshot per run, so
        the repair that clears the last latent sector reopens it.
        """
        volume = self.volume
        num_stripes = volume.mapper.num_stripes
        for start in range(0, num_stripes, ioplan.RUN_CHUNK):
            stripes = range(start, min(start + ioplan.RUN_CHUNK, num_stripes))
            surface = volume._surface()
            if not surface.quiet_io or surface.rebuilding:
                yield stripes, None, None
                continue
            for lo, hi, stale in ioplan.stale_runs(volume, surface, stripes):
                run = stripes[lo:hi]
                buf = ioplan.load_stripes(volume, run, stale, verify=False)
                cells, at = ioplan.stripe_rows(volume, run, stale)
                offsets, disks = np.divmod(at, volume.layout.cols)
                rows = []
                for k, (disk, offset) in enumerate(
                    zip(disks.tolist(), offsets.tolist())
                ):
                    i, cell = k // len(cells), cells[k % len(cells)]
                    crc = crc32(buf[i, cell.row, cell.col])
                    rows.append((i, cell, disk, offset, crc))
                yield run, buf, rows

    # -- write recording -----------------------------------------------------

    def _recording_write(self, stripe: int, cell: Cell, value) -> None:
        self._inner_write(stripe, cell, value)
        loc = self.volume.mapper.locate_cell(stripe, cell)
        self.store.record(loc.disk, loc.offset, value)

    def _recording_store_rows(
        self, at: np.ndarray, data: Optional[np.ndarray] = None
    ) -> None:
        self._inner_store_rows(at, data)
        if data is None:  # stored in place: hash what the store holds
            flat = self.volume._flat_backing
            data = (flat[row] for row in at.tolist())
        offsets, disks = np.divmod(at, len(self.volume.disks))
        sums = self.store._sums
        for key, row in zip(zip(disks.tolist(), offsets.tolist()), data):
            sums[key] = crc32(row)
        if self.store._verified is not None:
            self.store._verified[disks, offsets] = False

    # -- verified-read hooks (called by the volume) --------------------------

    def check_block(
        self, disk_id: int, offset: int, block: np.ndarray
    ) -> bool:
        """Scalar verification: always re-hash, mark verified on match."""
        if crc32(block) != self.store.expected(disk_id, offset):
            return False
        if self.store._verified is not None:
            self.store._verified[disk_id, offset] = True
        return True

    def verify_rows(
        self, disk_id: int, offsets: np.ndarray, data: np.ndarray
    ) -> np.ndarray:
        """Edge-triggered verification of one gather.

        Hashes only the rows whose verified bit is clear, marks matches
        verified, and returns the positions (indices into ``offsets``)
        that mismatched.  Steady state — everything already verified —
        costs one bitmap gather and no CRC at all.
        """
        verified = self.store._verified
        offsets = np.asarray(offsets, dtype=np.intp)
        if verified is None:
            need = np.arange(len(offsets), dtype=np.intp)
        else:
            need = np.flatnonzero(~verified[disk_id, offsets])
        if not need.size:
            return need
        expected = self.store
        bad: List[int] = []
        for i in need.tolist():
            offset = int(offsets[i])
            if crc32(data[i]) == expected.expected(disk_id, offset):
                if verified is not None:
                    verified[disk_id, offset] = True
            else:
                bad.append(i)
        return np.array(bad, dtype=np.intp)

    def range_verified(self, stripe: int) -> bool:
        """Whether every data block of ``stripe`` is verification-current
        (the zero-copy read path's precondition)."""
        verified = self.store._verified
        if verified is None:
            return False
        volume = self.volume
        base = stripe * volume.layout.rows
        return bool(
            verified[volume._data_cols, base + volume._data_rows].all()
        )

    def on_disk_replaced(self, disk: int) -> None:
        """The volume swapped in a blank replacement for ``disk``."""
        self.store.forget_disk(disk)

    # -- scrubbing -----------------------------------------------------------

    def find_corruption(self) -> Dict[int, List[Cell]]:
        """Stripe -> cells whose content no longer matches its checksum
        (latent sectors report as corrupt cells); every other block is
        marked verified.  One sweep of :meth:`_blocks`."""
        require(not self.volume.failed_disks,
                "cannot verify with failed disks present")
        corrupt: Dict[int, List[Cell]] = {}
        for stripe, cell, disk, offset, crc in self._blocks():
            if crc == self.store.expected(disk, offset):
                self.store.mark_verified(disk, offset)
            else:
                corrupt.setdefault(stripe, []).append(cell)
        return corrupt

    def verify_and_repair(self) -> Dict[int, List[Cell]]:
        """Locate corrupt/unreadable cells, decode them, rewrite.

        Returns the repairs performed.  Raises
        :class:`InconsistentStripeError` when a stripe has more damage
        than its equations can solve — data loss, reported loudly.
        """
        volume = self.volume
        repaired = self.find_corruption()
        for stripe, bad in repaired.items():
            buf = volume.codec.blank_stripe()
            for col in range(volume.layout.cols):
                for cell in volume.layout.cells_in_column(col):
                    if cell in bad:
                        continue
                    try:
                        buf[cell.row, cell.col] = volume._read_cell(
                            stripe, cell
                        )
                    except _CELL_ERRORS:
                        bad.append(cell)
            try:
                volume._decode_cells(buf, list(bad))
            except Exception as exc:
                raise InconsistentStripeError(
                    f"stripe {stripe}: {len(bad)} damaged cells exceed "
                    f"recoverability ({exc})"
                ) from exc
            for cell in bad:
                volume._write_cell(stripe, cell, buf[cell.row, cell.col])
        return repaired

    def scrub_campaign(self, strict: bool = True) -> ScrubCampaignReport:
        """Full-volume silent-corruption scrub: detect, locate, heal.

        The campaign engine behind ``docs/robustness.md`` ("Silent
        corruption & durability"): every block of every stripe is
        re-hashed against the checksum store (the verified bitmap is
        *not* trusted — a campaign bounds the detection latency of
        at-rest rot), digest-mismatching cells become located erasures
        decoded from parity and rewritten-and-re-recorded, and each
        stripe's parity is then cross-checked.  A stripe whose parity
        disagrees while every block matches its digest is
        **unattributed** corruption — with ``strict=True`` (default)
        that raises :class:`InconsistentStripeError`; otherwise the
        stripe is reported in :attr:`ScrubCampaignReport.unattributed`
        and left untouched.  A stripe with more rotten cells than its
        code can decode raises a typed
        :class:`~repro.exceptions.UnrecoverableStripeError`.

        Reads each run of stripes as one planned sweep (:meth:`_chunks`)
        when the fault surface is quiet, and by the deterministic
        per-element walk under fault hooks or latent sectors — so chaos
        campaigns replay bit-identically.  Either way each stripe is
        then repaired and cross-checked in turn.
        """
        volume = self.volume
        require(not volume.failed_disks and (
            volume._rebuild is None or not volume._rebuild.active
        ), "cannot scrub with failed or rebuilding disks present")
        report = ScrubCampaignReport()
        for stripes, swept, rows in self._chunks():
            bad_cells: Dict[int, List[Cell]] = {}
            for i, cell, disk, offset, crc in rows or ():
                if crc == self.store.expected(disk, offset):
                    self.store.mark_verified(disk, offset)
                    report.elements_read += 1
                else:
                    bad_cells.setdefault(i, []).append(cell)
            for i, stripe in enumerate(stripes):
                if rows is None:
                    buf, bad = self._campaign_walk(stripe, report)
                else:
                    buf, bad = swept[i], bad_cells.get(i, [])
                if bad:
                    volume._decode_cells_checked(stripe, buf, bad)
                    for cell in bad:
                        volume._write_cell(
                            stripe, cell, buf[cell.row, cell.col]
                        )
                        self._classify(report, stripe, cell)
                report.stripes_scanned += 1
                # a parity mismatch with no digest evidence cannot be
                # located
                if not volume.codec.parity_ok(buf):
                    self._unattributed(report, stripe, strict)
        return report

    def _campaign_walk(
        self, stripe: int, report: ScrubCampaignReport
    ) -> Tuple[np.ndarray, List[Cell]]:
        """Read one stripe cell by cell: its image and its bad cells."""
        volume = self.volume
        buf = volume.codec.blank_stripe()
        bad: List[Cell] = []
        for col in range(volume.layout.cols):
            for cell in volume.layout.cells_in_column(col):
                loc = volume.mapper.locate_cell(stripe, cell)
                try:
                    block = volume._disk_read(loc.disk, loc.offset)
                    report.elements_read += 1
                except _CELL_ERRORS:
                    bad.append(cell)
                    continue
                if not self.store.matches(loc.disk, loc.offset, block):
                    # explicit digest check: covers verify_reads=False
                    # (and costs nothing extra — campaigns re-hash by
                    # design)
                    bad.append(cell)
                    continue
                self.store.mark_verified(
                    loc.disk, np.array([loc.offset], dtype=np.intp)
                )
                buf[cell.row, cell.col] = block
        return buf, bad

    def _classify(
        self, report: ScrubCampaignReport, stripe: int, cell: Cell
    ) -> None:
        if self.volume.layout.is_data(cell):
            report.repaired_data.append((stripe, cell))
        else:
            report.repaired_parity.append((stripe, cell))

    def _unattributed(
        self, report: ScrubCampaignReport, stripe: int, strict: bool
    ) -> None:
        if strict:
            raise InconsistentStripeError(
                f"stripe {stripe}: parity inconsistent but every block "
                f"matches its checksum — corruption cannot be located"
            )
        report.unattributed.append(stripe)
