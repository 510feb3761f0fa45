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
from repro.array.volume import RAID6Volume
from repro.codes.base import Cell
from repro.exceptions import InconsistentStripeError, UnrecoverableStripeError
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

    Observes the volume's one write funnel, ``_store_rows`` — one call
    per plan store, whole stripes encoded in place included — so every
    write keeps the checksum map current.  Pass ``store=`` (e.g. the one
    :func:`~repro.array.persistence.load_volume` hands back from an
    image saved with a checksum map) to resume an existing map instead of re-seeding from the
    current disk contents.

    With ``verify_reads=True`` (the default) every planned load checks
    its blocks against the store — gathers on quiet disks edge-triggered
    through the verified bitmap, element-by-element loads on every
    read — and hands mismatches back to the plan as located erasures
    that the self-healing ladder repairs inline.  Seeded checksums start
    *verified* (they were just computed from the bytes on disk); a
    resumed store starts fully unverified, so the first read after a
    mount re-checks everything it touches.
    """

    def __init__(
        self,
        volume: RAID6Volume,
        store: Optional[ChecksumStore] = None,
        verify_reads: bool = True,
    ) -> None:
        self.volume = volume
        self.verify_reads = verify_reads
        # every future store reaches the recorder; detach() takes it
        # off again, whatever else attached or detached meanwhile
        volume._observers += (self._record,)
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
        """Stop recording the volume's stores and verifying its reads."""
        volume = self.volume
        volume._observers = tuple(
            o for o in volume._observers if o != self._record
        )
        if volume.integrity is self:
            volume.integrity = None

    # -- seeding ------------------------------------------------------------

    def _seed(self) -> None:
        """Record a checksum for every currently readable block.

        Seeded digests are marked verified — they were computed from the
        bytes just read, so re-hashing them on the next read would prove
        nothing new.  Stale columns and blocks that fail to read are
        skipped.
        """
        for _, _, disk, offset, crc in self._blocks():
            if crc is not None:
                self.store._sums[(disk, offset)] = crc
                self.store.mark_verified(disk, offset)

    def _blocks(self):
        """``(stripe, cell, disk, offset, CRC-32)`` of every block the
        sweep of :meth:`_chunks` reads."""
        for stripes, _, rows in self._chunks():
            for i, cell, disk, offset, crc in rows:
                yield stripes[i], cell, disk, offset, crc

    def _chunks(self):
        """The volume in runs of at most ``ioplan.RUN_CHUNK`` stripes
        sharing their stale columns: ``(stripes, buf, rows)``.

        ``buf`` is one raw gather of every block outside the run's stale
        columns (:func:`repro.array.ioplan.gather_stripes`, unverified:
        the sweeps hash every block themselves, whatever the verified
        bitmap says), ``rows`` one ``(index into stripes, cell, disk,
        offset, CRC-32)`` per block — stripe-major, columns ascending —
        with ``None`` for the CRC of a block that failed to read.
        """
        volume = self.volume
        for stripes in volume._chunks():
            surface = volume._surface()
            for lo, hi, stale in ioplan.stale_runs(volume, surface, stripes):
                run = stripes[lo:hi]
                buf, failed = ioplan.gather_stripes(
                    volume, run, stale, verify=False
                )
                cells, at = ioplan.stripe_rows(volume, run, stale)
                offsets, disks = np.divmod(at, volume.layout.cols)
                rows = []
                for k, (disk, offset) in enumerate(
                    zip(disks.tolist(), offsets.tolist())
                ):
                    i, cell = k // len(cells), cells[k % len(cells)]
                    crc = (
                        None if cell in failed.get(i, ())
                        else crc32(buf[i, cell.row, cell.col])
                    )
                    rows.append((i, cell, disk, offset, crc))
                yield run, buf, rows

    # -- write recording -----------------------------------------------------

    def _record(
        self, at: np.ndarray, data: Optional[np.ndarray] = None
    ) -> None:
        """Checksum the rows ``at`` a store just wrote."""
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
        """Element-by-element verification: always re-hash, mark
        verified on match."""
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

        Each damaged stripe is loaded once more with its damaged cells
        known-lost (a cell that fails to read now joins them), decoded
        and the damage rewritten in one store.  Returns the repairs
        performed.  Raises :class:`InconsistentStripeError` when a stripe
        has more damage than its equations can solve — data loss,
        reported loudly.
        """
        volume = self.volume
        repaired = self.find_corruption()
        for stripe, bad in repaired.items():
            try:
                buf, failed = ioplan.load_stripes(
                    volume, (stripe,), volume._stale_cols(stripe), bad
                )
            except UnrecoverableStripeError as exc:
                raise InconsistentStripeError(
                    f"stripe {stripe}: {len(bad)} damaged cells exceed "
                    f"recoverability ({exc})"
                ) from exc
            bad[:] = failed[0]
            ioplan.store_cells(volume, stripe, bad, buf[0])
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

        Reads each run of stripes as one planned sweep (:meth:`_chunks`),
        then repairs and cross-checks each stripe in turn.  Once its
        sweep escalates a disk, it repairs the run in hand on live disks
        and stops, as ``scrub_and_repair`` does: the rest is a rebuild's.
        """
        volume = self.volume
        require(not volume.failed_disks and (
            volume._rebuild is None or not volume._rebuild.active
        ), "cannot scrub with failed or rebuilding disks present")
        report = ScrubCampaignReport()
        for stripes, buf, rows in self._chunks():
            bad_cells: Dict[int, List[Cell]] = {}
            for i, cell, disk, offset, crc in rows:
                if crc == self.store.expected(disk, offset):
                    self.store.mark_verified(disk, offset)
                    report.elements_read += 1
                else:
                    bad_cells.setdefault(i, []).append(cell)
            for i, stripe in enumerate(stripes):
                bad = bad_cells.get(i)
                if bad:
                    volume._decode_cells_checked(stripe, buf[i], bad)
                    live = volume._live_cells(stripe, bad)
                    if live:
                        ioplan.store_cells(volume, stripe, live, buf[i])
                    for cell in live:
                        self._classify(report, stripe, cell)
                report.stripes_scanned += 1
                # a parity mismatch with no digest evidence cannot be
                # located
                if not volume.codec.parity_ok(buf[i]):
                    self._unattributed(report, stripe, strict)
            if volume.failed_disks:
                break  # escalated: the array is a rebuild's now
        return report

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
