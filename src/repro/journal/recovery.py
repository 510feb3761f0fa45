"""Crash recovery: mount-time replay of open write intents.

After a simulated power loss, the volume's disks hold whatever the torn
write managed to land; the :class:`~repro.journal.intent.WriteIntentLog`
holds exactly the set of intents whose writes may be incomplete.
:class:`CrashRecovery` is the mount-time engine that walks those intents
in sequence order, classifies each touched stripe, and repairs it:

``clean_new``
    Every dirty cell already carries the intent's payload and parity is
    consistent — the write finished but never committed.  Recovery just
    commits the intent (no I/O beyond the inspection reads).
``clean_old``
    Nothing landed (crash between intent and first element write): the
    stripe is the consistent pre-write image.  Replayed forward.
``torn_data``
    Some dirty cells are new, some old — the mixed image RAID-6 must
    never expose.  Replayed forward.
``torn_parity``
    Data cells are uniform but parity disagrees (crash inside the parity
    phase of an RMW, or an unverifiable pattern).  Replayed forward —
    re-encoding from data is exactly the classical parity resync.

Replay writes the redo payload into every dirty cell, re-encodes parity
from the full data image and stores the stripe, so **an open intent
always resolves to the fully-new image and a stripe with no open intent
stays fully-old** — the old/new atomicity rule the crash-point chaos
campaigns (:func:`repro.faults.chaos.run_crash_points`) verify byte-
exactly.  When a *non-dirty* data cell is unreadable, replay first
decodes it through the ordinary erasure machinery — legal only while the
stripe is internally consistent; under torn parity that cell is
genuinely unrecoverable and recovery raises a typed
:class:`~repro.exceptions.TornWriteError` instead of writing garbage.
Failures during the replay itself surface as
:class:`~repro.exceptions.JournalReplayError`.  Both name the stripe and
the intent's sequence number.

All inspection reads and repair writes go through the volume's counted
disk paths, so ``RAID6Volume.io_counters()`` accounts for recovery I/O
truthfully; the :class:`RecoveryReport` carries the per-run deltas.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.array import ioplan
from repro.codec.plan import write_footprint
from repro.codes.base import Cell, column_failure_cells
from repro.exceptions import (
    JournalReplayError,
    ReproError,
    TornWriteError,
    UnrecoverableStripeError,
)
from repro.journal.intent import WriteIntent, WriteIntentLog
from repro.util.validation import require

#: Stripe classifications (see module docstring).
CLEAN_OLD = "clean_old"
CLEAN_NEW = "clean_new"
TORN_DATA = "torn_data"
TORN_PARITY = "torn_parity"


def parity_digest(layout, get_cell, cells=None, start: int = 0) -> int:
    """CRC-32 chained over the stripe's parity cells in canonical order.

    ``get_cell(cell)`` returns the element buffer; the same chaining is
    used by the volume when it snapshots old parity into an intent, so
    digests are comparable across the write and recovery sides.
    ``cells`` restricts the chain to a footprint subset (must be in
    canonical ``layout.parity_cells`` order, as
    :func:`repro.codec.plan.write_footprint` gives it); ``None`` chains
    every parity cell.  ``start`` seeds the chain so group
    verification can run one continuous CRC across the footprints of
    several stripes (matching the write side's single-gather group
    digest — CRC-32 over a concatenation equals the chained per-block
    CRC).
    """
    digest = start
    for cell in layout.parity_cells if cells is None else cells:
        digest = zlib.crc32(np.ascontiguousarray(get_cell(cell)), digest)
    return digest


@dataclass
class _Inspection:
    """Everything one stripe read tells recovery about an open intent."""

    cls: str
    buf: np.ndarray
    lost: Set[Cell]
    #: Readable dirty cells already carrying the redo payload.
    n_new: int
    #: Parity cells the write could have changed (canonical order).
    footprint: Tuple[Cell, ...]
    #: Whether every footprint parity cell was readable.
    parity_complete: bool


@dataclass(frozen=True)
class IntentOutcome:
    """What recovery concluded and did about one open intent."""

    seq: int
    stripe: int
    classification: str
    action: str  # "committed" (clean_new) or "replayed"


@dataclass
class RecoveryReport:
    """Result of one :meth:`CrashRecovery.run` pass."""

    outcomes: List[IntentOutcome] = field(default_factory=list)
    #: Element reads/writes the recovery pass itself issued (disk-counter
    #: deltas, so they reconcile with ``RAID6Volume.io_counters()``).
    elements_read: int = 0
    elements_written: int = 0

    @property
    def replayed(self) -> int:
        return sum(1 for o in self.outcomes if o.action == "replayed")

    @property
    def clean(self) -> int:
        return sum(1 for o in self.outcomes if o.action == "committed")

    def classifications(self) -> Dict[str, int]:
        """``classification -> count`` over all recovered intents."""
        out: Dict[str, int] = {}
        for o in self.outcomes:
            out[o.classification] = out.get(o.classification, 0) + 1
        return out

    def __repr__(self) -> str:
        return (
            f"<RecoveryReport intents={len(self.outcomes)} "
            f"replayed={self.replayed} clean={self.clean} "
            f"reads={self.elements_read} writes={self.elements_written}>"
        )


class CrashRecovery:
    """Mount-time scan-and-repair over a volume's write-intent log."""

    def __init__(self, volume, journal: Optional[WriteIntentLog] = None):
        self.volume = volume
        self.journal = journal if journal is not None else volume.journal
        require(self.journal is not None,
                "volume has no write-intent journal attached")

    @property
    def needed(self) -> bool:
        """Whether any open intent awaits recovery."""
        return self.journal.dirty

    # -- inspection ----------------------------------------------------------

    def scan(self) -> List[Tuple[int, int, str]]:
        """Classify every open intent without repairing anything.

        Returns ``(seq, stripe, classification)`` triples in sequence
        order.  Inspection reads are real (counted) disk reads.  Group-
        committed bursts get the same joint-digest verdict ``run`` uses.
        """
        out = []
        cache: Dict[int, "_Inspection"] = {}
        for intent in self.journal.open_intents():
            insp = self._inspection_for(intent, cache)
            out.append((intent.seq, intent.stripe, insp.cls))
        return out

    def _inspect(self, intent: WriteIntent) -> "_Inspection":
        """Load the intent's stripe and classify its crash state."""
        vol = self.volume
        layout = vol.layout
        stripe = intent.stripe
        stale = vol._stale_cols(stripe)
        # one gather of the surviving columns, nothing decoded: what
        # failed to read is lost like a stale column
        buf, failed = ioplan.gather_stripes(vol, (stripe,), stale)
        buf = buf[0]
        lost_set = column_failure_cells(layout, stale) | set(failed.get(0, ()))
        payload = intent.payload()
        readable_dirty = [c for c in payload if c not in lost_set]
        n_new = sum(
            bool(np.array_equal(buf[c.row, c.col], payload[c]))
            for c in readable_dirty
        )
        # digest over the same footprint the write side snapshotted —
        # derived from the intent's dirty cells, so it needs no extra
        # journal field (full-stripe intents footprint every parity)
        footprint = write_footprint(layout, intent.dirty_cells).parities
        parity_complete = not any(c in lost_set for c in footprint)
        parity_clean = not lost_set and vol.codec.parity_ok(buf)
        digest = (
            parity_digest(layout, lambda c: buf[c.row, c.col], footprint)
            if parity_complete else None
        )
        if readable_dirty and n_new == len(readable_dirty):
            if parity_clean or (
                intent.new_parity_digest is not None
                and digest == intent.new_parity_digest
            ):
                cls = CLEAN_NEW
            else:
                cls = TORN_PARITY
        elif n_new == 0:
            if parity_clean or (
                intent.old_parity_digest is not None
                and digest == intent.old_parity_digest
            ):
                cls = CLEAN_OLD
            else:
                cls = TORN_PARITY
        else:
            cls = TORN_DATA
        return _Inspection(
            cls=cls, buf=buf, lost=lost_set, n_new=n_new,
            footprint=footprint, parity_complete=parity_complete,
        )

    def _inspection_for(
        self, intent: WriteIntent, cache: Dict[int, "_Inspection"]
    ) -> "_Inspection":
        """Inspection of ``intent``, group-verified when it leads a group.

        Reaching the first member of a complete group inspects every
        member at once and attempts the joint all-OLD verdict (one
        chained digest for the burst); the members' inspections are
        cached so each stripe is still read exactly once.
        """
        insp = cache.pop(intent.seq, None)
        if insp is not None:
            return insp
        group = intent.group
        if group is not None and intent.seq == group.group_seq:
            verified = self._inspect_group(intent)
            if verified is not None:
                cache.update(verified)
                return cache.pop(intent.seq)
        return self._inspect(intent)

    def _inspect_group(
        self, first: WriteIntent
    ) -> Optional[Dict[int, "_Inspection"]]:
        """Joint inspection of one complete group, led by ``first``.

        Returns ``seq -> inspection`` for every member — with members
        upgraded to ``clean_old`` when the whole burst verifies as
        byte-old against the frame's chained footprint digest — or
        ``None`` when the group cannot be jointly inspected (members
        missing, e.g. restored from a partially committed snapshot, or
        duplicate stripes, which would make cached inspections stale
        across replays).  The joint check requires *every* member to be
        byte-old and every partial member's footprint readable; a single
        new byte anywhere drops the whole group back to per-stripe
        classification, which is what "all-or-per-stripe" means.
        """
        vol = self.volume
        frame = first.group
        members = [
            i for i in self.journal.open_intents() if i.group is frame
        ]
        stripes = {i.stripe for i in members}
        if len(members) != frame.size or len(stripes) != len(members):
            return None
        inspections = {i.seq: self._inspect(i) for i in members}
        if frame.old_digest is None:
            return inspections
        per = vol.layout.num_data_cells
        chained = 0
        all_old = True
        for member in members:  # open_intents() -> seq == staging order
            insp = inspections[member.seq]
            if insp.n_new:
                all_old = False
                break
            if len(member.dirty_cells) == per:
                continue  # full-stripe member: not in the write-side chain
            if not insp.parity_complete:
                all_old = False
                break
            buf = insp.buf
            chained = parity_digest(
                vol.layout, lambda c: buf[c.row, c.col],
                insp.footprint, start=chained,
            )
        if all_old and chained == frame.old_digest:
            for insp in inspections.values():
                if insp.cls != CLEAN_NEW:
                    insp.cls = CLEAN_OLD
        return inspections

    # -- repair --------------------------------------------------------------

    def run(self) -> RecoveryReport:
        """Recover every open intent; returns the per-run report.

        Idempotent: a crash *during* recovery leaves the unfinished
        intents open, and the next run picks them up again.
        """
        vol = self.volume
        report = RecoveryReport()
        reads0 = sum(d.read_count for d in vol.disks)
        writes0 = sum(d.write_count for d in vol.disks)
        try:
            cache: Dict[int, _Inspection] = {}
            for intent in self.journal.open_intents():
                insp = self._inspection_for(intent, cache)
                cls = insp.cls
                if cls == CLEAN_NEW:
                    action = "committed"
                else:
                    self._replay(intent, cls, insp.buf, insp.lost)
                    self.journal.stats.replayed += 1
                    action = "replayed"
                self.journal.commit(intent)
                report.outcomes.append(
                    IntentOutcome(intent.seq, intent.stripe, cls, action)
                )
        finally:
            report.elements_read = (
                sum(d.read_count for d in vol.disks) - reads0
            )
            report.elements_written = (
                sum(d.write_count for d in vol.disks) - writes0
            )
        return report

    def _replay(
        self,
        intent: WriteIntent,
        cls: str,
        buf: np.ndarray,
        lost: Set[Cell],
    ) -> None:
        """Roll the stripe forward to the fully-new image."""
        vol = self.volume
        layout = vol.layout
        stripe, seq = intent.stripe, intent.seq
        payload = intent.payload()
        lost_nondirty_data = [
            c for c in lost if layout.is_data(c) and c not in payload
        ]
        if lost_nondirty_data:
            # those cells keep their pre/post-write value either way, but
            # they can only be decoded while the stripe is internally
            # consistent — torn parity would reconstruct garbage.
            if cls not in (CLEAN_OLD, CLEAN_NEW):
                raise TornWriteError(
                    stripe, seq,
                    f"{len(lost_nondirty_data)} surviving data cells "
                    f"unreadable under torn parity",
                )
            try:
                vol._decode_cells_checked(stripe, buf, sorted(
                    lost, key=lambda c: (c.col, c.row)
                ))
            except UnrecoverableStripeError as exc:
                raise JournalReplayError(stripe, seq, str(exc)) from exc
        for cell, value in payload.items():
            buf[cell.row, cell.col] = value
        vol.codec.encode(buf)
        try:
            # the failure state as it is now: a disk that died during
            # recovery takes no writes
            ioplan.store_stripes(vol, (stripe,), buf, vol._stale_cols(stripe))
        except ReproError as exc:
            raise JournalReplayError(stripe, seq, str(exc)) from exc


def recover_on_mount(volume) -> Optional[RecoveryReport]:
    """Mount-time convenience: recover if the volume's journal is dirty.

    Returns the :class:`RecoveryReport`, or ``None`` when the volume has
    no journal or no open intents (nothing to do).
    """
    journal = getattr(volume, "journal", None)
    if journal is None or not journal.dirty:
        return None
    return CrashRecovery(volume, journal).run()
