"""Write-intent log: the NVRAM half of the crash-consistency protocol.

A RAID-6 partial-stripe write is not atomic: data cells and the parity
cells of every touched group land as separate disk operations, and a
power loss between them desynchronizes data and parity — the classic
*write hole*.  The :class:`WriteIntentLog` closes it the way battery-
backed controllers do: before any destructive stripe write the volume
records an **intent** (stripe id, dirty cells with their new payload,
parity digests, a monotonic sequence number), performs the write, and
**commits** the intent once every element has landed.  A crash therefore
leaves behind exactly the set of intents whose writes may be torn; on
remount, :class:`~repro.journal.recovery.CrashRecovery` replays each one
so every interrupted write resolves to the *fully-new* stripe image (and
a stripe with no open intent is untouched, i.e. fully-old) — never a mix.

The log lives in simulated NVRAM: it is plain process memory, survives a
:class:`~repro.exceptions.SimulatedCrashError` trivially, and round-trips
through a volume image (:func:`~repro.array.persistence.save_volume`,
whose records carry the whole ledger) so a snapshot taken mid-campaign
remounts identically.

Crash-point fuzzing hooks into the intent lifecycle via
:attr:`WriteIntentLog.phase_hook`: the volume announces every protocol
phase (:data:`JOURNAL_PHASES`) through :meth:`WriteIntentLog.checkpoint`,
and a campaign's hook raises a simulated crash at the seeded phase.
While a phase hook is attached the volume's plans store element by
element, announcing ``inter_column`` wherever the next element of a
stripe is on another disk, so crash points are defined over the
deterministic plan order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codes.base import Cell
from repro.util.validation import require

#: Protocol phases announced through :meth:`WriteIntentLog.checkpoint`:
#:
#: * ``pre_intent``  — a destructive write is about to record its intent;
#: * ``post_intent`` — the intent is durable, no data has been written;
#: * ``inter_column`` — between element writes of the in-flight stripe;
#: * ``pre_commit``  — every element has landed, the commit is next.
JOURNAL_PHASES: Tuple[str, ...] = (
    "pre_intent", "post_intent", "inter_column", "pre_commit",
)


@dataclass(frozen=True)
class GroupFrame:
    """Shared framing of one group-committed intent burst.

    A burst of partial-stripe writes journaled through
    :meth:`WriteIntentLog.open_group` shares one frame: ``group_seq`` is
    the sequence number of the group's first member, ``size`` the member
    count, and ``old_digest`` one CRC-32 chain over the *concatenated*
    parity footprints of every partial-stripe member (in member order) as
    they stood before any write — one digest pass for the whole group
    instead of one per stripe.  Recovery uses the frame to classify the
    burst **all-or-per-stripe**: when every member is byte-old and the
    chained footprint digest matches, the whole group is ``clean_old`` in
    one verdict; any mismatch drops each member back to the ordinary
    per-stripe classification (``docs/robustness.md``, "Journal format").
    """

    group_seq: int
    size: int
    old_digest: Optional[int] = None


@dataclass
class WriteIntent:
    """One logged stripe update: the journal's unit of recovery.

    ``cells`` carries the *redo image* — the new payload of every dirty
    cell — which is what lets recovery roll an arbitrarily torn stripe
    forward to the fully-new state.  ``old_parity_digest`` is a CRC-32
    chain over the stripe's parity cells as they stood before the write
    (``None`` for full-stripe writes, whose replay never needs to trust
    old parity); ``new_parity_digest`` is the same chain over the freshly
    encoded parity when the write path knows it up front.  ``group``
    links the members of one group-committed burst to their shared
    :class:`GroupFrame` (``None`` for per-stripe intents).
    """

    seq: int
    stripe: int
    cells: Tuple[Tuple[Cell, np.ndarray], ...]
    old_parity_digest: Optional[int] = None
    new_parity_digest: Optional[int] = None
    committed: bool = False
    group: Optional[GroupFrame] = None
    #: Full-stripe fast path (:meth:`WriteIntentLog.open_full`): the redo
    #: image is the write's own payload — one ``(len(buf_cells),
    #: element_size)`` block, row ``i`` the new value of ``buf_cells[i]``
    #: — instead of per-cell tuples, so the hot batched write path never
    #: materializes a thousand element views just to log its intents.
    #: ``payload()`` materializes them lazily — recovery and persistence
    #: are the only readers, and both are off the hot path.
    buf: Optional[np.ndarray] = None
    buf_cells: Tuple[Cell, ...] = ()

    @property
    def dirty_cells(self) -> Tuple[Cell, ...]:
        """The cells this intent rewrites."""
        if self.buf is not None:
            return self.buf_cells
        return tuple(cell for cell, _ in self.cells)

    def payload(self) -> Dict[Cell, np.ndarray]:
        """``cell -> new value`` mapping of the redo image."""
        if self.buf is not None:
            return dict(zip(self.buf_cells, self.buf))
        return dict(self.cells)

    def __repr__(self) -> str:
        state = "committed" if self.committed else "open"
        return (
            f"<WriteIntent seq={self.seq} stripe={self.stripe} "
            f"cells={len(self.dirty_cells)} {state}>"
        )


@dataclass
class JournalStats:
    """Lifetime accounting of one :class:`WriteIntentLog`."""

    opened: int = 0
    committed: int = 0
    replayed: int = 0
    #: Group-committed bursts (:meth:`WriteIntentLog.open_group`); their
    #: member intents are counted in ``opened``/``committed`` too.
    groups: int = 0

    @property
    def in_flight(self) -> int:
        return self.opened - self.committed


class WriteIntentLog:
    """Stripe-level write-ahead intent log (simulated controller NVRAM).

    Thread-safe: sequence numbers are allocated and the open set mutated
    under an internal lock, so threads sharing a journaled volume can
    journal concurrent writes to different stripes without ever sharing
    or reordering an intent.  Phase checkpoints run *outside* the lock —
    a crash raised by the hook never leaves it held.
    """

    def __init__(
        self,
        phase_hook: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._next_seq = 0
        self._open: Dict[int, WriteIntent] = {}
        #: Optional crash-point hook, called as ``hook(phase, stripe)``
        #: at every :data:`JOURNAL_PHASES` boundary.  May raise (e.g.
        #: :class:`~repro.exceptions.SimulatedCrashError`) to tear the
        #: in-flight write at exactly that protocol phase.
        self.phase_hook = phase_hook
        self.stats = JournalStats()

    # -- lifecycle -----------------------------------------------------------

    def checkpoint(self, phase: str, stripe: int = -1) -> None:
        """Announce a protocol phase to the crash-point hook (if any)."""
        hook = self.phase_hook
        if hook is not None:
            require(phase in JOURNAL_PHASES,
                    f"unknown journal phase {phase!r}")
            hook(phase, stripe)

    def open(
        self,
        stripe: int,
        items: Sequence[Tuple[Cell, np.ndarray]],
        old_parity_digest: Optional[int] = None,
        new_parity_digest: Optional[int] = None,
        copy: bool = True,
    ) -> WriteIntent:
        """Record an intent; must precede the first destructive element op.

        ``copy=False`` lets hot batched paths hand over views of a
        private encode buffer instead of paying a payload memcopy; the
        caller then guarantees the buffer outlives the intent and is
        never mutated while the intent is open.
        """
        require(len(items) > 0, "an intent must cover at least one cell")
        self.checkpoint("pre_intent", stripe)
        if copy:
            # one NVRAM buffer per stripe instead of one allocation per
            # cell: the redo payload coalesces into a preallocated
            # (cells, element_size) block and the intent holds row views
            buf = np.empty(
                (len(items), items[0][1].shape[-1]), dtype=np.uint8
            )
            for i, (_, value) in enumerate(items):
                buf[i] = value
            payload = tuple(
                (cell, buf[i]) for i, (cell, _) in enumerate(items)
            )
        else:
            payload = tuple(items)
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            intent = WriteIntent(
                seq, stripe, payload,
                old_parity_digest=old_parity_digest,
                new_parity_digest=new_parity_digest,
            )
            self._open[seq] = intent
            self.stats.opened += 1
        self.checkpoint("post_intent", stripe)
        return intent

    def open_full(
        self,
        stripe: int,
        buf: np.ndarray,
        cells: Tuple[Cell, ...],
    ) -> WriteIntent:
        """Record a full-stripe intent against the stripe's payload:
        ``buf[i]`` is the new value of ``cells[i]``, every data cell of
        the stripe.

        The rows are held by reference (the caller guarantees they
        outlive the intent and are never mutated while open — the
        volume hands over the rows its caller is writing, for the
        duration of that call), and no parity digests are taken: every
        data cell is dirty, so replay re-encodes from the redo image and
        never trusts on-disk parity.
        """
        require(len(cells) > 0, "an intent must cover at least one cell")
        self.checkpoint("pre_intent", stripe)
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            intent = WriteIntent(
                seq, stripe, (), buf=buf, buf_cells=tuple(cells)
            )
            self._open[seq] = intent
            self.stats.opened += 1
        self.checkpoint("post_intent", stripe)
        return intent

    def open_group(
        self,
        entries: Sequence[Tuple[int, Sequence[Tuple[Cell, np.ndarray]]]],
        old_digest: Optional[int] = None,
    ) -> List[WriteIntent]:
        """Record one intent per stripe of a burst as a single group append.

        ``entries`` is the burst's ``(stripe, items)`` queue — a write's
        stripes along its route, or a cache destage's buckets
        (:meth:`repro.array.volume.RAID6Volume._open_intents`);
        ``old_digest`` is the caller's one-pass CRC-32 chain over the
        concatenated parity footprints of the partial-stripe members (see
        :class:`GroupFrame`).  The redo payloads of *all* members coalesce
        into one NVRAM buffer and the member intents are sealed **under a
        single lock acquisition** — so a crash during staging leaves *no*
        intent open (every stripe stays fully-old) and a crash after the
        seal leaves *all* of them open (recovery rolls every member fully
        forward).  There is never a half-registered group.

        Crash points: ``pre_intent`` fires once per member during staging
        (before that member's payload is copied), ``post_intent`` once per
        member after the seal — the first/middle/last occurrences of
        either phase are the group-boundary crash points the chaos
        campaigns tear at.
        """
        require(len(entries) > 0, "a group must cover at least one stripe")
        es = entries[0][1][0][1].shape[-1]
        total = sum(len(items) for _, items in entries)
        buf = np.empty((total, es), dtype=np.uint8)
        staged: List[Tuple[int, Tuple[Tuple[Cell, np.ndarray], ...]]] = []
        k = 0
        for stripe, items in entries:
            self.checkpoint("pre_intent", stripe)
            payload = []
            for cell, value in items:
                buf[k] = value
                payload.append((cell, buf[k]))
                k += 1
            staged.append((stripe, tuple(payload)))
        with self._lock:
            group = GroupFrame(
                group_seq=self._next_seq,
                size=len(staged),
                old_digest=old_digest,
            )
            intents = []
            for stripe, payload in staged:
                seq = self._next_seq
                self._next_seq += 1
                intent = WriteIntent(seq, stripe, payload, group=group)
                self._open[seq] = intent
                intents.append(intent)
            self.stats.opened += len(intents)
            self.stats.groups += 1
        for intent in intents:
            self.checkpoint("post_intent", intent.stripe)
        return intents

    def commit(self, intent: WriteIntent) -> None:
        """Retire an intent once its write has fully landed."""
        self.checkpoint("pre_commit", intent.stripe)
        with self._lock:
            if not intent.committed:
                intent.committed = True
                self._open.pop(intent.seq, None)
                self.stats.committed += 1

    def commit_group(self, intents: Sequence[WriteIntent]) -> None:
        """Retire a whole group once every member's write has landed.

        One lock acquisition for the burst; ``pre_commit`` still fires
        once per member (before anything commits), so group-boundary
        crash points exist on the commit side too — and a crash at any of
        them leaves the *entire* group open, never a partial commit.
        """
        for intent in intents:
            self.checkpoint("pre_commit", intent.stripe)
        with self._lock:
            for intent in intents:
                if not intent.committed:
                    intent.committed = True
                    self._open.pop(intent.seq, None)
                    self.stats.committed += 1

    # -- inspection ----------------------------------------------------------

    def open_intents(self) -> List[WriteIntent]:
        """Uncommitted intents in sequence order (the recovery work-list)."""
        with self._lock:
            return sorted(self._open.values(), key=lambda i: i.seq)

    @property
    def dirty(self) -> bool:
        """Whether any intent is open (a crash now would need recovery)."""
        with self._lock:
            return bool(self._open)

    @property
    def next_seq(self) -> int:
        with self._lock:
            return self._next_seq

    def restore(
        self, intents: Sequence[WriteIntent], next_seq: int
    ) -> None:
        """Reload journal state from a persisted snapshot.

        Used by :func:`~repro.array.persistence.load_volume` for each
        record it applies; replaces whatever the log currently holds.
        """
        with self._lock:
            require(
                all(not i.committed for i in intents),
                "restored intents must be open",
            )
            self._open = {i.seq: i for i in intents}
            top = max((i.seq for i in intents), default=-1)
            self._next_seq = max(next_seq, top + 1)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"<WriteIntentLog open={len(self._open)} "
                f"next_seq={self._next_seq} opened={self.stats.opened} "
                f"committed={self.stats.committed}>"
            )
