"""Deterministic fault injection for simulated disk arrays.

The :class:`FaultInjector` hooks into every :class:`~repro.array.disk.
SimDisk` of a volume (via ``SimDisk.fault_hook``) and fires faults as the
array performs I/O.  Two trigger mechanisms compose:

* **scheduled** — a :class:`FaultSpec` armed for a specific global disk-op
  index (``at_op``), optionally pinned to one disk and one op kind.  This
  is how a test places a crash exactly seven element-writes into a
  partial-stripe write, or kills disk 3 at op 1000;
* **probabilistic** — per-op :class:`FaultRates`, drawn from a seeded
  ``numpy`` generator.  Given the same seed and the same I/O sequence the
  drawn faults are bit-identical, so any failing chaos schedule replays
  exactly.

Fault kinds:

``transient``
    The op raises :class:`~repro.exceptions.TransientIOError`; the element
    itself is intact.  ``count`` > 1 makes the next ``count`` matching ops
    on that disk fail too (a flaky cable, not a single glitch).
``latent``
    The sector under the op (or ``spec.offset``) is marked bad, so reads
    raise :class:`~repro.exceptions.LatentSectorError` until rewritten.
``disk_death``
    The disk transitions to FAILED mid-op; the op (and everything after
    it) raises :class:`~repro.exceptions.DiskFailedError`.
``slow``
    The disk serves but drags: every subsequent op on it accrues
    ``delay_ms`` of simulated service latency.  :meth:`slow_penalties`
    exports the per-disk penalty map in the shape
    :class:`repro.perf.timing.ArrayTimingModel` consumes, which is how a
    dragging disk shows up in the I/O-simulation timing figures.
``crash``
    The whole array loses power: :class:`~repro.exceptions.
    SimulatedCrashError` tears the in-flight operation.  One-shot.
``silent_flip``
    Bytes flip on the medium with **no error raised** — the silent data
    corruption scrub campaigns exist to catch (docs/robustness.md,
    "Silent corruption & durability").  A flip scheduled on a ``read``
    (or ``any``) op corrupts the stored block *before* the read serves
    it — at-rest rot surfacing on access; a flip scheduled on a
    ``write`` op corrupts the block *after* it lands — a corrupted
    write the device acknowledged cleanly.  :meth:`FaultInjector.
    corrupt_at_rest` flips a block immediately with no I/O at all.  The
    flip XORs every byte of the element with a mask (``FaultSpec.
    flip_mask``, or a seeded draw for rate/at-rest flips), so content
    changes but no counter, bad-sector set or exception ever does.

Every fired fault is appended to :attr:`FaultInjector.log` as a
:class:`FaultEvent`, giving a deterministic, comparable record of the
entire schedule.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulatedCrashError, TransientIOError
from repro.util.validation import require

#: Recognised fault kinds.
FAULT_KINDS = (
    "transient", "latent", "disk_death", "slow", "crash", "silent_flip",
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``at_op`` is the global disk-op index at which the spec arms; it fires
    on the first subsequent op matching ``disk`` (``None`` = any disk) and
    ``op`` (``"read"``/``"write"``/``"any"``).
    """

    kind: str
    at_op: int = 0
    disk: Optional[int] = None
    op: str = "any"
    count: int = 1
    offset: Optional[int] = None
    delay_ms: float = 0.0
    #: ``silent_flip`` only: the byte XORed over the whole element.
    flip_mask: int = 0xFF

    def __post_init__(self) -> None:
        require(self.kind in FAULT_KINDS,
                f"unknown fault kind {self.kind!r}")
        require(self.op in ("read", "write", "any"),
                f"op must be read/write/any, got {self.op!r}")
        require(self.at_op >= 0, "at_op must be >= 0")
        require(self.count >= 1, "count must be >= 1")
        require(1 <= self.flip_mask <= 0xFF,
                f"flip_mask must be in [1, 255], got {self.flip_mask}")

    def matches(self, disk_id: int, op: str) -> bool:
        return (self.disk is None or self.disk == disk_id) and \
            (self.op == "any" or self.op == op)


@dataclass(frozen=True)
class FaultEvent:
    """Record of one fired fault (the injector's replay log entry)."""

    op_index: int
    kind: str
    disk: int
    op: str
    offset: int


@dataclass(frozen=True)
class FaultRates:
    """Per-op probabilities of spontaneous faults."""

    transient: float = 0.0
    latent: float = 0.0
    disk_death: float = 0.0
    silent_flip: float = 0.0

    def __post_init__(self) -> None:
        for name in ("transient", "latent", "disk_death", "silent_flip"):
            rate = getattr(self, name)
            require(0.0 <= rate <= 1.0,
                    f"{name} rate must be in [0, 1], got {rate}")

    @property
    def any(self) -> bool:
        return bool(self.transient or self.latent or self.disk_death
                    or self.silent_flip)


@dataclass
class _ArmedTransient:
    """A multi-shot transient burst in progress on one disk."""

    disk: int
    op: str
    remaining: int


class FaultInjector:
    """Seed-driven fault source wired into a volume's disks."""

    def __init__(
        self,
        seed: int = 0,
        schedule: Sequence[FaultSpec] = (),
        rates: Optional[FaultRates] = None,
    ) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.rates = rates if rates is not None else FaultRates()
        self.ops = 0
        self.log: List[FaultEvent] = []
        self._pending: List[FaultSpec] = sorted(
            schedule, key=lambda s: s.at_op
        )
        self._bursts: List[_ArmedTransient] = []
        self._slow: Dict[int, float] = {}
        self._delay_ms: Dict[int, float] = {}
        # silent flips armed on a write op apply *after* the write lands
        # (corrupt-on-write); keyed by (disk_id, offset), masks compose
        self._pending_flips: Dict[Tuple[int, int], int] = {}
        self._volume = None
        # The volume presents every plan touching a hooked disk element
        # by element, in plan order: that is the op stream ``ops``
        # counts.  The lock makes the shared mutable state (op counter,
        # rng, pending schedule) safe when several threads drive one
        # hooked volume.
        self._lock = threading.Lock()

    # -- wiring ------------------------------------------------------------

    def attach(self, volume) -> "FaultInjector":
        """Hook every disk of ``volume``; returns self for chaining."""
        require(self._volume is None, "injector is already attached")
        self._volume = volume
        for disk in volume.disks:
            disk.fault_hook = self._hook
            disk.corrupt_hook = self._post_write_hook
        return self

    def detach(self) -> None:
        """Unhook; the volume's disks behave normally again."""
        if self._volume is not None:
            for disk in self._volume.disks:
                # bound-method identity is not stable; compare by equality
                if disk.fault_hook == self._hook:
                    disk.fault_hook = None
                if disk.corrupt_hook == self._post_write_hook:
                    disk.corrupt_hook = None
            self._volume = None
            self._pending_flips.clear()

    # -- schedule management ------------------------------------------------

    def arm(self, spec: FaultSpec) -> None:
        """Add one scheduled fault (relative specs: use ``self.ops``)."""
        self._pending.append(spec)
        self._pending.sort(key=lambda s: s.at_op)

    def cancel(self, kind: str) -> int:
        """Drop every not-yet-fired scheduled fault of ``kind``.

        Returns how many were dropped.  Used by harnesses that arm a
        crash inside one operation and must not let it leak into the
        next.
        """
        before = len(self._pending)
        self._pending = [s for s in self._pending if s.kind != kind]
        if kind == "transient":
            self._bursts.clear()
        return before - len(self._pending)

    # -- observability -------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> Tuple[FaultEvent, ...]:
        """The fired-fault log, optionally filtered by kind."""
        if kind is None:
            return tuple(self.log)
        return tuple(e for e in self.log if e.kind == kind)

    def slow_penalties(self) -> Dict[int, float]:
        """Per-disk added service latency (ms per element op)."""
        return dict(self._slow)

    def accumulated_delay_ms(self, disk_id: int) -> float:
        """Total simulated latency this disk has accrued from slow faults."""
        return self._delay_ms.get(disk_id, 0.0)

    # -- the hook -------------------------------------------------------------

    def _hook(self, disk, op: str, offset: int) -> None:
        with self._lock:
            self._hook_locked(disk, op, offset)

    def _hook_locked(self, disk, op: str, offset: int) -> None:
        idx = self.ops
        self.ops += 1

        # slow-disk drag accrues whether or not anything else fires
        penalty = self._slow.get(disk.disk_id)
        if penalty:
            self._delay_ms[disk.disk_id] = (
                self._delay_ms.get(disk.disk_id, 0.0) + penalty
            )

        # an in-progress transient burst takes precedence
        for burst in self._bursts:
            if burst.disk == disk.disk_id and \
                    (burst.op == "any" or burst.op == op):
                burst.remaining -= 1
                if burst.remaining <= 0:
                    self._bursts.remove(burst)
                self._fire("transient", idx, disk, op, offset, raise_=True)

        # scheduled faults due at (or before) this op
        due = [s for s in self._pending
               if s.at_op <= idx and s.matches(disk.disk_id, op)]
        for spec in due:
            self._pending.remove(spec)
            self._fire_spec(spec, idx, disk, op, offset)

        # probabilistic faults
        if self.rates.any:
            if self.rates.disk_death and \
                    self.rng.random() < self.rates.disk_death:
                disk.fail()
                self._fire("disk_death", idx, disk, op, offset)
            if self.rates.latent and self.rng.random() < self.rates.latent:
                if not disk.failed:
                    disk.mark_bad(offset)
                self._fire("latent", idx, disk, op, offset)
            if self.rates.transient and \
                    self.rng.random() < self.rates.transient:
                self._fire("transient", idx, disk, op, offset, raise_=True)
            if self.rates.silent_flip and \
                    self.rng.random() < self.rates.silent_flip:
                mask = int(self.rng.integers(1, 256))
                self._flip(disk, op, offset, mask)
                self._fire("silent_flip", idx, disk, op, offset)

    def _fire_spec(self, spec: FaultSpec, idx, disk, op, offset) -> None:
        if spec.kind == "transient":
            if spec.count > 1:
                self._bursts.append(
                    _ArmedTransient(disk.disk_id, spec.op, spec.count - 1)
                )
            self._fire("transient", idx, disk, op, offset, raise_=True)
        elif spec.kind == "latent":
            target = spec.offset if spec.offset is not None else offset
            disk.mark_bad(target)
            self._fire("latent", idx, disk, op, target)
        elif spec.kind == "disk_death":
            disk.fail()
            self._fire("disk_death", idx, disk, op, offset)
        elif spec.kind == "slow":
            self._slow[disk.disk_id] = spec.delay_ms
            self._fire("slow", idx, disk, op, offset)
        elif spec.kind == "crash":
            self._fire("crash", idx, disk, op, offset)
            raise SimulatedCrashError(idx)
        elif spec.kind == "silent_flip":
            target = spec.offset if spec.offset is not None else offset
            self._flip(disk, op, target, spec.flip_mask)
            self._fire("silent_flip", idx, disk, op, target)

    def _flip(self, disk, op: str, offset: int, mask: int) -> None:
        """Corrupt one element silently.

        On a ``write`` op the current store content is about to be
        overwritten, so the flip is deferred and applied by the disk's
        ``corrupt_hook`` right after the write lands (corrupt-on-write);
        any other op flips the stored bytes immediately, *before* the op
        serves them (at-rest rot surfacing on access).  A failed disk is
        unreachable, so the flip is dropped (the event still logs).
        """
        if disk.failed or not (0 <= offset < disk.capacity):
            return
        if op == "write":
            key = (disk.disk_id, offset)
            self._pending_flips[key] = self._pending_flips.get(key, 0) ^ mask
        else:
            disk._store[offset] ^= np.uint8(mask)

    def _post_write_hook(self, disk, offset: int) -> None:
        """``SimDisk.corrupt_hook`` target: apply a deferred write flip."""
        with self._lock:
            mask = self._pending_flips.pop((disk.disk_id, offset), 0)
        if mask:
            disk._store[offset] ^= np.uint8(mask)

    def corrupt_at_rest(
        self,
        disk_id: int,
        offset: int,
        mask: Optional[int] = None,
    ) -> int:
        """Flip one stored element with no I/O at all (pure bit rot).

        Unlike scheduled/probabilistic flips this does not ride on an op:
        the store mutates in place, no counter moves, and the event logs
        with ``op="rest"`` at the current op index (not consuming one).
        ``mask`` defaults to a seeded draw.  Returns the mask applied, or
        0 when the disk is failed (nothing to corrupt).
        """
        require(self._volume is not None, "injector is not attached")
        with self._lock:
            disk = self._volume.disks[disk_id]
            if mask is None:
                mask = int(self.rng.integers(1, 256))
            require(1 <= mask <= 0xFF,
                    f"mask must be in [1, 255], got {mask}")
            if disk.failed:
                return 0
            disk._store[offset] ^= np.uint8(mask)
            self.log.append(
                FaultEvent(self.ops, "silent_flip", disk_id, "rest", offset)
            )
            return mask

    def _fire(self, kind, idx, disk, op, offset, raise_=False) -> None:
        self.log.append(FaultEvent(idx, kind, disk.disk_id, op, offset))
        if raise_:
            raise TransientIOError(disk.disk_id, op, offset)

    def __repr__(self) -> str:
        return (
            f"<FaultInjector seed={self.seed} ops={self.ops} "
            f"fired={len(self.log)} pending={len(self._pending)}>"
        )
