"""A complete RAID-6 volume over any registered array-code layout.

This is the substrate the paper's storage scenarios run on: a set of
:class:`~repro.array.disk.SimDisk` devices striped by an
:class:`~repro.array.mapping.AddressMapper`, encoded by a
:class:`~repro.codec.encoder.StripeCodec`.  It supports the full RAID-6
life-cycle:

* normal reads, and degraded reads that reconstruct on the fly;
* **self-healing I/O** (`docs/robustness.md`): transient errors are
  retried with backoff, latent sector errors hit during normal reads are
  reconstructed from parity and remapped inline, and disks that keep
  erroring are escalated to FAILED by the
  :class:`~repro.faults.policy.ErrorPolicy`;
* writes with the real controller data paths — full-stripe encode and
  partial-stripe read-modify-write with parity-delta patching, healthy
  or degraded (the surviving parities carry what a failed disk cannot);
* failure injection for up to two disks, replacement, and rebuild —
  either blocking (:meth:`RAID6Volume.replace_and_rebuild`) or
  incremental via a resumable :class:`~repro.faults.health.RebuildCursor`
  that interleaves with foreground traffic (single-disk rebuild uses the
  hybrid recovery planner to fetch the minimum number of elements — the
  ~25 % saving of §III-D);
* scrubbing (parity verification across the whole volume) and
  write-hole repair (:meth:`RAID6Volume.resync_stripes`) after a
  simulated crash.

Every operation executes :mod:`repro.array.ioplan` plans, and every plan
reaches the disks through two funnels — :meth:`RAID6Volume._read_rows`
and :meth:`RAID6Volume._store_rows` — which present it to fault hooks
element by element when a disk it touches carries one; a cell that
fails to read comes back to the plan as a located erasure.  Where the
disks are quiet and nobody observes the funnels
(:meth:`RAID6Volume._kernel`), the C kernel runs the operation in one
call instead — same bytes, same counts: a partial write, a read that
rebuilds a cell, a stripe load or a rebuild as its plan, a write or a
degraded read along its route of plans (a write's whole stripes copied
and encoded in place), and a healthy read with no plan at all, the
kernel walking the logical range straight into the answer.  The volume
binds its one kernel handle when it is built: the extension module (or
``None`` without a compiler) and the backing store's geometry, packed
once.

Any stripe that has lost more than the code tolerates raises a typed
:class:`~repro.exceptions.UnrecoverableStripeError` naming the stripe,
never a raw decoder or disk exception.  Disk read/write counters make
every claimed I/O saving observable, which the integration tests exploit.
"""

from __future__ import annotations

import threading
import zlib
from typing import (
    Callable,
    ContextManager,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.array import ioplan
from repro.array.disk import DiskState, SimDisk
from repro.array.mapping import AddressMapper
from repro.codes.base import Cell, CodeLayout
from repro.codec.batch import encode_batch
from repro.codec.decoder import ChainDecoder
from repro.codec.encoder import StripeCodec
from repro.codec.gauss import GaussianDecoder
from repro.codec.plan import write_footprint
from repro.exceptions import (
    AddressError,
    DecodeError,
    DiskFailedError,
    FaultToleranceExceeded,
    InconsistentStripeError,
    LatentSectorError,
    TransientIOError,
    UnrecoverableStripeError,
)
from repro.faults.health import HealthState, RebuildCursor
from repro.faults.policy import ErrorCounters, ErrorPolicy, HealEvent
from repro.journal.intent import WriteIntent, WriteIntentLog
from repro.util import ckernel
from repro.util.validation import require, require_positive


class _Surface(NamedTuple):
    """One operation's view of the failure state.

    Taken once at the top of :meth:`RAID6Volume.read` / ``write`` (and
    the cache's destage entries), it keys the op's route
    (:func:`repro.array.ioplan.read_route` / ``write_route``): an
    operation walks the disks once instead of once per stripe it
    touches.
    """

    #: failed disks, ascending
    failed: Tuple[int, ...]
    #: an incremental rebuild is in flight
    rebuilding: bool
    #: disks the error policy had failed so far (see ``_fresh``)
    escalated: int

    @property
    def healthy(self) -> bool:
        """No stripe has a stale disk."""
        return not self.failed and not self.rebuilding


class _Held(tuple):
    """Write locks held for the length of a ``with`` block, acquired in
    the order given and released in reverse
    (:meth:`RAID6Volume._locked_stripes`)."""

    __slots__ = ()

    def __enter__(self) -> None:
        for lock in self:
            lock.acquire()

    def __exit__(self, *exc) -> None:
        for lock in reversed(self):
            lock.release()


class ScrubReport(Dict[int, List[Cell]]):
    """Result of :meth:`RAID6Volume.scrub_and_repair`.

    Behaves exactly like the historical ``{stripe: [repaired cells]}``
    mapping, with the scrub's I/O accounting attached:
    ``elements_read`` (successful element fetches), ``elements_written``
    (repair rewrites) and ``stripes_scanned``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.elements_read = 0
        self.elements_written = 0
        self.stripes_scanned = 0

    @property
    def repaired_count(self) -> int:
        return sum(len(cells) for cells in self.values())

    def __repr__(self) -> str:
        return (
            f"<ScrubReport stripes={self.stripes_scanned} "
            f"repaired={self.repaired_count} reads={self.elements_read} "
            f"writes={self.elements_written}>"
        )


class RAID6Volume:
    """An operational RAID-6 volume."""

    def __init__(
        self,
        layout: CodeLayout,
        num_stripes: int = 64,
        element_size: int = 4096,
        rotate: bool = False,
        policy: Optional[ErrorPolicy] = None,
        journal: Optional[WriteIntentLog] = None,
    ) -> None:
        require_positive(num_stripes, "num_stripes")
        self.layout = layout
        self.codec = StripeCodec(layout, element_size)
        self.mapper = AddressMapper(layout, num_stripes, rotate=rotate)
        #: Logical capacity in data elements.
        self.num_elements = self.mapper.num_elements
        self._per = layout.num_data_cells
        # All disks share one (capacity, cols, element_size) tensor: disk
        # ``i`` owns the strided column view ``backing[:, i, :]``.  Flat
        # element (stripe, row, col) therefore lives at linear index
        # ``(stripe * rows + row) * cols + col``, which is what lets a
        # stripe-aligned read of a row-major layout hand out a zero-copy
        # view (see :meth:`read`).
        self._backing = np.zeros(
            (self.mapper.disk_capacity, layout.cols, element_size),
            dtype=np.uint8,
        )
        self._flat_backing = self._backing.reshape(-1, element_size)
        # every disk's [reads, writes] in one column of one array, under
        # one lock: a kernel-run plan adds its counts in one step
        self._io = np.zeros((2, layout.cols), dtype=np.int64)
        self._io_lock = threading.Lock()
        self.disks: List[SimDisk] = [
            SimDisk(i, self.mapper.disk_capacity, element_size,
                    store=self._backing[:, i, :], counters=self._io[:, i],
                    lock=self._io_lock)
            for i in range(layout.cols)
        ]
        # per-disk bitmasks (bit i: disk i) of a fault or corrupt hook
        # and of latent sectors, and the failed disks, re-derived
        # whenever a disk reports a change (``SimDisk.watch``)
        self._hooks = self._latent = 0
        self._failed: Tuple[int, ...] = ()
        self._healthy = _Surface((), False, 0)
        self._mask_lock = threading.Lock()
        for disk in self.disks:
            disk.watch = self._disk_changed
        # a rotated plan's columns move from disk to disk: any disk counts
        self._spread = (1 << layout.cols) - 1 if rotate else 0
        self.policy = policy if policy is not None else ErrorPolicy()
        #: Optional write-intent journal (``docs/robustness.md``, "Crash
        #: consistency").  When attached, every destructive stripe write
        #: records an intent before touching disk and commits it after;
        #: ``None`` keeps the write paths byte- and counter-identical to
        #: the unjournaled volume.
        self.journal = journal
        #: ChecksumStore restored by :func:`~repro.array.persistence.
        #: load_volume` from an image saved with one (``None``
        #: otherwise); feed it to ``IntegrityChecker(volume, store=...)``
        #: to resume verification.
        self.restored_checksums = None
        #: The attached :class:`~repro.array.integrity.IntegrityChecker`
        #: (set by its constructor, cleared by its ``detach()``).  When
        #: present *and* its ``verify_reads`` flag is on, every planned
        #: load verifies block checksums — the vector branch
        #: edge-triggered (each block's first read since attach/write
        #: re-checks its CRC), the per-element branch on every read —
        #: and hands mismatches back to its plan as located erasures.
        self.integrity = None
        #: Observers of the store funnel: each is called with the rows
        #: and data of every planned store once it has landed
        #: (:meth:`_store_rows`); the integrity checksums and the serving
        #: layer's dirty-stripe tracker attach here.  While any is
        #: attached the C kernel stands down (:meth:`_kernel`).
        self._observers: Tuple[Callable[..., None], ...] = ()
        self.error_counters = ErrorCounters(layout.cols)
        #: Audit trail of self-healing actions (see
        #: :class:`~repro.faults.policy.HealEvent`).
        self.heal_log: List[HealEvent] = []
        self._rebuild: Optional[RebuildCursor] = None
        self._chain = ChainDecoder(self.codec)
        self._gauss = GaussianDecoder(self.codec)
        self._policy_lock = threading.RLock()
        # Striped per-stripe write locks: two writers that touch the
        # same stripe (a cache destage racing a foreground RMW — the
        # serving coalescer's steady state under load) must serialise
        # their read-XOR-write parity updates or the stripe's parity
        # silently diverges from its data.  Stripe ``s`` maps to lock
        # ``s % len``; RLocks so the journaled chokepoint may nest into
        # the unjournaled one on the same thread.  Multi-stripe paths
        # acquire their whole lock set in sorted order (no cycles).
        self._stripe_locks: Tuple[threading.RLock, ...] = tuple(
            threading.RLock() for _ in range(min(64, num_stripes))
        )
        # pattern-keyed read / RMW / recovery plans, compiled on first use
        # (docs/performance.md, "Planned I/O")
        self._ioplans = ioplan.PlanCache()
        # -- vectorised-geometry tables (docs/performance.md) -------------
        self._data_rows = np.array(
            [c.row for c in layout.data_cells], dtype=np.intp
        )
        self._data_cols = np.array(
            [c.col for c in layout.data_cells], dtype=np.intp
        )
        #: a healthy read's route: the kernel walks its data cells, and
        #: it may touch every column holding any
        self._walk = ioplan.Route(
            sum(1 << c for c in set(self._data_cols.tolist()))
        )
        # a zero-copy stripe view's reads, counted in one locked step
        self._full_stripe_io = np.zeros_like(self._io)
        self._full_stripe_io[0] = np.bincount(
            self._data_cols, minlength=layout.cols
        )
        #: Whether logical order is the row-major prefix of the matrix
        #: (D-Code/X-Code style: data rows on top, parity rows below) —
        #: the precondition for the zero-copy read view.
        self._row_major_data = all(
            cell.row == idx // layout.cols and cell.col == idx % layout.cols
            for idx, cell in enumerate(layout.data_cells)
        )
        #: The C kernel's extension module, whose ``plan_exec`` and
        #: ``route_exec`` run where :meth:`_kernel` admits an op
        #: (``None``: the numpy executor only), and the backing store's
        #: geometry they read, packed once for the volume's life.
        self._c = ckernel.xor_kernel()
        cols = layout.cols
        self._geometry = ckernel.pack_geometry(
            self._flat_backing, layout.rows * cols, cols, rotate,
            self._data_rows * cols + self._data_cols,
            [len(layout.cells_in_column(col)) for col in range(cols)],
            self.codec.plans.encode.program,
        )

    # -- basic properties ---------------------------------------------------

    @property
    def element_size(self) -> int:
        return self.codec.element_size

    @property
    def failed_disks(self) -> Tuple[int, ...]:
        return self._failed

    @property
    def health(self) -> HealthState:
        """HEALTHY / DEGRADED / REBUILDING (see ``docs/robustness.md``)."""
        if self._rebuild is not None and self._rebuild.active:
            return HealthState.REBUILDING
        if self.failed_disks:
            return HealthState.DEGRADED
        return HealthState.HEALTHY

    @property
    def rebuild_cursor(self) -> Optional[RebuildCursor]:
        """The active incremental rebuild, if any."""
        return self._rebuild

    def io_counters(self) -> Dict[int, Tuple[int, int]]:
        """disk id -> (reads, writes)."""
        with self._io_lock:
            counts = self._io.T.tolist()
        return {disk: tuple(rw) for disk, rw in enumerate(counts)}

    def reset_io_counters(self) -> None:
        """Zero every disk's read/write counters."""
        with self._io_lock:
            self._io[:] = 0

    def _disk_changed(self, disk: SimDisk) -> None:
        """``SimDisk.watch``: re-derive the per-disk bitmasks."""
        with self._mask_lock:
            hooks = latent = 0
            for d in self.disks:
                bit = 1 << d.disk_id
                if d.fault_hook is not None or d.corrupt_hook is not None:
                    hooks |= bit
                if d._bad_sectors:
                    latent |= bit
            self._hooks, self._latent = hooks, latent
            self._failed = tuple(
                d.disk_id for d in self.disks if d.state is DiskState.FAILED
            )

    def _surface(self) -> _Surface:
        """Snapshot the failure state: while healthy, one tuple per
        count of escalated disks."""
        rebuild = self._rebuild
        rebuilding = rebuild is not None and rebuild.active
        escalated = len(self.error_counters.escalated)
        if self._failed or rebuilding:
            return _Surface(self._failed, rebuilding, escalated)
        if self._healthy.escalated != escalated:
            self._healthy = _Surface((), False, escalated)
        return self._healthy

    def _fresh(self, surface: Optional[_Surface]) -> _Surface:
        """``surface`` if it still holds, otherwise a new snapshot.

        One thing moves the surface *inside* an operation: the error
        policy failing a disk that keeps erroring under a plan's gather.
        Per-stripe code handed its caller's snapshot checks for that
        before trusting it.
        """
        if surface is None or surface.escalated != len(
            self.error_counters.escalated
        ):
            return self._surface()
        return surface

    # -- failure lifecycle -----------------------------------------------------

    def _vulnerable_disks(self) -> Tuple[int, ...]:
        """Disks the redundancy is currently covering for: failed disks
        plus the target of an in-flight rebuild (its unrebuilt region is
        as good as failed)."""
        out = set(self.failed_disks)
        if self._rebuild is not None and self._rebuild.active:
            out.add(self._rebuild.disk)
        return tuple(sorted(out))

    def fail_disk(self, disk: int) -> None:
        """Kill a disk.  At most two may be down (or rebuilding) at once."""
        require(0 <= disk < len(self.disks), f"no disk {disk}")
        if self.disks[disk].failed:
            return
        others = set(self._vulnerable_disks()) - {disk}
        if len(others) >= 2:
            raise FaultToleranceExceeded(
                "RAID-6 already has two failed or rebuilding disks"
            )
        rebuild = self._rebuild
        if rebuild is not None and rebuild.active and rebuild.disk == disk:
            # the replacement died mid-rebuild: back to square one
            rebuild.abort()
        self.disks[disk].fail()

    def start_rebuild(self, disk: int, batch: int = 8) -> RebuildCursor:
        """Swap in a blank disk and return a resumable rebuild cursor.

        The volume enters REBUILDING; foreground reads and writes keep
        working throughout (degraded for stripes the cursor has not
        reached yet).  Drive the cursor with
        :meth:`~repro.faults.health.RebuildCursor.step` or
        :meth:`~repro.faults.health.RebuildCursor.run`.
        """
        require(0 <= disk < len(self.disks), f"no disk {disk}")
        require(self.disks[disk].failed, f"disk {disk} is not failed")
        require(self._rebuild is None or not self._rebuild.active,
                "a rebuild is already in progress")
        cursor = RebuildCursor(self, disk, batch=batch)  # checks the batch
        self.disks[disk].replace()
        if self.integrity is not None:
            # the platters just became a blank replacement: drop the old
            # disk's checksums (blank blocks match the implicit zero
            # digest) so the cursor's reconstruction writes re-record
            # fresh ones — a scrub right after rebuild reports zero
            # false positives
            self.integrity.on_disk_replaced(disk)
        self._rebuild = cursor
        return cursor

    def replace_and_rebuild(self, disk: int) -> int:
        """Swap in a blank disk and reconstruct its contents (blocking).

        Returns the number of elements read during the rebuild.  With a
        single failure the hybrid planner drives the reads; with a double
        failure the chain (or Gaussian) decoder rebuilds this disk's share.
        Equivalent to ``start_rebuild(disk).run()``.
        """
        return self.start_rebuild(disk).run()

    def _rebuild_stripes(self, cursor: RebuildCursor, end: int) -> None:
        """Advance ``cursor`` over its next run of stripes (at most to
        ``end``) sharing their stale columns: one
        :func:`repro.array.ioplan.rebuild` call.  A stripe found
        unrecoverable parks the cursor on it, the run before it rebuilt."""
        surface = self._surface()
        first = cursor.pos
        _, count, stale = next(
            ioplan.stale_runs(self, surface, range(first, end))
        )
        col = self.mapper.col_on_disk(first, cursor.disk)
        try:
            ioplan.rebuild(self, range(first, first + count), stale, col)
        except UnrecoverableStripeError as exc:
            if exc.stripe > first:
                ioplan.rebuild(self, range(first, exc.stripe), stale, col)
            cursor.pos = exc.stripe
            raise
        cursor.pos += count

    def inject_latent_error(self, disk: int, stripe: int, row: int) -> None:
        """Mark one element of ``disk`` unreadable (medium error).

        ``stripe``/``row`` address the element the way the mapper lays it
        out; the next read of that element raises until something rewrites
        or repairs it.
        """
        require(0 <= disk < len(self.disks), f"no disk {disk}")
        require(0 <= stripe < self.mapper.num_stripes, f"no stripe {stripe}")
        require(0 <= row < self.layout.rows, f"no row {row}")
        self.disks[disk].mark_bad(stripe * self.layout.rows + row)

    def _chunks(self) -> Iterable[range]:
        """The volume in runs of :data:`~repro.array.ioplan.RUN_CHUNK`
        stripes."""
        num = self.mapper.num_stripes
        for start in range(0, num, ioplan.RUN_CHUNK):
            yield range(start, min(start + ioplan.RUN_CHUNK, num))

    def scrub_and_repair(self) -> ScrubReport:
        """Find latent sector errors volume-wide and rewrite them.

        Returns a :class:`ScrubReport` — a ``{stripe: [repaired cells]}``
        mapping carrying the scrub's read/write accounting.  Each stripe
        is loaded exactly once: the same buffer serves error detection,
        repair and the post-repair parity check.  Requires a healthy
        array (like :meth:`scrub`); raises
        :class:`InconsistentStripeError` if a stripe's parity still
        disagrees after repair (silent corruption — never auto-fixed
        because the bad cell cannot be located).

        The bad sectors a scrub meets count toward escalation, so the
        error policy may fail a disk mid-scrub: then the cells of the
        run in hand on live disks are still repaired, the scrub stops
        there, and the failed disk is left to a rebuild.
        """
        require(self.health is HealthState.HEALTHY,
                "cannot scrub with failed or rebuilding disks present")
        report = ScrubReport()
        cells = self.layout.rows * self.layout.cols
        for stripes in self._chunks():
            if self._failed:
                break  # escalated: the array is a rebuild's now
            buf, bad = ioplan.load_stripes(self, stripes, ())
            report.stripes_scanned += len(stripes)
            report.elements_read += len(stripes) * cells - sum(
                map(len, bad.values())
            )
            for i, stripe in enumerate(stripes):
                live = self._live_cells(stripe, bad.get(i, ()))
                if live:
                    ioplan.store_cells(self, stripe, live, buf[i])
                    report.elements_written += len(live)
                    report[stripe] = live
                # the repaired buffer is byte-identical to what a re-read
                # would return, so verify parity against it directly
                if not self.codec.parity_ok(buf[i]):
                    raise InconsistentStripeError(
                        f"stripe {stripe} parity mismatch after repair"
                    )
        return report

    def scrub(self) -> List[int]:
        """Verify parity of every stripe; returns inconsistent stripe ids.

        Requires a healthy array — parity cannot be checked through a
        failed disk or an unrebuilt region.  Each
        :data:`~repro.array.ioplan.RUN_CHUNK` stripes are one gather
        (a cell that fails to read decoded around), re-encoded as one
        batch and flagged where the stored bytes differ (parity is
        consistent in every group iff it equals the canonical re-encode).
        """
        require(self.health is HealthState.HEALTHY,
                "cannot scrub with failed or rebuilding disks present")
        bad: List[int] = []
        for stripes in self._chunks():
            buf = ioplan.load_stripes(self, stripes, ())[0]
            enc = encode_batch(self.codec, buf.copy())
            bad.extend(
                stripe for stripe, a, b in zip(stripes, enc, buf)
                if not np.array_equal(a, b)
            )
        return bad

    def resync_stripes(self, stripes: Iterable[int]) -> int:
        """Recompute parity of ``stripes`` from their data cells.

        The write-hole repair: after a crash tears a partial-stripe
        write, the data cells on disk are a valid (if torn) state but
        parity may not match.  Re-encoding from data restores internal
        consistency so the interrupted write can be replayed.  Requires a
        healthy array.  Returns the number of stripes resynced.
        """
        require(self.health is HealthState.HEALTHY,
                "cannot resync with failed or rebuilding disks present")
        stripes = sorted(set(stripes))
        for stripe in stripes:
            require(0 <= stripe < self.mapper.num_stripes,
                    f"no stripe {stripe}")
        for lo in range(0, len(stripes), ioplan.RUN_CHUNK):
            ioplan.resync(self, stripes[lo:lo + ioplan.RUN_CHUNK])
        return len(stripes)

    # -- reads ---------------------------------------------------------------

    def read(self, start: int, count: int) -> np.ndarray:
        """Read ``count`` logical elements starting at ``start``.

        Transparently reconstructs elements on failed disks and in the
        unrebuilt region of an incremental rebuild.  Latent sector
        errors, exhausted transient retries and checksum mismatches are
        located erasures: the stripe is decoded around them and the bad
        sector rewritten (policy ``heal_latent_on_read``).

        A stripe-aligned full-stripe read of a row-major layout on a
        healthy array with no disk hooked returns a **zero-copy
        read-only view** of the backing store — no bytes move at all
        (the view is the live stripe: a later write shows through it,
        cell by cell while it is in progress — whole stripes are
        encoded where the view points — so copy it to snapshot).  Any
        other range runs along its route
        (:func:`repro.array.ioplan.run_route`): healthy, a walk of the
        range into the answer; otherwise each run walked or rebuilt by
        its read plan (:func:`repro.array.ioplan.read_route`) — one
        ``route_exec`` call where the C kernel admits it
        (:meth:`_kernel`), the same runs in numpy where it does not.
        """
        if type(count) is not int or \
                not 0 <= start < start + count <= self.num_elements:
            count = self._check_range("read", start, count)
        rebuild = self._rebuild
        if self._failed or rebuild is not None and rebuild.active:
            route = ioplan.read_route(self, start, count, self._surface())
        else:
            if count == self._per and not start % count:
                view = self._read_zero_copy(start // count)
                if view is not None:
                    return view
            route = self._walk
        out = np.empty((count, self.element_size), dtype=np.uint8)
        ioplan.run_route(self, start, count, route, out=out)
        return out

    def _check_range(self, op: str, start, count) -> int:
        """Return ``count`` as an int; raise unless it is a positive
        integer and elements ``[start, start + count)`` lie inside the
        volume: what :meth:`read` and :meth:`write` check, here once
        their one comparison fails."""
        if isinstance(count, np.integer):
            count = int(count)
        require_positive(count, "count")
        if start < 0 or start + count > self.num_elements:
            raise AddressError(
                f"{op} [{start}, {start + count}) outside volume of "
                f"{self.num_elements} elements"
            )
        return count

    def _read_zero_copy(self, stripe: int) -> Optional[np.ndarray]:
        """Zero-copy view of the data of whole ``stripe`` on a healthy
        volume, or ``None``.

        Engages when the layout's logical order is the row-major matrix
        prefix (data rows above the parity rows, as in D-Code/X-Code),
        the mapper does not rotate and no disk is hooked (the view
        presents nothing to a hook).  The returned array is read-only
        and aliases the live backing store.
        """
        if self.mapper.rotate or not self._row_major_data or self._hooked():
            return None
        verifier = self._verifier()
        if verifier is not None and not verifier.range_verified(stripe):
            # zero-copy cannot verify without touching the bytes; stand
            # down to the gather path (which verifies and marks the
            # blocks) until the whole stripe is verification-current
            return None
        base = stripe * self.layout.rows * self.layout.cols
        view = self._flat_backing[base:base + self._per]
        view.flags.writeable = False
        with self._io_lock:
            self._io += self._full_stripe_io
        return view

    # -- write serialisation ---------------------------------------------------

    def _stripe_lock(self, stripe: int) -> "threading.RLock":
        """The write lock covering ``stripe`` (striped — see ``__init__``)."""
        return self._stripe_locks[stripe % len(self._stripe_locks)]

    def _locked_stripes(self, stripes: Iterable[int]) -> ContextManager:
        """Hold the write locks of every stripe in ``stripes``.

        Distinct lock indices are acquired in sorted order, so
        concurrent multi-stripe writers cannot deadlock against each
        other or against per-stripe writers (which hold at most one
        lock and never wait for a second).  The volume runs every
        operation on its caller's thread; what the locks serialise is
        *callers* sharing a volume — a cache destage on a shard's
        executor thread against a foreground write to the same stripe.
        Every write (:meth:`write`, and the cache's destage entries
        :meth:`_write_rest` and :meth:`_full_stripe_write_batched`)
        takes its stripes' locks here once; a write or burst of one
        stripe takes that stripe's lock alone (:meth:`_stripe_lock`).
        """
        locks = self._stripe_locks
        n = len(locks)
        if type(stripes) is range and 1 < len(stripes) < n:
            # consecutive stripes (a write's route): a slice of the
            # locks, or two slices where the indices wrap
            first, last = stripes[0] % n, stripes[-1] % n
            if first < last:
                return _Held(locks[first:last + 1])
            return _Held(locks[:last + 1] + locks[first:])
        return _Held([locks[i] for i in sorted({s % n for s in stripes})])

    # -- writes ----------------------------------------------------------------

    def write(self, start: int, data: np.ndarray) -> None:
        """Write ``data`` (``(count, element_size)`` uint8) at ``start``.

        One route (:func:`repro.array.ioplan.write_route`), under its
        stripes' write locks: the RMW plans of its partial head and tail
        stripes — reconstruct-written where a plan cannot patch — and
        each whole stripe between them copied into its data cells,
        encoded and stored.  Journaled, the intents are open before the
        first store and committed after the last (:meth:`_open_intents`).
        The route runs as one ``route_exec`` call where the C kernel
        admits it (:meth:`_kernel`), its runs in numpy where it does not
        (:func:`repro.array.ioplan.run_route`).  ``data`` may be a
        zero-copy :meth:`read` view of this volume: it is copied first,
        so no run moves rows a later one reads.
        """
        if data.ndim != 2 or data.shape[1] != self.element_size \
                or data.dtype != np.uint8:
            raise AddressError(
                f"data must be uint8 (count, {self.element_size}), got "
                f"{data.dtype} {data.shape}"
            )
        count = data.shape[0]
        if not 0 <= start < start + count <= self.num_elements:
            self._check_range("write", start, count)
        if data.base is not None and np.may_share_memory(data, self._backing):
            data = data.copy()
        per = self._per
        surface = self._surface()
        route = ioplan.write_route(self, start, count, surface)
        first, last = start // per, (start + count - 1) // per
        with self._stripe_lock(first) if first == last else \
                self._locked_stripes(range(first, last + 1)):
            fresh = self._fresh(surface)
            if fresh is not surface:
                surface = fresh
                route = ioplan.write_route(self, start, count, surface)
            intents = None if self.journal is None else self._open_intents((
                (stripe, ioplan.Span(
                    self.layout.data_cells[j0:j0 + n],
                    data[k + i * n:k + (i + 1) * n]
                ))
                for span, k, j0, n, *_ in ioplan.route_legs(self, start, route)
                for i, stripe in enumerate(span)
            ), surface)
            ioplan.run_route(self, start, count, route, values=data)
            self._commit_intents(intents)

    def _open_intents(
        self,
        entries: Iterable[Tuple[int, Sequence[Tuple[Cell, np.ndarray]]]],
        surface: Optional[_Surface] = None,
    ) -> Optional[Tuple[List[WriteIntent], List[WriteIntent]]]:
        """Journal ``(stripe, items)`` entries — a write's stripes along
        its route, or a destage's buckets — before the first of them
        stores (``None`` without a journal).  With two or more whole
        stripes, each holds its rows by reference (``open_full``:
        ``items`` a :class:`~repro.array.ioplan.Span` of the caller's
        rows) and commits on its own.  The other stripes — partial, or a
        lone whole one — share one intent or, two or more, one group
        append, the old-parity footprints of their partial members
        digested in one pass, and commit together.  Engages whatever
        hooks are attached, so the chaos campaigns can tear bursts at
        group boundaries.  Returns ``(whole, shared)`` for
        :meth:`_commit_intents`."""
        journal = self.journal
        if journal is None:
            return None
        per = self.layout.num_data_cells
        entries = list(entries)
        whole = sum(len(items) == per for _, items in entries) > 1
        full = [
            journal.open_full(stripe, items.values, self.layout.data_cells)
            for stripe, items in entries if whole and len(items) == per
        ]
        rest = [e for e in entries if not whole or len(e[1]) < per]
        if not rest:
            return full, []
        footprints = [
            (stripe, write_footprint(
                self.layout, tuple([c for c, _ in items])
            ).parities)
            for stripe, items in rest if len(items) < per
        ]
        old_digest = (
            self._footprint_digest(footprints, surface)
            if footprints else None
        )
        if len(rest) == 1:
            return full, [journal.open(*rest[0], old_parity_digest=old_digest)]
        return full, journal.open_group(rest, old_digest=old_digest)

    def _commit_intents(
        self, intents: Optional[Tuple[List[WriteIntent], List[WriteIntent]]]
    ) -> None:
        """Retire what :meth:`_open_intents` opened, once every store has
        landed: each whole stripe's intent on its own, then the shared
        ones together."""
        if intents is None:
            return
        full, shared = intents
        for intent in full:
            self.journal.commit(intent)
        if shared:
            self.journal.commit_group(shared)

    def _write_rest(
        self,
        entries: List[Tuple[int, np.ndarray, int]],
        surface: Optional[_Surface] = None,
    ) -> None:
        """The cache's destage of dirty ``(stripe, row, mask)`` buckets:
        ``row[j]`` is the new value of data cell ``j`` for each set bit
        ``j`` of ``mask`` — a cache slab row.

        ``entries`` must name each stripe at most once (``ValueError``
        otherwise): the cross-stripe RMW gathers every member's old
        values before any write lands, so a second entry for a stripe
        would patch parity against bytes the first has yet to write.

        Two or more whole buckets leave the queue as one
        :meth:`_full_stripe_write_batched` call.  The rest run under
        their stripe locks, taken once, journaled together
        (:meth:`_open_intents`): every partial bucket in one
        :func:`repro.array.ioplan.rmw` call, then a lone whole one along
        its whole-stripe route.
        """
        if not entries:
            return
        whole = (1 << self.layout.num_data_cells) - 1
        if len(entries) > 1:
            require(len({s for s, _, _ in entries}) == len(entries),
                    "a write burst names each stripe at most once")
            full = [entry for entry in entries if entry[2] == whole]
            if len(full) > 1:
                self._full_stripe_write_batched(
                    [stripe for stripe, _, _ in full],
                    np.array([row for _, row, _ in full]), surface,
                )
                entries = [entry for entry in entries if entry[2] != whole]
                if not entries:
                    return
        cells = self.layout.data_cells
        with self._stripe_lock(entries[0][0]) if len(entries) == 1 else \
                self._locked_stripes([stripe for stripe, _, _ in entries]):
            surface = self._fresh(surface)
            intents = self._open_intents((
                (stripe, [(cells[j], row[j]) for j in ioplan.set_bits(mask)])
                for stripe, row, mask in entries
            ), surface)
            ioplan.rmw(self, [e for e in entries if e[2] != whole], surface)
            for stripe, row, mask in entries:
                if mask == whole:
                    # the rmw may have failed a disk (the error policy)
                    ioplan.write_whole(self, [stripe], row[None],
                                       self._fresh(surface))
            self._commit_intents(intents)

    def _write_stripe_batch(
        self,
        stripe: int,
        row: np.ndarray,
        mask: int,
        surface: Optional[_Surface] = None,
    ) -> None:
        """The cache's destage of one stripe: :meth:`_write_rest` of its
        one bucket."""
        self._write_rest([(stripe, row, mask)], surface)

    def _full_stripe_write_batched(
        self,
        stripes: Sequence[int],
        data: np.ndarray,
        surface: Optional[_Surface] = None,
    ) -> None:
        """The cache's destage of whole buckets: ``data`` is their logical
        payload, ``num_data_cells`` rows each, journaled as
        :meth:`_open_intents` journals whole stripes.  Each run of
        consecutive stripes is one whole-stripe route
        (:func:`repro.array.ioplan.write_whole`)."""
        data = data.reshape(len(stripes), -1, self.element_size)
        cells = self.layout.data_cells
        with self._locked_stripes(stripes):
            surface = self._fresh(surface)
            intents = self._open_intents((
                (stripe, ioplan.Span(cells, data[i]))
                for i, stripe in enumerate(stripes)
            ), surface)
            ioplan.write_whole(self, stripes, data, surface)
            self._commit_intents(intents)

    def _footprint_digest(
        self,
        footprints: Sequence[Tuple[int, Sequence[Cell]]],
        surface: Optional[_Surface] = None,
    ) -> Optional[int]:
        """One CRC-32 chain over the parity cells ``(stripe, cells)`` as
        they sit on disk, in the order given.

        The old-parity digest of a journaled partial write — one stripe,
        or every partial member of a group-committed burst in a single
        pass (CRC-32 over the concatenation equals the per-block chain
        recovery recomputes — :func:`repro.journal.recovery.
        parity_digest` with ``start=``).  Controller metadata, not array
        I/O: gathered from the backing store directly (uncounted,
        fault-hook-free) so journaling does not distort the I/O ledger.
        Returns ``None`` when a digested cell's column is stale —
        recovery then falls back to ``parity_ok`` and per-stripe
        classification, all a degraded stripe can offer.
        """
        disk_of = self.mapper.disk_of
        offs: List[int] = []
        dsks: List[int] = []
        for stripe, cells in footprints:
            # () at once on a healthy array: the per-member scan would
            # otherwise dominate the whole group-commit cost
            stale = self._stale_cols(stripe, surface)
            if stale and not set(stale).isdisjoint(c.col for c in cells):
                return None
            base = stripe * self.layout.rows
            for c in cells:
                offs.append(base + c.row)
                dsks.append(disk_of(stripe, c.col))
        block = self._backing[
            np.array(offs, dtype=np.intp), np.array(dsks, dtype=np.intp), :
        ]
        return zlib.crc32(np.ascontiguousarray(block))

    def _stale_cols(
        self, stripe: int, surface: Optional[_Surface] = None
    ) -> Tuple[int, ...]:
        """Layout columns of ``stripe`` that must not be trusted/written."""
        if surface is not None and surface.healthy:
            return ()
        rebuild = self._rebuild
        if not self.mapper.rotate and (rebuild is None or not rebuild.active):
            # the failed disks, ascending, are the stale columns everywhere
            return self._failed if surface is None else surface.failed
        return tuple(
            sorted(
                self.mapper.col_on_disk(stripe, f)
                for f in self._stale_disks(stripe, surface)
            )
        )

    def _parity_store_digest(
        self, stripe: int, cells: Optional[Sequence[Cell]] = None
    ) -> Optional[int]:
        """:meth:`_footprint_digest` of one stripe: ``cells`` in canonical
        ``parity_cells`` order (the write path passes the write's
        footprint, so an RMW intent digests only the parities it can
        change), every parity cell by default."""
        return self._footprint_digest(
            [(stripe, self.layout.parity_cells if cells is None else cells)]
        )

    def _stale_disks(
        self, stripe: int, surface: Optional[_Surface] = None
    ) -> Tuple[int, ...]:
        """Disks that cannot serve ``stripe``: failed ones, plus the
        rebuild target for stripes the cursor has not reached."""
        out = list(self._failed if surface is None else surface.failed)
        rebuild = self._rebuild
        if (
            rebuild is not None
            and rebuild.active
            and not rebuild.covers(stripe)
            and rebuild.disk not in out
        ):
            out.append(rebuild.disk)
        return tuple(sorted(out))

    # -- the executor's disk I/O ---------------------------------------------
    #
    # Every plan reaches the disks through these two funnels, with rows
    # of the flat backing store: ``divmod(at, cols)`` is ``(offsets,
    # disks)``.  Rows on quiet disks go as one vector.  When a disk they
    # touch carries a fault or corrupt hook — or a latent sector (loads)
    # or the journal a crash-point phase hook (stores) — each row goes
    # to its disk in plan order under the error policy; that op stream
    # is what ``FaultSpec.at_op`` indexes.

    def _hooked(
        self, at: Optional[np.ndarray] = None, store: bool = False
    ) -> bool:
        """Whether rows ``at`` (any disk by default) go to their disks one
        element at a time.  A latent sector only fails a load — a store
        remaps it — and the journal's phase hook only tears a store."""
        if store and self.journal is not None and \
                self.journal.phase_hook is not None:
            return True
        mask = self._hooks if store else self._hooks | self._latent
        if not mask:
            return False
        if at is None:
            return True
        return any(
            mask >> disk & 1 for disk in set((at % len(self.disks)).tolist())
        )

    def _kernel(self, cols: int, failed: Tuple[int, ...]):
        """The kernel handle (:attr:`_c`) when an operation over layout
        columns ``cols`` (a bitmask) — a plan, or a read's route
        (healthy: the data columns) — keyed for the ``failed`` disks of
        the op's surface, may run inside the C kernel, else ``None``:
        then the numpy executor runs it through the two funnels.

        The kernel gathers and stores vectors and counts them, nothing
        else, so it stands down whenever a funnel would do more — a disk
        the plan touches (any disk, rotated) is hooked or holds a latent
        sector; a disk failed since the surface was taken (the plan may
        touch it: the store funnel refuses it); the journal has a phase
        hook; an :class:`~repro.array.integrity.IntegrityChecker` is
        attached (verified loads); anything observes the store funnel
        (:attr:`_observers` — the checker, the serving layer's
        dirty-stripe tracker) — and when the volume has no kernel."""
        if (
            (self._hooks | self._latent) & (cols | self._spread)
            or self._failed != failed
            or self.integrity is not None
            or self._observers
            or self.journal is not None and self.journal.phase_hook is not None
        ):
            return None
        return self._c

    def _read_rows(
        self,
        at: np.ndarray,
        block: np.ndarray,
        cells: Optional[ioplan.CellSet] = None,
        rows: Optional[np.ndarray] = None,
        verify: bool = True,
    ) -> List[int]:
        """Funnel for every planned load: read rows ``at`` — or only
        their positions ``rows`` — of which ``block`` holds the plan's
        gather, row for row.  Returns the positions in ``at`` that
        failed to read: the plan's erasures.

        Quiet, the gather is the read: one read-counter bump per disk
        (``cells``, the plan's footprint, counts it without a pass over
        ``at`` when every row of an unrotated gather is read) and, with
        verified reads on, an edge-triggered checksum pass.  Hooked, each
        row is read from its disk in order and the bytes it served
        replace the gathered ones: transients retried with backoff,
        latent sectors and a dead disk failing the row, every block
        re-hashed.  A block failing its checksum is logged ``corrupt``
        and counts toward escalation either way.
        """
        sel = at if rows is None else at[rows]
        verifier = self._verifier() if verify else None
        if self._hooked(sel):
            pos = range(len(at)) if rows is None else rows.tolist()
            return [
                p for p, row in zip(pos, sel.tolist())
                if not self._read_element(row, block[p], verifier)
            ]
        disks = self.disks
        if rows is None and cells is not None and not self.mapper.rotate:
            times = len(at) // len(cells.flat)
            for col, n in cells.counts:
                disks[col].count_reads(n * times)
        else:
            for disk, n in zip(disks, np.bincount(sel % len(disks)).tolist()):
                if n:
                    disk.count_reads(n)
        if verifier is None:
            return []
        got = block if rows is None else block[rows]
        offsets, lanes = np.divmod(sel, len(disks))
        bad: List[int] = []
        for disk in np.unique(lanes).tolist():
            idx = np.flatnonzero(lanes == disk)
            found = verifier.verify_rows(disk, offsets[idx], got[idx])
            bad += idx[found].tolist()
        bad.sort()
        for k in bad:
            self._note_corrupt(int(lanes[k]), int(offsets[k]))
        return bad if rows is None else rows[bad].tolist()

    def _read_element(self, row: int, out: np.ndarray, verifier) -> bool:
        """One element of the hooked load: ``out`` gets its bytes;
        ``False`` when it failed to read."""
        offset, disk_id = divmod(row, len(self.disks))
        disk = self.disks[disk_id]
        attempts = self.policy.max_retries + 1
        for attempt in range(attempts):
            try:
                value = disk.read_view(offset)
            except TransientIOError:
                self._note_error(disk_id, "transient")
                if attempt < attempts - 1:
                    self._backoff(attempt)
                continue
            except LatentSectorError:
                self._note_error(disk_id, "latent")
                return False
            except DiskFailedError:
                return False
            if verifier is not None and \
                    not verifier.check_block(disk_id, offset, value):
                self._note_corrupt(disk_id, offset)
                return False
            if attempt:
                self._retried(disk_id, offset, f"read after {attempt} retries")
            out[...] = value
            return True
        return False

    def _store_rows(
        self, at: np.ndarray, data: Optional[np.ndarray] = None
    ) -> None:
        """Funnel for every planned store: one plan's rows, all disks.

        ``data`` holds the new contents of rows ``at``, row for row;
        without ``data`` the rows are already there (whole stripes
        encoded in place, only ever on quiet disks).  Every target disk
        is checked live before a byte lands, so a store is all or
        nothing against a dead disk.  Quiet: one scatter, and each disk
        accounts for its share.  Hooked: each row is written to its disk
        in order — transients retried with backoff, the rest of a disk's
        share dropped (and logged) when it dies mid-store — with a
        journal ``inter_column`` checkpoint wherever the next row of a
        stripe is on another disk.  Then each of :attr:`_observers` sees
        the store (a store that raises is not observed) — see
        :class:`repro.array.integrity.IntegrityChecker`.  Callers keep
        ``at`` inside the volume (``ioplan._check_stripes``).
        """
        cols = len(self.disks)
        lanes = at % cols
        shares = [
            (self.disks[lane], n)
            for lane, n in enumerate(np.bincount(lanes).tolist()) if n
        ]
        for disk, _ in shares:
            if disk.state is DiskState.FAILED:
                raise DiskFailedError(f"disk {disk.disk_id} is failed")
        if self._hooked(at, store=True):
            self._store_each(at, data)
        else:
            if data is not None:
                self._flat_backing[at] = data
            for disk, n in shares:
                # a write remaps the latent sectors under it
                disk.commit_block(n, (
                    (at[lanes == disk.disk_id] // cols).tolist()
                    if disk._bad_sectors else ()
                ))
        for observe in self._observers:
            observe(at, data)

    def _store_each(self, at: np.ndarray, data: np.ndarray) -> None:
        """The hooked store: :meth:`_store_rows` element by element."""
        cols = len(self.disks)
        stride = self.layout.rows * cols
        journal = self.journal
        last = None
        for row, value in zip(at.tolist(), data):
            offset, disk_id = divmod(row, cols)
            stripe = row // stride
            if journal is not None and last is not None and \
                    last[0] == stripe and last[1] != disk_id:
                journal.checkpoint("inter_column", stripe)
            last = (stripe, disk_id)
            self._write_element(disk_id, offset, value)

    def _write_element(self, disk_id: int, offset: int, value) -> None:
        """One element of the hooked store.  A write racing a disk death
        is dropped (and logged): the data stays recoverable from the
        surviving columns — what a controller does when a spindle dies
        mid-flush.  Exhausted retries raise :class:`TransientIOError`."""
        disk = self.disks[disk_id]
        attempts = self.policy.max_retries + 1
        for attempt in range(attempts):
            try:
                disk.write(offset, value)
            except TransientIOError:
                self._note_error(disk_id, "transient")
                if attempt == attempts - 1:
                    raise
                self._backoff(attempt)
            except DiskFailedError:
                with self._policy_lock:
                    self.heal_log.append(
                        HealEvent("dropped_write", disk_id, offset=offset)
                    )
                return
            else:
                if attempt:
                    self._retried(
                        disk_id, offset, f"write after {attempt} retries"
                    )
                return

    def _backoff(self, attempt: int) -> None:
        with self._policy_lock:
            self.error_counters.backoff_ms += (
                self.policy.backoff_ms * (2 ** attempt)
            )

    def _retried(self, disk_id: int, offset: int, detail: str) -> None:
        with self._policy_lock:
            self.heal_log.append(
                HealEvent("retry_ok", disk_id, offset=offset, detail=detail)
            )

    def _note_corrupt(self, disk_id: int, offset: int) -> None:
        """A verified read caught a block that no longer matches its
        checksum: a located erasure, counted toward escalation."""
        with self._policy_lock:
            self.heal_log.append(HealEvent("corrupt", disk_id, offset=offset))
        self._note_error(disk_id, "checksum")

    def _verifier(self):
        """The attached integrity checker when verified reads are on."""
        ic = self.integrity
        return ic if ic is not None and ic.verify_reads else None

    def _note_error(self, disk_id: int, kind: str) -> None:
        """Count an error; escalate a flaky disk to FAILED past threshold.

        Serialised by ``_policy_lock`` so threads sharing the volume
        never race the shared counters, heal log, or escalation decision.
        """
        with self._policy_lock:
            counters = self.error_counters
            counters.note(disk_id, kind)
            if (
                counters.total(disk_id) >= self.policy.escalate_after
                and disk_id not in counters.escalated
                and not self.disks[disk_id].failed
                and len(set(self._vulnerable_disks()) - {disk_id}) < 2
            ):
                counters.escalated.append(disk_id)
                self.heal_log.append(
                    HealEvent("escalate", disk_id,
                              detail=f"{counters.total(disk_id)} errors")
                )
                self.fail_disk(disk_id)

    def _heal_cells(
        self, stripe: int, cells: Sequence[Cell], buf: np.ndarray
    ) -> None:
        """Rewrite reconstructed cells over their (bad) sectors.

        Writing remaps the sector on the simulated disk exactly like a
        real drive's reallocation, so the next read succeeds without
        reconstruction.  The rewrite is one store through
        :meth:`_store_rows` — the funnel integrity tooling observes — so a
        heal re-records the block's checksum instead of leaving a stale
        digest behind.
        """
        if not self.policy.heal_latent_on_read:
            return
        live = self._live_cells(stripe, cells)
        if not live:
            return
        try:
            ioplan.store_cells(self, stripe, live, buf)
        except TransientIOError:
            return  # best-effort: the scrubber will catch it later
        disk_of = self.mapper.disk_of
        for cell in live:
            self.heal_log.append(
                HealEvent("remap", disk_of(stripe, cell.col), stripe=stripe,
                          offset=stripe * self.layout.rows + cell.row)
            )

    def _live_cells(self, stripe: int, cells: Sequence[Cell]) -> List[Cell]:
        """``cells`` of ``stripe`` whose disk has not failed."""
        disk_of = self.mapper.disk_of
        return [
            c for c in cells if not self.disks[disk_of(stripe, c.col)].failed
        ]

    # -- decoding ------------------------------------------------------------

    def _decode_cells_checked(
        self, stripe: int, buf: np.ndarray, lost: List[Cell]
    ) -> None:
        """Decode ``lost`` cells of ``stripe``; failures become typed
        :class:`UnrecoverableStripeError` naming the stripe instead of
        raw decoder exceptions."""
        try:
            self._decode_cells(buf, lost)
        except DecodeError as exc:
            unrecovered = exc.unrecovered or tuple(lost)
            raise UnrecoverableStripeError(
                stripe, cells=unrecovered, reason=str(exc)
            ) from exc

    def _decode_cells(self, buf: np.ndarray, lost: List[Cell]) -> None:
        """Chain-decode when possible, Gaussian otherwise."""
        if self.layout.chain_decodable:
            try:
                self._chain.decode_cells(buf, lost)
                return
            except DecodeError:
                pass  # odd loss pattern — let the oracle try
        self._gauss.decode_cells(buf, lost)

    def __repr__(self) -> str:
        return (
            f"<RAID6Volume {self.layout.name} p={self.layout.p} "
            f"{len(self.disks)} disks x {self.mapper.disk_capacity} "
            f"elements, health={self.health.value} "
            f"failed={list(self.failed_disks)}>"
        )
