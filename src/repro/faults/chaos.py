"""Seeded chaos harness: randomized fault schedules against live volumes.

:func:`run_chaos` builds a :class:`~repro.array.volume.RAID6Volume` over
any registry code, attaches a :class:`~repro.faults.injector.
FaultInjector`, and drives a seeded random schedule of foreground I/O
interleaved with faults: transient-error bursts, latent sector errors,
whole-disk deaths, incremental rebuilds, scrubs and mid-write crashes.

The harness is an *oracle*, not just a smoke test.  It maintains a shadow
copy of every logical element and, before each verification read,
computes the per-stripe damage level (distinct columns lost to failed
disks, the unrebuilt region of an active rebuild, and outstanding bad
sectors).  The contract it enforces:

* damage ≤ 2 columns in every stripe of the range → the read **must**
  succeed and match the shadow byte-exactly;
* damage > 2 somewhere → the read may still succeed (cell-level decoding
  can beat the column bound) — in which case it must match — or it must
  raise a *typed* error (:class:`~repro.exceptions.
  UnrecoverableStripeError` / :class:`~repro.exceptions.
  FaultToleranceExceeded` / :class:`~repro.exceptions.DecodeError`),
  never a raw crash or silent corruption.

Every action is appended to :attr:`ChaosResult.events` and every fired
fault to :attr:`ChaosResult.fault_log`; both are pure data, so running
the same ``(code, p, seed)`` twice must produce identical logs — the
deterministic-replay property the chaos tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.array.cache import StripeCache
from repro.array.volume import RAID6Volume
from repro.codes.registry import make_code
from repro.exceptions import (
    DecodeError,
    DiskFailedError,
    FaultToleranceExceeded,
    ReproError,
    SimulatedCrashError,
    TornWriteError,
    UnrecoverableStripeError,
)
from repro.faults.health import HealthState
from repro.faults.injector import (
    FaultEvent,
    FaultInjector,
    FaultRates,
    FaultSpec,
)
from repro.journal.intent import JOURNAL_PHASES, WriteIntentLog
from repro.journal.recovery import CrashRecovery

#: Errors a schedule is allowed to surface when damage exceeds tolerance.
TYPED_ERRORS = (UnrecoverableStripeError, FaultToleranceExceeded,
                DecodeError)


@dataclass
class ChaosResult:
    """Outcome and replay record of one chaos schedule."""

    code: str
    p: int
    seed: int
    steps: int
    #: Harness actions: ``(step, kind, *int params)`` — replay-comparable.
    events: List[Tuple] = field(default_factory=list)
    #: Faults fired by the injector, in order.
    fault_log: Tuple[FaultEvent, ...] = ()
    verifications: int = 0
    integrity_violations: int = 0
    typed_errors: int = 0
    heals: int = 0
    rebuild_steps: int = 0
    escalations: int = 0

    @property
    def ok(self) -> bool:
        return self.integrity_violations == 0

    def kinds_seen(self) -> frozenset:
        """Every distinct event/fault kind the schedule exercised."""
        return frozenset(e[1] for e in self.events) | frozenset(
            f.kind for f in self.fault_log
        )


class ChaosRunner:
    """One seeded schedule against one volume.  See :func:`run_chaos`."""

    def __init__(
        self,
        code: str = "dcode",
        p: int = 7,
        seed: int = 0,
        num_stripes: int = 4,
        element_size: int = 16,
        transient_rate: float = 0.005,
    ) -> None:
        self.rng = np.random.default_rng(seed)
        self.volume = RAID6Volume(
            make_code(code, p), num_stripes=num_stripes,
            element_size=element_size,
        )
        self.injector = FaultInjector(
            seed=seed + 1, rates=FaultRates(transient=transient_rate)
        ).attach(self.volume)
        self.shadow = np.zeros(
            (self.volume.num_elements, element_size), dtype=np.uint8
        )
        self.result = ChaosResult(code=code, p=p, seed=seed, steps=0)
        self._step = 0

    # -- helpers ---------------------------------------------------------

    def _note(self, kind: str, *params: int) -> None:
        self.result.events.append((self._step, kind) + params)

    def _alive(self) -> List[int]:
        return [d.disk_id for d in self.volume.disks if not d.failed]

    def _per_stripe(self) -> int:
        return self.volume.layout.num_data_cells

    def _stripes_of(self, start: int, count: int) -> List[int]:
        per = self._per_stripe()
        return sorted({(start + k) // per for k in range(count)})

    def _damage(self, stripe: int) -> int:
        """Distinct damaged columns of ``stripe`` right now."""
        volume = self.volume
        rows = volume.layout.rows
        cols = {
            volume.mapper.col_on_disk(stripe, f)
            for f in volume.failed_disks
        }
        cursor = volume.rebuild_cursor
        if cursor is not None and cursor.active and \
                not cursor.covers(stripe):
            cols.add(volume.mapper.col_on_disk(stripe, cursor.disk))
        for disk in volume.disks:
            if disk.failed:
                continue
            if any(off // rows == stripe for off in disk.bad_sectors):
                cols.add(volume.mapper.col_on_disk(stripe, disk.disk_id))
        return len(cols)

    def _repair_stripes(self, stripes) -> None:
        """Restore whole stripes from the shadow (the operator's
        restore-from-backup move once a stripe is past tolerance)."""
        per = self._per_stripe()
        for stripe in sorted(set(stripes)):
            self.volume.write(
                stripe * per, self.shadow[stripe * per:(stripe + 1) * per]
            )
        self._note("repair", *sorted(set(stripes)))

    def _apply_write(self, start: int, data: np.ndarray) -> None:
        """Write-through with typed-error recovery."""
        try:
            self.volume.write(start, data)
        except TYPED_ERRORS:
            self.result.typed_errors += 1
            self.shadow[start:start + len(data)] = data
            self._repair_stripes(self._stripes_of(start, len(data)))
            return
        self.shadow[start:start + len(data)] = data

    # -- schedule events ---------------------------------------------------

    def ev_write(self) -> None:
        n = int(self.rng.integers(1, 9))
        start = int(self.rng.integers(0, self.volume.num_elements - n + 1))
        data = self.rng.integers(
            0, 256, (n, self.volume.element_size), dtype=np.uint8
        )
        self._note("write", start, n, int(data.sum()))
        self._apply_write(start, data)

    def ev_verify(self) -> None:
        vol = self.volume
        n = int(self.rng.integers(1, min(16, vol.num_elements) + 1))
        start = int(self.rng.integers(0, vol.num_elements - n + 1))
        stripes = self._stripes_of(start, n)
        max_damage = max(self._damage(s) for s in stripes)
        self._note("verify", start, n, max_damage)
        self.result.verifications += 1
        try:
            got = vol.read(start, n)
        except TYPED_ERRORS:
            if max_damage <= 2:
                self.result.integrity_violations += 1
                self._note("violation_unexpected_error", start, n)
            else:
                self.result.typed_errors += 1
                self._repair_stripes(stripes)
            return
        if not np.array_equal(got, self.shadow[start:start + n]):
            self.result.integrity_violations += 1
            self._note("violation_data_mismatch", start, n)

    def ev_latent(self) -> None:
        alive = self._alive()
        if not alive:
            return
        disk = int(self.rng.choice(alive))
        stripe = int(self.rng.integers(self.volume.mapper.num_stripes))
        row = int(self.rng.integers(self.volume.layout.rows))
        self._note("latent", disk, stripe, row)
        self.volume.inject_latent_error(disk, stripe, row)

    def ev_transient_burst(self) -> None:
        alive = self._alive()
        if not alive:
            return
        disk = int(self.rng.choice(alive))
        count = int(
            self.rng.integers(1, self.volume.policy.max_retries + 1)
        )
        self._note("transient_burst", disk, count)
        self.injector.arm(
            FaultSpec("transient", at_op=self.injector.ops, disk=disk,
                      count=count)
        )

    def ev_kill(self) -> None:
        alive = self._alive()
        if not alive:
            return
        victim = int(self.rng.choice(alive))
        vulnerable = set(self.volume._vulnerable_disks()) - {victim}
        self._note("kill", victim, len(vulnerable))
        try:
            self.volume.fail_disk(victim)
        except FaultToleranceExceeded:
            self.result.typed_errors += 1

    def ev_rebuild(self) -> None:
        vol = self.volume
        cursor = vol.rebuild_cursor
        try:
            if cursor is not None and cursor.active:
                n = int(self.rng.integers(1, 3))
                self._note("rebuild_step", cursor.disk, cursor.pos, n)
                self.result.rebuild_steps += 1
                cursor.step(n)
            elif vol.failed_disks:
                disk = int(self.rng.choice(vol.failed_disks))
                self._note("rebuild_start", disk)
                vol.start_rebuild(disk, batch=1)
        except TYPED_ERRORS as exc:
            self.result.typed_errors += 1
            stripe = getattr(exc, "stripe", None)
            self._repair_stripes(
                [stripe] if stripe is not None
                else range(vol.mapper.num_stripes)
            )

    def ev_scrub(self) -> None:
        vol = self.volume
        if vol.health is not HealthState.HEALTHY:
            return
        self._note("scrub")
        try:
            vol.scrub_and_repair()
        except UnrecoverableStripeError as exc:
            self.result.typed_errors += 1
            self._repair_stripes([exc.stripe])
        except DiskFailedError:
            pass  # escalation failed a flaky disk mid-scrub; scrub aborts

    def ev_crash(self) -> None:
        vol = self.volume
        if vol.health is not HealthState.HEALTHY or \
                any(d.bad_sectors for d in vol.disks):
            return
        n = int(self.rng.integers(1, 6))
        start = int(self.rng.integers(0, vol.num_elements - n + 1))
        data = self.rng.integers(
            0, 256, (n, vol.element_size), dtype=np.uint8
        )
        at = self.injector.ops + int(self.rng.integers(1, 13))
        self._note("crash_write", start, n, at)
        self.injector.arm(FaultSpec("crash", at_op=at))
        try:
            vol.write(start, data)
        except SimulatedCrashError:
            self.injector.cancel("crash")
            # write-hole recovery: resync parity of the torn stripes,
            # then replay the interrupted write (journal semantics)
            self.shadow[start:start + n] = data
            stripes = self._stripes_of(start, n)
            try:
                if vol.health is HealthState.HEALTHY:
                    vol.resync_stripes(stripes)
                    self._note("resync", *stripes)
                    self._apply_write(start, data)
                else:
                    self._repair_stripes(stripes)
            except DiskFailedError:
                # a flaky disk escalated mid-recovery; fall back to
                # restoring the torn stripes wholesale
                self._repair_stripes(stripes)
        else:
            self.injector.cancel("crash")
            self.shadow[start:start + n] = data

    # -- driving -----------------------------------------------------------

    EVENTS = (
        ("write", 0.28),
        ("verify", 0.22),
        ("latent", 0.10),
        ("transient_burst", 0.08),
        ("kill", 0.08),
        ("rebuild", 0.12),
        ("scrub", 0.06),
        ("crash", 0.06),
    )

    def run(self, steps: int = 40) -> ChaosResult:
        names = [name for name, _ in self.EVENTS]
        probs = np.array([w for _, w in self.EVENTS])
        probs = probs / probs.sum()
        for step in range(steps):
            self._step = step
            name = names[int(self.rng.choice(len(names), p=probs))]
            getattr(self, f"ev_{name}")()
        self._settle()
        self.result.steps = steps
        self.result.heals = len(self.volume.heal_log)
        self.result.escalations = len(
            self.volume.error_counters.escalated
        )
        self.result.fault_log = tuple(self.injector.log)
        return self.result

    def _settle(self) -> None:
        """Repair everything, then verify the entire volume byte-exactly."""
        vol = self.volume
        self._step = -1
        # The schedule is over: stop injecting new faults and require the
        # array to converge back to a clean, verifiable state.  Damage
        # already on disk (bad sectors, failed disks, half-done rebuilds,
        # accumulated error counters) still has to be worked through.
        self.injector.detach()
        for _ in range(500):
            if vol.health is not HealthState.HEALTHY:
                cursor = vol.rebuild_cursor
                try:
                    if cursor is not None and cursor.active:
                        cursor.step()
                    else:
                        vol.start_rebuild(vol.failed_disks[0], batch=4)
                except TYPED_ERRORS as exc:
                    self.result.typed_errors += 1
                    stripe = getattr(exc, "stripe", None)
                    self._repair_stripes(
                        [stripe] if stripe is not None
                        else range(vol.mapper.num_stripes)
                    )
                continue
            try:
                vol.scrub_and_repair()
            except UnrecoverableStripeError as exc:
                self.result.typed_errors += 1
                self._repair_stripes([exc.stripe])
                continue
            except DiskFailedError:
                # residual latent errors pushed a flaky disk over the
                # escalation threshold mid-scrub; rebuild and retry
                continue
            break
        else:  # pragma: no cover - defensive
            raise ReproError("chaos settle did not converge")
        self._note("settled")
        got = vol.read(0, vol.num_elements)
        self.result.verifications += 1
        if not np.array_equal(got, self.shadow):
            self.result.integrity_violations += 1
            self._note("violation_final_state")
        if vol.scrub():
            self.result.integrity_violations += 1
            self._note("violation_final_parity")


def run_chaos(
    code: str = "dcode",
    p: int = 7,
    seed: int = 0,
    steps: int = 40,
    num_stripes: int = 4,
    element_size: int = 16,
) -> ChaosResult:
    """Run one seeded chaos schedule; see module docstring for the
    contract the returned :class:`ChaosResult` reflects."""
    runner = ChaosRunner(
        code=code, p=p, seed=seed, num_stripes=num_stripes,
        element_size=element_size,
    )
    return runner.run(steps=steps)


# -- crash-point fuzzing ------------------------------------------------------

#: Write patterns the crash-point campaign tears (each exercises a
#: different journaled write path): a healthy-array RMW, a single full-
#: stripe write, a multi-stripe span (partial + full + partial), a
#: coalesced cache destage, and an all-partial RMW burst — the shape that
#: journals as one group-committed append, so its ``pre_intent`` /
#: ``post_intent`` / ``pre_commit`` occurrences land on group boundaries
#: (first/middle/last member of the group).
CRASH_PATTERNS: Tuple[str, ...] = (
    "rmw", "full", "multi", "destage", "burst",
)


@dataclass
class CrashPointResult:
    """One crash trial: tear at a phase occurrence, remount, verify.

    ``violations`` counts stripes whose post-recovery image broke the
    atomicity contract (neither fully-old nor fully-new; open intent not
    rolled fully forward; parity dirty after recovery).
    """

    code: str
    p: int
    seed: int
    pattern: str
    phase: str
    #: Which occurrence of ``phase`` the crash fired at (1-based), and
    #: how many occurrences the un-crashed write produces in total.
    occurrence: int
    phase_count: int
    crashed: bool = False
    #: Intents still open when the "power" went out.
    open_at_crash: int = 0
    classifications: Dict[str, int] = field(default_factory=dict)
    replayed: int = 0
    recovery_reads: int = 0
    recovery_writes: int = 0
    #: Degraded campaigns: recovery refused an open intent with a typed
    #: :class:`~repro.exceptions.TornWriteError` and the stripes were
    #: restored wholesale (see :class:`_CrashCampaign`).
    refused: bool = False
    violations: int = 0

    @property
    def ok(self) -> bool:
        return self.violations == 0


class _PhaseCrasher:
    """Counts occurrences of one journal phase; crashes at the n-th."""

    def __init__(self, phase: str, occurrence: Optional[int] = None):
        self.phase = phase
        self.occurrence = occurrence
        self.count = 0

    def __call__(self, phase: str, stripe: int) -> None:
        if phase != self.phase:
            return
        self.count += 1
        if self.occurrence is not None and self.count == self.occurrence:
            raise SimulatedCrashError(self.count)


class _CrashCampaign:
    """Seeded crash-point sweep for one ``(code, p)``.

    For every write pattern and journal phase, the campaign first counts
    how many times the phase fires during the un-crashed write (a dry run
    on an identical volume — the plan order is deterministic), then
    replays the write on fresh volumes crashing at the first, middle and
    last occurrence.  After each crash it "remounts" (drops the hook,
    runs :class:`~repro.journal.recovery.CrashRecovery`) and checks the
    result against the shadow oracle:

    * a stripe whose intent was open at the crash must be fully-NEW;
    * any other stripe the write touched must be fully-old or fully-new
      (an intent may have committed before the crash), never mixed;
    * untouched stripes must be byte-identical to the old image;
    * a full scrub must come back clean.

    With ``failed`` disks the same writes run degraded — partial stripes
    as RMWs that patch the surviving parities — and the image is checked
    twice: through degraded reads, then after rebuilding every disk,
    before the scrub.  A degraded stripe has no redundancy to tell a
    torn image from a whole one unless its old-parity digest could be
    taken (no footprint parity on a failed disk) and nothing landed; what
    recovery cannot verify it must *refuse* with a typed
    :class:`~repro.exceptions.TornWriteError` — the degraded write hole,
    closed by the operator restoring the stripe, here from the new
    image — never replay into garbage.  A refusal is checked before the
    restore (:meth:`_refusal_ok`): the stripes still open are exactly as
    the crash left them, and recovery had no way to verify the refused
    one.
    """

    def __init__(
        self,
        code: str,
        p: int,
        seed: int = 0,
        num_stripes: int = 4,
        element_size: int = 16,
        failed: Tuple[int, ...] = (),
    ) -> None:
        self.code = code
        self.p = p
        self.seed = seed
        self.num_stripes = num_stripes
        self.element_size = element_size
        self.failed = failed

    def _fresh_volume(self) -> Tuple[RAID6Volume, np.ndarray]:
        vol = RAID6Volume(
            make_code(self.code, self.p),
            num_stripes=self.num_stripes,
            element_size=self.element_size,
            journal=WriteIntentLog(),
        )
        rng = np.random.default_rng([self.seed, 0xC8A5])
        base = rng.integers(
            0, 256, (vol.num_elements, self.element_size), dtype=np.uint8
        )
        vol.write(0, base)
        for disk in self.failed:
            vol.fail_disk(disk)
        return vol, base

    def _pattern_ops(
        self, vol: RAID6Volume, pattern: str
    ) -> List[Tuple[int, np.ndarray]]:
        """Logical ``(start, data)`` writes of one pattern (seeded)."""
        per = vol.layout.num_data_cells
        rng = np.random.default_rng(
            [self.seed, CRASH_PATTERNS.index(pattern)]
        )

        def payload(n: int) -> np.ndarray:
            return rng.integers(
                0, 256, (n, self.element_size), dtype=np.uint8
            )

        if pattern == "rmw":
            return [(per, payload(max(1, per // 3)))]
        if pattern == "full":
            return [(per, payload(per))]
        if pattern == "multi":
            # tail of stripe 0, all of stripe 1, head of stripe 2
            start = per // 2
            return [(start, payload(min(2 * per, vol.num_elements - start)))]
        if pattern == "burst":
            # three partial-stripe RMWs flushed as one coalesced burst:
            # the cache destages them as one queue (_write_rest), which
            # journals them as one group-committed append
            n = per // 3 or 1
            return [
                (0, payload(n)),
                (per, payload(n)),
                (2 * per, payload(n)),
            ]
        # destage: several stripes dirtied through the write-back cache,
        # torn while flush() coalesces them
        return [
            (0, payload(per)),            # stripe 0 fills completely
            (per, payload(per)),          # stripe 1 fills completely
            (2 * per, payload(per // 2 or 1)),  # stripe 2 stays partial
        ]

    def _apply(
        self, vol: RAID6Volume, pattern: str,
        ops: List[Tuple[int, np.ndarray]],
    ) -> None:
        if pattern in ("destage", "burst"):
            cache = StripeCache(vol, max_dirty_stripes=len(ops) + 1)
            for start, data in ops:
                cache.write(start, data)
            cache.flush()
            return
        for start, data in ops:
            vol.write(start, data)

    def _count_phase(self, pattern: str, phase: str) -> int:
        """Dry-run the pattern and count the phase's occurrences."""
        vol, _ = self._fresh_volume()
        counter = _PhaseCrasher(phase)
        vol.journal.phase_hook = counter
        self._apply(vol, pattern, self._pattern_ops(vol, pattern))
        return counter.count

    @staticmethod
    def _refusal_ok(vol, seq, open_intents, pristine, crashed) -> bool:
        """Whether recovery was right to refuse intent ``seq``, judged on
        the surviving disks' images before the write (``pristine``),
        after the crash (``crashed``) and now.

        Every stripe still open must be byte-identical to what the crash
        left — recovery wrote nothing it could not verify — and the
        refusal must have been forced: no old-parity digest was taken (a
        footprint parity sits on a failed disk), or part of the write
        landed.  A group shares one digest over its members, so a byte
        landed on any of them forces per-stripe classification, which
        has no digest to go by.
        """
        rows = vol.layout.rows
        live = [d.disk_id for d in vol.disks if not d.failed]

        def same(stripe, a, b) -> bool:
            sl = slice(stripe * rows, (stripe + 1) * rows)
            return np.array_equal(a[sl][:, live], b[sl][:, live])

        untouched = all(
            same(i.stripe, vol._backing, crashed)
            for i in vol.journal.open_intents()
        )
        intent = next(i for i in open_intents if i.seq == seq)
        if intent.group is None:
            peers, digest = [intent], intent.old_parity_digest
        else:
            peers = [i for i in open_intents if i.group is intent.group]
            digest = intent.group.old_digest
        forced = digest is None or not all(
            same(i.stripe, crashed, pristine) for i in peers
        )
        return untouched and forced

    def _trial(
        self, pattern: str, phase: str, occurrence: int, count: int
    ) -> CrashPointResult:
        result = CrashPointResult(
            code=self.code, p=self.p, seed=self.seed, pattern=pattern,
            phase=phase, occurrence=occurrence, phase_count=count,
        )
        vol, base = self._fresh_volume()
        pristine = vol._backing.copy()
        ops = self._pattern_ops(vol, pattern)
        per = vol.layout.num_data_cells
        old = base.copy()
        new = base.copy()
        touched = set()
        for start, data in ops:
            new[start:start + len(data)] = data
            touched.update(
                (start + k) // per for k in range(len(data))
            )
        vol.journal.phase_hook = _PhaseCrasher(phase, occurrence)
        try:
            self._apply(vol, pattern, ops)
        except SimulatedCrashError:
            result.crashed = True
        open_intents = list(vol.journal.open_intents())
        open_stripes = {i.stripe for i in open_intents}
        result.open_at_crash = len(open_stripes)
        # -- remount: hook gone (the crash is over), replay the journal
        vol.journal.phase_hook = None
        crashed = vol._backing.copy()
        try:
            report = CrashRecovery(vol).run()
        except TornWriteError as exc:
            if not self.failed:
                raise
            result.refused = True
            if not self._refusal_ok(
                vol, exc.seq, open_intents, pristine, crashed
            ):
                result.violations += 1
            for intent in list(vol.journal.open_intents()):
                sl = slice(intent.stripe * per, (intent.stripe + 1) * per)
                vol.write(sl.start, new[sl])
                vol.journal.commit(intent)
        else:
            result.classifications = report.classifications()
            result.replayed = report.replayed
            result.recovery_reads = report.elements_read
            result.recovery_writes = report.elements_written
        # -- shadow-oracle verification: as recovered, then rebuilt
        def verify() -> None:
            got = vol.read(0, vol.num_elements)
            for stripe in range(vol.mapper.num_stripes):
                sl = slice(stripe * per, (stripe + 1) * per)
                g = got[sl]
                if stripe in open_stripes:
                    good = np.array_equal(g, new[sl])
                elif stripe in touched:
                    good = (np.array_equal(g, new[sl])
                            or np.array_equal(g, old[sl]))
                else:
                    good = np.array_equal(g, old[sl])
                if not good:
                    result.violations += 1

        verify()
        if self.failed:
            for disk in self.failed:
                vol.replace_and_rebuild(disk)
            verify()
        if vol.scrub():
            result.violations += 1
        return result

    def run(
        self, patterns: Tuple[str, ...] = CRASH_PATTERNS
    ) -> List[CrashPointResult]:
        results: List[CrashPointResult] = []
        for pattern in patterns:
            for phase in JOURNAL_PHASES:
                count = self._count_phase(pattern, phase)
                if count == 0:
                    continue
                # first/middle/last occurrence — for the group-committed
                # "burst" pattern these are exactly the group-boundary
                # crash points (first/middle/last member of the group)
                occurrences = sorted({1, (count + 1) // 2, count})
                for occurrence in occurrences:
                    results.append(
                        self._trial(pattern, phase, occurrence, count)
                    )
        return results


def run_crash_points(
    code: str = "dcode",
    p: int = 7,
    seed: int = 0,
    num_stripes: int = 4,
    element_size: int = 16,
    patterns: Tuple[str, ...] = CRASH_PATTERNS,
    failed: Tuple[int, ...] = (),
) -> List[CrashPointResult]:
    """Crash-point fuzzing campaign: tear every journal phase, recover,
    verify.  See :class:`_CrashCampaign` for the exact contract; the
    campaign is deterministic in ``(code, p, seed)``.  ``patterns``
    restricts the sweep (e.g. ``("burst",)`` for the group-commit
    boundary matrix); ``failed`` disks are down throughout (the
    degraded-write mode)."""
    return _CrashCampaign(
        code, p, seed=seed, num_stripes=num_stripes,
        element_size=element_size, failed=failed,
    ).run(patterns=patterns)


# -- silent-corruption campaigns ----------------------------------------------


@dataclass
class CorruptionCampaignResult:
    """Outcome and replay record of one corruption campaign.

    ``events`` is pure data (step, kind, int params), so two campaigns
    with the same ``(code, p, seed)`` must produce identical lists — the
    deterministic-replay property the corruption tests assert.
    """

    code: str
    p: int
    seed: int
    rounds: int
    events: List[Tuple] = field(default_factory=list)
    #: Byte-flips landed (at-rest plus armed ``silent_flip`` specs).
    flips: int = 0
    #: ``corrupt`` heal-log entries — rot caught by verified reads.
    read_heals: int = 0
    #: Cells repaired by scrub campaigns.
    scrub_repairs: int = 0
    #: Damage-past-tolerance rounds that raised a *typed* error.
    overloads: int = 0
    verifications: int = 0
    integrity_violations: int = 0

    @property
    def ok(self) -> bool:
        return self.integrity_violations == 0


class CorruptionCampaign:
    """Seeded silent-corruption schedule against a verified volume.

    The campaign corrupts blocks behind the array's back — at-rest
    flips via :meth:`FaultInjector.corrupt_at_rest` and op-triggered
    ``silent_flip`` specs — and holds the stack to the ISSUE contract:

    * damage confined to **at most two columns per stripe** must be
      healed byte-exactly (against a shadow copy) by verified reads or
      by :meth:`IntegrityChecker.scrub_campaign`, silently — no error
      reaches the caller;
    * damage beyond two columns must surface as a *typed* error
      (:data:`TYPED_ERRORS`), never a crash or a wrong answer.

    The attached injector makes the volume present every load element
    by element, each block re-hashed, and the error policy's escalation
    threshold is set out of reach — a corruption campaign measures
    detection and repair, not the proactive-failure ladder (which has
    its own tests).
    """

    def __init__(
        self,
        code: str = "dcode",
        p: int = 7,
        seed: int = 0,
        num_stripes: int = 4,
        element_size: int = 16,
    ) -> None:
        from repro.array.integrity import IntegrityChecker
        from repro.faults.policy import ErrorPolicy

        self.rng = np.random.default_rng(seed)
        self.volume = RAID6Volume(
            make_code(code, p), num_stripes=num_stripes,
            element_size=element_size,
            policy=ErrorPolicy(escalate_after=10**9),
        )
        self.injector = FaultInjector(seed=seed + 1).attach(self.volume)
        self.checker = IntegrityChecker(self.volume)
        self.shadow = np.zeros(
            (self.volume.num_elements, element_size), dtype=np.uint8
        )
        self.result = CorruptionCampaignResult(
            code=code, p=p, seed=seed, rounds=0
        )
        self._step = 0
        #: stripe -> columns with outstanding (unrepaired) corruption;
        #: the budget keeper that stays within the two-column contract.
        self._outstanding: Dict[int, set] = {}

    # -- helpers ---------------------------------------------------------

    def _note(self, kind: str, *params: int) -> None:
        self.result.events.append((self._step, kind) + params)

    def _per(self) -> int:
        return self.volume.layout.num_data_cells

    def _flip_cell(self, stripe: int, cell) -> None:
        loc = self.volume.mapper.locate_cell(stripe, cell)
        mask = int(self.rng.integers(1, 256))
        self.injector.corrupt_at_rest(loc.disk, loc.offset, mask)
        self.result.flips += 1
        self._note("flip", stripe, cell.row, cell.col, mask)

    def _read_expect(self, start: int, count: int) -> bool:
        """Verified read must match the shadow byte-exactly."""
        self.result.verifications += 1
        got = self.volume.read(start, count)
        if np.array_equal(got, self.shadow[start:start + count]):
            return True
        self.result.integrity_violations += 1
        self._note("violation_data_mismatch", start, count)
        return False

    def _restore_stripe(self, stripe: int) -> None:
        """Operator's restore-from-backup once a stripe is past
        tolerance: a full-stripe write re-records every digest."""
        per = self._per()
        self.volume.write(
            stripe * per, self.shadow[stripe * per:(stripe + 1) * per]
        )
        self._outstanding.pop(stripe, None)
        self._note("restore", stripe)

    # -- schedule events -------------------------------------------------

    def ev_write(self) -> None:
        n = int(self.rng.integers(1, 9))
        start = int(
            self.rng.integers(0, self.volume.num_elements - n + 1)
        )
        data = self.rng.integers(
            0, 256, (n, self.volume.element_size), dtype=np.uint8
        )
        self._note("write", start, n, int(data.sum()))
        self.volume.write(start, data)
        self.shadow[start:start + n] = data

    def ev_rot(self) -> None:
        """At-rest rot within the two-column budget, then a verified
        read of the stripe — data-cell rot must heal in place."""
        layout = self.volume.layout
        stripe = int(self.rng.integers(self.volume.mapper.num_stripes))
        held = self._outstanding.setdefault(stripe, set())
        room = 2 - len(held)
        if room <= 0:
            return
        cols = [c for c in range(layout.cols) if c not in held]
        picks = self.rng.choice(
            len(cols), size=int(self.rng.integers(1, room + 1)),
            replace=False,
        )
        for col in sorted(cols[int(i)] for i in picks):
            cells = layout.cells_in_column(col)
            cell = cells[int(self.rng.integers(len(cells)))]
            self._flip_cell(stripe, cell)
            if not layout.is_data(cell):
                # the verified read below heals data cells on the spot;
                # parity rot stays outstanding until a campaign sweeps
                held.add(col)
        per = self._per()
        self._read_expect(stripe * per, per)

    def ev_flip_on_read(self) -> None:
        """Arm an op-triggered ``silent_flip`` against a data cell, then
        read it — detect-on-serve, reconstruct, rewrite."""
        layout = self.volume.layout
        stripe = int(self.rng.integers(self.volume.mapper.num_stripes))
        if self._outstanding.get(stripe):
            return  # keep the budget bookkeeping trivially safe
        data_cells = layout.data_cells
        cell = data_cells[int(self.rng.integers(len(data_cells)))]
        loc = self.volume.mapper.locate_cell(stripe, cell)
        mask = int(self.rng.integers(1, 256))
        self._note("flip_on_read", stripe, cell.row, cell.col, mask)
        self.injector.arm(FaultSpec(
            "silent_flip", at_op=self.injector.ops, disk=loc.disk,
            offset=loc.offset, flip_mask=mask,
        ))
        self.result.flips += 1
        per = self._per()
        self._read_expect(stripe * per, per)

    def ev_campaign(self) -> None:
        """Scrub campaign sweeps; parity rot is only repairable here."""
        self._note("campaign")
        report = self.checker.scrub_campaign()
        self.result.scrub_repairs += report.repaired_count
        self._outstanding.clear()

    def ev_overload(self) -> None:
        """Three corrupt columns in one stripe: the read must fail with
        a typed error, and a full-stripe restore must recover."""
        layout = self.volume.layout
        stripe = int(self.rng.integers(self.volume.mapper.num_stripes))
        held = self._outstanding.setdefault(stripe, set())
        cols = [c for c in range(layout.cols) if c not in held]
        need = 3 - len(held)
        picks = self.rng.choice(len(cols), size=need, replace=False)
        chosen = sorted(cols[int(i)] for i in picks)
        for col in chosen:
            for cell in layout.cells_in_column(col):
                self._flip_cell(stripe, cell)
        self._note("overload", stripe, *sorted(held | set(chosen)))
        per = self._per()
        self.result.verifications += 1
        try:
            got = self.volume.read(stripe * per, per)
        except TYPED_ERRORS:
            self.result.overloads += 1
        else:
            if not np.array_equal(
                got, self.shadow[stripe * per:(stripe + 1) * per]
            ):
                self.result.integrity_violations += 1
                self._note("violation_served_rot", stripe)
        self._restore_stripe(stripe)
        self._read_expect(stripe * per, per)

    def ev_verify(self) -> None:
        vol = self.volume
        n = int(self.rng.integers(1, min(16, vol.num_elements) + 1))
        start = int(self.rng.integers(0, vol.num_elements - n + 1))
        self._note("verify", start, n)
        self._read_expect(start, n)

    # -- driving ---------------------------------------------------------

    EVENTS = (
        ("write", 0.25),
        ("rot", 0.25),
        ("flip_on_read", 0.15),
        ("campaign", 0.10),
        ("overload", 0.10),
        ("verify", 0.15),
    )

    def run(self, rounds: int = 24) -> CorruptionCampaignResult:
        names = [name for name, _ in self.EVENTS]
        probs = np.array([w for _, w in self.EVENTS])
        probs = probs / probs.sum()
        for step in range(rounds):
            self._step = step
            name = names[int(self.rng.choice(len(names), p=probs))]
            getattr(self, f"ev_{name}")()
        self._settle()
        self.result.rounds = rounds
        self.result.read_heals = sum(
            1 for e in self.volume.heal_log if e.kind == "corrupt"
        )
        return self.result

    def _settle(self) -> None:
        """Drain outstanding rot, then verify everything byte-exactly."""
        self._step = -1
        for _ in range(8):
            report = self.checker.scrub_campaign()
            self.result.scrub_repairs += report.repaired_count
            if report.clean:
                break
        else:  # pragma: no cover - defensive
            raise ReproError("corruption settle did not converge")
        self._outstanding.clear()
        self._note("settled")
        if not self._read_expect(0, self.volume.num_elements):
            return
        if self.checker.find_corruption():
            self.result.integrity_violations += 1
            self._note("violation_residual_rot")


def run_corruption_campaign(
    code: str = "dcode",
    p: int = 7,
    seed: int = 0,
    rounds: int = 24,
    num_stripes: int = 4,
    element_size: int = 16,
) -> CorruptionCampaignResult:
    """Run one seeded silent-corruption campaign; deterministic in
    ``(code, p, seed)``.  See :class:`CorruptionCampaign`."""
    return CorruptionCampaign(
        code=code, p=p, seed=seed, num_stripes=num_stripes,
        element_size=element_size,
    ).run(rounds=rounds)
