"""Volume health state machine and incremental rebuild cursor.

A volume is HEALTHY (all disks live, no rebuild running), DEGRADED (one
or two disks failed, traffic served through reconstruction) or
REBUILDING (a replacement disk is being refilled while foreground I/O
continues).  The transitions:

::

    HEALTHY --fail_disk/escalation--> DEGRADED
    DEGRADED --start_rebuild--> REBUILDING
    REBUILDING --cursor completes--> HEALTHY (or DEGRADED, if another
                                              disk is still down)
    REBUILDING --rebuild target dies again--> DEGRADED (cursor aborted)

The :class:`RebuildCursor` makes rebuild *incremental*: each
:meth:`~RebuildCursor.step` reconstructs a bounded batch of stripes, so
foreground reads and writes interleave freely.  The cursor position
splits the volume:

* stripes **behind** the cursor (< ``pos``) are fully rebuilt — the
  replacement disk serves them normally, and foreground writes landing
  there are final (never re-reconstructed);
* stripes **ahead** of the cursor are stale on the replacement disk —
  reads reconstruct from parity and writes skip the replacement column
  (the cursor re-derives it from the freshly written parity when it
  arrives).

The cursor survives interruption trivially — it is just a position; stop
calling ``step`` and resume later.  A latent sector error on a surviving
disk during a single-failure rebuild escalates that stripe to the full
decoder instead of aborting the rebuild.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.util.validation import require


class HealthState(enum.Enum):
    """Operational state of a RAID-6 volume."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    REBUILDING = "rebuilding"


class RebuildCursor:
    """Resumable, batched reconstruction of one replaced disk.

    Created by :meth:`repro.array.volume.RAID6Volume.start_rebuild`; not
    instantiated directly.
    """

    def __init__(self, volume, disk: int, batch: int = 8) -> None:
        require(batch >= 1, "batch must be >= 1")
        self.volume = volume
        self.disk = disk
        self.batch = batch
        #: Next stripe to reconstruct; everything below is rebuilt.
        self.pos = 0
        self.total = volume.mapper.num_stripes
        self.aborted = False
        #: Element I/O spent by rebuild steps (foreground I/O excluded
        #: because steps measure their own deltas).
        self.elements_read = 0
        self.elements_written = 0
        self.steps_taken = 0

    # -- state ----------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.pos >= self.total and not self.aborted

    @property
    def active(self) -> bool:
        return not self.aborted and self.pos < self.total

    @property
    def progress(self) -> float:
        """Fraction of stripes rebuilt, in [0, 1]."""
        return self.pos / self.total

    def covers(self, stripe: int) -> bool:
        """True when ``stripe`` is already rebuilt (behind the cursor)."""
        return stripe < self.pos

    # -- driving ---------------------------------------------------------------

    def step(self, stripes: Optional[int] = None) -> int:
        """Reconstruct the next batch; returns stripes rebuilt.

        Interleave freely with foreground I/O.  When the last stripe
        completes, the volume leaves REBUILDING.  Raises
        :class:`~repro.exceptions.UnrecoverableStripeError` if a stripe
        has lost more than the code tolerates (the cursor stays at that
        stripe, so the caller may repair and resume).
        """
        require(not self.aborted, "rebuild cursor was aborted")
        if self.pos >= self.total:
            return 0
        volume = self.volume
        n = self.batch if stripes is None else stripes
        require(n >= 1, "step size must be >= 1")
        end = min(self.pos + n, self.total)
        start = self.pos
        reads_before = sum(d.read_count for d in volume.disks)
        writes_before = sum(d.write_count for d in volume.disks)
        try:
            while self.pos < end:
                volume._rebuild_stripes(self, end)
        finally:
            self.elements_read += (
                sum(d.read_count for d in volume.disks) - reads_before
            )
            self.elements_written += (
                sum(d.write_count for d in volume.disks) - writes_before
            )
            self.steps_taken += 1
            if self.pos >= self.total and volume._rebuild is self:
                volume._rebuild = None
        return self.pos - start

    def run(self) -> int:
        """Drive the rebuild to completion; returns elements read."""
        reads_before = self.elements_read
        while self.active:
            self.step()
        return self.elements_read - reads_before

    def abort(self) -> None:
        """Cancel the rebuild (used when the target disk dies again)."""
        self.aborted = True
        if self.volume._rebuild is self:
            self.volume._rebuild = None

    def __repr__(self) -> str:
        state = ("aborted" if self.aborted
                 else "done" if self.done else "active")
        return (
            f"<RebuildCursor disk={self.disk} {self.pos}/{self.total} "
            f"{state} r={self.elements_read} w={self.elements_written}>"
        )
