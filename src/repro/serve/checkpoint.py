"""Incremental durable checkpoints: dirty stripes appended to the image.

A durable shard's state file is a volume image
(:mod:`repro.array.persistence`): one full record, then one record per
checkpoint.  Each checkpoint appends the raw images of the stripes
dirtied since the last one (data *and* parity columns, so reloading is
a plain copy with no re-encode) plus the whole ack-intent ledger and
failed-disk set, so the per-batch durability cost scales with what the
batch touched, not with the volume size.  The append is the
durable-ack barrier: when it returns the batch survives ``kill -9``.
A crash mid-append leaves a torn tail that loading ignores — it was
never acknowledged — and that the next open drops.

Compaction is :func:`~repro.array.persistence.save_volume` of the
volume: one full record written to a temp file and renamed over the
state file.  A crash before the rename leaves the old file whole, one
after it the new one; either reloads to the acknowledged image.  It
runs when the appended bytes pass :data:`COMPACT_RATIO` raw volume
images or the appends reach :data:`COMPACT_EVERY`, and once when a
checkpointer opens — which seeds a fresh shard's file and drops a torn
tail.

Mount-time recovery is :func:`~repro.array.persistence.load_volume`
followed by :func:`repro.journal.recovery.recover_on_mount`, which
rolls the open ack intents forward.

Dirty-stripe capture observes the volume's write funnel ``_store_rows``,
which every plan store calls once with all the backing rows it writes,
the same way :class:`repro.array.integrity.IntegrityChecker` observes it
(whole stripes encoded in place in the backing store announce their rows
through it too, without data).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Set

import numpy as np

from repro.array import RAID6Volume
from repro.array.persistence import append_record, save_volume
from repro.exceptions import ReproError

#: Compact once this many records were appended since the last one.
COMPACT_EVERY = 256
#: Compact once the appended bytes pass this many raw volume images.
COMPACT_RATIO = 4.0


def delta_log_path(path) -> Path:
    """The file checkpoints append to: the state file itself.

    Kept for ``bench/layers.py``'s durable probe, which measures the
    file's growth per checkpoint.
    """
    return Path(path)


class DirtyStripeTracker:
    """Record which stripes the volume wrote since the last drain.

    An observer of the volume's write funnel (the
    :class:`IntegrityChecker` pattern), beside any other.  ``drain()``
    hands back the dirty set and resets it — called at the checkpoint
    barrier, when the batch's volume work has already returned.
    """

    def __init__(self, volume: RAID6Volume) -> None:
        self.volume = volume
        #: backing rows per stripe
        self.stride = volume.layout.rows * volume.layout.cols
        self._dirty: Set[int] = set()
        self._lock = threading.Lock()
        volume._observers += (self._rows,)

    def _rows(self, at: np.ndarray, data=None) -> None:
        stripes = np.unique(at // self.stride).tolist()
        with self._lock:
            self._dirty.update(stripes)

    def drain(self) -> Set[int]:
        with self._lock:
            dirty, self._dirty = self._dirty, set()
        return dirty

    def detach(self) -> None:
        volume = self.volume
        volume._observers = tuple(
            o for o in volume._observers if o != self._rows
        )


class IncrementalCheckpointer:
    """Per-shard checkpoint engine: record appends + compaction.

    Opening rewrites ``path`` as one full record of ``volume``.
    """

    def __init__(self, volume: RAID6Volume, path) -> None:
        if volume.journal is None:
            raise ReproError(
                "incremental checkpoints need a journaled volume"
            )
        self.volume = volume
        self.path = Path(path)
        self.tracker = DirtyStripeTracker(volume)
        self._fh = None
        #: records and bytes appended since the last full record
        self.records = 0
        self.appended = 0
        self.deltas = 0
        self.compactions = 0
        self._rewrite()

    def _rewrite(self) -> None:
        """Replace the file by one full record; reopen it for appends."""
        self.tracker.drain()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        save_volume(self.volume, self.path)
        self._fh = open(self.path, "ab")
        self.records = self.appended = 0

    def checkpoint(self) -> None:
        """Persist everything changed since the last call.

        Appends one record (dirty stripes + full ack ledger), or
        compacts when the appends have outgrown the volume — either
        way, when this returns the acknowledged state survives
        ``kill -9``.
        """
        if self.records + 1 >= COMPACT_EVERY or \
                self.appended > COMPACT_RATIO * self.volume._backing.nbytes:
            self.compact()
            return
        self.appended += append_record(
            self._fh, self.volume, self.tracker.drain()
        )
        self.records += 1
        self.deltas += 1

    def compact(self) -> None:
        """One full record renamed over the file (one atomic rename)."""
        self._rewrite()
        self.compactions += 1

    def close(self) -> None:
        self.tracker.detach()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
