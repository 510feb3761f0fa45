"""Crash-safe shard state: an ack-intent ledger and incremental persist.

A process-backed shard keeps its volume, its write-back cache, and its
journal in worker memory — a ``kill -9`` vaporizes all three.  The
durable-ack contract (``ServerConfig(ack="durable")``) says a WRITE may
only be acknowledged once it would survive exactly that, so the worker
routes every acknowledgement through a :class:`ShardStateStore`:

* **ack-intent ledger** — before a batch acknowledges, every stripe
  still dirty in the cache gets one open
  :class:`~repro.journal.intent.WriteIntent` carrying its current dirty
  cells (the redo image of everything acknowledged but not yet
  destaged).  The ledger keeps at most one open intent per stripe:
  refreshing a stripe opens the new intent, then commits the stale one,
  and a stripe that destaged simply commits its intent.  This is the
  same NVRAM redo log the volume's write hole protection uses — just
  driven by the cache instead of a stripe write.
* **incremental persist** — after the ledger is synced, the shard
  appends one record to its state file, a volume image
  (:mod:`repro.array.persistence`): the raw images of the stripes
  dirtied since the last checkpoint plus the whole ledger
  (:mod:`repro.serve.checkpoint`).  The full image is only rewritten
  at compaction, so the per-batch durability cost scales with what the
  batch touched, not with the volume size.
* **mount-time recovery on restart** — a restarted worker loads the
  image (:func:`~repro.array.persistence.load_volume`) and runs
  :func:`repro.journal.recovery.recover_on_mount`, which rolls the open
  ack intents forward in sequence order.  The shard comes back with an
  empty cache and a byte-identical acknowledged image.

The persist happens once per acknowledged batch (not per op), so
cross-batch write coalescing in the cache is preserved — durability
costs one ledger sync plus one record append per batch.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.array import RAID6Volume
from repro.array.cache import StripeCache
from repro.array.persistence import load_volume
from repro.journal.intent import WriteIntent, WriteIntentLog
from repro.journal.recovery import RecoveryReport, recover_on_mount
from repro.serve.checkpoint import IncrementalCheckpointer


class ShardStateStore:
    """Durable acknowledgement state for one shard volume."""

    def __init__(
        self,
        path: os.PathLike,
        volume: RAID6Volume,
        cache: Optional[StripeCache],
    ) -> None:
        if volume.journal is None:
            raise ValueError(
                "durable shard state needs a journaled volume "
                "(build the spec with durable=True)"
            )
        self.path = Path(path)
        self.volume = volume
        self.cache = cache
        #: stripe -> the open intent covering its acknowledged dirty cells
        self._acks: Dict[int, WriteIntent] = {}
        self._engine = IncrementalCheckpointer(volume, self.path)
        self.persists = 0

    # -- introspection ---------------------------------------------------------

    @property
    def deltas(self) -> int:
        """Records appended since boot."""
        return self._engine.deltas

    @property
    def compactions(self) -> int:
        return self._engine.compactions

    # -- the per-batch acknowledgement barrier ---------------------------------

    def sync(self) -> None:
        """Refresh the ack-intent ledger from the cache's dirty map.

        Stripes that destaged since the last sync commit their intent
        (the data reached the volume image, which the next persist
        covers); stripes still dirty get a fresh intent with their
        *current* dirty cells, and only then is the stale one committed
        — the ledger never has a window where an acknowledged cell is
        covered by neither the volume image nor an open intent.
        """
        journal = self.volume.journal
        dirty = (
            self.cache.dirty_snapshot() if self.cache is not None else {}
        )
        for stripe in [s for s in self._acks if s not in dirty]:
            journal.commit(self._acks.pop(stripe))
        for stripe, items in dirty.items():
            stale = self._acks.get(stripe)
            self._acks[stripe] = journal.open(stripe, items)
            if stale is not None:
                journal.commit(stale)

    def persist(self) -> None:
        """Append one record (or compact) to the state file."""
        self._engine.checkpoint()
        self.persists += 1

    def compact(self) -> None:
        """Force a compaction: the file rewritten as one full record."""
        self._engine.compact()

    def checkpoint(self) -> None:
        """The durable-ack barrier: ledger sync, then incremental persist.

        Called by the worker after executing a batch that wrote (and on
        graceful shutdown) **before** the batch's results are sent — so
        by the time a client sees OK, the bytes survive ``kill -9``.
        """
        self.sync()
        self.persist()

    def close(self) -> None:
        self._engine.close()


def build_shard_state(
    spec,
) -> Tuple[RAID6Volume, Optional[StripeCache], Optional["ShardStateStore"],
           Optional[RecoveryReport]]:
    """Build (or restore) one shard's volume/cache/state from its spec.

    Without a ``state_path`` this is exactly ``spec.build()``.  With
    one, a fresh boot creates a journaled volume; a restart loads the
    state file and rolls the open ack intents forward through the
    standard mount-time recovery, so the shard resumes with every
    acknowledged write in place.  Either way the store opens by writing
    the volume as one full record, so a pre-write crash reloads cleanly.
    """
    if spec.state_path is None:
        volume, cache = spec.build()
        return volume, cache, None, None

    path = Path(spec.state_path)
    volume = load_volume(path) if path.exists() else spec.build()[0]
    if volume.journal is None:
        volume.journal = WriteIntentLog()
    cache = spec.build_cache(volume)
    store = ShardStateStore(path, volume, cache)
    # recovery must run with the dirty-stripe tracker attached (the
    # store wires it in): the rolled-forward stripes then land in the
    # next record, whose ledger no longer holds the replayed intents —
    # detached, a crash after that record would lose the recovered writes
    return volume, cache, store, recover_on_mount(volume)
