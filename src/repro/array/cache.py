"""Write-back stripe cache.

Array controllers coalesce small writes in NVRAM and destage whole
batches, because the parity RMW cost of a partial write is dominated by
*distinct parity groups touched* — exactly the quantity the paper's
Figure 5 studies.  This cache buffers logical writes per stripe and
destages each stripe's accumulated cells in one batch, turning several
small RMWs into one (or, when a stripe fills completely, into a
read-free full-stripe write).

Reads are read-through with dirty-cell overlay, so a reader always sees
its own writes.  Eviction is LRU by stripe when the dirty-stripe budget is
exceeded; ``flush()`` destages everything.

The cache is thread-safe: an internal lock serialises the dirty-set
bookkeeping and destaging, so concurrent writers (or a flush racing a
writer — the serving coalescer's steady state) cannot lose buffered
cells or destage a stripe twice.  Stripe-level write ordering against
*other* writers of the same volume is the volume's job — its striped
per-stripe write locks serialise a destage against a foreground RMW on
the same stripe (see ``RAID6Volume._stripe_lock``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Tuple

import numpy as np

from repro.array.mapping import segments
from repro.array.volume import RAID6Volume
from repro.codes.base import Cell
from repro.exceptions import AddressError
from repro.util.validation import require_positive


class StripeCache:
    """LRU write-back cache in front of a :class:`RAID6Volume`."""

    def __init__(
        self,
        volume: RAID6Volume,
        max_dirty_stripes: int = 8,
        evict_batch: int = 1,
    ) -> None:
        require_positive(max_dirty_stripes, "max_dirty_stripes")
        require_positive(evict_batch, "evict_batch")
        self.volume = volume
        self.max_dirty_stripes = max_dirty_stripes
        #: Eviction hysteresis: on overflow, destage down to
        #: ``max_dirty_stripes - evict_batch + 1`` dirty stripes in one
        #: coalesced batch instead of trickling single LRU victims.
        #: The default (1) keeps the historical evict-exactly-overflow
        #: behaviour; serving shards raise it so pressure destages ride
        #: the batched multi-stripe paths.
        self.evict_batch = evict_batch
        #: stripe -> {data index: value}; OrderedDict gives LRU order
        self._dirty: "OrderedDict[int, Dict[int, np.ndarray]]" = OrderedDict()
        self.destage_count = 0
        self._lock = threading.RLock()

    # -- write path -----------------------------------------------------------

    def write(self, start: int, data: np.ndarray) -> None:
        """Buffer a logical write; destages only on pressure or flush."""
        if data.ndim != 2 or data.shape[1] != self.volume.element_size \
                or data.dtype != np.uint8:
            raise AddressError(
                f"data must be uint8 (count, {self.volume.element_size})"
            )
        require_positive(data.shape[0], "count")
        if start < 0 or start + data.shape[0] > self.volume.num_elements:
            raise AddressError("write outside volume")
        with self._lock:
            for stripe, j0, n, k0 in self._segments(start, data.shape[0]):
                bucket = self._dirty.setdefault(stripe, {})
                for i in range(n):
                    bucket[j0 + i] = data[k0 + i].copy()
                self._dirty.move_to_end(stripe)
            overflow = len(self._dirty) - self.max_dirty_stripes
            if overflow > 0:
                # evict the LRU overflow (plus hysteresis headroom) as
                # one coalesced destage batch
                victims = list(self._dirty)[
                    :overflow + self.evict_batch - 1
                ]
                self._destage_many(victims)

    # -- read path ------------------------------------------------------------

    def read(self, start: int, count: int) -> np.ndarray:
        """Read-through with dirty overlay (read-your-writes)."""
        out = self.volume.read(start, count)
        copied = out.flags.writeable  # volume may hand out a zero-copy view
        with self._lock:
            for stripe, j0, n, k0 in self._segments(start, count):
                bucket = self._dirty.get(stripe)
                if not bucket:
                    continue
                for j in range(j0, j0 + n):
                    value = bucket.get(j)
                    if value is not None:
                        if not copied:
                            out = out.copy()
                            copied = True
                        out[k0 + j - j0] = value
        return out

    def _segments(self, start: int, count: int):
        """``(stripe, first data index, length, first row)`` per stripe of
        a logical range — the split the volume's own read/write use."""
        return segments(self.volume.mapper.split(start, count))

    # -- destaging --------------------------------------------------------------

    @property
    def dirty_stripes(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(self._dirty)

    def dirty_elements(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._dirty.values())

    def dirty_snapshot(self) -> "Dict[int, List[Tuple[Cell, np.ndarray]]]":
        """Point-in-time copy of the dirty map: stripe → sorted items.

        Cell payloads are copied, so the snapshot stays valid while the
        cache keeps mutating — the durable-ack shard state ledger
        journals it as the redo image of everything acknowledged but not
        yet destaged (:mod:`repro.serve.state`).
        """
        with self._lock:
            return {
                stripe: [
                    (cell, value.copy())
                    for cell, value in self._bucket_items(bucket)
                ]
                for stripe, bucket in self._dirty.items()
            }

    def flush(self) -> int:
        """Destage every dirty stripe; returns stripes written."""
        with self._lock:
            stripes = list(self._dirty)
            self._destage_many(stripes)
            return len(stripes)

    def _destage(self, stripe: int) -> None:
        with self._lock:
            bucket = self._dirty.pop(stripe)
            self.volume._write_stripe_batch(
                stripe, self._bucket_items(bucket)
            )
            self.destage_count += 1

    def _bucket_items(self, bucket) -> List[Tuple[Cell, np.ndarray]]:
        """A bucket as write items, in logical (data index) order."""
        cells = self.volume.layout.data_cells
        return [(cells[j], value) for j, value in sorted(bucket.items())]

    def _destage_many(self, stripes: List[int]) -> None:
        """Coalesced destage: the buckets go to the volume's burst writer
        as one queue, which encodes the completely dirty stripes together
        and runs the healthy partial ones sharing a dirty-cell pattern as
        one cross-stripe RMW.  Bytes, I/O counts and ``destage_count``
        match destaging each stripe in turn."""
        with self._lock:
            self.volume._write_rest([
                (stripe, self._bucket_items(self._dirty.pop(stripe)))
                for stripe in stripes
            ])
            self.destage_count += len(stripes)
