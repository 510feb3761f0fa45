"""Write-back stripe cache.

Array controllers coalesce small writes in NVRAM and destage whole
batches, because the parity RMW cost of a partial write is dominated by
*distinct parity groups touched* — exactly the quantity the paper's
Figure 5 studies.  This cache buffers logical writes per stripe and
destages each stripe's accumulated cells in one batch, turning several
small RMWs into one (or, when a stripe fills completely, into a
read-free full-stripe write).  The dirty cells live in one slab, a row
of ``num_data_cells`` elements per dirty stripe, from which the
destage's RMW reads its new values.

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

import operator
import threading
from collections import OrderedDict
from typing import Dict, List, Tuple

import numpy as np

from repro.array import ioplan
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
        #: stripe -> (slot, mask): data cell ``j`` of each set bit ``j``
        #: dirty, its value ``_slab[slot, j]``; OrderedDict gives LRU order
        self._dirty: "OrderedDict[int, Tuple[int, int]]" = OrderedDict()
        self._per = volume.layout.num_data_cells
        #: the budget plus the two stripes a write of at most a stripe
        #: adds before eviction runs; a longer write grows the slab and,
        #: once its eviction is done, shrinks it back
        self._slots = min(max_dirty_stripes + 2, volume.mapper.num_stripes)
        self._slab = np.empty((0, self._per, volume.element_size), np.uint8)
        self._reslot(self._slots)
        self.destage_count = 0
        self._lock = threading.RLock()

    # -- write path -----------------------------------------------------------

    def write(self, start: int, data: np.ndarray) -> None:
        """Buffer a logical write; destages only on pressure or flush."""
        start = operator.index(start)
        if data.ndim != 2 or data.shape[1] != self.volume.element_size \
                or data.dtype != np.uint8:
            raise AddressError(
                f"data must be uint8 (count, {self.volume.element_size})"
            )
        require_positive(data.shape[0], "count")
        if start < 0 or start + data.shape[0] > self.volume.num_elements:
            raise AddressError("write outside volume")
        per, count = self._per, data.shape[0]
        stripes = range(start // per, (start + count - 1) // per + 1)
        with self._lock:
            dirty = self._dirty
            need = len(stripes) > len(self._free) and \
                len(dirty) + sum(s not in dirty for s in stripes)
            if need > len(self._slab):  # a longer write
                self._reslot(need)
            slab, free = self._slab, self._free
            for stripe in stripes:
                # data cells [lo, hi) of the stripe, rows base + lo on
                base = stripe * per - start
                lo, hi = max(0, -base), min(per, count - base)
                slot, mask = dirty.get(stripe) or (free.pop(), 0)
                slab[slot, lo:hi] = data[base + lo:base + hi]
                dirty[stripe] = slot, mask | (1 << hi) - (1 << lo)
                dirty.move_to_end(stripe)
            overflow = len(dirty) - self.max_dirty_stripes
            if overflow > 0:
                # evict the LRU overflow (plus hysteresis headroom) as
                # one coalesced destage batch
                victims = list(dirty)[:overflow + self.evict_batch - 1]
                self._destage_many(victims)
            if len(self._slab) > self._slots:  # no longer rows than needed
                self._reslot(self._slots)

    def _reslot(self, slots: int) -> None:
        """Move the dirty rows to the first of a new slab of ``slots``."""
        dirty = self._dirty
        slab = np.empty((slots,) + self._slab.shape[1:], np.uint8)
        for i, (stripe, (slot, mask)) in enumerate(list(dirty.items())):
            slab[i] = self._slab[slot]
            dirty[stripe] = i, mask
        self._slab, self._free = slab, list(range(len(dirty), slots))

    # -- read path ------------------------------------------------------------

    def read(self, start: int, count: int) -> np.ndarray:
        """Read-through with dirty overlay (read-your-writes)."""
        start = operator.index(start)
        out = self.volume.read(start, count)
        count = len(out)  # an int, as the volume checked it
        per = self._per
        with self._lock:
            dirty, slab = self._dirty, self._slab
            for stripe in range(start // per, (start + count - 1) // per + 1):
                entry = dirty.get(stripe)
                if entry is None:
                    continue
                slot, mask = entry
                base = stripe * per - start  # its data cell 0's row
                bits = mask & (1 << min(per, count - base)) - \
                    (1 << max(0, -base))
                if bits and not out.flags.writeable:  # a zero-copy view
                    out = out.copy()
                while bits:  # each run of dirty cells [lo, hi)
                    lo = (bits & -bits).bit_length() - 1
                    run = bits >> lo
                    hi = lo + (run ^ run + 1).bit_length() - 1
                    out[base + lo:base + hi] = slab[slot, lo:hi]
                    bits &= -1 << hi
        return out

    # -- destaging --------------------------------------------------------------

    @property
    def dirty_stripes(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(self._dirty)

    def dirty_elements(self) -> int:
        with self._lock:
            return sum(mask.bit_count() for _, mask in self._dirty.values())

    def dirty_snapshot(self) -> "Dict[int, List[Tuple[Cell, np.ndarray]]]":
        """Point-in-time copy of the dirty map: stripe → sorted items.

        Cell payloads are copied, so the snapshot stays valid while the
        cache keeps mutating — the durable-ack shard state ledger
        journals it as the redo image of everything acknowledged but not
        yet destaged (:mod:`repro.serve.state`).
        """
        cells = self.volume.layout.data_cells
        with self._lock:
            snapshot = {}
            for stripe, (slot, mask) in self._dirty.items():
                js = ioplan.set_bits(mask)
                snapshot[stripe] = list(zip(
                    [cells[j] for j in js], self._slab[slot, js]
                ))
            return snapshot

    def flush(self) -> int:
        """Destage every dirty stripe; returns stripes written."""
        with self._lock:
            stripes = list(self._dirty)
            self._destage_many(stripes)
            return len(stripes)

    def _destage_many(self, stripes: List[int]) -> None:
        """Coalesced destage: the buckets — slab rows and masks — go to
        the volume's burst writer as one queue, which encodes the
        completely dirty stripes together and runs the healthy partial
        ones sharing a dirty-cell pattern as one cross-stripe RMW.
        Bytes, I/O counts and ``destage_count`` match destaging each
        stripe in turn."""
        with self._lock:
            entries = [(s, *self._dirty.pop(s)) for s in stripes]
            # the lock keeps writes off the freed rows until they are read
            self._free += [slot for _, slot, _ in entries]
            self.volume._write_rest([
                (stripe, self._slab[slot], mask)
                for stripe, slot, mask in entries
            ])
            self.destage_count += len(stripes)
