"""Shared-memory payload ring: the zero-copy half of the shard IPC.

A :class:`ProcessShard` used to pickle every WRITE payload into the
pipe and every READ result back out of it — five buffer copies per op
before a byte reached the socket.  The ring replaces the bulk-data leg:
the parent creates one named ``multiprocessing.shared_memory`` segment
per worker incarnation, carved into fixed-size slots, and the pipe
carries only small control descriptors (op headers plus ``(slot,
length)`` references).  WRITE payloads are copied once into a slot
before dispatch; READ results are copied once from the volume into a
slot the parent reserved, then handed to the socket with ``sendmsg`` —
no pickling of bulk data in either direction.

Ownership rules keep the lifecycle crash-proof:

* the **parent allocates and frees every slot**; the worker only reads
  and writes slot contents it was handed.  A ``kill -9`` of the worker
  therefore cannot leak slots, let alone segments;
* the segment is created *before* the fork and inherited through it —
  the worker never attaches by name, so there is no window where a
  crashed worker holds the only reference;
* the parent is the only process that ever calls ``unlink``.
  :meth:`PayloadRing.retire` unlinks immediately (the ``/dev/shm``
  entry disappears right away, which is what the chaos grid's leak
  check observes) and defers the local ``close`` until every leased
  :class:`ShmSlice` has been released — a response still waiting in the
  server's scatter-gather flush buffer keeps its bytes mapped, and the
  mapping goes away with the last release.

Slot exhaustion is *typed*, not blocking: :meth:`PayloadRing.alloc`
returns ``None`` and the shard answers the op ``BUSY`` — a retryable
status the clients already back off on — instead of wedging the
coalescer behind a full ring.
"""

from __future__ import annotations

import itertools
import os
import threading
from multiprocessing import shared_memory
from typing import Optional

from repro.util.validation import require_positive

#: Every ring segment name starts with this, so tests and the chaos
#: harness can sweep ``/dev/shm`` for leaked segments by prefix.
SHM_PREFIX = "repro_ring"

_ring_counter = itertools.count()


class ShmSlice:
    """A leased view of one ring slot (a READ result in flight).

    Created by the parent when a worker answers a READ through the
    ring.  Holds the slot until :meth:`release` — which the server
    calls after the response bytes left the socket (or immediately,
    when the connection died first).  Release is idempotent.
    """

    __slots__ = ("_ring", "slot", "length", "_view")

    def __init__(self, ring: "PayloadRing", slot: int, length: int) -> None:
        self._ring = ring
        self.slot = slot
        self.length = length
        self._view: Optional[memoryview] = None

    @property
    def view(self) -> memoryview:
        """1-D byte view of the slot contents (no copy)."""
        if self._view is None:
            self._view = self._ring.slot_view(self.slot, self.length)
        return self._view

    @property
    def nbytes(self) -> int:
        return self.length

    def tobytes(self) -> bytes:
        return bytes(self.view)

    def release(self) -> None:
        """Return the slot to the ring (idempotent)."""
        ring, self._ring = self._ring, None
        if ring is None:
            return
        if self._view is not None:
            self._view.release()
            self._view = None
        ring.free(self.slot)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        state = "released" if self._ring is None else "held"
        return f"<ShmSlice slot={self.slot} len={self.length} {state}>"


class PayloadRing:
    """Fixed-slot shared-memory arena owned by the shard's parent side."""

    def __init__(
        self,
        slots: int = 128,
        slot_bytes: int = 4096,
        name: Optional[str] = None,
    ) -> None:
        require_positive(slots, "slots")
        require_positive(slot_bytes, "slot_bytes")
        self.slots = slots
        self.slot_bytes = slot_bytes
        if name is None:
            name = (
                f"{SHM_PREFIX}_{os.getpid()}_{next(_ring_counter)}"
            )
        self._shm = shared_memory.SharedMemory(
            name=name, create=True, size=slots * slot_bytes
        )
        #: a stack: the slot freed last is leased next, its pages still
        #: warm in both processes (a slot is freed only once its bytes left)
        self._free = list(range(slots - 1, -1, -1))
        self._lock = threading.Lock()
        self._leased = 0
        self._retired = False
        self._closed = False

    # -- introspection ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def retired(self) -> bool:
        return self._retired

    @property
    def leased(self) -> int:
        return self._leased

    @property
    def free_slots(self) -> int:
        with self._lock:
            return len(self._free)

    # -- parent-side slot lifecycle --------------------------------------------

    def alloc(self, nbytes: int) -> Optional[int]:
        """Lease one slot able to hold ``nbytes``; ``None`` = answer BUSY.

        ``None`` comes back both when the payload cannot fit a slot
        (the caller should fall back to inline bytes) and when every
        slot is leased (typed backpressure).
        """
        if nbytes > self.slot_bytes:
            return None
        with self._lock:
            if self._retired or not self._free:
                return None
            self._leased += 1
            return self._free.pop()

    def free(self, slot: int) -> None:
        """Return a leased slot; closes a retired ring on the last one."""
        with self._lock:
            self._leased -= 1
            if not self._retired:
                self._free.append(slot)
                return
            close_now = self._leased <= 0 and not self._closed
        if close_now:
            self._close()

    def lease_slice(self, slot: int, length: int) -> ShmSlice:
        """Wrap an already-leased slot as a releasable result slice."""
        return ShmSlice(self, slot, length)

    # -- data movement (both sides) --------------------------------------------

    def write_into(self, slot: int, data) -> int:
        """Copy ``data`` (any buffer) into ``slot``; returns the length."""
        view = memoryview(data)
        if view.ndim != 1 or view.format != "B":
            view = view.cast("B")
        n = view.nbytes
        base = slot * self.slot_bytes
        self._shm.buf[base:base + n] = view
        view.release()
        return n

    def slot_view(self, slot: int, length: int) -> memoryview:
        """1-D byte view of ``length`` bytes at ``slot`` (no copy)."""
        base = slot * self.slot_bytes
        return self._shm.buf[base:base + length]

    # -- teardown --------------------------------------------------------------

    def retire(self) -> None:
        """Unlink the segment now; close once every lease is released.

        Safe against ``kill -9`` of the worker at any point: the name
        disappears from ``/dev/shm`` immediately (no leak for the chaos
        grid to find), and outstanding :class:`ShmSlice` leases keep
        only the anonymous mapping alive until the connection flushes
        them out.
        """
        with self._lock:
            if self._retired:
                return
            self._retired = True
            self._free.clear()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover — already gone
                pass
            close_now = self._leased <= 0 and not self._closed
        if close_now:
            self._close()

    def _close(self) -> None:
        self._closed = True
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover — a straggler view; the
            # segment is already unlinked, so the mapping just lives
            # until the last view is garbage collected
            self._closed = False

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"<PayloadRing {self.name} slots={self.slots}"
            f"x{self.slot_bytes}B leased={self._leased}"
            f"{' retired' if self._retired else ''}>"
        )
