"""Element-addressed simulated disk.

Backing store is a uint8 numpy array (``capacity`` elements of
``element_size`` bytes) — either privately allocated or a caller-supplied
view into a shared volume tensor (which is how
:class:`~repro.array.volume.RAID6Volume` gives stripe-aligned reads a
zero-copy path).  The disk counts every element read and write — the
integration tests and the ablation benchmarks assert against those
counters — and refuses I/O once failed, the way a dead spindle would.

Two I/O granularities are exposed:

* the per-element :meth:`read` / :meth:`read_view` / :meth:`write` path,
  which drives the fault hook, latent-sector and failure machinery one
  element at a time.  The volume presents a plan's gather and store to
  it element by element, in plan order, whenever a disk the plan
  touches is hooked (``RAID6Volume._read_rows`` / ``_store_rows``) — the
  path every fault-injection scenario exercises;
* the vectorised :meth:`read_block`/:meth:`write_block` path of one
  disk, which serves a whole offset array in one numpy gather/scatter.
  It engages only while the disk is quiet (no hook for reads and writes,
  no bad sectors for reads) and falls back to the per-element loop
  otherwise, so batching never changes fault semantics or hook cadence.

On quiet disks the volume uses neither: a plan's gather is one
fancy-index of the shared tensor, accounted with :meth:`count_reads`,
and its store one scatter across every disk (or an encode in place)
inside ``RAID6Volume._store_rows``, which checks each target disk is
live first and then owes it the accounting of its share —
:meth:`commit_block`, the counting and latent-sector half of
:meth:`write_block`.  A healthy read, a zero-copy view and a plan run
inside the C kernel bypass both and add to the counters directly (see
below).

Counters take a lock so threads sharing a volume (a cache destage on a
shard's executor thread beside a foreground write) do not lose
increments when they hit one disk concurrently.  A volume hands its
disks one ``(2, cols)`` counter array — disk ``i`` counts into column
``i`` — and one lock, so a call of the C kernel adds every disk's
share in one step under that lock, in C, before it returns.

Whatever decides how I/O may reach a disk — its fault and corrupt hooks,
whether it holds latent sectors, whether it failed — is reported to the
disk's ``watch`` callback each time it changes, which is how the volume
keeps its per-disk bitmasks current without scanning its disks per op.
"""

from __future__ import annotations

import enum
import threading
from typing import Callable, Optional, Sequence, Set

import numpy as np

from repro.exceptions import DiskFailedError, GeometryError, LatentSectorError
from repro.util.validation import require_index, require_positive


class DiskState(enum.Enum):
    """Lifecycle state of a simulated disk."""

    OK = "ok"
    FAILED = "failed"


class SimDisk:
    """An in-memory disk of ``capacity`` elements."""

    def __init__(
        self,
        disk_id: int,
        capacity: int,
        element_size: int,
        store: Optional[np.ndarray] = None,
        counters: Optional[np.ndarray] = None,
        lock: Optional[threading.Lock] = None,
    ) -> None:
        require_positive(capacity, "capacity")
        require_positive(element_size, "element_size")
        self.disk_id = disk_id
        self.capacity = capacity
        self.element_size = element_size
        #: Called as ``watch(disk)`` after a hook, the latent-sector set's
        #: emptiness or the state changed (see the module docstring).
        self.watch: Optional[Callable[["SimDisk"], None]] = None
        self._state = DiskState.OK
        if store is None:
            store = np.zeros((capacity, element_size), dtype=np.uint8)
        elif store.shape != (capacity, element_size) or store.dtype != np.uint8:
            raise GeometryError(
                f"disk {disk_id}: backing store must be uint8 "
                f"({capacity}, {element_size}), got {store.dtype} "
                f"{store.shape}"
            )
        self._store = store
        self._bad_sectors: Set[int] = set()
        self._lock = lock if lock is not None else threading.Lock()
        #: ``[reads, writes]``
        self._io = (
            counters if counters is not None
            else np.zeros(2, dtype=np.int64)
        )
        self._fault_hook: Optional[Callable[["SimDisk", str, int], None]] = None
        self._corrupt_hook: Optional[Callable[["SimDisk", int], None]] = None

    # -- watched state ------------------------------------------------------

    def _changed(self) -> None:
        if self.watch is not None:
            self.watch(self)

    @property
    def fault_hook(self) -> Optional[Callable[["SimDisk", str, int], None]]:
        """Optional fault-injection hook, called as ``hook(disk, op,
        offset)`` before every read/write.  The hook may raise (to fail
        the op) or mutate the disk (``mark_bad``/``fail``) — see
        :class:`repro.faults.FaultInjector`.  ``None`` disables it."""
        return self._fault_hook

    @fault_hook.setter
    def fault_hook(self, hook) -> None:
        self._fault_hook = hook
        self._changed()

    @property
    def corrupt_hook(self) -> Optional[Callable[["SimDisk", int], None]]:
        """Optional silent-corruption hook, called as ``hook(disk,
        offset)`` *after* a successful per-element write lands in the
        store.  This is how the injector's ``silent_flip`` fault kind
        models corruption-on-write: the written block can be flipped on
        the medium with no error ever raised (see
        :class:`repro.faults.FaultInjector`).  ``None`` disables it."""
        return self._corrupt_hook

    @corrupt_hook.setter
    def corrupt_hook(self, hook) -> None:
        self._corrupt_hook = hook
        self._changed()

    @property
    def state(self) -> DiskState:
        return self._state

    @state.setter
    def state(self, state: DiskState) -> None:
        self._state = state
        self._changed()

    @property
    def read_count(self) -> int:
        return int(self._io[0])

    @property
    def write_count(self) -> int:
        return int(self._io[1])

    def _remap(self, offsets) -> bool:
        """Clear the latent sectors under written ``offsets`` (the caller
        holds the lock); whether that cleared the last one."""
        if not self._bad_sectors:
            return False
        self._bad_sectors.difference_update(offsets)
        return not self._bad_sectors

    # -- I/O --------------------------------------------------------------

    def read(self, offset: int) -> np.ndarray:
        """Read one element (copy).

        Raises :class:`LatentSectorError` when the sector was marked bad —
        the medium-error path RAID scrubbing exists to catch.
        """
        return self.read_view(offset).copy()

    def read_view(self, offset: int) -> np.ndarray:
        """Read one element as a read-only zero-copy view of the store.

        Identical fault/counter semantics to :meth:`read`; the returned
        view stays valid until the element is rewritten.
        """
        if self.fault_hook is not None:
            self.fault_hook(self, "read", offset)
        self._check_live(offset)
        with self._lock:
            self._io[0] += 1
        if offset in self._bad_sectors:
            raise LatentSectorError(self.disk_id, offset)
        view = self._store[offset]
        view.flags.writeable = False
        return view

    def write(self, offset: int, data: np.ndarray) -> None:
        """Write one element.

        A write to a bad sector remaps it (real drives reallocate on
        write), clearing the latent error.
        """
        if self.fault_hook is not None:
            self.fault_hook(self, "write", offset)
        self._check_live(offset)
        if data.shape != (self.element_size,) or data.dtype != np.uint8:
            raise GeometryError(
                f"disk {self.disk_id}: write must be uint8 of shape "
                f"({self.element_size},), got {data.dtype} {data.shape}"
            )
        self._store[offset] = data
        with self._lock:
            self._io[1] += 1
            cleared = self._remap((offset,))
        if cleared:
            self._changed()
        if self.corrupt_hook is not None:
            self.corrupt_hook(self, offset)

    # -- batched I/O -------------------------------------------------------

    def read_block(self, offsets: np.ndarray) -> np.ndarray:
        """Read many elements as one ``(len(offsets), element_size)`` gather.

        With no fault hook and no bad sectors this is a single numpy
        fancy-index over the store (one counter bump for the whole
        block); otherwise it falls back to per-element :meth:`read` so
        hook cadence and error behaviour stay exactly as in the serial
        path.
        """
        offsets = np.asarray(offsets, dtype=np.intp)
        if self.fault_hook is None and not self._bad_sectors:
            self._check_live_block(offsets)
            with self._lock:
                self._io[0] += offsets.size
            return self._store[offsets]
        out = np.empty((len(offsets), self.element_size), dtype=np.uint8)
        for i, offset in enumerate(offsets):
            out[i] = self.read(int(offset))
        return out

    def write_block(self, offsets: np.ndarray, data: np.ndarray) -> None:
        """Write many elements in one numpy scatter.

        Engages only with no fault or corruption hook attached (bad
        sectors are fine — writes remap them, exactly as per-element
        writes do); otherwise delegates to per-element :meth:`write`
        preserving the hooks' per-op sequence.
        """
        offsets = np.asarray(offsets, dtype=np.intp)
        if data.shape != (len(offsets), self.element_size) \
                or data.dtype != np.uint8:
            raise GeometryError(
                f"disk {self.disk_id}: block write must be uint8 of shape "
                f"({len(offsets)}, {self.element_size}), got {data.dtype} "
                f"{data.shape}"
            )
        if self.fault_hook is None and self.corrupt_hook is None:
            self._check_live_block(offsets)
            self._store[offsets] = data
            with self._lock:
                self._io[1] += offsets.size
                cleared = self._remap(offsets.tolist())
            if cleared:
                self._changed()
            return
        for i, offset in enumerate(offsets):
            self.write(int(offset), data[i])

    def count_reads(self, n: int) -> None:
        """Account ``n`` element reads the volume served itself.

        A quiet plan's gather is one fancy-index of the shared tensor,
        which never touches the per-element machinery; it still owes the
        load counters the accesses it served.
        """
        with self._lock:
            self._io[0] += n

    def commit_block(self, count: int, offsets: Sequence[int] = ()) -> None:
        """Account ``count`` element writes the volume stored itself.

        A plan's rows reach the shared backing store in one scatter over
        all its disks (``RAID6Volume._store_rows``, which has checked
        this disk is live); what is left of :meth:`write_block` is the
        counter and the remap of the latent sectors underneath — the
        caller passes ``offsets`` only while there are any.
        """
        with self._lock:
            self._io[1] += count
            cleared = self._remap(offsets)
        if cleared:
            self._changed()

    # -- latent sector errors ---------------------------------------------

    def mark_bad(self, offset: int) -> None:
        """Inject a medium error: future reads of ``offset`` fail."""
        require_index(offset, self.capacity, f"disk {self.disk_id} offset")
        with self._lock:
            first = not self._bad_sectors
            self._bad_sectors.add(offset)
        if first:
            self._changed()

    @property
    def bad_sectors(self) -> frozenset:
        return frozenset(self._bad_sectors)

    # -- failure lifecycle --------------------------------------------------

    @property
    def failed(self) -> bool:
        return self.state is DiskState.FAILED

    def fail(self) -> None:
        """Mark the disk dead; its contents become unreachable."""
        self.state = DiskState.FAILED

    def replace(self) -> None:
        """Swap in a blank replacement (zeroed store, counters kept)."""
        self._store[:] = 0
        with self._lock:
            self._bad_sectors.clear()
        self.state = DiskState.OK

    def reset_counters(self) -> None:
        with self._lock:
            self._io[:] = 0

    # -- internals ------------------------------------------------------------

    def _check_live(self, offset: int) -> None:
        if self.failed:
            raise DiskFailedError(f"disk {self.disk_id} is failed")
        require_index(offset, self.capacity, f"disk {self.disk_id} offset")

    def _check_live_block(self, offsets: np.ndarray) -> None:
        if self.state is DiskState.FAILED:
            raise DiskFailedError(f"disk {self.disk_id} is failed")
        if not offsets.size:
            return
        if offsets.min() < 0 or offsets.max() >= self.capacity:
            raise IndexError(
                f"disk {self.disk_id}: block offsets outside "
                f"[0, {self.capacity})"
            )

    def __repr__(self) -> str:
        return (
            f"<SimDisk {self.disk_id} {self.state.value} "
            f"{self.capacity}x{self.element_size}B r={self.read_count} "
            f"w={self.write_count}>"
        )
