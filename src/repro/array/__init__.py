"""Simulated disk-array substrate: the layer a downstream user adopts.

* :class:`~repro.array.disk.SimDisk` — an element-addressed in-memory disk
  with failure injection and access counters.
* :class:`~repro.array.mapping.AddressMapper` — logical element ↔
  (stripe, cell, disk, offset) translation, with optional stripe rotation.
* :class:`~repro.array.volume.RAID6Volume` — a full RAID-6 volume over any
  registered layout: normal/degraded reads, partial-stripe writes with
  parity RMW, failure injection, rebuild, scrubbing.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.array.cache": ("StripeCache",),
    "repro.array.disk": ("DiskState", "SimDisk"),
    "repro.array.integrity": ("ChecksumStore", "IntegrityChecker"),
    "repro.array.mapping": ("AddressMapper",),
    "repro.array.persistence": ("load_volume", "save_volume"),
    "repro.array.volume": ("RAID6Volume",),
})

__all__ = [
    "AddressMapper",
    "ChecksumStore",
    "DiskState",
    "IntegrityChecker",
    "RAID6Volume",
    "SimDisk",
    "StripeCache",
    "load_volume",
    "save_volume",
]
