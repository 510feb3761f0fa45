"""Volume images: one record file for saves, checkpoints and reloads.

Long experiments (fault campaigns, trace replays) and durable serving
shards keep a simulated array on disk as a *volume image*: a file of
records, each framed as

    MAGIC | body length (u64) | CRC-32 of the body (u32) | body

whose body is a u32 header length, a JSON header, the raw images of the
stripes the header names (every column, parity included, so loading
never re-encodes), then the redo payloads of the open intents in the
header's journal ledger.

* The first record is **full**: geometry, every stripe, failed disks,
  bad sectors, the write-intent ledger (open intents with their redo
  payloads, parity digests and group framing, plus the sequence
  counter) and, optionally, a block-checksum map.  :func:`save_volume`
  writes one to a temp file and renames it over the path, so a crash
  leaves either the old image or the new one, whole.
* Each later record (:func:`append_record`) carries some stripes and
  the whole ledger and failed set.  A record replaces what it carries,
  so after a reload the ledger and failed set are the last record's.

:func:`load_volume` is the one reader and has one torn-tail rule: it
builds the volume from the first record, which must be full and whole,
applies each later record in order, and stops at the first one that is
short, does not start with ``MAGIC`` or fails its CRC.  A writer
acknowledges nothing until its append returned, so a torn tail — what a
crash mid-append leaves — was never acknowledged.  Loading re-validates
each record's size against the geometry, so an image of a different
code, prime or shape fails loudly instead of serving garbage.  A
snapshot taken mid-campaign remounts with recovery still pending,
exactly like NVRAM surviving a power cycle: call
:func:`repro.journal.recover_on_mount` after loading.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.array.disk import DiskState
from repro.array.integrity import ChecksumStore
from repro.array.volume import RAID6Volume
from repro.codes.base import Cell
from repro.codes.registry import make_code
from repro.exceptions import ReproError
from repro.journal.intent import GroupFrame, WriteIntent, WriteIntentLog

#: Record magic; a new record layout takes a new magic.
MAGIC = b"RVI1"
_FRAME = struct.Struct("<QI")  # body length, crc32(body)
_HLEN = struct.Struct("<I")    # header length inside the body


class PersistenceError(ReproError):
    """The image is missing, malformed, or mismatches its geometry."""


def save_volume(
    volume: RAID6Volume,
    path: Union[str, Path],
    checksums: Optional[ChecksumStore] = None,
) -> Path:
    """Write the volume to ``path`` as one full record; returns the path.

    The volume's attached journal (if any) is persisted with it — open
    intents, redo payloads, sequence counter — so recovery survives the
    save/load cycle.  ``checksums`` optionally embeds an
    :class:`~repro.array.integrity.ChecksumStore` snapshot; on load it
    comes back as ``volume.restored_checksums``.  The record goes to a
    temp file beside ``path``, renamed over it once written.
    """
    path = Path(path)
    layout = volume.layout
    header = {
        "geometry": {
            "code": layout.name,
            "p": layout.p,
            "num_stripes": volume.mapper.num_stripes,
            "element_size": volume.element_size,
            "rotate": volume.mapper.rotate,
        },
        "bad_sectors": {
            str(d.disk_id): sorted(d.bad_sectors) for d in volume.disks
        },
    }
    if checksums is not None:
        header["checksums"] = [
            [disk, offset, crc]
            for (disk, offset), crc in sorted(checksums._sums.items())
        ]
    tmp = path.with_name("." + path.name + ".tmp")
    with open(tmp, "wb") as fh:
        _write_record(
            fh, volume, [[0, volume.mapper.num_stripes]], header
        )
    os.replace(tmp, path)
    return path


def append_record(fh, volume: RAID6Volume, stripes: Iterable[int]) -> int:
    """Append one record of ``stripes``, the ledger and the failed set to
    the open binary file ``fh``; returns its length in bytes.

    The volume must not change while the record is written: the CRC and
    the bytes are taken from the same live stripes.
    """
    return _write_record(fh, volume, _runs(stripes), {})


def load_volume(path: Union[str, Path]) -> RAID6Volume:
    """Rebuild a volume from a volume image.

    The journal comes back reattached (``volume.journal``) when the
    image carries one, and an embedded checksum map as
    ``volume.restored_checksums``; call
    :func:`repro.journal.recover_on_mount` next, as a real mount would.
    """
    path = Path(path)
    if not path.exists():
        raise PersistenceError(f"no volume image at {path}")
    with open(path, "rb") as fh:
        records = _records(fh)
        first = next(records, None)
        if first is None:
            raise PersistenceError(
                f"{path}: not a volume image, or its first record is torn"
            )
        header, body, at = first
        geometry = header.get("geometry")
        if geometry is None:
            raise PersistenceError(f"{path}: first record is not full")
        layout = make_code(geometry["code"], geometry["p"])
        volume = RAID6Volume(
            layout,
            num_stripes=geometry["num_stripes"],
            element_size=geometry["element_size"],
            rotate=geometry["rotate"],
        )
        if header["stripes"] != [[0, volume.mapper.num_stripes]]:
            raise PersistenceError(
                f"{path}: first record does not hold every stripe"
            )
        _apply(volume, path, header, body, at)
        for disk_id, offsets in header["bad_sectors"].items():
            disk = volume.disks[int(disk_id)]
            for offset in offsets:
                disk.mark_bad(int(offset))
        if "checksums" in header:
            store = ChecksumStore(volume.element_size)
            for disk, offset, crc in header["checksums"]:
                store._sums[(int(disk), int(offset))] = int(crc)
            volume.restored_checksums = store
        for header, body, at in records:
            _apply(volume, path, header, body, at)
    return volume


# -- records ---------------------------------------------------------------------


def _runs(stripes: Iterable[int]) -> List[List[int]]:
    """Sorted stripes as ``[lo, hi)`` runs of consecutive ones."""
    runs: List[List[int]] = []
    for stripe in sorted(int(s) for s in stripes):
        if runs and runs[-1][1] == stripe:
            runs[-1][1] += 1
        else:
            runs.append([stripe, stripe + 1])
    return runs


def _write_record(fh, volume: RAID6Volume, runs, header: dict) -> int:
    """Frame and write one record; ``header`` gains the stripe runs,
    the failed set and the ledger."""
    rows = volume.layout.rows
    ledger, payloads = _ledger(volume.journal)
    header.update(
        stripes=runs, failed=sorted(volume.failed_disks), journal=ledger
    )
    hdr = json.dumps(header, separators=(",", ":")).encode()
    parts = [_HLEN.pack(len(hdr)), hdr]
    parts += [volume._backing[lo * rows:hi * rows] for lo, hi in runs]
    parts += payloads
    crc = length = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
        length += memoryview(part).nbytes
    fh.write(MAGIC + _FRAME.pack(length, crc))
    for part in parts:
        fh.write(part)
    fh.flush()
    return len(MAGIC) + _FRAME.size + length


def _records(fh):
    """Yield ``(header, body, payload offset)`` for each whole record in
    order, stopping at the first torn one."""
    head = len(MAGIC) + _FRAME.size
    while True:
        frame = fh.read(head)
        if len(frame) < head or frame[:len(MAGIC)] != MAGIC:
            return
        length, crc = _FRAME.unpack_from(frame, len(MAGIC))
        body = fh.read(length)
        if len(body) != length or zlib.crc32(body) != crc:
            return
        (hlen,) = _HLEN.unpack_from(body)
        at = _HLEN.size + hlen
        yield json.loads(body[_HLEN.size:at]), body, at


def _apply(volume: RAID6Volume, path: Path, header: dict, body: bytes,
           at: int) -> None:
    """Copy one record's stripes onto the volume and take its ledger and
    failed set, once its size is checked against the geometry."""
    rows, cols = volume.layout.rows, volume.layout.cols
    esize = volume.element_size
    stripe_bytes = rows * cols * esize
    runs = header["stripes"]
    ledger = header["journal"]
    payload_cells = 0 if ledger is None else sum(
        len(entry["cells"]) for entry in ledger["open"]
    )
    need = sum(hi - lo for lo, hi in runs) * stripe_bytes \
        + payload_cells * esize
    if any(not 0 <= lo < hi <= volume.mapper.num_stripes
           for lo, hi in runs) or len(body) - at != need:
        raise PersistenceError(
            f"{path}: a record holds {len(body) - at} bytes of stripes "
            f"{runs} and payloads; the geometry expects {need}"
        )
    for lo, hi in runs:
        n = (hi - lo) * stripe_bytes
        volume._backing[lo * rows:hi * rows] = np.frombuffer(
            body, np.uint8, n, at
        ).reshape(-1, cols, esize)
        at += n
    if ledger is not None:
        _restore_ledger(volume, ledger, body, at)
    failed = set(header["failed"])
    for disk in volume.disks:
        disk.state = (
            DiskState.FAILED if disk.disk_id in failed else DiskState.OK
        )


# -- the journal ledger ----------------------------------------------------------


def _ledger(
    journal: Optional[WriteIntentLog],
) -> Tuple[Optional[dict], List[np.ndarray]]:
    """The ledger's header entry and its open intents' redo payloads,
    one ``(cells, element_size)`` array per intent."""
    if journal is None:
        return None, []
    specs, payloads = [], []
    for intent in journal.open_intents():
        spec = {
            "seq": intent.seq,
            "stripe": intent.stripe,
            "cells": [[c.row, c.col] for c in intent.dirty_cells],
            "old_parity_digest": intent.old_parity_digest,
            "new_parity_digest": intent.new_parity_digest,
        }
        # group-commit framing (docs/robustness.md, "Journal format"):
        # members of one burst share group_seq, and recovery's joint
        # verdict needs the frame restored
        if intent.group is not None:
            spec["group_seq"] = intent.group.group_seq
            spec["group_size"] = intent.group.size
            spec["group_old_digest"] = intent.group.old_digest
        specs.append(spec)
        payload = intent.payload()
        payloads.append(np.stack([payload[c] for c in intent.dirty_cells]))
    return {"next_seq": journal.next_seq, "open": specs}, payloads


def _restore_ledger(volume: RAID6Volume, ledger: dict, body: bytes,
                    at: int) -> None:
    """Replace the volume's journal contents with a record's ledger."""
    if volume.journal is None:
        volume.journal = WriteIntentLog()
    esize = volume.element_size
    # members of one group must share a single GroupFrame object:
    # recovery matches them by frame identity, not by group_seq
    frames = {}
    intents = []
    for entry in ledger["open"]:
        cells = [Cell(row, col) for row, col in entry["cells"]]
        payload = np.frombuffer(
            body, np.uint8, len(cells) * esize, at
        ).reshape(len(cells), esize)
        at += payload.nbytes
        group = None
        if "group_seq" in entry:
            gseq = int(entry["group_seq"])
            group = frames.get(gseq)
            if group is None:
                digest = entry["group_old_digest"]
                group = frames[gseq] = GroupFrame(
                    group_seq=gseq,
                    size=int(entry["group_size"]),
                    old_digest=None if digest is None else int(digest),
                )
        intents.append(WriteIntent(
            seq=int(entry["seq"]),
            stripe=int(entry["stripe"]),
            cells=tuple(
                (cell, payload[i].copy()) for i, cell in enumerate(cells)
            ),
            old_parity_digest=entry["old_parity_digest"],
            new_parity_digest=entry["new_parity_digest"],
            group=group,
        ))
    volume.journal.restore(intents, int(ledger["next_seq"]))
