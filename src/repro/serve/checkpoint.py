"""Incremental durable checkpoints: base snapshot + dirty-stripe deltas.

Durable-ack shards used to re-serialise their **entire volume** through
``np.savez_compressed`` on every acknowledged write batch — correct,
and measured at a third of the serving throughput.  This module keeps
the same crash contract while persisting only what changed:

* **base snapshot** — the spec's ``state_path`` (``shard-N.npz``) keeps
  holding a full v2 archive written by
  :func:`repro.array.persistence.save_volume`, stamped with a
  ``delta_epoch`` in its extra metadata;
* **delta log** — a sidecar (``shard-N.dlog``) of append-only records.
  Each record carries the raw images of the stripes dirtied since the
  last checkpoint (data *and* parity columns, so replay is a plain
  scatter with no re-encode), the full ack-intent ledger (open intents
  with redo payloads and group framing, exactly the fields the v2
  archive stores), the failed-disk set and the journal sequence
  counter.  Records are CRC-framed: a record torn by a crash mid-append
  fails its checksum and is ignored — safe, because the ack barrier
  returns only after the append completed, so a torn tail was never
  acknowledged;
* **compaction** — when the log outgrows the base (record count or byte
  ratio), the epoch increments, a fresh base is written (temp file +
  atomic rename) and the log is atomically truncated.  A crash between
  the two renames leaves old-epoch records behind a new-epoch base;
  replay skips records whose epoch does not match the base, so the
  half-compacted state loads to exactly the compacted image.

Mount-time recovery (:func:`load_shard_state`) replays base + matching
deltas to the same byte-exact image the serve chaos oracles check, then
the caller runs :func:`repro.journal.recovery.recover_on_mount` as
usual to roll the open ack intents forward.

Dirty-stripe capture observes the volume's write funnel ``_store_rows``,
which every plan store calls once with all the backing rows it writes,
the same way :class:`repro.array.integrity.IntegrityChecker` observes it
(whole stripes encoded in place in the backing store announce their rows
through it too, without data).
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.array import RAID6Volume
from repro.array.disk import DiskState
from repro.array.persistence import load_volume
from repro.codes.base import Cell
from repro.exceptions import ReproError
from repro.journal.intent import GroupFrame, WriteIntent, WriteIntentLog

#: Delta-log record magic (version-bearing).
MAGIC = b"RDL1"
_FRAME = struct.Struct("<II")  # body length, crc32(body)
_HLEN = struct.Struct("<I")    # header length inside the body


def delta_log_path(base_path) -> Path:
    """The sidecar delta log for a base snapshot path."""
    return Path(base_path).with_suffix(".dlog")


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


def _stripe_image(volume: RAID6Volume, stripe: int) -> np.ndarray:
    """Raw ``(cols, rows, element_size)`` image of one stripe — every
    column, parity included, so replay never re-encodes."""
    rows = volume.layout.rows
    lo, hi = stripe * rows, (stripe + 1) * rows
    return np.stack([d._store[lo:hi] for d in volume.disks])


def _journal_spec(volume: RAID6Volume) -> Tuple[dict, List[bytes]]:
    """Open-intent metadata + payload blobs (v2 archive field shapes)."""
    journal = volume.journal
    if journal is None:
        return {"next_seq": 0, "open": []}, []
    blobs: List[bytes] = []
    specs = []
    for intent in journal.open_intents():
        spec = {
            "seq": intent.seq,
            "stripe": intent.stripe,
            "cells": [[c.row, c.col] for c in intent.dirty_cells],
            "old_parity_digest": intent.old_parity_digest,
            "new_parity_digest": intent.new_parity_digest,
        }
        if intent.group is not None:
            spec["group_seq"] = intent.group.group_seq
            spec["group_size"] = intent.group.size
            spec["group_old_digest"] = intent.group.old_digest
        specs.append(spec)
        payload = intent.payload()
        blobs.append(
            np.stack(
                [payload[cell] for cell in intent.dirty_cells]
            ).tobytes()
        )
    return {"next_seq": journal.next_seq, "open": specs}, blobs


def _restore_journal(volume: RAID6Volume, spec: dict,
                     blobs: List[bytes]) -> None:
    """Reattach the ack ledger from a record's journal section."""
    if volume.journal is None:
        volume.journal = WriteIntentLog()
    esize = volume.element_size
    frames: Dict[int, GroupFrame] = {}
    intents = []
    for entry, blob in zip(spec["open"], blobs):
        cells = [Cell(r, c) for r, c in entry["cells"]]
        payload = np.frombuffer(blob, dtype=np.uint8).reshape(
            len(cells), esize
        )
        group = None
        if "group_seq" in entry:
            gseq = int(entry["group_seq"])
            group = frames.get(gseq)
            if group is None:
                digest = entry.get("group_old_digest")
                group = GroupFrame(
                    group_seq=gseq,
                    size=int(entry["group_size"]),
                    old_digest=None if digest is None else int(digest),
                )
                frames[gseq] = group
        intents.append(WriteIntent(
            seq=int(entry["seq"]),
            stripe=int(entry["stripe"]),
            cells=tuple(
                (cell, payload[i].copy())
                for i, cell in enumerate(cells)
            ),
            old_parity_digest=entry.get("old_parity_digest"),
            new_parity_digest=entry.get("new_parity_digest"),
            group=group,
        ))
    volume.journal.restore(intents, int(spec["next_seq"]))


class DeltaLog:
    """Append-only, CRC-framed record file next to the base snapshot."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = None
        self.bytes = 0
        self.records = 0

    # -- writing ---------------------------------------------------------------

    def open_append(self) -> None:
        """Open for appending, truncating any torn tail first.

        A crash mid-append leaves a record that fails its length or CRC
        check; appending after it would strand every later record
        behind garbage, so the valid prefix is measured and the file
        truncated to it before new records go in.
        """
        valid = 0
        count = 0
        if self.path.exists():
            for _, end in self._iter_raw():
                valid = end
                count += 1
            size = self.path.stat().st_size
            if size != valid:
                with open(self.path, "r+b") as fh:
                    fh.truncate(valid)
        self._fh = open(self.path, "ab")
        self.bytes = valid
        self.records = count

    def append(self, volume: RAID6Volume, stripes, epoch: int) -> None:
        """Append one checkpoint record (the durable-ack barrier)."""
        if self._fh is None:
            self.open_append()
        stripes = sorted(int(s) for s in stripes)
        journal_spec, intent_blobs = _journal_spec(volume)
        header = {
            "epoch": int(epoch),
            "stripes": stripes,
            "failed": sorted(volume.failed_disks),
            "journal": journal_spec,
        }
        hdr = json.dumps(header, separators=(",", ":")).encode()
        parts = [_HLEN.pack(len(hdr)), hdr]
        parts.extend(
            _stripe_image(volume, s).tobytes() for s in stripes
        )
        parts.extend(intent_blobs)
        body = b"".join(parts)
        record = MAGIC + _FRAME.pack(len(body), zlib.crc32(body)) + body
        self._fh.write(record)
        self._fh.flush()
        self.bytes += len(record)
        self.records += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def reset(self) -> None:
        """Atomically truncate the log (compaction's second rename)."""
        self.close()
        tmp = self.path.with_name("." + self.path.name + ".tmp")
        with open(tmp, "wb"):
            pass
        os.replace(tmp, self.path)
        self._fh = open(self.path, "ab")
        self.bytes = 0
        self.records = 0

    # -- reading ---------------------------------------------------------------

    def _iter_raw(self):
        """Yield ``(body, end_offset)`` for each valid record in order,
        stopping at the first torn or corrupt one."""
        with open(self.path, "rb") as fh:
            blob = fh.read()
        pos = 0
        head = len(MAGIC) + _FRAME.size
        while pos + head <= len(blob):
            if blob[pos:pos + len(MAGIC)] != MAGIC:
                return
            length, crc = _FRAME.unpack_from(blob, pos + len(MAGIC))
            body = blob[pos + head:pos + head + length]
            if len(body) != length or zlib.crc32(body) != crc:
                return
            pos += head + length
            yield body, pos

    def scan(self) -> List[dict]:
        """Parse every valid record into header + stripe/intent blobs."""
        if not self.path.exists():
            return []
        out = []
        for body, _ in self._iter_raw():
            (hlen,) = _HLEN.unpack_from(body)
            cursor = _HLEN.size
            header = json.loads(body[cursor:cursor + hlen].decode())
            cursor += hlen
            out.append({"header": header, "blob": body, "data_at": cursor})
        return out


def _apply_record(volume: RAID6Volume, record: dict) -> None:
    """Scatter one record's stripe images onto the volume's disks."""
    header = record["header"]
    blob, cursor = record["blob"], record["data_at"]
    rows = volume.layout.rows
    cols = len(volume.disks)
    esize = volume.element_size
    stripe_bytes = cols * rows * esize
    for stripe in header["stripes"]:
        image = np.frombuffer(
            blob, dtype=np.uint8, count=stripe_bytes, offset=cursor
        ).reshape(cols, rows, esize)
        cursor += stripe_bytes
        lo, hi = stripe * rows, (stripe + 1) * rows
        for col, disk in enumerate(volume.disks):
            disk._store[lo:hi] = image[col]
    intent_blobs = []
    for entry in header["journal"]["open"]:
        n = len(entry["cells"]) * esize
        intent_blobs.append(blob[cursor:cursor + n])
        cursor += n
    _restore_journal(volume, header["journal"], intent_blobs)
    for disk_id in header["failed"]:
        volume.disks[int(disk_id)].state = DiskState.FAILED


def load_shard_state(path) -> Tuple[RAID6Volume, int]:
    """Rebuild a shard volume from base snapshot + delta log.

    Replays every valid record whose epoch matches the base's
    ``delta_epoch`` (stale records from a crash mid-compaction are
    skipped) and returns ``(volume, replayed_records)``.  The journal
    and failed-disk set come from the **last** matching record — each
    record snapshots the full ledger, it does not accumulate.  Run
    :func:`repro.journal.recovery.recover_on_mount` on the result, as
    with any mounted archive.
    """
    path = Path(path)
    volume = load_volume(path)
    epoch = int(getattr(volume, "extra_meta", {}).get("delta_epoch", 0))
    replayed = 0
    for record in DeltaLog(delta_log_path(path)).scan():
        if int(record["header"].get("epoch", -1)) != epoch:
            continue
        _apply_record(volume, record)
        replayed += 1
    return volume, replayed


class IncrementalCheckpointer:
    """Per-shard checkpoint engine: delta appends + epoch compaction."""

    def __init__(
        self,
        volume: RAID6Volume,
        base_path,
        *,
        compact_every: int = 256,
        compact_ratio: float = 4.0,
    ) -> None:
        if volume.journal is None:
            raise ReproError(
                "incremental checkpoints need a journaled volume"
            )
        self.volume = volume
        self.base_path = Path(base_path)
        self.compact_every = compact_every
        self.compact_ratio = compact_ratio
        self.epoch = int(
            getattr(volume, "extra_meta", {}).get("delta_epoch", 0)
        )
        self.log = DeltaLog(delta_log_path(base_path))
        self.log.open_append()
        self.tracker = DirtyStripeTracker(volume)
        self.deltas = 0
        self.compactions = 0

    def write_base(self) -> None:
        """Full snapshot to the base path (temp file + atomic rename)."""
        from repro.array.persistence import save_volume

        # the temp name must keep the .npz suffix — np.savez appends
        # one to anything else, and the rename source must exist
        tmp = self.base_path.with_name(
            "." + self.base_path.stem + ".tmp.npz"
        )
        save_volume(
            self.volume, tmp, extra_meta={"delta_epoch": self.epoch}
        )
        os.replace(tmp, self.base_path)

    def _compaction_due(self) -> bool:
        if self.log.records + 1 >= self.compact_every:
            return True
        try:
            base_bytes = self.base_path.stat().st_size
        except OSError:  # pragma: no cover — base missing mid-flight
            return True
        # Amortize against what a compaction actually costs to rewrite:
        # the raw volume image.  The base file is *compressed*, so for
        # small shards it undercounts by an order of magnitude, and
        # gating the raw-byte delta log on it alone triggers a full
        # base rewrite every few batches — measured as the dominant
        # durable-ack cost in the serving profile.
        volume = self.volume
        raw_bytes = (
            len(volume.disks)
            * volume.layout.rows
            * volume.mapper.num_stripes
            * volume.element_size
        )
        return self.log.bytes > self.compact_ratio * max(
            base_bytes, raw_bytes
        )

    def checkpoint(self) -> None:
        """Persist everything changed since the last call.

        Appends one delta record (dirty stripes + full ack ledger), or
        runs a compaction when the log has outgrown the base — either
        way, when this returns the acknowledged state survives
        ``kill -9``.
        """
        dirty = self.tracker.drain()
        if self._compaction_due():
            self.compact()
            return
        self.log.append(self.volume, dirty, self.epoch)
        self.deltas += 1

    def compact(self) -> None:
        """New epoch, fresh base, truncated log (two atomic renames).

        A crash between them leaves old-epoch records behind the new
        base; :func:`load_shard_state` skips them by epoch, so the
        reload is exactly the compacted image either way.
        """
        self.epoch += 1
        self.write_base()
        self.log.reset()
        self.compactions += 1

    def close(self) -> None:
        self.tracker.detach()
        self.log.close()
