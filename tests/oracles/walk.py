"""The per-element walk: the reference the planned executor is held to.

Before the I/O plans, every operation of
:class:`~repro.array.volume.RAID6Volume` walked its stripes cell by
cell.  This is that walk, trimmed to a quiet surface — no hooks, no
latent sectors, no checksum verification — for reads, read-modify-write,
reconstruct-write, rebuild, parity resync and scrub, driving
:meth:`~repro.array.disk.SimDisk.read` / :meth:`~repro.array.disk.SimDisk.
write` directly.  It keeps no state of its own: it reads the volume's
failure state (failed disks, the rebuild cursor) and does its I/O
through the volume's disks, so ``Mirror`` (``tests/oracles/diff.py``)
runs any quiet op on a volume of its own and compares bytes and per-disk
counters with the plans.
"""

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codec.plan import toposort_groups
from repro.codes.base import Cell
from repro.iosim.engine import AccessEngine
from repro.recovery.planner import cached_hybrid_plan
from repro.util.xor import xor_into


def segments(runs):
    """``(stripe, first data index, length, first request row)`` of each
    stripe of :meth:`~repro.array.mapping.AddressMapper.split` runs."""
    for stripe, stripes, j0, n, k0 in runs:
        for i in range(stripes):
            yield stripe + i, j0, n, k0 + i * n


#: volume -> {stale disks: AccessEngine}
_engines: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

Items = Sequence[Tuple[Cell, np.ndarray]]


def _read_cell(volume, stripe: int, cell: Cell) -> np.ndarray:
    loc = volume.mapper.locate_cell(stripe, cell)
    return volume.disks[loc.disk].read(loc.offset)


def _write_cell(volume, stripe: int, cell: Cell, value: np.ndarray) -> None:
    loc = volume.mapper.locate_cell(stripe, cell)
    volume.disks[loc.disk].write(loc.offset, value)


def _fetch_read_plan(
    volume, stripe: int, wanted: List[Cell]
) -> Optional[Dict[Cell, np.ndarray]]:
    """The access engine's minimal read plan of ``wanted``, cell by cell:
    every cell it fetches or rebuilds, or ``None`` when the pattern
    needs algebraic decoding."""
    stale = volume._stale_disks(stripe)
    engines = _engines.setdefault(volume, {})
    if stale not in engines:
        engines[stale] = AccessEngine(
            volume.layout, num_stripes=volume.mapper.num_stripes,
            rotate=volume.mapper.rotate, failed_disks=stale,
        )
    plan = engines[stale]._plan_stripe_read(stripe, wanted)
    if plan.recipe is None:
        return None
    cache = {
        cell: _read_cell(volume, stripe, cell) for cell in sorted(plan.fetch)
    }
    for step in plan.recipe:
        acc = np.zeros(volume.element_size, dtype=np.uint8)
        for read in step.reads:
            xor_into(acc, cache[read])
        cache[step.cell] = acc
    return cache


def load_stripe(volume, stripe: int, missing_cols: Sequence[int]):
    """Every surviving cell, column by column; the rest decoded."""
    layout = volume.layout
    buf = volume.codec.blank_stripe()
    lost: List[Cell] = []
    for col in range(layout.cols):
        if col in missing_cols:
            lost.extend(layout.cells_in_column(col))
            continue
        for cell in layout.cells_in_column(col):
            buf[cell.row, cell.col] = _read_cell(volume, stripe, cell)
    if lost:
        volume._decode_cells_checked(stripe, buf, lost)
    return buf


def store_stripe(volume, stripe: int, buf, skip_cols: Sequence[int]) -> None:
    layout = volume.layout
    for col in range(layout.cols):
        if col not in skip_cols:
            for cell in layout.cells_in_column(col):
                _write_cell(volume, stripe, cell, buf[cell.row, cell.col])


def read(volume, start: int, count: int) -> np.ndarray:
    """Each stripe's share: the wanted cells one by one, the engine's
    read plan when one sits on a stale column, the whole stripe when
    that plan needs algebraic decoding."""
    out = np.empty((count, volume.element_size), dtype=np.uint8)
    data_cells = volume.layout.data_cells
    for stripe, j0, n, k0 in segments(volume.mapper.split(start, count)):
        items = list(enumerate(data_cells[j0:j0 + n], k0))
        stale = volume._stale_cols(stripe)
        if not any(cell.col in stale for _, cell in items):
            for k, cell in items:
                out[k] = _read_cell(volume, stripe, cell)
            continue
        cache = _fetch_read_plan(volume, stripe, [cell for _, cell in items])
        if cache is None:
            buf = load_stripe(volume, stripe, stale)
            cache = {cell: buf[cell.row, cell.col] for _, cell in items}
        for k, cell in items:
            out[k] = cache[cell]
    return out


def write(volume, start: int, data: np.ndarray) -> None:
    data_cells = volume.layout.data_cells
    for stripe, j0, n, k in segments(volume.mapper.split(start, len(data))):
        write_stripe(
            volume, stripe, list(zip(data_cells[j0:j0 + n], data[k:k + n]))
        )


def write_stripe(volume, stripe: int, items: Items) -> None:
    """A partial stripe by RMW, unless a lost dirty cell needs algebraic
    decoding; otherwise — and a whole stripe — reconstruct-write."""
    stale = volume._stale_cols(stripe)
    if len(items) == volume.layout.num_data_cells:
        buf = volume.codec.blank_stripe()
    elif _rmw(volume, stripe, items, stale):
        return
    else:
        buf = load_stripe(volume, stripe, stale)
    for cell, value in items:
        buf[cell.row, cell.col] = value
    volume.codec.encode(buf)
    store_stripe(volume, stripe, buf, stale)


def _rmw(volume, stripe: int, items: Items, stale: Sequence[int]) -> bool:
    """Patch parity with XOR deltas, every old value read before the
    first write; cells on stale columns neither read nor written (the
    old value of a lost dirty cell comes from the engine's read plan).
    ``False`` — nothing written — when that plan cannot run."""
    olds: Optional[Dict[Cell, np.ndarray]] = {}
    if any(cell.col in stale for cell, _ in items):
        olds = _fetch_read_plan(volume, stripe, [cell for cell, _ in items])
        if olds is None:
            return False

    def old_of(cell: Cell) -> np.ndarray:
        value = olds.get(cell)
        return _read_cell(volume, stripe, cell) if value is None else value

    deltas: Dict[Cell, np.ndarray] = {}
    writes: List[Tuple[Cell, np.ndarray]] = []
    for cell, value in items:
        delta = np.bitwise_xor(old_of(cell), value)
        if delta.any():
            deltas[cell] = delta
            if cell.col not in stale:
                writes.append((cell, value))
    for group in toposort_groups(volume.layout):
        gdelta: Optional[np.ndarray] = None
        for member in group.members:
            d = deltas.get(member)
            if d is None:
                continue
            if gdelta is None:
                gdelta = d.copy()
            else:
                xor_into(gdelta, d)
        if gdelta is not None and gdelta.any():
            deltas[group.parity] = gdelta
            if group.parity.col not in stale:
                old = old_of(group.parity)
                writes.append((group.parity, np.bitwise_xor(old, gdelta)))
    for cell, value in writes:
        _write_cell(volume, stripe, cell, value)
    return True


def rebuild_stripe(volume, stripe: int, disk: int) -> None:
    """``disk``'s share of one stripe: from the hybrid planner's read
    set with one column lost, through the decoder with two."""
    col = volume.mapper.col_on_disk(stripe, disk)
    stale = volume._stale_cols(stripe)
    if len(stale) == 1:
        plan = cached_hybrid_plan(volume.layout, col)
        cache = {cell: _read_cell(volume, stripe, cell) for cell in plan.reads}
        for cell, group in plan.choices:
            acc = np.zeros(volume.element_size, dtype=np.uint8)
            for other in group.cells:
                if other != cell:
                    xor_into(acc, cache[other])
            _write_cell(volume, stripe, cell, acc)
        return
    buf = load_stripe(volume, stripe, stale)
    for cell in volume.layout.cells_in_column(col):
        _write_cell(volume, stripe, cell, buf[cell.row, cell.col])


def rebuild_step(cursor, stripes: Optional[int] = None) -> int:
    """:meth:`RebuildCursor.step` by the walk: stripes rebuilt."""
    volume = cursor.volume
    start = cursor.pos
    end = min(start + (cursor.batch if stripes is None else stripes),
              cursor.total)
    while cursor.pos < end:
        rebuild_stripe(volume, cursor.pos, cursor.disk)
        cursor.pos += 1
    if cursor.pos >= cursor.total and volume._rebuild is cursor:
        volume._rebuild = None
    return cursor.pos - start


def scrub(volume) -> List[int]:
    """Stripes whose parity disagrees with their data."""
    return [
        stripe for stripe in range(volume.mapper.num_stripes)
        if not volume.codec.parity_ok(load_stripe(volume, stripe, ()))
    ]


def resync(volume, stripes: Sequence[int]) -> None:
    """Re-encode the parity of ``stripes`` from their data cells, every
    parity cell rewritten."""
    layout = volume.layout
    for stripe in sorted(set(stripes)):
        buf = volume.codec.blank_stripe()
        for cell in layout.data_cells:
            buf[cell.row, cell.col] = _read_cell(volume, stripe, cell)
        volume.codec.encode(buf)
        for cell in layout.parity_cells:
            _write_cell(volume, stripe, cell, buf[cell.row, cell.col])
