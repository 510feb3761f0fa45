"""The standalone erasure codecs: two engines, and a matrix per code.

Jerasure, the library the paper builds every code on, runs its non-array
codes on two engines: a *matrix* codec over GF(2^w) and a *bitmatrix*
codec over GF(2).  Reed–Solomon, Cauchy-RS, Liberation and Blaum–Roth are
only the matrices fed into them.  This module keeps that split:

* :class:`MatrixCode` — parity disk ``k + r`` stores ``sum_j C[r, j] d_j``
  over GF(2^8): :class:`ReedSolomonRAID6`, :class:`GeneralReedSolomon`
  and :class:`LocalReconstructionCode`;
* :class:`BitmatrixCode` — every element is ``w`` packets and every
  (parity disk, data disk) pair has a ``w x w`` GF(2) block, so encoding
  is one XOR schedule: :class:`CauchyRSRAID6` and :class:`BitmatrixRAID6`
  (and through it :mod:`~repro.codes.liberation` and
  :mod:`~repro.codes.blaum_roth`).

Both engines are systematic — data disks ``0..k-1``, parity disks
``k..k+m-1`` — and decode alike: solve the lost data from the surviving
parity rows that touch it, then re-encode the lost parity.  None of these
is a :class:`~repro.codes.base.CodeLayout` (their parities are field sums,
not XOR sets of cells), so they run in the codec throughput benchmark,
not in the paper's I/O-load figures.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence

import numpy as np

from repro.exceptions import DecodeError, FaultToleranceExceeded, GeometryError
from repro.gf.bitmatrix import gf2_rank, gf2_solve, gf256_to_bitmatrix
from repro.gf.gf256 import GF256
from repro.gf.matrix import cauchy, gf256_solve, vandermonde
from repro.util.validation import require, require_positive

_MUL = GF256.mul_table


class _LinearCode:
    """What both engines share: geometry, checks and the decode skeleton.

    An engine supplies ``_parity(data, i, out)`` (parity disk ``k + i``
    into the contiguous row ``out``), ``_solve(stripe, lost_data, lost)`` (the lost data disks, in
    place) and ``_decodable(lost_data, lost)`` (a rank check).
    """

    def __init__(self, k: int, m: int, element_size: int) -> None:
        require_positive(element_size, "element_size")
        self.k = k
        self.m = m
        self.element_size = element_size

    @property
    def num_disks(self) -> int:
        return self.k + self.m

    @property
    def fault_tolerance(self) -> int:
        """Parity disks: no pattern of more erasures decodes."""
        return self.m

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``(k, element_size)`` data into a ``(k+m, es)`` stripe."""
        self._check(data, self.k, "data")
        stripe = np.empty((self.num_disks, self.element_size), dtype=np.uint8)
        stripe[: self.k] = data
        for i in range(self.m):
            self._parity(data, i, stripe[self.k + i])
        return stripe

    def parity_ok(self, stripe: np.ndarray) -> bool:
        """Whether the stripe's parity disks match its data."""
        self._check(stripe, self.num_disks, "stripe")
        fresh = self.encode(np.ascontiguousarray(stripe[: self.k]))
        return bool(np.array_equal(fresh[self.k:], stripe[self.k:]))

    def decode(self, stripe: np.ndarray, erased: Sequence[int]) -> np.ndarray:
        """Rebuild the erased disks in place; returns the stripe.

        The erased rows' current contents are ignored.
        """
        self._check(stripe, self.num_disks, "stripe")
        lost = self._lost(erased)
        if len(lost) > self.m:
            raise FaultToleranceExceeded(
                f"{type(self).__name__} tolerates {self.m} erasures, "
                f"got {len(lost)}"
            )
        self._repair(stripe, lost)
        return stripe

    def is_decodable(self, erased: Sequence[int]) -> bool:
        """Whether :meth:`decode` recovers ``erased``: a rank check on
        the surviving parity rows' coefficients, with no buffers."""
        lost = self._lost(erased)
        lost_data = [d for d in lost if d < self.k]
        return not lost_data or self._decodable(lost_data, set(lost))

    def is_mds(self) -> bool:
        """Whether every pattern of ``m`` erasures (hence of fewer) decodes."""
        return all(self.is_decodable(lost)
                   for lost in combinations(range(self.num_disks), self.m))

    def _repair(self, stripe: np.ndarray, lost: List[int]) -> None:
        lost_data = [d for d in lost if d < self.k]
        if lost_data:
            self._solve(stripe, lost_data, set(lost))
        for d in lost:
            if d >= self.k:
                stripe[d] = self._encoded(stripe, d - self.k)

    def _encoded(self, stripe: np.ndarray, i: int,
                 skip: Sequence[int] = ()) -> np.ndarray:
        """Parity disk ``k + i`` of the stripe's data as a new buffer,
        leaving out the data disks in ``skip``."""
        out = np.empty(self.element_size, dtype=np.uint8)
        self._parity(stripe[: self.k], i, out, skip)
        return out

    def _syndrome(self, stripe: np.ndarray, i: int,
                  lost_data: List[int]) -> np.ndarray:
        """What the lost data contribute to parity disk ``k + i``: the
        parity minus the surviving data's share."""
        syndrome = self._encoded(stripe, i, lost_data)
        return np.bitwise_xor(syndrome, stripe[self.k + i], out=syndrome)

    def _lost(self, erased: Sequence[int]) -> List[int]:
        lost = sorted(set(erased))
        for d in lost:
            if not 0 <= d < self.num_disks:
                raise GeometryError(f"disk index {d} out of range")
        return lost

    def _check(self, array: np.ndarray, rows: int, name: str) -> None:
        expected = (rows, self.element_size)
        if array.shape != expected or array.dtype != np.uint8:
            raise GeometryError(
                f"{name} must be uint8 {expected}, got {array.dtype} "
                f"{array.shape}"
            )

    def _undecodable(self, lost: set) -> DecodeError:
        return DecodeError(f"{self!r}: erasures {sorted(lost)} not decodable")

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} k={self.k} m={self.m} "
            f"element_size={self.element_size}>"
        )


class MatrixCode(_LinearCode):
    """Systematic code over GF(2^8): parity disk ``k + r`` stores
    ``sum_j C[r, j] * d_j`` for the ``m x k`` ``coefficients`` ``C``.

    A coefficient of 1 is a plain XOR and a 0 is skipped, so 0/1 rows are
    XOR parities.
    """

    def __init__(self, k: int, coefficients: np.ndarray,
                 element_size: int) -> None:
        self.coefficients = np.array(coefficients, dtype=np.uint8)
        require(self.coefficients.ndim == 2
                and self.coefficients.shape[1] == k,
                f"coefficients must be m x {k}, "
                f"got {self.coefficients.shape}")
        super().__init__(k, self.coefficients.shape[0], element_size)

    def _combine(self, coeffs: Sequence[int], blocks: Sequence[np.ndarray],
                 out: np.ndarray) -> None:
        """``out = sum_j coeffs[j] * blocks[j]`` over GF(2^8)."""
        out[:] = 0
        term = np.empty(self.element_size, dtype=np.uint8)
        for c, block in zip(coeffs, blocks):
            if c == 1:
                np.bitwise_xor(out, block, out=out)
            elif c:
                np.take(_MUL[c], block, out=term)
                np.bitwise_xor(out, term, out=out)

    def _parity(self, data: np.ndarray, r: int, out: np.ndarray,
                skip: Sequence[int] = ()) -> None:
        coeffs = self.coefficients[r].copy()
        coeffs[list(skip)] = 0
        self._combine(coeffs, data, out)

    def _decoding(self, lost_data: List[int], lost: set):
        """The surviving parity rows that touch the lost data, and the
        decoding matrix from their syndromes to the lost data (``None``
        when they are rank deficient)."""
        touched = self.coefficients[:, lost_data].any(axis=1)
        rows = [r for r in np.flatnonzero(touched).tolist()
                if self.k + r not in lost]
        return rows, gf256_solve(self.coefficients[np.ix_(rows, lost_data)],
                                 np.eye(len(rows), dtype=np.uint8))

    def _decodable(self, lost_data: List[int], lost: set) -> bool:
        return self._decoding(lost_data, lost)[1] is not None

    def _solve(self, stripe: np.ndarray, lost_data: List[int],
               lost: set) -> None:
        rows, decoding = self._decoding(lost_data, lost)
        if decoding is None:
            raise self._undecodable(lost)
        # a row the decoding matrix never reads is left uncomputed
        syndromes = [self._syndrome(stripe, r, lost_data) if used else None
                     for r, used in zip(rows, np.any(decoding, axis=0))]
        for disk, coeffs in zip(lost_data, decoding):
            self._combine(coeffs, syndromes, stripe[disk])


class BitmatrixCode(_LinearCode):
    """Systematic code over GF(2) packets: every element is ``w`` packets
    and parity packet row ``i`` is the XOR of the data packets set in row
    ``i`` of the ``(m w) x (k w)`` ``bitmatrix`` — one ``w x w`` block per
    (parity disk, data disk) pair.

    ``schedule[i]`` lists row ``i``'s sources as ``(data disk, packet)``
    pairs: the XOR schedule of the code.  :meth:`encode` runs it with each
    identity block as one whole-element XOR.
    """

    def __init__(self, k: int, bitmatrix: np.ndarray,
                 element_size: int) -> None:
        self.bitmatrix = np.array(bitmatrix, dtype=bool)
        rows, cols = self.bitmatrix.shape
        self.w = cols // k
        require(cols == k * self.w and rows % self.w == 0,
                f"bitmatrix must be (m w) x ({k} w), got {rows} x {cols}")
        super().__init__(k, rows // self.w, element_size)
        require(element_size % self.w == 0,
                f"element_size must be a multiple of w={self.w}, "
                f"got {element_size}")
        self.packet_size = element_size // self.w
        self.schedule = [[divmod(int(c), self.w) for c in np.flatnonzero(row)]
                         for row in self.bitmatrix]
        # an identity block is one whole-element XOR instead of w packet
        # ones (RAID-6's P is nothing else)
        eye = np.eye(self.w, dtype=bool)
        blocks = self.bitmatrix.reshape(self.m, self.w, k, self.w)
        whole = (blocks.swapaxes(1, 2) == eye).all(axis=(2, 3))
        self._whole = [np.flatnonzero(disks).tolist() for disks in whole]
        self._packet_xors = [
            np.flatnonzero(row).tolist()
            for row in self.bitmatrix & ~np.kron(whole, eye).astype(bool)
        ]

    def _parity(self, data: np.ndarray, i: int, out: np.ndarray,
                skip: Sequence[int] = ()) -> None:
        out[:] = 0
        for j in self._whole[i]:
            if j not in skip:
                np.bitwise_xor(out, data[j], out=out)
        packets = data.reshape(self.k * self.w, self.packet_size)
        rows = out.reshape(self.w, self.packet_size)
        for row, sources in zip(rows, self._packet_xors[i * self.w:]):
            for c in sources:
                if c // self.w not in skip:
                    np.bitwise_xor(row, packets[c], out=row)

    def _equations(self, lost_data: List[int], lost: set):
        """The lost data packets, and the surviving parity packet rows
        that touch them."""
        unknown = [d * self.w + c for d in lost_data for c in range(self.w)]
        touched = self.bitmatrix[:, unknown].any(axis=1)
        rows = [i for i in np.flatnonzero(touched).tolist()
                if self.k + i // self.w not in lost]
        return unknown, rows

    def _decodable(self, lost_data: List[int], lost: set) -> bool:
        unknown, rows = self._equations(lost_data, lost)
        return gf2_rank(self.bitmatrix[np.ix_(rows, unknown)]) == len(unknown)

    def _solve(self, stripe: np.ndarray, lost_data: List[int],
               lost: set) -> None:
        unknown, rows = self._equations(lost_data, lost)
        syndromes = {
            i: self._syndrome(stripe, i, lost_data).reshape(self.w, -1)
            for i in {row // self.w for row in rows}
        }
        rhs = [syndromes[row // self.w][row % self.w] for row in rows]
        solution = gf2_solve(self.bitmatrix[np.ix_(rows, unknown)], rhs)
        if solution is None:
            raise self._undecodable(lost)
        for n, disk in enumerate(lost_data):
            stripe[disk] = np.concatenate(solution[n * self.w:(n + 1) * self.w])


class ReedSolomonRAID6(MatrixCode):
    """RS(k+2, k): ``k`` data disks plus P and Q over GF(2^8).

    The earliest horizontal RAID-6 in the paper's related work.  The
    parity rows are the first two Vandermonde rows, ``P = sum(d_j)`` and
    ``Q = sum((j+1) * d_j)``: any two erasures leave an invertible system.
    """

    def __init__(self, k: int, element_size: int = 4096) -> None:
        require_positive(k, "k")
        require(2 <= k <= 255, f"k must be in [2, 255] for GF(256), got {k}")
        super().__init__(k, vandermonde(2, k), element_size)


class GeneralReedSolomon(MatrixCode):
    """Systematic RS(k+m, k) over GF(2^8) with Cauchy parity rows.

    Every square submatrix of a Cauchy matrix is invertible, so the code
    is MDS for any ``m``; stacking Vandermonde rows is only safe for
    ``m <= 2`` (the pitfall ``tests/codes/test_rs_general.py`` shows).
    """

    def __init__(self, k: int, m: int, element_size: int = 4096) -> None:
        require_positive(k, "k")
        require_positive(m, "m")
        require(k >= 2, f"k must be >= 2, got {k}")
        require(k + m <= 256, f"k + m must be <= 256, got {k + m}")
        # parity points 0..m-1, data points m..m+k-1 — disjoint by design
        super().__init__(k, cauchy(list(range(m)), list(range(m, m + k))),
                         element_size)


class LocalReconstructionCode(MatrixCode):
    """LRC(k, l, r) (Huang et al., ATC 2012): the Windows-Azure code of
    the paper's related work [31].

    ``k`` data disks in ``l`` groups of ``k/l`` contiguous disks, one XOR
    local parity per group (disks ``k..k+l-1``) and ``r`` Cauchy global
    parities (disks ``k+l..``): ``l`` 0/1 group rows stacked over the
    Cauchy rows.  Not MDS — a lost data disk is repaired from its group
    alone (``k/l`` reads instead of ``k``).  Azure runs LRC(12, 2, 2).
    """

    def __init__(self, k: int, l: int, r: int,
                 element_size: int = 4096) -> None:
        require_positive(k, "k")
        require_positive(l, "l")
        require_positive(r, "r")
        require(k % l == 0, f"l={l} must divide k={k}")
        require(k + r <= 255, "k + r must fit GF(256) Cauchy points")
        self.l = l
        self.r = r
        self.group_size = k // l
        groups = np.kron(np.eye(l, dtype=np.uint8),
                         np.ones(self.group_size, dtype=np.uint8))
        super().__init__(
            k, np.vstack([groups, cauchy(list(range(r)),
                                         list(range(r, r + k)))]),
            element_size)

    def group_of(self, data_disk: int) -> int:
        """Local group of a data disk."""
        require(0 <= data_disk < self.k, f"no data disk {data_disk}")
        return data_disk // self.group_size

    def group_members(self, group: int) -> List[int]:
        """The data disks of a local group."""
        require(0 <= group < self.l, f"no group {group}")
        lo = group * self.group_size
        return list(range(lo, lo + self.group_size))

    def local_parity_disk(self, group: int) -> int:
        """The disk holding a group's local parity."""
        require(0 <= group < self.l, f"no group {group}")
        return self.k + group

    @property
    def storage_efficiency(self) -> float:
        return self.k / self.num_disks

    def repair_cost_single_data_failure(self) -> int:
        """Reads to repair one lost data block — LRC's selling point."""
        return self.group_size  # group-mates + local parity, minus itself

    def decode(self, stripe: np.ndarray, erased: Sequence[int]) -> List[int]:
        """Rebuild erased disks in place; returns the repair order.

        A group missing one disk is repaired by XOR first; the rest goes
        to the shared solve, where the local rows join the global ones
        (three losses in one group decode from its local parity plus two
        globals).  Raises :class:`DecodeError` for patterns outside the
        decodable set.
        """
        self._check(stripe, self.num_disks, "stripe")
        lost = self._lost(erased)
        repaired: List[int] = []
        for g in range(self.l):
            cells = self.group_members(g) + [self.local_parity_disk(g)]
            missing = [d for d in cells if d in lost]
            if len(missing) == 1:
                others = [d for d in cells if d != missing[0]]
                stripe[missing[0]] = np.bitwise_xor.reduce(stripe[others],
                                                           axis=0)
                repaired += missing
        rest = [d for d in lost if d not in repaired]
        self._repair(stripe, rest)
        return repaired + rest


class BitmatrixRAID6(BitmatrixCode):
    """RAID-6 from per-disk Q bit-matrices: P is the plain XOR of the data
    (identity blocks) and Q is ``XOR_i X_i · d_i``.

    ``matrices[i]`` is the ``w x w`` bool array ``X_i`` of data disk
    ``i``; ``element_size`` must be divisible by ``w``.
    """

    def __init__(self, matrices: Sequence[np.ndarray],
                 element_size: int) -> None:
        require(len(matrices) >= 2, "need at least 2 data disks")
        w = matrices[0].shape[0]
        for i, m in enumerate(matrices):
            if m.shape != (w, w):
                raise GeometryError(
                    f"matrix {i} has shape {m.shape}, expected ({w}, {w})"
                )
        self.matrices = tuple(np.asarray(m, dtype=bool) for m in matrices)
        eye = np.eye(w, dtype=bool)
        super().__init__(len(matrices),
                         np.block([[eye] * len(matrices),
                                   list(self.matrices)]),
                         element_size)

    def density(self) -> int:
        """Total ones across the Q matrices (lower = cheaper updates)."""
        return int(self.bitmatrix[self.w:].sum())


class CauchyRSRAID6(BitmatrixCode):
    """Cauchy-RS(k+2, k): the ``2 x k`` Cauchy matrix over GF(2^8),
    expanded to a ``16 x 8k`` bit-matrix so that encoding is pure XOR.

    This is how Jerasure dispatches non-XOR codes, so the codec anchors
    the throughput benchmark against the array codes.  ``element_size``
    must be a multiple of 8.
    """

    def __init__(self, k: int, element_size: int = 4096) -> None:
        require_positive(k, "k")
        require(2 <= k <= 128, f"k must be in [2, 128], got {k}")
        # parity row points {0, 1}, data column points {2, .., k+1}
        self.matrix = cauchy([0, 1], list(range(2, k + 2)))
        super().__init__(k, gf256_to_bitmatrix(self.matrix, 8).a,
                         element_size)
