"""GF(2^8) arithmetic with precomputed log/antilog tables.

The field is built over the AES-standard primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11d) with generator 2, the same field
Jerasure's ``w=8`` mode uses.  Scalar ops go through the tables; bulk ops
(`mul_block`) are vectorised with numpy table lookups so Reed–Solomon
encoding streams at numpy speed rather than per-byte Python speed.
"""

from __future__ import annotations

import numpy as np

#: Primitive polynomial for GF(2^8) (x^8 + x^4 + x^3 + x^2 + 1).
PRIMITIVE_POLY = 0x11D
#: Multiplicative generator of the field.
GENERATOR = 2


def _build_tables() -> tuple:
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIMITIVE_POLY
    # duplicate so exp[log a + log b] never needs a modulo
    exp[255:510] = exp[:255]
    # the full product table: mul[a, b] = a * b (zero row and column)
    mul = exp[(log[:, None] + log[None, :]) % 255]
    mul[0, :] = 0
    mul[:, 0] = 0
    return exp, log, mul


_EXP, _LOG, _MUL = _build_tables()


class GF256:
    """Stateless namespace of GF(2^8) operations (all class/static methods)."""

    order = 256
    exp_table = _EXP
    log_table = _LOG
    #: ``mul_table[a]`` is the 256-entry lookup row ``b -> a * b``.
    mul_table = _MUL

    @staticmethod
    def add(a: int, b: int) -> int:
        """Field addition (XOR)."""
        return a ^ b

    @staticmethod
    def sub(a: int, b: int) -> int:
        """Field subtraction — identical to addition in characteristic 2."""
        return a ^ b

    @staticmethod
    def mul(a: int, b: int) -> int:
        """Field multiplication via log/antilog tables."""
        if a == 0 or b == 0:
            return 0
        return int(_EXP[_LOG[a] + _LOG[b]])

    @staticmethod
    def div(a: int, b: int) -> int:
        """Field division; raises :class:`ZeroDivisionError` on ``b == 0``."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(256)")
        if a == 0:
            return 0
        return int(_EXP[(_LOG[a] - _LOG[b]) % 255])

    @staticmethod
    def inv(a: int) -> int:
        """Multiplicative inverse; raises on ``a == 0``."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return int(_EXP[(255 - _LOG[a]) % 255])

    @staticmethod
    def pow(a: int, e: int) -> int:
        """``a`` raised to integer exponent ``e`` (negative allowed, a != 0)."""
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no negative power in GF(256)")
            return 0 if e else 1
        return int(_EXP[(_LOG[a] * e) % 255])

    @staticmethod
    def mul_block(coef: int, block: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Multiply every byte of ``block`` by the scalar ``coef``.

        Vectorised: one table gather per call.  ``out`` may alias ``block``.
        """
        if block.dtype != np.uint8:
            raise TypeError(f"block must be uint8, got {block.dtype}")
        result = _MUL[coef][block]
        if out is None:
            return result
        np.copyto(out, result)
        return out

    @staticmethod
    def mul_row_table(coef: int) -> np.ndarray:
        """The 256-entry lookup row ``row[b] = coef * b`` (for caching)."""
        return _MUL[coef].copy()
