"""Finite-field arithmetic substrates.

* :mod:`repro.gf.gf256` — GF(2^8) scalar and vectorised arithmetic used by
  the Reed–Solomon baseline.
* :mod:`repro.gf.matrix` — dense matrix algebra over GF(2^8): products,
  the Vandermonde and Cauchy generators, and the one elimination
  (:func:`~repro.gf.matrix.gf256_solve`) the matrix codecs decode with.
* :mod:`repro.gf.bitmatrix` — GF(2) bit-matrices and Gaussian elimination,
  used by the bitmatrix codecs and by the generic erasure decoding oracle.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.gf.bitmatrix": ("BitMatrix", "gf2_rank", "gf2_solve"),
    "repro.gf.gf256": ("GF256",),
    "repro.gf.matrix": (
        "gf256_identity", "gf256_matmul", "gf256_matvec", "gf256_solve",
    ),
})

__all__ = [
    "BitMatrix",
    "GF256",
    "gf2_rank",
    "gf2_solve",
    "gf256_identity",
    "gf256_matmul",
    "gf256_matvec",
    "gf256_solve",
]
