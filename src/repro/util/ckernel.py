"""Optional JIT-compiled C XOR kernel.

The compiled plans in :mod:`repro.codec.plan` serialise a whole schedule
(encode order or chain-recovery plan) into one flat ``int64`` program:
``[dst, k, src0 .. src{k-1}]`` per equation, in topological order.  Numpy
executes that program as vectorised gather-XOR, but each gather still
materialises a ``(n, k, element_size)`` temporary — roughly 3x the minimal
memory traffic — and each level costs a few numpy dispatches.

This module removes both overheads when a C compiler is present: a ~30-line
kernel is compiled once with the system ``cc`` into a cached shared library
and loaded via :mod:`ctypes`.  One call then runs the entire program over
one stripe — or a whole batch, stripe by stripe, keeping each stripe
cache-resident — with plain in-place ``memcpy``/XOR loops that gcc -O3
auto-vectorises.

Entirely optional: compilation failure (no compiler, read-only temp dir,
sandboxed subprocess) silently degrades to the numpy execution path, and
``REPRO_PURE_NUMPY=1`` disables the kernel outright.  No third-party
packages are involved — only ``cc`` and the standard library.

GIL contract
------------

The kernel is loaded with :class:`ctypes.CDLL`, whose foreign-call
machinery **releases the GIL for the duration of every ``xor_exec``
call** (``ctypes.PyDLL`` is the variant that would hold it — never used
here).  Threads that share a volume — a shard's executor thread
destaging its cache beside a foreground write — therefore do not hold
each other up for the length of an encode/XOR run, and no wrapper or
callback re-enters the interpreter mid-call: the C side touches only
caller-owned buffers that stay alive and unmoved for the call (numpy
arrays pinned by the calling frame).  :func:`kernel_releases_gil` asserts
the contract so a refactor to ``PyDLL`` — which would silently hold the
GIL across every kernel call — fails tests instead of shipping.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Optional

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* Fused k-way XOR: one read pass per source, one write of the
 * destination.  Fixed-arity bodies vectorise cleanly under -O3; measured
 * ~3x faster than a memcpy-then-rmw sweep per source at 4 KiB elements. */
#define S(j) (flat + srcs[(j)] * es)

static void xor2(uint8_t *restrict d, const uint8_t *a, const uint8_t *b,
                 int64_t n)
{ for (int64_t i = 0; i < n; ++i) d[i] = a[i] ^ b[i]; }

static void xor3(uint8_t *restrict d, const uint8_t *a, const uint8_t *b,
                 const uint8_t *c, int64_t n)
{ for (int64_t i = 0; i < n; ++i) d[i] = a[i] ^ b[i] ^ c[i]; }

static void xor4(uint8_t *restrict d, const uint8_t *a, const uint8_t *b,
                 const uint8_t *c, const uint8_t *e, int64_t n)
{ for (int64_t i = 0; i < n; ++i) d[i] = a[i] ^ b[i] ^ c[i] ^ e[i]; }

static void xor5(uint8_t *restrict d, const uint8_t *a, const uint8_t *b,
                 const uint8_t *c, const uint8_t *e, const uint8_t *f,
                 int64_t n)
{ for (int64_t i = 0; i < n; ++i) d[i] = a[i] ^ b[i] ^ c[i] ^ e[i] ^ f[i]; }

static void xor6(uint8_t *restrict d, const uint8_t *a, const uint8_t *b,
                 const uint8_t *c, const uint8_t *e, const uint8_t *f,
                 const uint8_t *g, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        d[i] = a[i] ^ b[i] ^ c[i] ^ e[i] ^ f[i] ^ g[i];
}

static void xor7(uint8_t *restrict d, const uint8_t *a, const uint8_t *b,
                 const uint8_t *c, const uint8_t *e, const uint8_t *f,
                 const uint8_t *g, const uint8_t *h, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        d[i] = a[i] ^ b[i] ^ c[i] ^ e[i] ^ f[i] ^ g[i] ^ h[i];
}

/* Run a serialised XOR program over `nstripes` stripes.
 *
 * base          first stripe's (num_cells * es) flat uint8 buffer
 * stripe_stride byte offset between consecutive stripes
 * es            element size in bytes
 * prog          [dst, k, src0 .. src{k-1}] per equation, topological order
 * prog_len      total int64 words in prog
 *
 * Equation semantics: cell[dst] = cell[src0] ^ ... ^ cell[src{k-1}].
 * dst never appears among its own sources (the plan compiler guarantees
 * it), so no equation reads a partially written cell.
 */
void xor_exec(uint8_t *base, int64_t nstripes, int64_t stripe_stride,
              int64_t es, const int64_t *prog, int64_t prog_len)
{
    for (int64_t s = 0; s < nstripes; ++s) {
        uint8_t *flat = base + s * stripe_stride;
        const int64_t *p = prog;
        const int64_t *end = prog + prog_len;
        while (p < end) {
            uint8_t *restrict d = flat + p[0] * es;
            int64_t k = p[1];
            const int64_t *srcs = p + 2;
            p += 2 + k;
            switch (k) {
            case 1: memcpy(d, S(0), (size_t)es); break;
            case 2: xor2(d, S(0), S(1), es); break;
            case 3: xor3(d, S(0), S(1), S(2), es); break;
            case 4: xor4(d, S(0), S(1), S(2), S(3), es); break;
            case 5: xor5(d, S(0), S(1), S(2), S(3), S(4), es); break;
            case 6: xor6(d, S(0), S(1), S(2), S(3), S(4), S(5), es); break;
            case 7: xor7(d, S(0), S(1), S(2), S(3), S(4), S(5), S(6), es);
                    break;
            default: {
                /* Wide equations: fused 7-way head, then pairwise-fused
                 * sweeps (two sources per destination pass). */
                xor7(d, S(0), S(1), S(2), S(3), S(4), S(5), S(6), es);
                int64_t j = 7;
                for (; j + 1 < k; j += 2) {
                    const uint8_t *restrict a = S(j);
                    const uint8_t *restrict b = S(j + 1);
                    for (int64_t i = 0; i < es; ++i)
                        d[i] ^= a[i] ^ b[i];
                }
                if (j < k) {
                    const uint8_t *restrict a = S(j);
                    for (int64_t i = 0; i < es; ++i)
                        d[i] ^= a[i];
                }
            }
            }
        }
    }
}
"""

_lib: Optional[ctypes.CDLL] = None
_tried = False


def xor_kernel() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, or ``None`` when unavailable.

    The first call attempts a build; the outcome (library or ``None``) is
    cached for the life of the process.
    """
    global _lib, _tried
    if _tried:
        return _lib
    _tried = True
    if os.environ.get("REPRO_PURE_NUMPY"):
        return None
    try:
        _lib = _load()
    except Exception:
        _lib = None
    return _lib


def kernel_releases_gil() -> bool:
    """Whether the loaded kernel drops the GIL during ``xor_exec``.

    ``True`` exactly when a kernel is loaded through plain
    :class:`ctypes.CDLL` (GIL released around every foreign call) rather
    than :class:`ctypes.PyDLL` (GIL held).  ``False`` when no kernel is
    available at all — numpy's own ufunc loops still release the GIL
    for large operands.
    """
    lib = xor_kernel()
    return isinstance(lib, ctypes.CDLL) and not isinstance(lib, ctypes.PyDLL)


def _load() -> ctypes.CDLL:
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = os.environ.get("REPRO_CKERNEL_CACHE") or os.path.join(
        tempfile.gettempdir(), f"repro-ckernel-{os.getuid()}"
    )
    os.makedirs(cache, exist_ok=True)
    so_path = os.path.join(cache, f"xor-{digest}.so")
    if not os.path.exists(so_path):
        src_path = os.path.join(cache, f"xor-{digest}.c")
        with open(src_path, "w") as fh:
            fh.write(_SOURCE)
        tmp_path = f"{so_path}.tmp.{os.getpid()}"
        cc = os.environ.get("CC", "cc")
        base_cmd = [cc, "-O3", "-std=c11", "-shared", "-fPIC"]
        try:
            # -march=native is safe: the library is built on the host at
            # runtime and never shipped.  Some toolchains reject the flag.
            subprocess.run(
                base_cmd + ["-march=native", "-o", tmp_path, src_path],
                check=True,
                capture_output=True,
            )
        except subprocess.CalledProcessError:
            subprocess.run(
                base_cmd + ["-o", tmp_path, src_path],
                check=True,
                capture_output=True,
            )
        os.replace(tmp_path, so_path)  # atomic: concurrent builders race safely
    lib = ctypes.CDLL(so_path)
    lib.xor_exec.argtypes = [
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_int64,
    ]
    lib.xor_exec.restype = None
    return lib
