"""Optional JIT-compiled C kernel: XOR programs, whole I/O plans, routes.

The compiled plans in :mod:`repro.codec.plan` serialise a whole schedule
(encode order or chain-recovery plan) into one flat ``int64`` program:
``[dst, k, src0 .. src{k-1}]`` per equation, in topological order.  Numpy
executes that program as vectorised gather-XOR, but each gather still
materialises a ``(n, k, element_size)`` temporary — roughly 3x the minimal
memory traffic — and each level costs a few numpy dispatches.

This module removes both overheads when a C compiler and the Python
headers are present: one C file is compiled once with the system ``cc``
into a cached CPython extension module, which :func:`xor_kernel` imports.
It has three functions, each a ``METH_FASTCALL`` entry point that takes
packed words by address (:class:`Packed`) and arrays through the buffer
protocol, so a call costs a few hundred nanoseconds of marshalling:

* ``xor_exec(block, program)`` runs one XOR program over one stripe
  (``block`` a C-contiguous ``(cells, element_size)`` array) — or a
  whole batch (``(batch, cells, element_size)``, each stripe's rows
  contiguous, the stripes any stride apart), stripe by stripe, keeping
  each stripe cache-resident — with plain in-place ``memcpy``/XOR loops
  that gcc -O3 auto-vectorises;
* ``plan_exec(geometry, plan, first, stripes, batch, values, out, io,
  lock)`` runs a whole :mod:`repro.array.ioplan` plan over a vector of
  stripes (``stripes`` an ``int64`` array, or ``None`` for ``first`` on)
  straight against a volume's flat backing store: gather the plan's rows
  the deltas and the program read, fold the new data into deltas — where
  the gathered rows feed only the deltas (every healthy RMW, and a
  degraded one whose dirty cells are all live) nothing is gathered and
  each delta is folded straight from its backing row — run
  the plan's XOR program, test each delta row for zero a word at a time,
  XOR each non-zero delta into its backing row in place (only rows that
  changed are stored), and pick the rows a read wants, a rebuild the
  lost column's or a load the stripe image's, into ``out``.  The plan
  and the store's geometry reach it packed into ``int64`` words
  (:func:`pack_plan`, :func:`pack_geometry`);
* ``route_exec(geometry, start, count, route, values, out, io, lock)``
  serves a whole read, or a whole write, in one call.  Healthy (no
  ``route``), a read needs no plan at all: it walks a range of logical
  elements through the geometry's data-cell table and copies each
  element's backing row — a run of consecutive rows at a time — into
  ``out``.  Otherwise it follows a *route*
  (:class:`repro.array.ioplan.Route`, :func:`pack_route`): the
  operation's runs of one pattern, each walked the same way, stored as
  whole stripes, or executed as its packed plan — ``plan_exec``'s
  per-stripe body, one function in the C source — over the run's
  stripes: a degraded read's read plans rebuild its lost cells and pick
  straight into the run's slice of ``out``; a write's partial head and
  tail stripes run their RMW plans, which take the run's slice of
  ``values`` and patch data and parity in place, and each of its whole
  stripes gets its rows copied into its data cells — the walk reversed
  — and the geometry's encode program run over it while it is still in
  cache, so the payload is read once.

``plan_exec`` and ``route_exec`` count each disk's reads and writes and,
before they return, add them into the volume's ``(2, cols)`` ``int64``
counters ``io`` while holding ``lock``, the counters' own lock.  Buffer
arguments are checked for contiguity and length; the packed words are
trusted, as the caller holds what they point at.

Entirely optional: a failed build (no compiler, no ``Python.h``,
read-only temp dir, sandboxed subprocess) silently degrades to the numpy
execution path, and ``REPRO_PURE_NUMPY=1`` disables the kernel
outright.  No third-party packages are involved — only ``cc``, the
Python headers and the standard library.

GIL contract
------------

Every entry point **releases the GIL around its C body**
(``Py_BEGIN_ALLOW_THREADS``) and takes it back only to add its counts
and return.  Threads that share a volume — a shard's executor thread
destaging its cache beside a foreground write — therefore do not hold
each other up for the length of an encode or a planned RMW, and the C
body never re-enters the interpreter: it touches only memory that stays
alive and unmoved for the call — the buffers the call holds, the
volume's backing store, the packed plans and routes the caller holds —
and the calling thread's own scratch buffer, which the kernel keeps
between calls and frees when the thread exits.  ``plan_exec`` writes
the backing rows of the stripes it is handed, under their write locks,
which the caller holds; ``route_exec`` along a write's route likewise
writes only the backing rows of the route's stripes.  A read reads the
backing store without any stripe lock — as the numpy gather of a read
plan does — and writes only its output.  ``tests/util/test_xor.py``
holds the contract by behaviour: a second thread must run while each
entry point does.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sysconfig
import tempfile
from types import ModuleType
from typing import NamedTuple, Optional, Sequence

import numpy as np

_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
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

/* Run a serialised XOR program over one flat buffer of es-byte rows.
 *
 * prog          [dst, k, src0 .. src{k-1}] per equation, topological order
 * prog_len      total int64 words in prog
 *
 * Equation semantics: row[dst] = row[src0] ^ ... ^ row[src{k-1}].
 * dst never appears among its own sources (the plan compiler guarantees
 * it), so no equation reads a partially written row.
 */
static void run_program(uint8_t *flat, int64_t es, const int64_t *prog,
                        int64_t prog_len)
{
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

/* Run a serialised XOR program over `nstripes` stripes.
 *
 * base          first stripe's (num_cells * es) flat uint8 buffer
 * stripe_stride byte offset between consecutive stripes
 * es            element size in bytes
 */
static void xor_exec(uint8_t *base, int64_t nstripes,
                     int64_t stripe_stride, int64_t es,
                     const int64_t *prog, int64_t prog_len)
{
    for (int64_t s = 0; s < nstripes; ++s)
        run_program(base + s * stripe_stride, es, prog, prog_len);
}

/* Whether n bytes hold anything but zeros: 64-byte blocks OR-ed eight
 * bytes a word, leaving at the first block that does. */
static int any_set(const uint8_t *p, int64_t n)
{
    int64_t i = 0;
    for (; i + 64 <= n; i += 64) {
        uint64_t w[8], acc = 0;
        memcpy(w, p + i, sizeof w);
        for (int j = 0; j < 8; ++j)
            acc |= w[j];
        if (acc)
            return 1;
    }
    uint8_t tail = 0;
    for (; i < n; ++i)
        tail |= p[i];
    return tail != 0;
}

/* A volume's flat backing store: rows of es bytes, stripe-major; then
 * its logical order — per data cells a stripe, data cell j at
 * stripe-local row geom[G_DATA + j]; then the cells a stripe holds on
 * each of its cols columns; then the length of the codec's encode
 * program and the program, over a stripe's stride rows. */
enum { G_BASE, G_STRIDE, G_COLS, G_ROTATE, G_ES, G_PER, G_DATA };

/* Header words of a packed plan; its arrays follow in the order
 * flat[g] fetch[g] keep[m] items[k] pick[nout] program[plen]. */
enum { H_G, H_GATHER, H_N, H_M, H_K, H_ROWS, H_DELTA, H_VALUES, H_BASE,
       H_PLEN, H_NV, H_NOUT, H_SIZE };

/* Each thread's scratch buffer, kept between calls and freed when the
 * thread exits: one allocated and freed per call pays page faults each
 * time the allocator hands its pages back to the system.  Its first
 * word is its capacity in bytes. */
static pthread_key_t scratch_key;
static pthread_once_t scratch_once = PTHREAD_ONCE_INIT;
static int scratch_keyed;  /* the key was created */

static void scratch_init(void)
{
    scratch_keyed = pthread_key_create(&scratch_key, free) == 0;
}

/* Scratch for plan_stripe, from this thread's buffer: the plan's g
 * backing rows, then its H_ROWS rows of es bytes; NULL when the buffer
 * cannot grow to them. */
static int64_t *plan_scratch(const int64_t *geom, const int64_t *plan)
{
    const int64_t need = plan[H_G] * (int64_t)sizeof(int64_t)
                         + plan[H_ROWS] * geom[G_ES];
    pthread_once(&scratch_once, scratch_init);
    if (!scratch_keyed)
        return NULL;
    int64_t *buf = pthread_getspecific(scratch_key);
    if (buf == NULL || buf[0] < need) {
        free(buf);
        buf = malloc(sizeof *buf + (size_t)need);
        if (buf != NULL)
            buf[0] = need;
        pthread_setspecific(scratch_key, buf);
        if (buf == NULL)
            return NULL;
    }
    return buf + 1;
}

/* One stripe of a packed plan over the store `geom` describes: `v` the
 * stripe's values, `out` its nout output rows, `at` scratch from
 * plan_scratch.  Into the scratch rows: gather the first `gather` of
 * the plan's g cells (flat = row * cols + col within the stripe) into
 * rows 0..gather-1 — the old values the deltas and the program read;
 * copy v[items[q]] to rows values+q; fold v[keep[i]] into the delta of
 * gathered row i (row delta+i); run the program over the rows from
 * `base` on.  Where the delta of cell j < n is non-zero it is XOR-ed
 * into the cell's backing row (old ^ delta: the new value) and counted
 * written; a cell is counted read when fetch[j] is set or it was
 * written.  Last, rows pick[] go to `out`.
 *
 * When the gathered rows feed only the deltas — no items, no pick,
 * gather == m and a program that starts at or past them: every healthy
 * RMW, and a degraded one whose dirty cells are all live — nothing is
 * gathered: delta i is folded straight from its backing row,
 * backing[at[i]] ^ v[keep[i]].  Every delta is folded before the first
 * store, so `v` may still alias the stripe's own backing rows.
 *
 * counts   2 * cols words, added to: reads per disk, then writes. */
static void plan_stripe(const int64_t *geom, const int64_t *plan,
                        int64_t stripe, const uint8_t *v, uint8_t *out,
                        int64_t *at, int64_t *counts)
{
    uint8_t *backing = (uint8_t *)(intptr_t)geom[G_BASE];
    const int64_t stride = geom[G_STRIDE], cols = geom[G_COLS];
    const int64_t rotate = geom[G_ROTATE], es = geom[G_ES];
    const int64_t g = plan[H_G], gather = plan[H_GATHER];
    const int64_t n = plan[H_N], m = plan[H_M], k = plan[H_K];
    const int64_t nout = plan[H_NOUT];
    const int64_t *flat = plan + H_SIZE, *fetch = flat + g;
    const int64_t *keep = fetch + g, *items = keep + m, *pick = items + k;
    const int64_t *prog = pick + nout;
    uint8_t *scratch = (uint8_t *)(at + g);
    uint8_t *delta = scratch + plan[H_DELTA] * es;
    int64_t *reads = counts, *writes = counts + cols;
    const int fold = k == 0 && nout == 0 && gather == m
                     && plan[H_BASE] >= gather;
    for (int64_t j = 0; j < g; ++j) {
        int64_t row = stripe * stride + flat[j];
        if (rotate) {
            int64_t col = flat[j] % cols;
            row += (col + stripe) % cols - col;
        }
        at[j] = row;
        if (j < gather && !fold)
            memcpy(scratch + j * es, backing + row * es, (size_t)es);
    }
    for (int64_t q = 0; q < k; ++q)
        memcpy(scratch + (plan[H_VALUES] + q) * es, v + items[q] * es,
               (size_t)es);
    for (int64_t i = 0; i < m; ++i) {
        const uint8_t *was = fold ? backing + at[i] * es : scratch + i * es;
        xor2(delta + i * es, was, v + keep[i] * es, es);
    }
    run_program(scratch + plan[H_BASE] * es, es, prog, plan[H_PLEN]);
    for (int64_t j = 0; j < g; ++j) {
        int64_t disk = at[j] % cols, hit = fetch[j];
        if (j < n && any_set(delta + j * es, es)) {
            uint8_t *restrict d = backing + at[j] * es;
            const uint8_t *x = delta + j * es;
            for (int64_t i = 0; i < es; ++i)
                d[i] ^= x[i];
            ++writes[disk];
            hit = 1;
        }
        reads[disk] += hit;
    }
    for (int64_t i = 0; i < nout; ++i)
        memcpy(out + i * es, scratch + pick[i] * es, (size_t)es);
}

/* Run a packed plan over `batch` stripes of the store `geom` describes:
 * stripes[s], or first + s when `stripes` is NULL — plan_stripe's body
 * per stripe, with the stripe's nv rows of `values` and nout rows of
 * `out`.  `values` is read before the stripe's first store, so one
 * stripe's values may alias its own backing rows.
 *
 * counts   2 * cols words, overwritten: reads per disk, then writes.
 * Returns 0, or -1 when the scratch buffer cannot be allocated (nothing
 * touched).
 */
static int64_t plan_exec(const int64_t *geom, const int64_t *plan,
                         int64_t first, const int64_t *stripes,
                         int64_t batch, const uint8_t *values, uint8_t *out,
                         int64_t *counts)
{
    const int64_t es = geom[G_ES], nv = plan[H_NV], nout = plan[H_NOUT];
    int64_t *at = plan_scratch(geom, plan);
    if (at == NULL)
        return -1;
    memset(counts, 0, (size_t)(2 * geom[G_COLS]) * sizeof *counts);
    for (int64_t s = 0; s < batch; ++s)
        plan_stripe(geom, plan, stripes ? stripes[s] : first + s,
                    values + s * nv * es, out + s * nout * es, at, counts);
    return 0;
}

/* Copy `count` logical elements, from data cell j of `stripe` on, of
 * the store `geom` describes into consecutive rows of `out`: element i
 * is data cell i % per of stripe i / per (columns shifted by the stripe
 * number when rotated, as in plan_stripe).  Consecutive backing rows go
 * as one copy; each row's disk is counted read into counts[0..cols). */
static void walk(const int64_t *geom, int64_t stripe, int64_t j,
                 int64_t count, uint8_t *out, int64_t *counts)
{
    const uint8_t *backing = (const uint8_t *)(intptr_t)geom[G_BASE];
    const int64_t stride = geom[G_STRIDE], cols = geom[G_COLS];
    const int64_t rotate = geom[G_ROTATE], es = geom[G_ES];
    const int64_t per = geom[G_PER], *data = geom + G_DATA;
    int64_t first = 0, rows = 0;  /* the pending copy */
    for (int64_t i = 0; i < count; ++i) {
        int64_t row = stripe * stride + data[j];
        if (rotate) {
            int64_t col = data[j] % cols;
            row += (col + stripe) % cols - col;
        }
        ++counts[row % cols];
        if (rows && row == first + rows) {
            ++rows;
        } else {
            if (rows) {
                memcpy(out, backing + first * es, (size_t)(rows * es));
                out += rows * es;
            }
            first = row;
            rows = 1;
        }
        if (++j == per) {
            j = 0;
            ++stripe;
        }
    }
    if (rows)
        memcpy(out, backing + first * es, (size_t)(rows * es));
}

/* Write `count` whole stripes from `stripe` on of the unrotated store
 * `geom` describes from consecutive rows of `values`, per data cells a
 * stripe: copy a stripe's rows into its data cells — the walk reversed,
 * consecutive backing rows as one copy — then run the encode program
 * over the stripe's rows while they are in cache, and count each cell
 * of the stripe written on its disk into writes[0..cols). */
static void encode_stripes(const int64_t *geom, int64_t stripe,
                           int64_t count, const uint8_t *values,
                           int64_t *writes)
{
    uint8_t *backing = (uint8_t *)(intptr_t)geom[G_BASE];
    const int64_t stride = geom[G_STRIDE], cols = geom[G_COLS];
    const int64_t es = geom[G_ES], per = geom[G_PER];
    const int64_t *data = geom + G_DATA, *cells = data + per;
    const int64_t *prog = cells + cols + 1, plen = cells[cols];
    for (int64_t s = 0; s < count; ++s) {
        uint8_t *rows = backing + (stripe + s) * stride * es;
        int64_t first = data[0], n = 1;  /* the pending copy */
        for (int64_t j = 1; j <= per; ++j) {
            if (j < per && data[j] == first + n) {
                ++n;
                continue;
            }
            memcpy(rows + first * es, values, (size_t)(n * es));
            values += n * es;
            if (j < per) {
                first = data[j];
                n = 1;
            }
        }
        run_program(rows, es, prog, plen);
        for (int64_t c = 0; c < cols; ++c)
            writes[c] += cells[c];
    }
}

/* Walk logical elements [start, start + count) of the store `geom`
 * describes along `route`: a read into consecutive rows of `out`, or a
 * write of consecutive rows of `values`.
 *
 * route    NULL: a healthy read — walk the range.  Otherwise the
 *          operation's runs of one pattern, from stripe start / per on,
 *          4 words a run: (stripes, j0, n, plan) — data cells j0 ..
 *          j0+n-1 of each of `stripes` stripes, the run's stripes * n
 *          rows of `out` or `values` from its first row k0 on.  Plan 0
 *          walks the run's cells into `out` in a read, and in a write
 *          stores whole stripes (n = per; encode_stripes, unrotated);
 *          any other is the address of a packed plan whose plan_stripe
 *          body runs over each of the run's stripes with its n rows of
 *          `values` and of `out` — a read plan picks its cells into
 *          `out`, an RMW plan (nout 0) stores its values.  The runs end
 *          where they have covered `count` elements.
 * values   a write's rows (NULL for a read): read stripe by stripe, so
 *          they must not alias the rows of a later stripe.
 * out      a read's rows (NULL for a write).
 * counts   2 * cols words, overwritten: reads per disk, then writes.
 * Returns 0, or -1 when a plan's scratch cannot be allocated (the runs
 * before it done).
 */
static int64_t route_exec(const int64_t *geom, int64_t start, int64_t count,
                          const int64_t *route, const uint8_t *values,
                          uint8_t *out, int64_t *counts)
{
    const int64_t es = geom[G_ES], per = geom[G_PER];
    int64_t stripe = start / per;
    memset(counts, 0, (size_t)(2 * geom[G_COLS]) * sizeof *counts);
    if (route == NULL) {
        walk(geom, stripe, start % per, count, out, counts);
        return 0;
    }
    for (int64_t k0 = 0; k0 < count; route += 4) {
        const int64_t stripes = route[0], n = route[2];
        const int64_t *plan = (const int64_t *)(intptr_t)route[3];
        if (plan == NULL && values != NULL) {
            encode_stripes(geom, stripe, stripes, values + k0 * es,
                           counts + geom[G_COLS]);
        } else if (plan == NULL) {
            walk(geom, stripe, route[1], stripes * n, out + k0 * es, counts);
        } else {
            int64_t *at = plan_scratch(geom, plan);
            if (at == NULL)
                return -1;
            for (int64_t s = 0, k = k0; s < stripes; ++s, k += n)
                plan_stripe(geom, plan, stripe + s,
                            values ? values + k * es : NULL,
                            out ? out + k * es : NULL, at, counts);
        }
        stripe += stripes;
        k0 += stripes * n;
    }
    return 0;
}

/* ---- The CPython module: one METH_FASTCALL function per entry point,
 * each running its C body above with the GIL released. ---- */

static PyObject *str_acquire, *str_release;

/* An integer argument; None reads as 0 (a NULL address). */
static int int_arg(PyObject *o, int64_t *v)
{
    if (o == Py_None) {
        *v = 0;
        return 0;
    }
    long long x = PyLong_AsLongLong(o);
    *v = (int64_t)x;
    return x == -1 && PyErr_Occurred() ? -1 : 0;
}

/* A C-contiguous buffer argument of at least `need` bytes, writable when
 * `flags` asks it; None leaves view->buf NULL, allowed when need is 0. */
static int buffer_arg(PyObject *o, Py_buffer *view, int flags, int64_t need)
{
    if (o == Py_None) {
        if (need <= 0)
            return 0;
        PyErr_SetString(PyExc_ValueError, "kernel: a buffer is required");
        return -1;
    }
    if (PyObject_GetBuffer(o, view, PyBUF_C_CONTIGUOUS | flags) < 0)
        return -1;
    if (view->len < need) {
        PyErr_Format(PyExc_ValueError, "kernel: %zd bytes, %lld needed",
                     view->len, (long long)need);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* The geometry words at `o`'s address, and the volume's counters: a
 * writable (2, cols) int64 array. */
static int volume_args(PyObject *o, const int64_t **geom, PyObject *io,
                       Py_buffer *view)
{
    int64_t address;
    if (int_arg(o, &address) < 0)
        return -1;
    if (address == 0) {
        PyErr_SetString(PyExc_ValueError, "kernel: no geometry");
        return -1;
    }
    *geom = (const int64_t *)(intptr_t)address;
    const int64_t bytes = 2 * (*geom)[G_COLS] * (int64_t)sizeof(int64_t);
    if (buffer_arg(io, view, PyBUF_WRITABLE, bytes) < 0)
        return -1;
    if (view->itemsize != sizeof(int64_t) || view->len != bytes) {
        PyErr_SetString(PyExc_ValueError,
                        "kernel: counters must be (2, cols) int64");
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* Add a call's counts into the counters, holding `lock` — the
 * threading.Lock every other update of them holds. */
static int add_counts(Py_buffer *io, PyObject *lock, const int64_t *counts)
{
    PyObject *r = PyObject_CallMethodNoArgs(lock, str_acquire);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    int64_t *dst = io->buf;
    for (Py_ssize_t i = 0; i < io->len / (Py_ssize_t)sizeof *dst; ++i)
        dst[i] += counts[i];
    r = PyObject_CallMethodNoArgs(lock, str_release);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Room for the counts of up to 64 columns on the stack, more on the
 * heap. */
enum { STACK_COUNTS = 128 };

static int64_t *counts_for(const int64_t *geom, int64_t *stack)
{
    const int64_t n = 2 * geom[G_COLS];
    int64_t *counts = n <= STACK_COUNTS ? stack
                      : PyMem_Malloc((size_t)n * sizeof *counts);
    if (counts == NULL)
        PyErr_NoMemory();
    return counts;
}

static int nargs_ok(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)",
                 name, want, nargs);
    return 0;
}

/* xor_exec(block, program): a (cells, es) C-contiguous stripe, or a
 * (batch, cells, es) block whose stripes are any stride apart. */
static PyObject *py_xor_exec(PyObject *self, PyObject *const *args,
                             Py_ssize_t nargs)
{
    Py_buffer block = {0}, prog = {0};
    PyObject *result = NULL;
    if (!nargs_ok("xor_exec", nargs, 2))
        return NULL;
    if (PyObject_GetBuffer(args[0], &block,
                           PyBUF_STRIDES | PyBUF_WRITABLE) < 0)
        return NULL;
    if (buffer_arg(args[1], &prog, 0, 0) < 0)
        goto done;
    const int nd = block.ndim;
    const Py_ssize_t *shape = block.shape, *strides = block.strides;
    int64_t nstripes = 1, stride = 0;
    int ok = nd >= 1 && block.itemsize == 1;
    if (ok && nd == 3) {
        nstripes = shape[0];
        stride = strides[0];
        ok = strides[2] == 1 && strides[1] == shape[2];
    } else if (ok) {
        ok = PyBuffer_IsContiguous(&block, 'C');
    }
    if (!ok) {
        PyErr_SetString(PyExc_ValueError,
                        "xor_exec: stripes of contiguous uint8 rows");
        goto done;
    }
    const int64_t es = shape[nd - 1];
    Py_BEGIN_ALLOW_THREADS
    xor_exec(block.buf, nstripes, stride, es, prog.buf,
             prog.len / (Py_ssize_t)sizeof(int64_t));
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);
done:
    PyBuffer_Release(&block);
    PyBuffer_Release(&prog);
    return result;
}

/* plan_exec(geometry, plan, first, stripes, batch, values, out, io,
 * lock) */
static PyObject *py_plan_exec(PyObject *self, PyObject *const *args,
                              Py_ssize_t nargs)
{
    Py_buffer stripes = {0}, values = {0}, out = {0}, io = {0};
    int64_t stack[STACK_COUNTS], *counts = NULL, address, first, batch;
    const int64_t *geom;
    PyObject *result = NULL;
    if (!nargs_ok("plan_exec", nargs, 9) ||
        int_arg(args[1], &address) < 0 || int_arg(args[2], &first) < 0 ||
        int_arg(args[4], &batch) < 0 ||
        volume_args(args[0], &geom, args[7], &io) < 0)
        return NULL;
    const int64_t *plan = (const int64_t *)(intptr_t)address;
    if (plan == NULL || batch < 1) {
        PyErr_SetString(PyExc_ValueError, "plan_exec: no plan or stripes");
        goto done;
    }
    const int64_t es = geom[G_ES];
    if (buffer_arg(args[3], &stripes, 0,
                   args[3] == Py_None ? 0 : batch * 8) < 0 ||
        buffer_arg(args[5], &values, 0, batch * plan[H_NV] * es) < 0 ||
        buffer_arg(args[6], &out, PyBUF_WRITABLE,
                   batch * plan[H_NOUT] * es) < 0 ||
        (counts = counts_for(geom, stack)) == NULL)
        goto done;
    int64_t rc;
    Py_BEGIN_ALLOW_THREADS
    rc = plan_exec(geom, plan, first, stripes.buf, batch, values.buf,
                   out.buf, counts);
    Py_END_ALLOW_THREADS
    if (rc)
        PyErr_SetString(PyExc_MemoryError, "plan_exec: no scratch memory");
    else if (add_counts(&io, args[8], counts) == 0)
        result = Py_NewRef(Py_None);
done:
    if (counts != stack)
        PyMem_Free(counts);
    PyBuffer_Release(&stripes);
    PyBuffer_Release(&values);
    PyBuffer_Release(&out);
    PyBuffer_Release(&io);
    return result;
}

/* route_exec(geometry, start, count, route, values, out, io, lock): a
 * write of `values` or a read into `out`, count rows each. */
static PyObject *py_route_exec(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs)
{
    Py_buffer values = {0}, out = {0}, io = {0};
    int64_t stack[STACK_COUNTS], *counts = NULL, start, count, address;
    const int64_t *geom;
    PyObject *result = NULL;
    if (!nargs_ok("route_exec", nargs, 8) ||
        int_arg(args[1], &start) < 0 || int_arg(args[2], &count) < 0 ||
        int_arg(args[3], &address) < 0 ||
        volume_args(args[0], &geom, args[6], &io) < 0)
        return NULL;
    const int64_t rows = count * geom[G_ES];
    if ((args[4] == Py_None) == (args[5] == Py_None) || count < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "route_exec: values or out, and a count");
        goto done;
    }
    /* the one of values and out given holds the count rows */
    if (buffer_arg(args[4], &values, 0, args[5] == Py_None ? rows : 0) < 0 ||
        buffer_arg(args[5], &out, PyBUF_WRITABLE,
                   args[4] == Py_None ? rows : 0) < 0 ||
        (counts = counts_for(geom, stack)) == NULL)
        goto done;
    int64_t rc;
    Py_BEGIN_ALLOW_THREADS
    rc = route_exec(geom, start, count, (const int64_t *)(intptr_t)address,
                    values.buf, out.buf, counts);
    Py_END_ALLOW_THREADS
    if (rc)
        PyErr_SetString(PyExc_MemoryError, "route_exec: no scratch memory");
    else if (add_counts(&io, args[7], counts) == 0)
        result = Py_NewRef(Py_None);
done:
    if (counts != stack)
        PyMem_Free(counts);
    PyBuffer_Release(&values);
    PyBuffer_Release(&out);
    PyBuffer_Release(&io);
    return result;
}

#define FASTCALL(f) (PyCFunction)(void (*)(void))(f), METH_FASTCALL

static PyMethodDef methods[] = {
    {"xor_exec", FASTCALL(py_xor_exec), NULL},
    {"plan_exec", FASTCALL(py_plan_exec), NULL},
    {"route_exec", FASTCALL(py_route_exec), NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckernel", NULL, -1, methods,
};

PyMODINIT_FUNC PyInit__ckernel(void)
{
    str_acquire = PyUnicode_InternFromString("acquire");
    str_release = PyUnicode_InternFromString("release");
    if (str_acquire == NULL || str_release == NULL)
        return NULL;
    return PyModule_Create(&module);
}
"""

#: The module's entry points; each runs its C body with the GIL released.
SYMBOLS = ("xor_exec", "plan_exec", "route_exec")

#: The directory the build finds ``Python.h`` in.
_INCLUDE = sysconfig.get_paths()["include"]

_lib: Optional[ModuleType] = None
_tried = False


class Packed(NamedTuple):
    """``int64`` words handed to the kernel by address; ``words``
    keeps the memory alive."""

    words: np.ndarray
    address: int


def _packed(words) -> Packed:
    words = np.ascontiguousarray(words, dtype=np.int64)
    return Packed(words, words.__array_interface__["data"][0])


def pack_geometry(
    backing: np.ndarray, stride: int, cols: int, rotate: bool,
    data: Sequence[int], cells: Sequence[int], program: np.ndarray,
) -> Packed:
    """A volume's flat ``(rows, element_size)`` backing store: ``stride``
    rows a stripe, row ``offset * cols + disk``, columns shifted by the
    stripe number when ``rotate``; logical element ``i`` at stripe-local
    row ``data[i % len(data)]`` of stripe ``i // len(data)``; ``cells[c]``
    cells of a stripe on column ``c``, what a whole-stripe store writes
    there; and the codec's encode ``program`` (``XorPlan.program``) over
    a stripe's ``stride`` rows, which a whole-stripe store runs in
    place.  The store must outlive the words."""
    return _packed(np.concatenate([
        np.asarray(a, dtype=np.int64).ravel()
        for a in (
            (backing.__array_interface__["data"][0], stride, cols,
             int(rotate), backing.shape[1], len(data)),
            data, cells, (len(program),), program,
        )
    ]))


def pack_plan(plan) -> Packed:
    """``plan_exec``'s words for ``plan``, a :class:`repro.array.ioplan.Plan`
    — the one record of a gather–XOR–store/pick plan, which the numpy
    interpreter (``ioplan._plan_run``) reads field by field.  Its fields
    land in the header words, then the arrays, in this order:

    ==================  =====================================================
    ``Plan`` field      words
    ==================  =====================================================
    ``cells``           ``H_G`` = g, then ``flat[g]`` (row * cols + col)
    ``gather``          ``H_GATHER``: cells gathered into rows 0..gather-1
    ``n``               ``H_N``: the first n cells may be stored
    ``fetch``           ``fetch[g]``: 1 for a cell read whatever the deltas
    ``keep``            ``H_M`` = m, then ``keep[m]``: values folded into
                        the deltas of gathered rows 0..m-1
    ``items``           ``H_K`` = k, then ``items[k]``: values copied to
                        rows ``values`` on; ``H_NV``: a stripe's rows of
                        values, one past the highest ``keep`` or ``items``
    ``pick``            ``H_NOUT``, then ``pick[nout]``: rows to the output
    ``delta``           ``H_DELTA``: row of cell 0's delta
    ``values``          ``H_VALUES``: row of ``items[0]``'s value
    ``base``            ``H_BASE``: row the program's row 0 is
    ``xor``             ``H_ROWS`` = base + ``xor.num_cells``; ``H_PLEN``,
                        then ``program[plen]`` (``xor.program``)
    ==================  =====================================================
    """
    flat = plan.cells.flat
    g = len(flat)
    fetch = np.zeros(g, dtype=np.int64)
    fetch[plan.fetch] = 1
    keep, items, pick = plan.keep, plan.items, plan.pick
    program = plan.xor.program
    nv = int(np.concatenate([keep, items]).max(initial=-1)) + 1
    # plan_exec's H_* words, in order
    header = (
        g, plan.gather, plan.n, len(keep), len(items),
        plan.base + plan.xor.num_cells, plan.delta, plan.values, plan.base,
        len(program), nv, len(pick),
    )
    return _packed(np.concatenate([
        np.asarray(a, dtype=np.int64).ravel()
        for a in (header, flat, fetch, keep, items, pick, program)
    ]))


def pack_route(runs) -> Packed:
    """``route_exec``'s route: ``(stripes, j0, n, plan)`` per run of one
    read or write, in order from its first stripe — ``plan`` the run's
    :class:`Packed` read or RMW plan, or ``None``: in a read, a run whose
    cells are walked as a healthy read walks them; in a write, a run of
    whole stripes, each copied into its data cells and encoded in place.
    The plans must outlive the words."""
    return _packed([
        word
        for stripes, j0, n, plan in runs
        for word in (stripes, j0, n, 0 if plan is None else plan.address)
    ])


def xor_kernel() -> Optional[ModuleType]:
    """The kernel's extension module, or ``None`` when unavailable.

    The first call builds (or finds in the kernel cache) and imports it;
    the outcome (module or ``None``) is cached for the life of the
    process, and a forked child inherits it.
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


def _load() -> ModuleType:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest = hashlib.sha256(
        (_SOURCE + _INCLUDE + suffix).encode()
    ).hexdigest()[:16]
    cache = os.environ.get("REPRO_CKERNEL_CACHE") or os.path.join(
        tempfile.gettempdir(), f"repro-ckernel-{os.getuid()}"
    )
    os.makedirs(cache, exist_ok=True)
    so_path = os.path.join(cache, f"xor-{digest}{suffix}")
    if not os.path.exists(so_path):
        src_path = os.path.join(cache, f"xor-{digest}.c")
        with open(src_path, "w") as fh:
            fh.write(_SOURCE)
        tmp_path = f"{so_path}.tmp.{os.getpid()}"
        cc = os.environ.get("CC", "cc")
        base_cmd = [cc, "-O3", "-std=c11", "-shared", "-fPIC",
                    f"-I{_INCLUDE}"]
        try:
            # -march=native is safe: the module is built on the host at
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
    spec = importlib.util.spec_from_file_location("_ckernel", so_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
