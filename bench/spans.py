"""Spans around the calls into each layer, recorded from the benchmark.

The program has no tracing of its own yet (ROADMAP item 4), so the
traced run wraps the functions at each layer's boundary from here and
restores them afterwards.  A span's *self* time is its duration minus
the spans it caused; a layer's self time is the sum over its functions.
Spans nest per thread.  Self times are kept in memory as per-layer
totals and read out when the run ends.

Shard workers are forked from the benchmark process after the wrappers
are installed, so they inherit them.  Their totals come back without
any new channel: each forked process takes a row of one anonymous
shared mapping created before the fork and adds its totals there
whenever its outermost span closes.

Durations are wall time, which for the synchronous functions wrapped
here is CPU time, with two exceptions.  Spans marked ``blocking`` (a
parent-side batch waiting on its worker) are busy for their thread-CPU
time only, and that, not the wait, is what they and their callers keep.
And the workers share one CPU, so whatever a worker records under one
outermost span is scaled by that span's CPU time over its wall time.
"""

from __future__ import annotations

import mmap
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

#: (layer, owner path, attribute, blocking) — the boundary functions.
#: Underscored names are listed only where one layer enters another
#: through them (the cache destages through the volume's stripe-write
#: funnels; the worker loop calls ``execute_ops`` by module global).
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("array.volume", "repro.array.volume:RAID6Volume", "read", False),
    ("array.volume", "repro.array.volume:RAID6Volume", "write", False),
    ("array.volume", "repro.array.volume:RAID6Volume", "fail_disk", False),
    ("array.volume", "repro.array.volume:RAID6Volume", "replace_and_rebuild", False),
    ("array.volume", "repro.array.volume:RAID6Volume", "_write_rest", False),
    ("array.volume", "repro.array.volume:RAID6Volume", "_full_stripe_write_batched", False),
    ("array.volume", "repro.array.volume:RAID6Volume", "_write_stripe_batch", False),
    ("array.disk", "repro.array.disk:SimDisk", "read", False),
    ("array.disk", "repro.array.disk:SimDisk", "write", False),
    ("array.disk", "repro.array.disk:SimDisk", "read_block", False),
    ("array.disk", "repro.array.disk:SimDisk", "write_block", False),
    ("codec", "repro.codec.plan:XorPlan", "execute", False),
    ("codec", "repro.codec.plan:XorPlan", "execute_batch", False),
    ("codec", "repro.codec.encoder:StripeCodec", "encode", False),
    ("codec", "repro.codec.decoder:ChainDecoder", "decode_columns", False),
    ("codec", "repro.codec.decoder:ChainDecoder", "decode_cells", False),
    ("recovery", "repro.recovery.planner", "hybrid_plan", False),
    ("iosim", "repro.iosim.engine:AccessEngine", "_plan_stripe_read", False),
    ("array.cache", "repro.array.cache:StripeCache", "read", False),
    ("array.cache", "repro.array.cache:StripeCache", "write", False),
    ("array.cache", "repro.array.cache:StripeCache", "flush", False),
    ("array.cache", "repro.array.cache:StripeCache", "dirty_snapshot", False),
    ("journal", "repro.journal.intent:WriteIntentLog", "open", False),
    ("journal", "repro.journal.intent:WriteIntentLog", "open_full", False),
    ("journal", "repro.journal.intent:WriteIntentLog", "open_group", False),
    ("journal", "repro.journal.intent:WriteIntentLog", "commit", False),
    ("journal", "repro.journal.intent:WriteIntentLog", "commit_group", False),
    ("serve.protocol", "repro.serve.protocol", "encode_request_parts", False),
    ("serve.protocol", "repro.serve.protocol", "decode_request", False),
    ("serve.protocol", "repro.serve.protocol", "encode_response_prefix", False),
    ("serve.protocol", "repro.serve.protocol", "decode_response", False),
    ("serve.router", "repro.serve.router:ShardRouter", "split", False),
    ("serve.qos", "repro.serve.qos:AdmissionControl", "admit", False),
    ("serve.qos", "repro.serve.qos:AdmissionControl", "release", False),
    ("serve.server", "repro.serve.server:BlockServer", "_begin", False),
    ("serve.coalescer", "repro.serve.coalescer:ShardQueue", "submit_nowait", False),
    ("serve.coalescer", "repro.serve.coalescer:ShardQueue", "_execute", True),
    ("serve.supervisor", "repro.serve.supervisor:SupervisedShard", "execute", True),
    ("serve.shard", "repro.serve.shard:ProcessShard", "execute", True),
    ("serve.shard", "repro.serve.shard", "execute_ops", False),
    ("serve.shmring", "repro.serve.shmring:PayloadRing", "alloc", False),
    ("serve.shmring", "repro.serve.shmring:PayloadRing", "free", False),
    ("serve.shmring", "repro.serve.shmring:PayloadRing", "write_into", False),
    ("serve.shmring", "repro.serve.shmring:PayloadRing", "lease_slice", False),
    ("serve.shmring", "repro.serve.shmring:PayloadRing", "slot_view", False),
    ("serve.state", "repro.serve.state:ShardStateStore", "sync", False),
    ("serve.state", "repro.serve.state:ShardStateStore", "persist", False),
    ("serve.checkpoint", "repro.serve.checkpoint:IncrementalCheckpointer", "checkpoint", False),
    ("serve.checkpoint", "repro.serve.checkpoint:IncrementalCheckpointer", "compact", False),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))
_MAX_PROCS = 16


def _resolve(path: str):
    import importlib

    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Installs the span wrappers and accumulates per-layer self times."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (layer, function) -> [self ns, calls]
        self._totals: Dict[Tuple[str, str], List[int]] = defaultdict(
            lambda: [0, 0]
        )
        self._index = {
            key: i for i, key in
            enumerate(dict.fromkeys((t[0], t[2]) for t in TARGETS))
        }
        self._shared_map = mmap.mmap(-1, _MAX_PROCS * len(self._index) * 16)
        self._shared = np.frombuffer(self._shared_map, dtype=np.int64).reshape(
            _MAX_PROCS, len(self._index), 2
        )
        #: row 0 counts forks; forked process n adds into row n
        self._row = 0
        self._saved: List[Tuple[object, str, Callable]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- install / remove ------------------------------------------------------

    def install(self) -> None:
        for layer, path, attr, blocking in TARGETS:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, attr, original, blocking))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _after_fork(self) -> None:
        # a forked worker: claim the next shared row, start from zero
        self._shared[0, 0, 0] += 1
        self._row = int(self._shared[0, 0, 0])
        self._totals = defaultdict(lambda: [0, 0])
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- the span --------------------------------------------------------------

    def _wrap(self, layer, name, fn, blocking):
        key = (layer, name)
        wall = time.perf_counter_ns
        cpu = time.thread_time_ns

        def span(*args, **kwargs):
            # looks `self` up afresh: a forked child swaps its state
            stack = self._stack()
            outermost = not stack
            stack.append([0, 0])          # children's [wall, busy] ns
            c0 = cpu() if blocking or (outermost and self._row) else 0
            t0 = wall()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = wall() - t0
                busy = cpu() - c0 if blocking else dt
                child_wall, child_busy = stack.pop()
                own = busy - (child_busy if blocking else child_wall)
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] += busy
                self._add(key, own)
                if outermost and self._row:
                    self._flush((cpu() - c0) / dt if dt else 1.0)

        span.__wrapped__ = fn
        return span

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _add(self, key, own_ns: int) -> None:
        with self._lock:
            slot = self._totals[key]
            slot[0] += own_ns
            slot[1] += 1

    def _flush(self, on_cpu: float) -> None:
        """A forked worker's outermost span closed: add what it recorded
        to this process's shared row.  Two workers share one CPU, so a
        span's wall time includes waiting for it; the outermost span's
        CPU share ``on_cpu`` scales everything recorded under it."""
        with self._lock:
            row = self._shared[min(self._row, _MAX_PROCS - 1)]
            for k, (ns, calls) in self._totals.items():
                row[self._index[k], 0] += int(ns * min(on_cpu, 1.0))
                row[self._index[k], 1] += calls
            self._totals.clear()

    # -- read-out --------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (call with nothing in flight)."""
        with self._lock:
            self._totals.clear()
            self._shared[1:] = 0

    def totals(self) -> Dict[Tuple[str, str], Tuple[int, int]]:
        """(layer, function) -> (self ns, calls), workers included."""
        with self._lock:
            out = {k: (v[0], v[1]) for k, v in self._totals.items()}
        forked = self._shared[1:].sum(axis=0)
        for key, i in self._index.items():
            ns, calls = int(forked[i, 0]), int(forked[i, 1])
            if calls:
                have = out.get(key, (0, 0))
                out[key] = (have[0] + ns, have[1] + calls)
        return out
