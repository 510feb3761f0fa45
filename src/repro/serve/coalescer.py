"""Per-shard request coalescing.

Each shard gets one deque and one single-thread executor, joined by
callbacks rather than tasks.  ``submit_nowait`` appends and, when the
shard is idle, schedules one ``_dispatch`` for the end of the current
loop iteration — so everything one socket read carried rides one batch.
``_dispatch`` hands whatever has accumulated (up to ``max_batch`` ops)
to the backend in a single ``execute`` call; its completion comes back
with one ``call_soon_threadsafe`` that resolves the op futures and
dispatches the next batch at once.  Queueing pressure thus *translates
into batch size*: at low load every op runs alone with minimal latency,
under load bursts grow and ride the volume's batched RMW / bulk-read /
destage paths — the classic group commit dynamic, applied to block
serving.  ``max_batch=1`` degrades to uncoalesced per-op dispatch, the
serial baseline the serving benchmark measures against.

The single-thread executor doubles as the shard's serialisation
guarantee (backends are never entered concurrently) while keeping the
event loop free to accept frames during volume work.

Fault semantics are *typed per batch*:

* an op whose request deadline expired while it was still queued is
  dropped before dispatch and answered DEADLINE — it never touched a
  volume, so re-issuing it is trivially safe;
* a batch that dies under a shard crash or batch timeout
  (:class:`~repro.exceptions.ShardCrashedError` /
  :class:`~repro.exceptions.ShardTimeoutError`, typically after the
  supervisor already restarted the worker) answers every op RETRY —
  nothing was acknowledged, clients back off and re-issue;
* any other backend exception answers every op ERROR (a real fault,
  not worth retrying).

The tightest deadline in a batch becomes the batch's execution deadline,
propagated into :meth:`ProcessShard.execute`'s guarded recv.
"""

from __future__ import annotations

import asyncio
import cProfile
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, List, Optional, Tuple

from repro.exceptions import ShardCrashedError, ShardTimeoutError
from repro.serve.protocol import ST_DEADLINE, ST_ERROR, ST_RETRY
from repro.serve.shard import ShardOp, ShardResult
from repro.util.validation import require_positive

#: One queued item: (op, future, absolute monotonic deadline or None).
_Item = Tuple[ShardOp, "asyncio.Future", Optional[float]]


def release_payloads(results: List[ShardResult]) -> None:
    """Nobody will consume these results: their ring slices go back to
    the ring now, not at its retirement."""
    for _, payload in results:
        if hasattr(payload, "release"):
            payload.release()


class ShardQueue:
    """Deque + callbacks coalescing ops for one shard backend."""

    def __init__(
        self,
        backend,
        max_batch: int = 64,
        profile_path: Optional[str] = None,
    ) -> None:
        require_positive(max_batch, "max_batch")
        self.backend = backend
        self.max_batch = max_batch
        self.batches = 0
        self.batched_ops = 0
        self.retried_ops = 0
        self.deadline_drops = 0
        self._pending: Deque[_Item] = deque()
        #: clear while a ``_dispatch`` is scheduled or a batch is on the
        #: executor; whoever sets it has found ``_pending`` empty
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = False
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-shard"
        )
        self._profile_path = profile_path
        self._profile = (
            cProfile.Profile() if profile_path is not None else None
        )

    def start(self) -> None:
        """Bind to the running loop (idempotent)."""
        self._loop = asyncio.get_running_loop()

    def submit_nowait(
        self, op: ShardOp, deadline: Optional[float] = None
    ) -> "asyncio.Future":
        """Enqueue one shard-local op; the future resolves with its
        result.  Synchronous on purpose: the server enqueues a socket
        read's ops in arrival order before yielding to the loop, so two
        ops from one connection can never reorder on the way into a
        shard (the queue is unbounded; admission control is the bound).
        ``deadline`` is an absolute ``time.monotonic()`` instant: an op
        still queued past it is answered DEADLINE, not dispatched."""
        future = self._loop.create_future()
        self._pending.append((op, future, deadline))
        if self._idle.is_set():
            self._idle.clear()
            self._loop.call_soon(self._dispatch)
        return future

    def _execute(self, ops, deadline):
        """Run one batch on the executor thread (profiled if asked)."""
        if self._profile is None:
            return self.backend.execute(ops, deadline=deadline)
        self._profile.enable()
        try:
            return self.backend.execute(ops, deadline=deadline)
        finally:
            self._profile.disable()

    def _dispatch(self) -> None:
        """Send the next batch to the executor, or go idle."""
        pending = self._pending
        while pending and not self._closed:
            # expire ops whose deadline lapsed while they waited —
            # dropped strictly before dispatch, so DEADLINE always
            # means "never ran"
            now = time.monotonic()
            live: List[_Item] = []
            batch_deadline = None
            for _ in range(min(len(pending), self.max_batch)):
                item = pending.popleft()
                _, future, deadline = item
                if deadline is not None:
                    if deadline <= now:
                        self.deadline_drops += 1
                        if not future.cancelled():
                            future.set_result((ST_DEADLINE, b""))
                        continue
                    if batch_deadline is None or deadline < batch_deadline:
                        batch_deadline = deadline
                live.append(item)
            if live:
                self._executor.submit(self._run, live, batch_deadline)
                return
        self._idle.set()

    def _run(self, batch: List[_Item], deadline: Optional[float]) -> None:
        """Executor thread: one backend call, results back to the loop."""
        ops = [op for op, _, _ in batch]
        try:
            results = self._execute(ops, deadline)
            if len(results) != len(ops):  # pragma: no cover — bug guard
                raise RuntimeError(
                    f"backend answered {len(results)} results "
                    f"for {len(ops)} ops"
                )
        except (ShardCrashedError, ShardTimeoutError) as exc:
            # the supervisor (if any) already restarted the worker;
            # nothing in this batch was acknowledged → typed RETRY
            self.retried_ops += len(ops)
            results = [(ST_RETRY, str(exc).encode()) for _ in ops]
        except Exception as exc:  # noqa: BLE001 — per-op ERROR fanout
            results = [(ST_ERROR, str(exc).encode()) for _ in ops]
        try:
            self._loop.call_soon_threadsafe(self._complete, batch, results)
        except RuntimeError:  # the loop closed under a hard stop
            release_payloads(results)

    def _complete(self, batch: List[_Item], results) -> None:
        """Loop thread: answer one finished batch, dispatch the next."""
        if self._closed:
            # a batch that lands after a hard stop has no consumers
            release_payloads(results)
            return
        self.batches += 1
        self.batched_ops += len(batch)
        for (_, future, _), result in zip(batch, results):
            if not future.cancelled():
                future.set_result(result)
            else:
                release_payloads([result])
        self._dispatch()

    async def drain(self) -> None:
        """Wait until every op enqueued so far has been answered."""
        await self._idle.wait()

    async def close(self) -> None:
        """Stop dispatching and shut the backend down.  Ops still
        queued are dropped (their futures stay pending); a batch on the
        executor finishes there, ahead of the backend's ``close``, and
        its results are released."""
        self._closed = True
        self._pending.clear()
        await asyncio.get_running_loop().run_in_executor(
            self._executor, self.backend.close
        )
        self._executor.shutdown(wait=True)
        if self._profile is not None:
            self._profile.dump_stats(self._profile_path)
            self._profile = None
