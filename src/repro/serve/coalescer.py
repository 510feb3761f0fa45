"""Per-shard request coalescing.

Each shard gets one deque, joined to its backend by callbacks rather
than tasks.  ``submit_nowait`` appends and, when the shard is idle,
schedules one ``_dispatch`` for the end of the current loop iteration —
so everything one socket read carried rides one batch.  ``_dispatch``
hands whatever has accumulated (up to ``max_batch`` ops) to the backend
as one batch; its completion resolves the op futures and dispatches the
next batch at once.  Queueing pressure thus *translates into batch
size*: at low load every op runs alone with minimal latency, under load
bursts grow and ride the volume's batched RMW / bulk-read / destage
paths — the classic group commit dynamic, applied to block serving.
``max_batch=1`` degrades to uncoalesced per-op dispatch, the serial
baseline the serving benchmark measures against.

How a batch reaches the backend depends on whether it exposes a pipe
(``fileno``):

* a **process** backend is driven from the event loop itself.
  ``_dispatch`` stages the batch and sends its descriptor frame
  (``backend.submit``); a reader registered on the incarnation's pipe
  once, not per batch, takes the reply (``backend.collect``) — two
  wake-ups per batch, to the worker and back.  The same reader sees EOF
  the moment a worker dies, busy or idle.  The batch timeout is one
  ``call_later``, and a backend with a ``heartbeat_s`` gets an empty
  batch through the same path whenever a period passes with the shard
  idle;
* a synchronous in-process backend (:class:`InlineShard`) runs on a
  single-thread executor, its completion handed back with one
  ``call_soon_threadsafe``.

Either way one batch per shard is in flight, which is the shard's
serialisation guarantee (backends are never entered concurrently) while
the event loop stays free to accept frames during volume work.

Fault semantics are *typed per batch*:

* an op whose request deadline expired while it was still queued is
  dropped before dispatch and answered DEADLINE — it never touched a
  volume, so re-issuing it is trivially safe;
* a batch that dies under a shard crash or batch timeout
  (:class:`~repro.exceptions.ShardCrashedError` /
  :class:`~repro.exceptions.ShardTimeoutError`) answers every op RETRY
  — nothing was acknowledged, clients back off and re-issue.  A process
  backend is recovered first (``backend.recover``, off the loop: kill,
  join, ring retired, fork), with the old pipe unwatched, so RETRY goes
  out only once the replacement serves and no late reply of the old
  incarnation is ever read;
* any other backend exception answers every op ERROR (a real fault,
  not worth retrying).

The tightest deadline in a batch becomes the batch's execution deadline:
the process backend's timeout, or the deadline handed to an in-process
backend's ``execute``.
"""

from __future__ import annotations

import asyncio
import cProfile
import functools
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

#: How long an idle worker has to answer a heartbeat.
PING_TIMEOUT_S = 1.0


def release_payloads(results: List[ShardResult]) -> None:
    """Nobody will consume these results: their ring slices go back to
    the ring now, not at its retirement."""
    for _, payload in results:
        if hasattr(payload, "release"):
            payload.release()


def _fanout(status: int, exc: BaseException, batch: List[_Item]):
    return [(status, str(exc).encode()) for _ in batch]


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
        #: clear while a ``_dispatch`` is scheduled, a batch is in
        #: flight or a recovery runs; whoever sets it has found
        #: ``_pending`` empty
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = False
        self._loop: "asyncio.AbstractEventLoop | None" = None
        #: a backend with a pipe is driven from the loop; anything else
        #: runs on one executor thread
        self._piped = hasattr(backend, "fileno")
        self._executor = (
            None if self._piped else ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-shard"
            )
        )
        # loop-driven state: the batch awaiting its reply, its timeout,
        # the watched pipe, the off-loop restart, the heartbeat timer
        self._inflight = None
        self._timer: "asyncio.TimerHandle | None" = None
        self._fd: Optional[int] = None
        self._recovery: "asyncio.Future | None" = None
        self._beat: "asyncio.TimerHandle | None" = None
        # the loop thread is profiled whole by the server; only the
        # executor thread gets a profile of its own
        self._profile_path = profile_path
        self._profile = (
            cProfile.Profile()
            if profile_path is not None and not self._piped else None
        )

    def start(self) -> None:
        """Bind to the running loop; a process backend's pipe is
        watched and its heartbeat armed from here on."""
        self._loop = asyncio.get_running_loop()
        if self._piped:
            self._watch()
            period = getattr(self.backend, "heartbeat_s", 0.0)
            if period > 0:
                self._beat = self._loop.call_later(
                    period, self._heartbeat, period
                )

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

    def _dispatch(self) -> None:
        """Send the next batch to the backend, or go idle."""
        if self._recovery is not None:
            return  # the recovery's completion dispatches
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
                if self._piped:
                    self._send(live, self.backend.timeout_for(batch_deadline))
                else:
                    self._executor.submit(self._run, live, batch_deadline)
                return
        self._idle.set()

    # -- a process backend, driven from the loop -------------------------------

    def _watch(self) -> None:
        """Wait on the live incarnation's pipe (none once it is retired)."""
        try:
            fd = self.backend.fileno()
        except OSError:  # retired: out of service, nothing to wait on
            return
        self._loop.add_reader(fd, self._on_readable)
        self._fd = fd

    def _unwatch(self) -> None:
        if self._fd is not None:
            self._loop.remove_reader(self._fd)
            self._fd = None

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _send(self, batch: List[_Item], timeout: Optional[float]) -> None:
        """Loop thread: stage the batch and send its frame; the pipe's
        reader takes the reply, the timer its absence."""
        try:
            staged = self.backend.submit([op for op, _, _ in batch])
        except (ShardCrashedError, ShardTimeoutError) as exc:
            self._fail(batch, exc)
            return
        except Exception as exc:  # noqa: BLE001 — per-op ERROR fanout
            results = _fanout(ST_ERROR, exc, batch)
        else:
            if staged.sent:
                self._inflight = (batch, staged)
                if timeout is not None:
                    self._timer = self._loop.call_later(
                        timeout, self._on_timeout, timeout
                    )
                return
            results = self.backend.collect(staged)  # all answered BUSY
        # answered without the worker: complete next iteration, so a run
        # of such batches never recurses through _dispatch
        self._loop.call_soon(self._complete, batch, results)

    def _on_readable(self) -> None:
        """Loop thread: the in-flight batch's reply is in — or, with
        none in flight, the worker is gone (EOF)."""
        inflight, self._inflight = self._inflight, None
        if inflight is None:
            self._fail([], ShardCrashedError(
                self.backend.name, "worker died between batches"
            ))
            return
        self._cancel_timer()
        batch, staged = inflight
        try:
            results = self.backend.collect(staged)
        except (ShardCrashedError, ShardTimeoutError) as exc:
            self._fail(batch, exc)
            return
        except Exception as exc:  # noqa: BLE001 — per-op ERROR fanout
            results = _fanout(ST_ERROR, exc, batch)
        self._complete(batch, results)

    def _on_timeout(self, timeout: float) -> None:
        self._timer = None
        batch, _ = self._inflight
        self._inflight = None
        self._fail(batch, ShardTimeoutError(self.backend.name, timeout))

    def _heartbeat(self, period: float) -> None:
        """Send an idle shard an empty batch; a busy one is proof of
        liveness already, and its batch timeout covers a hang."""
        self._beat = self._loop.call_later(period, self._heartbeat, period)
        if self._idle.is_set() and not self._closed:
            self._idle.clear()
            self._send([], PING_TIMEOUT_S)

    def _fail(self, batch: List[_Item], exc) -> None:
        """Loop thread: the incarnation is done for.  Stop watching its
        pipe (a late reply is never read) and recover the backend off
        the loop; ``batch`` is answered when that returns."""
        self._cancel_timer()
        self._unwatch()
        self._idle.clear()
        self._recovery = self._loop.run_in_executor(
            None, self.backend.recover, exc
        )
        self._recovery.add_done_callback(
            functools.partial(self._recovered, batch, exc)
        )

    def _recovered(self, batch: List[_Item], exc, future) -> None:
        """Loop thread: the replacement serves — answer RETRY (ERROR if
        the recovery itself failed), then dispatch what queued up."""
        self._recovery = None
        error = future.exception()
        if self._closed:
            return
        self._watch()
        if error is None:
            self.retried_ops += len(batch)
            results = _fanout(ST_RETRY, exc, batch)
        else:
            results = _fanout(ST_ERROR, error, batch)
        self._complete(batch, results)

    # -- an in-process backend, on the executor thread -------------------------

    def _execute(self, ops, deadline):
        """Run one batch on the executor thread (profiled if asked)."""
        if self._profile is None:
            return self.backend.execute(ops, deadline=deadline)
        self._profile.enable()
        try:
            return self.backend.execute(ops, deadline=deadline)
        finally:
            self._profile.disable()

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
            # nothing in this batch was acknowledged → typed RETRY
            self.retried_ops += len(ops)
            results = _fanout(ST_RETRY, exc, batch)
        except Exception as exc:  # noqa: BLE001 — per-op ERROR fanout
            results = _fanout(ST_ERROR, exc, batch)
        try:
            self._loop.call_soon_threadsafe(self._complete, batch, results)
        except RuntimeError:  # the loop closed under a hard stop
            release_payloads(results)

    # -- both ------------------------------------------------------------------

    def _complete(self, batch: List[_Item], results) -> None:
        """Loop thread: answer one finished batch, dispatch the next."""
        if self._closed:
            # a batch that lands after a hard stop has no consumers
            release_payloads(results)
            return
        if batch:  # not a heartbeat
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
        queued are dropped (their futures stay pending).  A batch in
        flight is left to the backend's ``close``, which answers it
        first (a process backend) or runs after it on the executor (an
        in-process one); its results are released either way."""
        self._closed = True
        self._pending.clear()
        if self._beat is not None:
            self._beat.cancel()
        self._cancel_timer()
        self._unwatch()
        self._inflight = None
        if self._recovery is not None:
            # restart and close must not touch the worker at once
            await asyncio.wait([self._recovery])
        await asyncio.get_running_loop().run_in_executor(
            self._executor, self.backend.close
        )
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._profile is not None:
            self._profile.dump_stats(self._profile_path)
            self._profile = None
