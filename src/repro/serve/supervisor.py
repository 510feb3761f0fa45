"""Shard supervision: typed failure, restart-from-spec, a restart budget.

A :class:`ProcessShard` converts worker death and hangs into typed
errors, but somebody has to *act* on them — that is the
:class:`SupervisedShard`.  It wraps a process shard and

* **restarts on failure**: a batch that fails with
  :class:`~repro.exceptions.ShardCrashedError` or
  :class:`~repro.exceptions.ShardTimeoutError` goes to :meth:`recover`,
  which restarts the worker from the (chaos-cleared) spec; the
  coalescer answers the affected ops RETRY once that returns, so by the
  time the client's backoff expires the replacement worker is already
  serving.  In durable mode the replacement reloads its state file (a
  volume image) and replays the ack-intent ledger, so no acknowledged write
  is lost.  The restart also cycles the shard's shared-memory payload
  ring: the parent retires the old segment (unlinked at once, unmapped
  when the last in-flight response slice is released) and the
  replacement worker inherits a fresh one — a SIGKILLed worker can
  never leak a ``/dev/shm`` segment, because only the parent ever owns
  one.
* **budgets restarts**: the shard's ``max_restarts``-th failure (the
  count is cumulative over its lifetime) retires the incarnation
  without forking a replacement and flips the shard to *failed*;
  further batches raise a plain :class:`~repro.exceptions.ReproError`
  (→ ERROR, not RETRY) so clients stop hammering a shard that cannot
  stay up.

Health checks ride the same pipe: the coalescer waits on
:meth:`fileno` from its event loop, so a worker that dies between
batches is noticed at once, and every ``heartbeat_s`` it sends an idle
shard an empty batch, which catches a worker that hangs while idle.
Batches are serialised by the caller (the coalescer keeps one in
flight), so nothing here takes a lock.
"""

from __future__ import annotations

from typing import List, Optional

from repro.exceptions import (
    ReproError,
    ShardCrashedError,
    ShardTimeoutError,
)
from repro.serve.shard import ProcessShard, ShardOp, ShardResult, ShardSpec


class SupervisedShard:
    """A :class:`ProcessShard` under restart policy and a restart budget."""

    def __init__(
        self,
        spec: ShardSpec,
        recv_timeout: Optional[float] = None,
        heartbeat_s: float = 0.0,
        max_restarts: int = 8,
    ) -> None:
        self.spec = spec
        self.max_restarts = max_restarts
        #: idle-heartbeat period the driving coalescer keeps (0 = none)
        self.heartbeat_s = heartbeat_s
        self.crashes = 0
        self.timeouts = 0
        self._shard = ProcessShard(spec, recv_timeout=recv_timeout)

    # -- introspection ---------------------------------------------------------

    @property
    def restarts(self) -> int:
        """Replacement workers forked so far."""
        return self._shard.restarts

    @property
    def failed(self) -> bool:
        """True once the restart budget is exhausted."""
        return self.crashes + self.timeouts >= self.max_restarts

    @property
    def name(self) -> str:
        return self._shard.name

    def alive(self) -> bool:
        return self._shard.alive()

    # -- the serving path ------------------------------------------------------

    def fileno(self) -> int:
        return self._shard.fileno()

    def timeout_for(self, deadline: Optional[float]) -> Optional[float]:
        return self._shard.timeout_for(deadline)

    def _require_service(self) -> None:
        if self.failed:
            raise ReproError(
                f"shard exhausted its restart budget "
                f"({self.max_restarts}) and is out of service"
            )

    def submit(self, ops: List[ShardOp]):
        """Send one batch (see :meth:`ProcessShard.submit`)."""
        self._require_service()
        return self._shard.submit(ops)

    def collect(self, batch) -> List[ShardResult]:
        return self._shard.collect(batch)

    def recover(self, exc: ReproError) -> None:
        """Count the failure ``exc`` and restart the worker — or, when
        this failure spends the budget, retire it and fork nothing."""
        if isinstance(exc, ShardTimeoutError):
            self.timeouts += 1
        else:
            self.crashes += 1
        if self.failed:
            self._shard.retire()
        else:
            self._shard.restart()

    def execute(
        self, ops: List[ShardOp], deadline: Optional[float] = None
    ) -> List[ShardResult]:
        """Run one batch; on crash/timeout, recover and re-raise typed.

        The re-raised :class:`ShardCrashedError` /
        :class:`ShardTimeoutError` tells the caller to answer the
        batch's ops with RETRY — the restart has already happened, so
        the retried ops land on the fresh worker.
        """
        self._require_service()
        try:
            return self._shard.execute(ops, deadline=deadline)
        except (ShardCrashedError, ShardTimeoutError) as exc:
            self.recover(exc)
            raise

    # -- chaos hooks -----------------------------------------------------------

    def kill(self) -> None:
        """Parent-side SIGKILL of the current worker (chaos harness)."""
        self._shard.kill()

    # -- shutdown --------------------------------------------------------------

    def close(self) -> None:
        self._shard.close()
