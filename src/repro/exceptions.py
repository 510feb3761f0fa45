"""Exception hierarchy for the repro library.

Everything raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors.
"""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class GeometryError(ReproError, ValueError):
    """A stripe geometry or cell coordinate is invalid."""


class DecodeError(ReproError):
    """Erasure decoding failed (too many failures, or a stuck chain)."""

    def __init__(self, message: str, unrecovered=()):
        super().__init__(message)
        #: Cells that could not be recovered (possibly empty).
        self.unrecovered = tuple(unrecovered)


class FaultToleranceExceeded(DecodeError):
    """More concurrent failures than the code tolerates."""


class InconsistentStripeError(ReproError):
    """Parity does not match data — silent corruption, never auto-repaired."""


class UnrecoverableStripeError(DecodeError):
    """A stripe lost more elements than its code can decode.

    Raised by the volume's stripe loader (and therefore by degraded
    reads, rebuilds and scrubs) instead of surfacing raw decoder or disk
    errors; identifies the stripe and the cells that stayed lost.
    """

    def __init__(self, stripe: int, cells=(), reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(
            f"stripe {stripe} is unrecoverable "
            f"({len(tuple(cells))} cells lost){detail}",
            unrecovered=cells,
        )
        self.stripe = stripe


class DiskFailedError(ReproError):
    """An I/O was issued against a disk marked failed."""


class TransientIOError(ReproError):
    """A read or write failed transiently; a retry may succeed.

    This is the controller-retryable fault class (bus glitches, command
    timeouts) as opposed to :class:`LatentSectorError`, which persists
    until the sector is rewritten.
    """

    def __init__(self, disk_id: int, op: str, offset: int):
        super().__init__(
            f"transient {op} error on disk {disk_id} at offset {offset}"
        )
        self.disk_id = disk_id
        self.op = op
        self.offset = offset


class SimulatedCrashError(ReproError):
    """The fault injector crashed the array mid-operation (power loss).

    Whatever operation was in flight is torn: some elements written, the
    rest (including parity updates) lost.  Recovery is the write-hole
    protocol — resync parity, then replay the interrupted write.
    """

    def __init__(self, op_index: int):
        super().__init__(f"simulated crash at disk op {op_index}")
        self.op_index = op_index


class LatentSectorError(ReproError):
    """A read hit an unreadable sector (medium error) on a live disk."""

    def __init__(self, disk_id: int, offset: int):
        super().__init__(
            f"latent sector error on disk {disk_id} at offset {offset}"
        )
        self.disk_id = disk_id
        self.offset = offset


class TornWriteError(ReproError):
    """A crashed write left a stripe in a state recovery cannot resolve.

    Raised by :class:`~repro.journal.recovery.CrashRecovery` when an open
    write intent meets a stripe whose surviving cells cannot be trusted —
    e.g. a non-dirty data cell is lost *and* the parity it would decode
    from is itself torn.  Names the stripe and the intent's sequence
    number so the operator knows exactly which update was lost.
    """

    def __init__(self, stripe: int, seq: int, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(
            f"torn write on stripe {stripe} (intent seq {seq}) cannot be "
            f"resolved to a consistent image{detail}"
        )
        self.stripe = stripe
        self.seq = seq


class JournalReplayError(ReproError):
    """Replaying a journaled write intent failed mid-recovery.

    Wraps the underlying error (decoder failure, disk death under the
    replay, ...) and names the stripe and intent sequence number, so a
    recovery driver can report precisely which intent did not land.
    """

    def __init__(self, stripe: int, seq: int, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(
            f"journal replay of stripe {stripe} (intent seq {seq}) "
            f"failed{detail}"
        )
        self.stripe = stripe
        self.seq = seq


class AddressError(ReproError, ValueError):
    """A logical address or length falls outside the volume."""


class ShardCrashedError(ReproError):
    """A shard worker process died (EOF / broken pipe mid-batch).

    Raised by :class:`~repro.serve.shard.ProcessShard` instead of leaking
    raw :class:`EOFError` / :class:`BrokenPipeError` out of the serving
    path.  The batch that was in flight may be partially applied; in
    durable-ack mode none of it was acknowledged, so clients retry it
    safely.  The :class:`~repro.serve.supervisor.SupervisedShard` catches
    this, restarts the worker from its spec, and lets the coalescer
    answer the affected ops with a typed RETRY status.
    """

    def __init__(self, shard: str, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"shard worker {shard} crashed{detail}")
        self.shard = shard


class ShardTimeoutError(ReproError):
    """A shard worker missed its per-batch deadline (hung or stalled).

    Raised by :class:`~repro.serve.shard.ProcessShard.execute` when the
    worker does not answer within the configured ``recv_timeout`` (or the
    batch's propagated request deadline).  After a timeout the pipe may
    hold a stale late reply, so the shard must be restarted before it is
    used again — the supervisor does exactly that.
    """

    def __init__(self, shard: str, timeout_s: float):
        super().__init__(
            f"shard worker {shard} missed its {timeout_s:.3g}s batch "
            f"deadline"
        )
        self.shard = shard
        self.timeout_s = timeout_s
