"""Crash-consistency subsystem: write-intent journal + mount recovery.

Closes the RAID-6 *write hole* (``docs/robustness.md``, "Crash
consistency"): a :class:`WriteIntentLog` records stripe-level intents
before any destructive write and commits them once the write lands, and
:class:`CrashRecovery` replays whatever a crash left open so every
interrupted write resolves to the fully-old or fully-new stripe image —
never a mix.

Attach a journal at construction time::

    from repro import RAID6Volume, DCode
    from repro.journal import WriteIntentLog, CrashRecovery

    volume = RAID6Volume(DCode(7), journal=WriteIntentLog())
    ...                         # writes are intent-logged transparently
    CrashRecovery(volume).run() # on "mount" after a simulated crash

``journal=None`` (the default) disables intent logging entirely and
keeps the write paths byte- and counter-identical to the unjournaled
volume.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.journal.intent": (
        "JOURNAL_PHASES", "GroupFrame", "JournalStats", "WriteIntent",
        "WriteIntentLog",
    ),
    "repro.journal.recovery": (
        "CrashRecovery", "IntentOutcome", "RecoveryReport", "parity_digest",
        "recover_on_mount",
    ),
})

__all__ = [
    "CrashRecovery",
    "GroupFrame",
    "IntentOutcome",
    "JOURNAL_PHASES",
    "JournalStats",
    "RecoveryReport",
    "WriteIntent",
    "WriteIntentLog",
    "parity_digest",
    "recover_on_mount",
]
