"""Failure-recovery planning.

* :mod:`repro.recovery.planner` — single-disk-failure recovery: the
  conventional one-family plan versus the hybrid plan that mixes both
  parity families to maximise read overlap (Xu et al.'s result, which the
  paper's §III-D carries over to D-Code: ~25 % fewer disk reads).
* Double-failure chains live in :mod:`repro.codec.decoder` (the schedules
  are a by-product of chain decoding).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.recovery.planner": (
        "RecoveryPlan", "cached_conventional_plan", "cached_hybrid_plan",
        "conventional_plan", "hybrid_plan", "recovery_read_savings",
    ),
})

__all__ = [
    "RecoveryPlan",
    "cached_conventional_plan",
    "cached_hybrid_plan",
    "conventional_plan",
    "hybrid_plan",
    "recovery_read_savings",
]
