"""Block codec: turn a :class:`~repro.codes.base.CodeLayout` into bytes-level
encode / decode / update operations on numpy stripe buffers.

* :class:`~repro.codec.encoder.StripeCodec` — encode, verify, erase.
* :mod:`~repro.codec.decoder` — iterative chain decoding with recovery
  schedules (the paper's §III-C reconstruction).
* :mod:`~repro.codec.gauss` — Gaussian-elimination decoding oracle that
  works for every XOR code, including EVENODD's adjuster coupling.
* :mod:`~repro.codec.update` — read-modify-write delta updates of single
  data elements (the paper's update-complexity path).
* :mod:`~repro.codec.plan` — compiled gather-XOR execution plans (flat
  index schedules cached per ``(layout, element_size)``).
* :mod:`~repro.codec.batch` — the batched multi-stripe API
  (``encode_batch`` / ``decode_batch`` / ``update_batch``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.codec.batch": (
        "blank_batch", "decode_batch", "encode_batch", "random_batch",
        "update_batch",
    ),
    "repro.codec.decoder": (
        "ChainDecoder", "RecoveryStep", "can_chain_recover",
    ),
    "repro.codec.encoder": ("StripeCodec",),
    "repro.codec.gauss": ("GaussianDecoder", "can_recover"),
    "repro.codec.plan": ("CompiledPlans", "XorPlan", "compiled_plans"),
    "repro.codec.update": ("apply_update", "update_footprint"),
})

__all__ = [
    "ChainDecoder",
    "CompiledPlans",
    "GaussianDecoder",
    "RecoveryStep",
    "StripeCodec",
    "XorPlan",
    "apply_update",
    "blank_batch",
    "can_chain_recover",
    "can_recover",
    "compiled_plans",
    "decode_batch",
    "encode_batch",
    "random_batch",
    "update_batch",
    "update_footprint",
]
