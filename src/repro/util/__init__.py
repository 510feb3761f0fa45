"""Shared low-level utilities: primality, argument validation, XOR engine."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.util.primes": (
        "is_prime", "next_prime", "previous_prime", "primes_in_range",
    ),
    "repro.util.validation": (
        "require", "require_index", "require_positive", "require_prime",
        "require_type",
    ),
    "repro.util.xor": ("xor_accumulate", "xor_blocks", "xor_into"),
})

__all__ = [
    "is_prime",
    "next_prime",
    "previous_prime",
    "primes_in_range",
    "require",
    "require_index",
    "require_positive",
    "require_prime",
    "require_type",
    "xor_accumulate",
    "xor_blocks",
    "xor_into",
]
