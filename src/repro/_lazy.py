"""Lazy package exports (PEP 562).

A package ``__init__`` that imports its whole subtree makes every
process pay for modules it never runs — a shard worker serving one
D-Code volume used to load every registry code, the timing model and
the figure harness.  :func:`lazy_exports` gives a package the same
public names (``from repro import RAID6Volume``, ``from repro import *``,
``repro.array.volume``) resolved on first use instead.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module ``__getattr__`` / ``__dir__`` for ``package``.

    ``exports`` maps a module path to the names it contributes.  A name
    resolves by importing its module, and is then stored on the package
    so later lookups never come back here; any other attribute is tried
    as a submodule, which keeps ``package.submodule`` working without an
    explicit import, as it did when ``__init__`` imported everything.
    """
    where = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str):
        missing = AttributeError(
            f"module {package!r} has no attribute {name!r}"
        )
        module = where.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("_"):
            raise missing
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise  # the submodule exists; something it needs does not
                raise missing from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
