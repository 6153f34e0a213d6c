"""Lazy package exports (PEP 562).

A package ``__init__`` names its public surface in one table instead of
importing every submodule up front::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.cost.report": ("CostReport", "FeasibilityCheck"),
    })

``repro.cost.CostReport`` then imports :mod:`repro.cost.report` on first
access and caches the value in the package namespace, so a process pays
only for the submodules it touches. The table is the package's only
export list: ``__all__`` is its names, in table order.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """The module ``__getattr__``, ``__dir__`` and ``__all__`` serving ``table``.

    ``table`` maps each submodule to the names the package re-exports
    from it.
    """
    owners = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return __getattr__, __dir__, list(owners)
