"""Package exports loaded on first use (PEP 562).

Every package ``__init__`` declares, once, which submodule defines each
public name and takes ``__getattr__``, ``__dir__`` and ``__all__`` from
:func:`lazy_exports`::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "atom": "AtomCatalogue AtomKind",
        "library": "SILibrary",
    })

Importing a package imports none of its submodules, so importing a
submodule loads only that submodule's own imports.  The first access to
a name imports its submodule and caches the value on the package.  An
attribute that names a submodule imports it, as an eager
``from .atom import ...`` used to bind ``package.atom``.  No package
exports a name that is also one of its submodules' names
(``tests/test_exports.py``): ``import package.sub as m`` must bind the
module whichever was imported first.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping
from typing import Any


def lazy_exports(
    package: str, homes: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``; ``homes`` maps
    each submodule to the space-separated names it exports."""
    owner = {name: module for module, names in homes.items() for name in names.split()}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is not None:
            value = getattr(importlib.import_module(f"{package}.{module}"), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*namespace, *owner})

    return __getattr__, __dir__, sorted(owner)
