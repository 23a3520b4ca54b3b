"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

Importing a package runs only its ``__init__``.  A name the package
re-exports imports its module on first access and is then kept in the
package's namespace, so ``from repro import DewSimulator`` loads the DEW
simulator and what it imports, and nothing else.  Each package builds its
module ``__getattr__``, ``__dir__`` and ``__all__`` with :func:`lazy_exports`
from one table mapping each module, named as for
:func:`importlib.import_module` (relative names start with a dot), to the
names it re-exports::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".config": ("CacheConfig", "ConfigSpace"),
        ".dew": ("DewSimulator",),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str,
    exports: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """The ``(__getattr__, __dir__, __all__)`` of a lazily re-exporting package.

    ``exports`` maps a module (``.config`` is ``package.config``) to the
    names it re-exports; ``submodules`` are modules of ``package`` reachable
    as attributes (``repro.trace`` after ``import repro``).  ``__all__``
    lists the re-exported names, so ``from package import *`` imports every
    module of the table.
    """
    owners: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    children = {name: f".{name}" for name in submodules}

    def __getattr__(name: str) -> Any:
        if name in owners:
            value = getattr(importlib.import_module(owners[name], package), name)
        elif name in children:
            value = importlib.import_module(children[name], package)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners) | set(children))

    return __getattr__, __dir__, list(owners)
