"""Lazy re-exports for package namespaces (PEP 562).

A package ``__init__`` hands :func:`attach` the public names each of its
submodules defines and gets back a module-level ``__getattr__``,
``__dir__`` and ``__all__``.  Nothing is imported until a name is first
read: ``import repro.measure.stats`` runs ``repro/measure/__init__.py``
without importing the sweep engine, the simulator and numpy on the way,
while ``from repro.measure import SweepEngine`` works as it always has.
A resolved name is stored in the package namespace, so later reads are
plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

#: package -> re-exported name -> the submodule that defines it.
EXPORTS: Dict[str, Dict[str, str]] = {}


class _LazyPackage(types.ModuleType):
    """A package whose re-exports win over submodules of the same name.

    Importing a submodule binds it on its package.  ``repro.obs``
    re-exports the function ``diagnose`` of its submodule
    ``repro.obs.diagnose``; an eager ``__init__`` rebound the function
    over the submodule at once.  Here the binding itself resolves to the
    export, so ``repro.obs.diagnose`` is the function whatever was
    imported first.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if (
            isinstance(value, types.ModuleType)
            and EXPORTS.get(self.__name__, {}).get(name) == value.__name__
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


def attach(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """Re-export submodule names from ``package`` on first access.

    Args:
        package: the package's ``__name__``.
        exports: submodule name (relative to the package) -> the public
            names it defines.

    Returns:
        ``(__getattr__, __dir__, __all__)`` for the package namespace.
    """
    origins = {
        name: f"{package}.{submodule}"
        for submodule, names in exports.items()
        for name in names
    }
    EXPORTS[package] = origins
    module = sys.modules[package]
    module.__class__ = _LazyPackage

    def __getattr__(name: str) -> object:
        try:
            origin = origins[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(origin), name)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(module)) | set(origins))

    return __getattr__, __dir__, sorted(origins)
