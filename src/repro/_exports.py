"""Package re-exports that load their submodule on first access (PEP 562).

A package lists its public names in one table, name -> relative module
(``{"Session": ".session"}``), and binds the two hooks this module
builds::

    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``from repro.sim import Session`` then imports ``repro.sim.session``
and nothing else of ``repro.sim``, so importing a package costs only the
submodules a caller names. A resolved name is stored in the module's
namespace, so later lookups never reach ``__getattr__`` again.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping
from importlib import import_module
from typing import Any


def lazy_exports(
    module: str, exports: Mapping[str, str],
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` hooks of ``module``.

    ``exports`` maps each exported name to the module that defines it,
    as a relative import path anchored at ``module``'s package.
    """
    namespace = vars(sys.modules[module])
    anchor = namespace["__package__"]

    def __getattr__(name: str) -> Any:
        source = exports.get(name)
        if source is None:
            raise AttributeError(
                f"module {module!r} has no attribute {name!r}")
        value = getattr(import_module(source, anchor), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
