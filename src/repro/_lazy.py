"""PEP 562 lazy exports for a package ``__init__``."""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The package's ``__getattr__`` and ``__dir__`` over ``exports``.

    ``exports`` maps each exported name to the submodule of ``package``
    that defines it. The first read of a name imports that submodule and
    binds the name on the package, so the hook runs at most once per name
    and importing the package loads none of the submodules.
    """

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module}", package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
