"""Guard: every ``__all__`` in ``repro`` names something the project reads.

Every name in the ``__all__`` of every module under ``src/repro`` must be
read by some ``.py`` file under ``src/repro``, ``benchmarks/``,
``examples/`` or ``perfbench/``. Tests do not count, since code that only
its own test runs is dead weight. A read is an identifier in the code (a
name, an attribute, or a part of an import), a dotted ``"repro.…"``
string constant (a task spec such as
``fn="repro.experiments.accuracy.run_table2_cell"``), or registration
with ``@register_forecaster``, since forecasters are reached by registry
name. A name's own ``def``/``class`` line or assignment is not a read,
and neither is an import in a package ``__init__.py``: re-exporting a
name does not use it.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
USER_DIRS = ("src/repro", "benchmarks", "examples", "perfbench")
DOTTED = re.compile(r"repro(\.\w+)+")

#: ``<subpackage>.<name>`` exports nothing reads, each kept for a reason
ALLOWED_UNREFERENCED = {
    "nn.dtype_policy": "substrate entry point: scoped dtype switch for float32 serving",
    "nn.set_default_seed": "substrate entry point: seeds every layer built with rng=None",
    "models.holt_linear": "test oracle of HoltForecaster's vectorized grid fit and predict",
    "data.pearson": "paper eq. (2); the oracle of correlation_matrix",
    "obs.use_registry": "test seam: substitutes a registry for a block",
    "obs.use_clock": "test seam: substitutes a deterministic clock for a block",
}


def _reads(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    reexports = path.name == "__init__.py"
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
            for alias in node.names:
                names.update(alias.name.split("."))
            if isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                names.update(node.value.split("."))
        elif isinstance(node, ast.ClassDef | ast.FunctionDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) == "register_forecaster":
                    names.add(node.name)
    return names


@pytest.fixture(scope="module")
def referenced() -> set[str]:
    names: set[str] = set()
    for d in USER_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            names |= _reads(path)
    return names


def _modules() -> list[str]:
    mods = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        mods.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return mods


def _exports() -> list[tuple[str, str, str]]:
    """(module, name, allowlist key ``<subpackage>.<name>``) per ``__all__`` entry."""
    out = []
    for mod in _modules():
        sub = mod.split(".")[1] if "." in mod else mod
        for name in getattr(importlib.import_module(mod), "__all__", ()):
            out.append((mod, name, f"{sub}.{name}"))
    return out


def test_every_export_has_a_user(referenced):
    unused = sorted(
        {
            f"{mod}.{name}"
            for mod, name, key in _exports()
            if name not in referenced and key not in ALLOWED_UNREFERENCED
        }
    )
    assert not unused, f"exported but read nowhere outside tests: {unused}"


def test_allowlist_entries_are_exported_and_unreferenced(referenced):
    exported = {key for _, _, key in _exports()}
    stale = [
        key
        for key in ALLOWED_UNREFERENCED
        if key not in exported or key.split(".", 1)[1] in referenced
    ]
    assert not stale, f"allowlist entries that are not exported or now have a reader: {stale}"
