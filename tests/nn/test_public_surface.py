"""Guard: ``repro.nn`` exports only what the rest of the project builds.

Every name in the ``__all__`` of ``repro.nn``, ``repro.nn.layers`` and
``repro.nn.optim`` must be referenced from a ``.py`` file outside
``src/repro/nn``: the rest of ``src/repro``, ``benchmarks/``,
``examples/`` or ``perfbench/``. Tests do not count, since a layer that
only its own test builds is dead weight. A reference is an identifier in
the code (a name, an attribute, or a part of an import), not prose.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.nn
import repro.nn.layers
import repro.nn.optim

ROOT = Path(__file__).resolve().parents[2]
NN_DIR = ROOT / "src" / "repro" / "nn"
USER_DIRS = ("src/repro", "benchmarks", "examples", "perfbench")
MODULES = (repro.nn, repro.nn.layers, repro.nn.optim)

#: exported names nothing outside ``repro.nn`` builds, each kept for a reason
ALLOWED_UNREFERENCED = {
    "set_default_dtype": "dtype policy: float32 serving is an open measured follow-up",
    "get_default_dtype": "dtype policy: float32 serving is an open measured follow-up",
    "dtype_policy": "dtype policy: float32 serving is an open measured follow-up",
    "set_default_seed": "substrate entry point: seeds every layer built with rng=None",
    "is_grad_enabled": "substrate entry point: the query side of no_grad",
    "Parameter": "substrate entry point: the leaf type a Module registers",
    "GRUCell": "the step the exported GRU runs",
    "LayerNorm": "built by the exported TransformerEncoderBlock",
    "MultiHeadSelfAttention": "built by the exported TransformerEncoderBlock",
}


def _identifiers(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
    return names


@pytest.fixture(scope="module")
def referenced() -> set[str]:
    names: set[str] = set()
    for d in USER_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            if not path.is_relative_to(NN_DIR):
                names |= _identifiers(path)
    return names


def _exports() -> list[tuple[str, str]]:
    return [(m.__name__, name) for m in MODULES for name in m.__all__]


def test_every_export_has_a_user(referenced):
    unused = [
        f"{mod}.{name}"
        for mod, name in _exports()
        if name not in referenced and name not in ALLOWED_UNREFERENCED
    ]
    assert not unused, f"exported but built nowhere outside repro.nn: {unused}"


def test_allowlist_entries_are_exported_and_unreferenced(referenced):
    exported = {name for _, name in _exports()}
    stale = [
        name
        for name in ALLOWED_UNREFERENCED
        if name not in exported or name in referenced
    ]
    assert not stale, f"allowlist entries that are not exported or now have a user: {stale}"
