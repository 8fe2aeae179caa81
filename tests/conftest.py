"""Shared fixtures, numerical-gradient helpers and hypothesis profiles.

Hypothesis runs under the ``tier1`` profile: derandomized, so every run
draws the same examples and a failure reproduces on rerun. Each test
keeps its own ``max_examples``. Set ``HYPOTHESIS_PROFILE=weekly`` for
fresh random draws that print a reproduction blob on failure; CI's
scheduled run does.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.nn.tensor import Tensor

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("weekly", derandomize=False, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued ``fn`` w.r.t. ``x``.

    ``fn`` must read the *current contents* of ``x`` on every call
    (the helper mutates it in place and restores it).
    """
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = fn()
        x[idx] = orig - eps
        f_minus = fn()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
        it.iternext()
    return grad


def check_gradients(build_loss, tensors: list[Tensor], atol: float = 1e-5) -> None:
    """Assert autograd gradients match finite differences.

    ``build_loss`` constructs the scalar loss Tensor from the given leaf
    tensors (re-reading their ``.data``), so it can be re-evaluated for
    the finite-difference probe.
    """
    for t in tensors:
        t.grad = None
    loss = build_loss()
    loss.backward()
    for i, t in enumerate(tensors):
        assert t.grad is not None, f"tensor {i} got no gradient"
        num = numerical_gradient(lambda: build_loss().item(), t.data)
        np.testing.assert_allclose(
            t.grad, num, atol=atol, rtol=1e-4, err_msg=f"gradient mismatch for tensor {i}"
        )
