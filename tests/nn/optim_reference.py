"""Per-parameter Adam: the oracle for the flat-vector optimizer.

This is :class:`repro.nn.optim.Adam` as it was before the weights and
moments moved into flat vectors: one moment array per parameter and a
handful of NumPy ops per parameter per step. It works on any objects with
``data`` and ``grad`` arrays. The flat version must match it bit for bit.
"""

from __future__ import annotations

import numpy as np


class ReferenceAdam:
    """Adam with one pair of moment arrays per parameter."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8) -> None:
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.betas
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
