"""The Adam optimizer (Kingma & Ba 2015).

Adam is the optimizer used for all deep models in the reproduction, matching
the Keras default setup of the paper's experiments.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..module import Parameter

__all__ = ["Adam"]

#: state rebuilt from the parameters on the first step, never pickled
_FLAT_STATE = ("_flat", "_views", "_bounds")


class Adam:
    """Holds a parameter list and applies Adam updates in place.

    The weights live in one flat vector of which each ``p.data`` is a
    view, and the moments in two flat vectors laid out like it. A step
    gathers the grads into one flat array (one ``np.concatenate``) and runs
    Adam's handful of ops once over the whole vector instead of once per
    parameter. Every op is elementwise, so the update is bit for bit the
    per-parameter one. When some parameter has no grad, the ops run once
    per parameter that has one; the others keep their data and moments.

    Rebinding ``p.data`` (as :meth:`Module.to_dtype` does) is safe: the
    next step sees the view gone and moves the weights into a new flat
    vector, so it never steps a detached copy. A pickle holds no flat
    weights; each parameter pickles its own data. All parameters must
    share one dtype.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if len({id(p) for p in self.params}) < len(self.params):
            raise ValueError("a parameter appears twice in the list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = betas
        self.eps = eps
        self._flat: np.ndarray | None = None
        flat = self._weights()
        self._m = np.zeros_like(flat)
        self._v = np.zeros_like(flat)
        self._t = 0

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in _FLAT_STATE}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._flat = None
        if isinstance(self._m, list):  # pickled with one moment array per parameter
            self._m = np.concatenate([m.ravel() for m in self._m])
            self._v = np.concatenate([v.ravel() for v in self._v])

    def _weights(self) -> np.ndarray:
        """The flat weight vector, each ``p.data`` a view of it; rebuilt if one was rebound."""
        flat = self._flat
        if flat is not None and all(p.data is view for p, view in zip(self.params, self._views)):
            return flat
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) > 1:
            raise TypeError(f"parameters must share a dtype, got {sorted(map(str, dtypes))}")
        flat = self._flat = np.concatenate([p.data.ravel() for p in self.params])
        offsets = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self._bounds = list(zip(offsets[:-1], offsets[1:]))
        self._views = []
        for p, (lo, hi) in zip(self.params, self._bounds):
            p.data = flat[lo:hi].reshape(p.data.shape)
            self._views.append(p.data)
        return flat

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        flat = self._weights()
        grads = [p.grad for p in self.params]
        if all(g is not None for g in grads):
            runs = [(0, flat.size, np.concatenate([g.ravel() for g in grads]))]
        else:  # one run per parameter that holds a grad
            runs = [
                (lo, hi, g.ravel()) for (lo, hi), g in zip(self._bounds, grads) if g is not None
            ]
        self._t += 1
        b1, b2 = self.betas
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for lo, hi, g in runs:
            m = self._m[lo:hi]
            v = self._v[lo:hi]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            flat[lo:hi] -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
