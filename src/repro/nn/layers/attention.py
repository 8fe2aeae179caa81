"""Attention mechanisms.

The paper defines attention generically (eqs. 7-8):

    a = f_phi(x)        # an attention network produces a weight vector
    g = a ⊙ z           # elementwise re-weighting of the feature vector

:class:`FeatureAttention` is that exact form and is the mechanism used in
RPTCN after the fully connected layer (paper Fig. 5).
:class:`TemporalAttention` weighs the time steps of a sequence, and
:class:`BahdanauAttention` is the additive attention the seq2seq baseline
decodes with.
"""

from __future__ import annotations

import numpy as np

from .. import functional as F
from ..module import Module
from ..tensor import Tensor
from .linear import Linear

__all__ = [
    "FeatureAttention",
    "TemporalAttention",
    "BahdanauAttention",
]


class FeatureAttention(Module):
    """Elementwise feature gating — the paper's eqs. (7)-(8).

    ``a = f_phi(z)`` is a single affine layer followed by a normalizer:
    ``softmax`` makes the weights compete (sum to one across features,
    scaled back by the feature count so magnitudes are preserved), while
    ``sigmoid`` gates each feature independently.
    """

    def __init__(
        self,
        features: int,
        normalizer: str = "softmax",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if normalizer not in ("softmax", "sigmoid"):
            raise ValueError(f"normalizer must be 'softmax' or 'sigmoid', got {normalizer!r}")
        self.features = features
        self.normalizer = normalizer
        self.score = Linear(features, features, rng=rng)

    def forward(self, z: Tensor) -> Tensor:
        scores = self.score(z)
        if self.normalizer == "softmax":
            a = F.softmax(scores, axis=-1) * float(self.features)
        else:
            a = scores.sigmoid() * 2.0
        return a * z

    def attention_weights(self, z: Tensor) -> np.ndarray:
        """Return the (detached) attention vector ``a`` for inspection."""
        scores = self.score(z)
        if self.normalizer == "softmax":
            return F.softmax(scores, axis=-1).data * float(self.features)
        return scores.sigmoid().data * 2.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"FeatureAttention(features={self.features}, normalizer={self.normalizer})"


class TemporalAttention(Module):
    """Attention over the time axis of a ``(N, T, C)`` sequence.

    Scores each step with a small MLP, softmaxes over T, and returns the
    weighted sum ``(N, C)`` — a context vector emphasizing the time steps
    most relevant to the prediction (the short-term dependence the paper's
    horizontal expansion is designed to strengthen).
    """

    def __init__(self, channels: int, hidden: int = 16, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.channels = channels
        self.proj = Linear(channels, hidden, rng=rng)
        self.score = Linear(hidden, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        e = self.score(self.proj(x).tanh())  # (N, T, 1)
        alpha = F.softmax(e, axis=1)
        return (alpha * x).sum(axis=1)

    def attention_weights(self, x: Tensor) -> np.ndarray:
        e = self.score(self.proj(x).tanh())
        return F.softmax(e, axis=1).data[..., 0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"TemporalAttention(channels={self.channels})"


class BahdanauAttention(Module):
    """Additive attention (Bahdanau et al. 2015).

    ``score(h_t, q) = v^T tanh(W_h h_t + W_q q)`` over keys ``(N, T, C)``
    and a query ``(N, Q)``; returns the context vector ``(N, C)``.
    """

    def __init__(
        self,
        key_size: int,
        query_size: int,
        hidden: int = 32,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.w_key = Linear(key_size, hidden, bias=False, rng=rng)
        self.w_query = Linear(query_size, hidden, bias=False, rng=rng)
        self.v = Linear(hidden, 1, bias=False, rng=rng)

    def forward(self, keys: Tensor, query: Tensor) -> Tensor:
        q = self.w_query(query)
        q = q.reshape(q.shape[0], 1, q.shape[1])
        e = self.v((self.w_key(keys) + q).tanh())  # (N, T, 1)
        alpha = F.softmax(e, axis=1)
        return (alpha * keys).sum(axis=1)

    def __repr__(self) -> str:  # pragma: no cover
        return "BahdanauAttention()"
