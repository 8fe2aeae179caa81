"""Normalization layers: weight-normalized convolution and LayerNorm.

TCN residual blocks (paper Fig. 6) wrap each dilated causal convolution in
*weight normalization* (Salimans & Kingma 2016): the weight is
reparameterized as ``w = g * v / ||v||`` with the norm taken per output
filter. :class:`WeightNormConv1d` expresses the reparameterization in
autograd ops, so gradients flow to ``g`` and ``v`` without bespoke
backward code. Inside the TCN the same expression runs in the fused
:func:`repro.nn.functional.temporal_block`, with a hand-written backward;
the TCN's ``WeightNormConv1d`` modules then only hold ``v``, ``g`` and the
bias.
"""

from __future__ import annotations

import numpy as np

from .. import functional as F
from .. import init
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["WeightNormConv1d", "LayerNorm"]

_EPS = F.WEIGHT_NORM_EPS


class WeightNormConv1d(Module):
    """Causal dilated Conv1d with weight normalization.

    ``g`` is initialized to the norm of the initial ``v`` so that at
    initialization the layer behaves exactly like the unnormalized conv.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: int = 1,
        causal: bool = True,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.causal = causal
        v0 = init.he_uniform((out_channels, in_channels, kernel_size), rng)
        self.v = Parameter(v0)
        self.g = Parameter(np.sqrt((v0**2).sum(axis=(1, 2), keepdims=True)))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def _weight(self) -> Tensor:
        norm = (self.v * self.v).sum(axis=(1, 2), keepdims=True).sqrt() + _EPS
        return self.v * (self.g / norm)

    def forward(self, x: Tensor) -> Tensor:
        pad = ((self.kernel_size - 1) * self.dilation, 0) if self.causal else 0
        return F.conv1d(
            x, self._weight(), self.bias, stride=1, padding=pad, dilation=self.dilation
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"WeightNormConv1d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, dilation={self.dilation}, causal={self.causal})"
        )


class LayerNorm(Module):
    """Normalize over the last axis with learnable scale/shift."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.normalized_shape = normalized_shape
        self.gamma = Parameter(init.ones((normalized_shape,)))
        self.beta = Parameter(init.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normed = (x - mu) / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta

    def __repr__(self) -> str:  # pragma: no cover
        return f"LayerNorm({self.normalized_shape})"
