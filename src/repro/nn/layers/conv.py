"""Standard 1-D convolution.

The paper's eq. (3) (causal convolution) and eq. (4) (dilated convolution)
are this convolution with ``padding=((K - 1) * d, 0)``: left-only zero
padding keeps the output aligned with the input so that position ``t`` of
the output depends only on inputs ``<= t`` — "future information does not
leak into the past". The TCN's weight-normalized convs
(:class:`~repro.nn.layers.normalization.WeightNormConv1d`) pad that way.
"""

from __future__ import annotations

import numpy as np

from .. import functional as F
from .. import init
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["Conv1d"]


class Conv1d(Module):
    """Standard 1-D convolution over ``(N, C, L)`` inputs.

    Weight layout is ``(out_channels, in_channels, kernel_size)``; He-uniform
    init suits the ReLU nonlinearities used throughout the TCN stack.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int | tuple[int, int] = 0,
        dilation: int = 1,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {kernel_size}")
        if dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {dilation}")
        rng = rng if rng is not None else init.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.weight = Parameter(init.he_uniform((out_channels, in_channels, kernel_size), rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    @property
    def receptive_field(self) -> int:
        """Paper: ``(K - 1) * d + 1``."""
        return (self.kernel_size - 1) * self.dilation + 1

    def forward(self, x: Tensor) -> Tensor:
        return F.conv1d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            dilation=self.dilation,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv1d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"stride={self.stride}, pad={self.padding}, dilation={self.dilation})"
        )
