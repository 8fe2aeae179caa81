"""Temporal Convolutional Network (Bai, Kolter & Koltun 2018).

The backbone of RPTCN (paper §III-D): a stack of residual blocks, each
holding two weight-normalized dilated causal convolutions with ReLU and
spatial dropout (Fig. 6), dilations doubling per level so the receptive
field grows exponentially with depth: ``RF = 1 + 2 (K - 1) (2^L - 1)``.

Each block runs as one fused op, :func:`repro.nn.functional.temporal_block`
(channels-last, one GEMM per convolution, hand-written backward). The
block's ``conv1``/``conv2``/``drop1``/``drop2``/``downsample`` submodules
hold its parameters and dropout settings, so state dicts and pickles keep
their layout.

Heads that read only the last backbone step call :meth:`TCN.last_step`.
Under ``no_grad`` in eval mode it computes only the conv positions that
can reach that step (31 of the 72 per window at kernel 3, dilations
``(1, 2, 4)``, window 12) with the full forward's taps and ops, so it
matches ``TCN(x)[:, :, -1]`` up to BLAS rounding a GEMM row differently
for a different row count (bit for bit where it does not, as for the
served RPTCN on x86-64 OpenBLAS). In grad or training mode it is exactly
that full forward.
"""

from __future__ import annotations

import numpy as np

from ..nn import _plans
from ..nn import functional as F
from ..nn import init as nn_init
from ..nn.layers.container import ModuleList
from ..nn.layers.conv import Conv1d
from ..nn.layers.dropout import SpatialDropout1d
from ..nn.layers.linear import Linear
from ..nn.layers.normalization import WeightNormConv1d
from ..nn.module import Module
from ..nn.tensor import Tensor, get_default_dtype, is_grad_enabled
from .base import NeuralForecaster, register_forecaster

__all__ = ["TemporalBlock", "TCN", "TCNForecaster"]


class TemporalBlock(Module):
    """One TCN residual block (paper Fig. 6).

    Main branch: (weight-norm dilated causal conv → ReLU → spatial
    dropout) × 2. Shortcut: identity, or a 1×1 convolution when channel
    counts differ. Output: ``ReLU(x + F(x))`` — the paper's eq. (5).
    Both dropouts use ``drop1``'s rate and generator (the constructor
    gives them the same ones).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: int,
        dropout: float = 0.1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else nn_init.default_rng()
        self.conv1 = WeightNormConv1d(
            in_channels, out_channels, kernel_size, dilation=dilation, rng=rng
        )
        self.drop1 = SpatialDropout1d(dropout, rng=rng)
        self.conv2 = WeightNormConv1d(
            out_channels, out_channels, kernel_size, dilation=dilation, rng=rng
        )
        self.drop2 = SpatialDropout1d(dropout, rng=rng)
        self.downsample = (
            Conv1d(in_channels, out_channels, kernel_size=1, rng=rng)
            if in_channels != out_channels
            else None
        )
        self.dilation = dilation
        self.kernel_size = kernel_size

    @property
    def receptive_field(self) -> int:
        """Span of input steps one output step of this block sees."""
        return 2 * (self.kernel_size - 1) * self.dilation + 1

    def forward(self, x: Tensor) -> Tensor:
        down = self.downsample
        return F.temporal_block(
            x,
            self.conv1.v,
            self.conv1.g,
            self.conv1.bias,
            self.conv2.v,
            self.conv2.g,
            self.conv2.bias,
            self.dilation,
            down_weight=down.weight if down is not None else None,
            down_bias=down.bias if down is not None else None,
            p=self.drop1.p,
            rng=self.drop1.rng,
            training=self.training,
        )

    def forward_rows(
        self, xr: np.ndarray, rows: tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """Eval-mode output at selected rows (:func:`F.temporal_block_rows`)."""
        down = self.downsample
        return F.temporal_block_rows(
            xr,
            rows,
            self.conv1.v,
            self.conv1.g,
            self.conv1.bias,
            self.conv2.v,
            self.conv2.g,
            self.conv2.bias,
            down_weight=down.weight if down is not None else None,
            down_bias=down.bias if down is not None else None,
        )


class TCN(Module):
    """Stack of :class:`TemporalBlock` with exponentially growing dilations.

    Maps ``(N, C_in, L)`` to ``(N, channels[-1], L)`` — causal, so the
    features at step ``t`` summarize inputs up to ``t`` only.
    """

    def __init__(
        self,
        in_channels: int,
        channels: tuple[int, ...] = (16, 16, 16),
        kernel_size: int = 3,
        dropout: float = 0.1,
        dilations: tuple[int, ...] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if not channels:
            raise ValueError("channels may not be empty")
        rng = rng if rng is not None else nn_init.default_rng()
        if dilations is None:
            dilations = tuple(2**i for i in range(len(channels)))
        if len(dilations) != len(channels):
            raise ValueError(
                f"{len(channels)} levels but {len(dilations)} dilations supplied"
            )
        self.blocks = ModuleList(
            TemporalBlock(
                in_channels if i == 0 else channels[i - 1],
                channels[i],
                kernel_size,
                dilations[i],
                dropout=dropout,
                rng=rng,
            )
            for i in range(len(channels))
        )

    @property
    def receptive_field(self) -> int:
        """Total causal receptive field of the stack."""
        rf = 1
        for block in self.blocks:
            rf += block.receptive_field - 1
        return rf

    def forward(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return x

    def last_step(self, x: Tensor) -> Tensor:
        """Features at the last step, ``(N, C_out)``: ``self(x)[:, :, -1]``.

        Under ``no_grad`` with every block in eval mode, only the conv
        positions that reach the last step are computed: the blocks run
        :meth:`TemporalBlock.forward_rows` over the memoized rows of
        :func:`repro.nn._plans.last_step_rows`, starting from the window
        as ``(1 + N * L, C_in)`` rows behind a zero row. Each kept row
        reads the same taps and runs the same ops as in the full forward,
        and the result keeps the input's dtype; only the GEMM row counts
        differ (see :func:`repro.nn.functional.temporal_block_rows`).
        With autograd on, or in training mode (dropout), this is the full
        forward, so gradients and dropout draws are untouched.
        """
        if is_grad_enabled() or any(block.training for block in self.blocks):
            return self(x)[:, :, -1]
        n, c_in, window = x.shape
        rows = _plans.last_step_rows(
            self.blocks[0].kernel_size,
            tuple(block.dilation for block in self.blocks),
            window,
            n,
        )
        xl = x.data.transpose(0, 2, 1).reshape(n * window, c_in)
        h = np.concatenate([np.zeros((1, c_in), dtype=xl.dtype), xl])
        dtype = get_default_dtype()  # what each block's output Tensor holds
        for block, block_rows in zip(self.blocks, rows):
            h = np.asarray(block.forward_rows(h, block_rows), dtype=dtype)
        return Tensor(h[1:])


class _TCNHead(Module):
    """Plain TCN forecaster: backbone → last step → linear head."""

    def __init__(
        self,
        features: int,
        horizon: int,
        channels: tuple[int, ...],
        kernel_size: int,
        dropout: float,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.backbone = TCN(features, channels, kernel_size, dropout, rng=rng)
        self.head = Linear(channels[-1], horizon, rng=rng)
        # zero-init the head for a small, stable initial loss (see RPTCN)
        self.head.weight.data[...] = 0.0

    def forward(self, x: Tensor) -> Tensor:
        # (N, W, F) -> channels-first (N, F, W); the head reads the last step
        return self.head(self.backbone.last_step(x.swapaxes(1, 2)))


@register_forecaster("tcn")
class TCNForecaster(NeuralForecaster):
    """Vanilla TCN baseline (RPTCN minus FC layer and attention).

    Used by the ablation benchmarks to isolate the contribution of the two
    additions the paper makes on top of TCNs.
    """

    def __init__(
        self,
        horizon: int = 1,
        target_col: int = 0,
        channels: tuple[int, ...] = (16, 16, 16),
        kernel_size: int = 3,
        dropout: float = 0.1,
        **train_kwargs,
    ) -> None:
        train_kwargs.setdefault("lr", 2e-3)  # TCN stacks tolerate a hotter Adam
        super().__init__(horizon=horizon, target_col=target_col, **train_kwargs)
        self.channels = tuple(channels)
        self.kernel_size = kernel_size
        self.dropout = dropout

    def build(self, window: int, features: int, rng: np.random.Generator) -> Module:
        return _TCNHead(
            features, self.horizon, self.channels, self.kernel_size, self.dropout, rng
        )
