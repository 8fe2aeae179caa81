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
It computes only the conv positions that can reach that step (31 of the
72 per window at kernel 3, dilations ``(1, 2, 4)``, window 12) with the
full forward's taps and ops, in inference and in training alike: with
autograd on, each block is one graph node whose hand-written backward
runs over the same kept rows, and in training mode it draws the full
forward's dropout masks in the same order. Outputs and gradients match
``TCN(x)[:, :, -1]`` up to BLAS rounding a GEMM row differently for a
different row count: on x86-64 OpenBLAS the served RPTCN's predictions
are bit for bit the same, while a fit's weights can move by a few ulps.
The full forward stays the reference every test compares the pruned
path with.

A fitted last-step network serves through a :class:`LastStepPlan`: its
weights folded once into plain arrays (each conv's weight-normalized GEMM
operand, the biases, the downsample and the head), run through the same
row ops as :meth:`TCN.last_step` with no Tensor wrappers, no autograd
bookkeeping and no train/eval walks. ``NeuralForecaster.predict`` builds
it on first use and keeps it beside, never inside, the network, so it is
never pickled; ``fit`` and ``warm_fit`` drop it. The Module forward
stays the training path and the oracle the plan is tested against.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

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
from ..nn.tensor import Tensor, get_default_dtype
from ..training.trainer import predict_batches
from .base import NeuralForecaster, register_forecaster

__all__ = ["TemporalBlock", "TCN", "LastStepPlan", "TCNForecaster"]


class FrozenBlock(NamedTuple):
    """A :class:`TemporalBlock`'s weights as :func:`F._block_rows` reads them."""

    w1m: np.ndarray  # conv1's weight-normalized GEMM operand, (K*C_in, C_out)
    b1: np.ndarray
    w2m: np.ndarray
    b2: np.ndarray
    down_w: np.ndarray | None  # the 1x1 downsample as (C_out, C_in)
    down_b: np.ndarray | None


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

    def freeze(self) -> FrozenBlock:
        """The block's current weights, folded and copied for inference."""
        down = self.downsample
        return FrozenBlock(
            F._gemm_weight(F._weight_norm(self.conv1.v.data, self.conv1.g.data)[0]),
            self.conv1.bias.data.copy(),
            F._gemm_weight(F._weight_norm(self.conv2.v.data, self.conv2.g.data)[0]),
            self.conv2.bias.data.copy(),
            down.weight.data[:, :, 0].copy(order="K") if down is not None else None,
            down.bias.data.copy() if down is not None else None,
        )

    def forward_rows(
        self, x: Tensor, rows: tuple[np.ndarray, ...], n: int
    ) -> Tensor:
        """Output at selected rows of ``n`` windows (:func:`F.temporal_block_rows`)."""
        down = self.downsample
        return F.temporal_block_rows(
            x,
            rows,
            n,
            self.conv1.v,
            self.conv1.g,
            self.conv1.bias,
            self.conv2.v,
            self.conv2.g,
            self.conv2.bias,
            down_weight=down.weight if down is not None else None,
            down_bias=down.bias if down is not None else None,
            p=self.drop1.p,
            rng=self.drop1.rng,
            training=self.training,
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

        Only the conv positions that reach the last step are computed:
        the blocks run :meth:`TemporalBlock.forward_rows` over the
        memoized rows of :func:`repro.nn._plans.last_step_rows`, starting
        from the window as ``(1 + N * L, C_in)`` rows behind a zero row
        (:func:`repro.nn.functional.window_rows`). Each kept row reads
        the same taps and runs the same ops as in the full forward, and
        each block's output rounds to the dtype policy as the full
        forward's does. In training mode the blocks draw the full
        forward's dropout masks in its order; with autograd on, each
        block is one graph node whose backward touches only the kept
        rows, at which the full backbone's gradient is zero anyway. Only
        the GEMM and sum row counts differ from ``self(x)[:, :, -1]``, so
        outputs and gradients match it up to how BLAS rounds a different
        row count (see :func:`repro.nn.functional.temporal_block_rows`).
        """
        n, _, window = x.shape
        rows = _plans.last_step_rows(
            self.blocks[0].kernel_size,
            tuple(block.dilation for block in self.blocks),
            window,
            n,
        )
        h = F.window_rows(x)
        for block, block_rows in zip(self.blocks, rows):
            h = block.forward_rows(h, block_rows, n)
        return h[1:]


def frozen_linear(layer: Linear, relu: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """``layer`` (then ReLU) on plain arrays, with its weights copied now.

    The ops are :func:`F.linear`'s inference path and
    :meth:`Tensor.relu`'s, so the values match the Module forward's bit
    for bit.
    """
    weight_t = layer.weight.data.copy(order="K").T
    bias = layer.bias.data.copy() if layer.bias is not None else None

    def apply(z: np.ndarray) -> np.ndarray:
        out = z @ weight_t
        if bias is not None:
            out += bias
        return np.where(out > 0, out, 0.0) if relu else out

    return apply


class LastStepPlan:
    """Frozen inference plan of a network that reads ``TCN.last_step``.

    Holds every block's folded weights (:meth:`TemporalBlock.freeze`)
    and the ``head`` ops that map the last-step features ``(N, C)`` to
    the output, each a function of plain arrays whose weights were copied
    when the plan was built. :meth:`predict` runs :meth:`TCN.last_step`
    → head with the Module forward's ops in its order, in
    :meth:`Trainer.predict`'s chunks (:func:`predict_batches`): the input
    converted as ``Tensor(...)`` converts it under the dtype policy, the
    window rows behind one zero row (:func:`F.window_rows`), one
    :func:`F._block_rows` per block over the memoized
    :func:`repro.nn._plans.last_step_rows`. Every GEMM sees the row
    count it sees in the Module forward, so the output is the Module
    forward's bit for bit.

    The plan never sees the network again after it is built: it is
    derived state, valid until the weights change.
    """

    #: ``Module.weights_version`` when the plan was built (set by the plan
    #: cache, :func:`repro.models.base._inference_plan`)
    weights_version = 0

    def __init__(
        self, backbone: TCN, head: Sequence[Callable[[np.ndarray], np.ndarray]]
    ) -> None:
        self.kernel_size = backbone.blocks[0].kernel_size
        self.dilations = tuple(block.dilation for block in backbone.blocks)
        self.blocks = tuple(block.freeze() for block in backbone.blocks)
        self.head = tuple(head)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """``(N, window, features)`` windows → ``(N, out)``, as ``Trainer.predict``."""
        return predict_batches(self._forward, x)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=get_default_dtype())
        n, window, features = x.shape
        rows = _plans.last_step_rows(self.kernel_size, self.dilations, window, n)
        h = np.concatenate(
            [np.zeros((1, features), dtype=x.dtype), x.reshape(n * window, features)]
        )
        for block, block_rows in zip(self.blocks, rows):
            h = F._block_rows(h, block_rows, n, self.kernel_size, *block)
        z = h[1:]
        for op in self.head:
            z = op(z)
        return z


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

    def inference_plan(self) -> LastStepPlan:
        """This network frozen for serving (see :class:`LastStepPlan`)."""
        return LastStepPlan(self.backbone, (frozen_linear(self.head),))


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
