"""RPTCN — the paper's model (Fig. 5).

Architecture, exactly as §III-D describes it:

1. a TCN backbone (dilated causal convolutions in weight-normalized
   residual blocks, e.g. kernel 3 with dilations ``[1, 2, 4]``),
2. a **fully connected layer** that "linearly combines the features
   extracted by the previous convolution layer to synthesize the impact
   of different feature values on resource utilization" (eq. 6),
3. an **attention mechanism** that "adjusts the weights of the
   performance indicators at different moments to the predicted CPU
   usage" (eqs. 7-8),
4. a linear output head emitting the ``horizon`` future CPU values.

With the ``feature`` and ``none`` attentions the FC layer reads only the
backbone's last step, so the backbone runs :meth:`TCN.last_step`: in
fits and in serving alike it computes, and backpropagates through, only
the conv positions that reach that step, with the full forward's taps,
ops and dropout draws. The ``temporal`` attention reads every step and
keeps the full backbone.

A fitted ``feature``/``none`` network serves through a frozen
:class:`~repro.models.tcn.LastStepPlan` (:meth:`RPTCN.inference_plan`):
the backbone's folded conv weights, the FC layer, the attention's score
layer and the head as plain arrays, run with the Module forward's ops in
its order. The ``temporal`` attention has no plan and serves through the
Module forward.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..nn import functional as F
from ..nn import init as nn_init
from ..nn.layers.attention import FeatureAttention, TemporalAttention
from ..nn.layers.linear import Linear
from ..nn.module import Module
from ..nn.tensor import Tensor, no_grad
from .base import NeuralForecaster, register_forecaster
from .tcn import TCN, LastStepPlan, frozen_linear

__all__ = ["RPTCN", "RPTCNForecaster"]


class RPTCN(Module):
    """TCN → fully connected layer → attention → output head.

    Parameters
    ----------
    features:
        Input feature count (after correlation screening / expansion).
    horizon:
        Number of future steps predicted jointly.
    channels, kernel_size, dilations, dropout:
        TCN backbone configuration (paper Fig. 5 uses kernel 3 and
        dilations [1, 2, 4]).
    fc_units:
        Width of the fully connected combination layer.
    attention:
        ``"feature"`` (the paper's eq. 7-8 elementwise form, default),
        ``"temporal"`` (attention over time steps before the FC layer),
        or ``"none"`` (ablation).
    """

    def __init__(
        self,
        features: int,
        horizon: int = 1,
        channels: tuple[int, ...] = (16, 16, 16),
        kernel_size: int = 3,
        dilations: tuple[int, ...] | None = None,
        dropout: float = 0.1,
        fc_units: int = 32,
        attention: str = "feature",
        use_fc: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if attention not in ("feature", "temporal", "none"):
            raise ValueError(
                f"attention must be feature/temporal/none, got {attention!r}"
            )
        rng = rng if rng is not None else nn_init.default_rng()
        self.attention_kind = attention
        self.use_fc = use_fc
        self.backbone = TCN(
            features,
            channels,
            kernel_size=kernel_size,
            dropout=dropout,
            dilations=dilations,
            rng=rng,
        )
        c_out = channels[-1]

        self.temporal_attention = (
            TemporalAttention(c_out, rng=rng) if attention == "temporal" else None
        )
        fc_in = c_out
        self.fc = Linear(fc_in, fc_units, rng=rng) if use_fc else None
        head_in = fc_units if use_fc else fc_in
        self.feature_attention = (
            FeatureAttention(head_in, rng=rng) if attention == "feature" else None
        )
        self.head = Linear(head_in, horizon, rng=rng)
        # zero-init the output head: predictions start at 0 so the initial
        # loss is small and training is stable regardless of the magnitude
        # the residual stack produces at init (the paper's Fig. 9 notes
        # RPTCN's loss "is very small at the beginning")
        self.head.weight.data[...] = 0.0

    def _summary(self, x: Tensor) -> Tensor:
        """Backbone -> last step (or temporal attention) -> FC: the ``z`` of eq. (6)."""
        # (N, W, F) -> (N, F, W) channels-first for the convolutions
        x = x.swapaxes(1, 2)
        if self.temporal_attention is not None:
            h = self.backbone(x)  # (N, C, W): attention reads every step
            z = self.temporal_attention(h.swapaxes(1, 2))  # (N, C)
        else:
            z = self.backbone.last_step(x)  # causal: last step summarizes the window
        if self.fc is not None:
            z = self.fc(z).relu()
        return z

    def forward(self, x: Tensor) -> Tensor:
        z = self._summary(x)
        if self.feature_attention is not None:
            z = self.feature_attention(z)
        return self.head(z)

    def inference_plan(self) -> LastStepPlan | None:
        """This network frozen for serving; None for the ``temporal`` attention.

        The plan runs ``last_step`` → FC + ReLU → feature attention →
        head (see :class:`~repro.models.tcn.LastStepPlan`).
        """
        if self.temporal_attention is not None:
            return None
        head = [frozen_linear(self.fc, relu=True)] if self.fc is not None else []
        if self.feature_attention is not None:
            head.append(_frozen_feature_attention(self.feature_attention))
        head.append(frozen_linear(self.head))
        return LastStepPlan(self.backbone, head)

    def attention_weights(self, x: Tensor) -> np.ndarray | None:
        """Post-FC attention vector for interpretability (None if ablated)."""
        if self.feature_attention is None:
            return None
        with no_grad():
            return self.feature_attention.attention_weights(self._summary(x))


def _frozen_feature_attention(
    attention: FeatureAttention,
) -> Callable[[np.ndarray], np.ndarray]:
    """:meth:`FeatureAttention.forward` on plain arrays, weights copied now."""
    score = frozen_linear(attention.score)
    softmax = attention.normalizer == "softmax"
    scale = float(attention.features) if softmax else 2.0

    def apply(z: np.ndarray) -> np.ndarray:
        s = score(z)
        a = F._softmax_arr(s, -1) if softmax else F._sigmoid_arr(s)
        return a * scale * z

    return apply


@register_forecaster("rptcn")
class RPTCNForecaster(NeuralForecaster):
    """The paper's model wrapped in the common fit/predict interface."""

    def __init__(
        self,
        horizon: int = 1,
        target_col: int = 0,
        channels: tuple[int, ...] = (16, 16, 16),
        kernel_size: int = 3,
        dilations: tuple[int, ...] | None = None,
        dropout: float = 0.1,
        fc_units: int = 32,
        attention: str = "feature",
        use_fc: bool = True,
        **train_kwargs,
    ) -> None:
        train_kwargs.setdefault("lr", 2e-3)  # TCN stacks tolerate a hotter Adam
        super().__init__(horizon=horizon, target_col=target_col, **train_kwargs)
        self.channels = tuple(channels)
        self.kernel_size = kernel_size
        self.dilations = tuple(dilations) if dilations is not None else None
        self.dropout = dropout
        self.fc_units = fc_units
        self.attention = attention
        self.use_fc = use_fc

    def build(self, window: int, features: int, rng: np.random.Generator) -> Module:
        return RPTCN(
            features,
            horizon=self.horizon,
            channels=self.channels,
            kernel_size=self.kernel_size,
            dilations=self.dilations,
            dropout=self.dropout,
            fc_units=self.fc_units,
            attention=self.attention,
            use_fc=self.use_fc,
            rng=rng,
        )
