"""Quantile (probabilistic) forecasting.

The paper's allocation motivation really needs an *upper quantile* of
future demand, not its mean: reserving the q95 forecast bounds the
violation probability directly instead of via an ad-hoc headroom. This
module adds pinball-loss training to both model families:

* :class:`QuantileGBTForecaster` — gradient boosting on the pinball
  gradient (``tau - 1[y < pred]``), one booster per quantile;
* :class:`QuantileRPTCNForecaster` — the RPTCN architecture with one
  output head per quantile, trained under the summed pinball loss.
"""

from __future__ import annotations

import numpy as np

from ..nn.losses import _Loss
from ..nn.module import Module
from ..nn.tensor import Tensor
from .base import Forecaster, NeuralForecaster, register_forecaster
from .gbt import GBTForecaster, GradientBoostedTrees
from .rptcn import RPTCN

__all__ = ["PinballLoss", "QuantileGBTForecaster", "QuantileRPTCNForecaster"]


class PinballLoss(_Loss):
    """Pinball (quantile) loss for a single quantile ``tau``.

    ``L = mean( max(tau * e, (tau - 1) * e) )`` with ``e = y - pred``;
    minimizing it makes the prediction the ``tau``-quantile of the target.
    """

    def __init__(self, tau: float, reduction: str = "mean") -> None:
        super().__init__(reduction)
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
        self.tau = tau

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        target = Tensor.ensure(target)
        err = target - prediction
        return self._reduce(Tensor.where(err.data >= 0, err * self.tau, err * (self.tau - 1.0)))


class _MultiQuantilePinball(Module):
    """Sum of pinball losses, one per output column/quantile."""

    def __init__(self, taus: tuple[float, ...]) -> None:
        super().__init__()
        self.losses = [PinballLoss(t) for t in taus]

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        target = Tensor.ensure(target)
        total = None
        for i, loss in enumerate(self.losses):
            term = loss(prediction[:, i : i + 1], target)
            total = term if total is None else total + term
        return total


class _QuantileGBT(GradientBoostedTrees):
    """Boosting under the pinball objective (unit hessian, standard trick)."""

    def __init__(self, tau: float, **kwargs) -> None:
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
        super().__init__(**kwargs)
        self.tau = tau

    def _base_score(self, y: np.ndarray) -> float:
        return float(np.quantile(y, self.tau))

    def _gradient(self, pred: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # pinball gradient: d/dpred = (1 - tau) where pred > y else -tau
        return np.where(pred >= y, 1.0 - self.tau, -self.tau), np.ones(len(y))

    def fit(self, x, y, x_val=None, y_val=None) -> "_QuantileGBT":
        """Boost for all ``n_estimators`` rounds; validation data is not
        used, since early stopping scores RMSE rather than pinball loss."""
        return super().fit(x, y)


@register_forecaster("quantile_xgboost")
class QuantileGBTForecaster(Forecaster):
    """One pinball booster per requested quantile; horizon fixed at 1.

    ``predict`` returns ``(N, len(taus))`` — one column per quantile in
    ascending ``taus`` order (callers pick the risk level they reserve at).
    """

    def __init__(
        self,
        taus: tuple[float, ...] = (0.5, 0.95),
        target_col: int = 0,
        **gbt_kwargs,
    ) -> None:
        super().__init__(horizon=1, target_col=target_col)
        if not taus or any(not 0.0 < t < 1.0 for t in taus):
            raise ValueError(f"taus must be in (0, 1), got {taus}")
        self.taus = tuple(sorted(taus))
        self.gbt_kwargs = gbt_kwargs
        self.models: list[_QuantileGBT] = []

    def fit(self, x, y, x_val=None, y_val=None) -> "QuantileGBTForecaster":
        self._check_xy(x, y)
        xf = GBTForecaster._flatten(x)
        y1 = np.asarray(y, float)[:, 0]
        self.models = [
            _QuantileGBT(tau, **self.gbt_kwargs).fit(xf, y1) for tau in self.taus
        ]
        self.fitted = True
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        self._check_fitted()
        self._check_xy(x)
        xf = GBTForecaster._flatten(x)
        return np.column_stack([m.predict(xf) for m in self.models])

    def predict_quantile(self, x: np.ndarray, tau: float) -> np.ndarray:
        """Predictions of one fitted quantile."""
        self._check_fitted()
        try:
            i = self.taus.index(tau)
        except ValueError:
            raise KeyError(f"tau {tau} not among fitted quantiles {self.taus}") from None
        return self.predict(x)[:, i]


@register_forecaster("quantile_rptcn")
class QuantileRPTCNForecaster(NeuralForecaster):
    """RPTCN with one output per quantile, trained under summed pinball loss.

    The ``horizon`` slot of the base class carries the quantile count;
    prediction columns follow ascending ``taus``.
    """

    def __init__(
        self,
        taus: tuple[float, ...] = (0.5, 0.95),
        target_col: int = 0,
        channels: tuple[int, ...] = (16, 16, 16),
        **train_kwargs,
    ) -> None:
        if not taus or any(not 0.0 < t < 1.0 for t in taus):
            raise ValueError(f"taus must be in (0, 1), got {taus}")
        taus = tuple(sorted(taus))
        train_kwargs.setdefault("lr", 2e-3)
        super().__init__(horizon=len(taus), target_col=target_col, **train_kwargs)
        self.taus = taus
        self.channels = tuple(channels)

    def build(self, window: int, features: int, rng: np.random.Generator) -> Module:
        return RPTCN(features, horizon=len(self.taus), channels=self.channels, rng=rng)

    def fit(self, x, y, x_val=None, y_val=None) -> "QuantileRPTCNForecaster":
        self._check_xy(x, y)
        if np.asarray(y).shape[1] != 1:
            raise ValueError("quantile forecasting expects a 1-step target")
        super().fit(x, y, x_val, y_val)
        return self

    def _make_loss(self) -> Module:
        return _MultiQuantilePinball(self.taus)

    def predict_quantile(self, x: np.ndarray, tau: float) -> np.ndarray:
        self._check_fitted()
        try:
            i = self.taus.index(tau)
        except ValueError:
            raise KeyError(f"tau {tau} not among fitted quantiles {self.taus}") from None
        return self.predict(x)[:, i]
