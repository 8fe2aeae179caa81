"""Exponential-smoothing forecasters (simple and Holt's linear trend).

Classical one-pass baselines from the workload-prediction literature the
paper surveys (§VI-A). Both fit their smoothing constants by grid search
on the training series' one-step error and then forecast each evaluation
window independently from its own history, mirroring the ARIMA wrapper's
rolling protocol.
"""

from __future__ import annotations

import numpy as np

from .base import Forecaster, register_forecaster

__all__ = ["simple_exponential_smoothing", "holt_linear", "HoltForecaster"]


def simple_exponential_smoothing(series: np.ndarray, alpha: float) -> np.ndarray:
    """Level estimates ``l_t = alpha * x_t + (1 - alpha) * l_{t-1}``.

    Returns the level after observing each point; the one-step forecast
    for ``t+1`` is ``l_t``.
    """
    series = np.asarray(series, float)
    if series.ndim != 1 or len(series) == 0:
        raise ValueError(f"series must be non-empty 1-D, got shape {series.shape}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    from scipy.signal import lfilter

    # l_t - (1-alpha) l_{t-1} = alpha x_t, seeded with l_0 = x_0
    levels = lfilter([alpha], [1.0, -(1.0 - alpha)], series,
                     zi=[(1.0 - alpha) * series[0]])[0]
    return levels


def holt_linear(
    series: np.ndarray, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Holt's linear-trend smoothing; returns (levels, trends) per step."""
    series = np.asarray(series, float)
    if series.ndim != 1 or len(series) < 2:
        raise ValueError("need at least two points for a trend")
    if not (0.0 < alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError(f"invalid smoothing constants alpha={alpha}, beta={beta}")
    levels = np.empty(len(series))
    trends = np.empty(len(series))
    levels[0] = series[0]
    trends[0] = series[1] - series[0]
    for t in range(1, len(series)):  # genuinely sequential recursion
        levels[t] = alpha * series[t] + (1 - alpha) * (levels[t - 1] + trends[t - 1])
        trends[t] = beta * (levels[t] - levels[t - 1]) + (1 - beta) * trends[t - 1]
    return levels, trends


@register_forecaster("holt")
class HoltForecaster(Forecaster):
    """Holt's linear trend over each window's target history.

    ``fit`` grid-searches (alpha, beta) on the training series' one-step
    error; ``predict`` smooths each window and extrapolates
    ``level + k * trend``.

    The training series is ``x[0]``'s target column followed by ``y[:, 0]``,
    read as one series. A pooled fit over several streams' windows (the
    fleet's refit) therefore joins those streams' targets end to end, and
    the seams count towards the one-step error like any other step.

    ``fit`` runs the recursion once over time for all grid cells at once:
    level and trend are length-``cells`` vectors, ``alpha * x_t`` is one
    precomputed outer product, and each step is a few ``out=`` ufunc
    calls. Per cell these are the same IEEE operations as
    :func:`holt_linear`, with products and sums only commuted, and each
    cell's squared errors are summed along a contiguous row so NumPy's
    pairwise summation matches the 1-D sum. Every cell's SSE, and so the
    chosen (alpha, beta), is bit-identical to a scalar grid loop over
    :func:`holt_linear`: the first strict minimum in row-major
    (alpha, beta) order wins, a NaN SSE never wins, and an all-NaN/inf
    grid keeps ``(alphas[0], betas[0])``. At the fleet pool shape (1024
    windows of 12, the default 5x4 grid) this cut one fit from 28.6 ms
    (a Python loop over the 20 cells) to 5.0 ms on a 2-vCPU x86 host.
    """

    def __init__(
        self,
        horizon: int = 1,
        target_col: int = 0,
        alphas: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0),
        betas: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5),
    ) -> None:
        super().__init__(horizon=horizon, target_col=target_col)
        if len(alphas) == 0 or len(betas) == 0:
            raise ValueError("alphas and betas must be non-empty")
        if not all(0.0 < a <= 1.0 for a in alphas):
            raise ValueError(f"alphas must be in (0, 1], got {alphas}")
        if not all(0.0 <= b <= 1.0 for b in betas):
            raise ValueError(f"betas must be in [0, 1], got {betas}")
        self.alphas = alphas
        self.betas = betas
        self.alpha_: float | None = None
        self.beta_: float | None = None

    def fit(self, x, y, x_val=None, y_val=None) -> "HoltForecaster":
        self._check_xy(x, y)
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        series = np.concatenate([x[0, :, self.target_col], y[:, 0]])
        if len(series) < 2:
            raise ValueError("need at least two points for a trend")
        sse = self._grid_sse(series)
        # first strict minimum in row-major order; NaN never wins, and an
        # all-NaN/inf grid falls through to cell 0
        best = int(np.argmin(np.where(np.isnan(sse), np.inf, sse)))
        self.alpha_ = self.alphas[best // len(self.betas)]
        self.beta_ = self.betas[best % len(self.betas)]
        self.fitted = True
        return self

    def _grid_sse(self, series: np.ndarray) -> np.ndarray:
        """One-step SSE of every (alpha, beta) cell, in row-major order."""
        a = np.repeat(np.asarray(self.alphas, float), len(self.betas))
        b = np.tile(np.asarray(self.betas, float), len(self.alphas))
        om_a, om_b = 1 - a, 1 - b
        ax = np.multiply.outer(series, a)  # alpha * x_t for every t, cell
        level = np.full(len(a), series[0])
        new_level = np.empty_like(level)
        trend = np.full(len(a), series[1] - series[0])
        tmp = np.empty_like(level)
        one_step = np.empty((len(series) - 1, len(a)))  # level + trend forecasts
        # sequential in time, vectorized over cells
        for ax_t, step in zip(ax[1:], one_step):
            np.add(level, trend, out=step)
            np.multiply(step, om_a, out=tmp)
            np.add(ax_t, tmp, out=new_level)
            np.subtract(new_level, level, out=tmp)
            np.multiply(tmp, b, out=tmp)
            np.multiply(om_b, trend, out=trend)
            np.add(tmp, trend, out=trend)
            level, new_level = new_level, level
        # cell-major and C-contiguous, so each row sums pairwise exactly
        # as the 1-D ``((series[1:] - one_step) ** 2).sum()`` does
        err = np.ascontiguousarray((series[1:, None] - one_step).T)
        np.square(err, out=err)
        return err.sum(axis=1)

    def predict(self, x: np.ndarray) -> np.ndarray:
        self._check_fitted()
        self._check_xy(x)
        x = np.asarray(x, float)
        series = x[:, :, self.target_col]  # (N, window)
        if series.shape[1] < 2:
            raise ValueError("need at least two points for a trend")
        # the recursion is sequential in time but elementwise across the
        # batch, so one pass over the window serves all N rows at once —
        # bit-identical to smoothing each row with holt_linear (the
        # fleet's micro-batched forward depends on that equivalence)
        a, b = self.alpha_, self.beta_
        level = series[:, 0].copy()
        trend = series[:, 1] - series[:, 0]
        for t in range(1, series.shape[1]):
            new_level = a * series[:, t] + (1 - a) * (level + trend)
            trend = b * (new_level - level) + (1 - b) * trend
            level = new_level
        steps = np.arange(1, self.horizon + 1)
        return level[:, None] + steps[None, :] * trend[:, None]
