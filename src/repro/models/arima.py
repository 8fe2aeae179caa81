"""ARIMA(p, d, q) built from scratch (the paper's classical baseline).

Fitting uses conditional sum of squares (CSS): Hannan-Rissanen two-stage
least squares provides the initial parameter vector, then
``scipy.optimize.minimize`` refines it. Residual recursion runs through
``scipy.signal.lfilter`` so the per-sample loop executes in C.

The model convention is

    w_t = c + sum_i phi_i w_{t-i} + e_t + sum_j theta_j e_{t-j},

with ``w`` the ``d``-times differenced series. Forecasts recurse with
future shocks set to zero and are integrated back to the original scale.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .base import Forecaster, register_forecaster

__all__ = ["ARIMA", "ARIMAForecaster", "select_arima_order"]


class ARIMA:
    """Univariate ARIMA with CSS estimation."""

    def __init__(self, p: int = 1, d: int = 0, q: int = 0, include_constant: bool = True) -> None:
        if min(p, d, q) < 0:
            raise ValueError(f"orders must be non-negative, got ({p},{d},{q})")
        if p == 0 and q == 0 and not include_constant:
            raise ValueError("ARIMA(0, d, 0) without constant has nothing to estimate")
        self.p = p
        self.d = d
        self.q = q
        self.include_constant = include_constant
        self.const_: float = 0.0
        self.phi_: np.ndarray = np.zeros(p)
        self.theta_: np.ndarray = np.zeros(q)
        self.sigma2_: float = float("nan")
        self.nobs_: int = 0
        self.fitted = False

    # -- internals -------------------------------------------------------------

    def _unpack(self, params: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        i = 0
        c = params[i] if self.include_constant else 0.0
        i += int(self.include_constant)
        phi = params[i : i + self.p]
        theta = params[i + self.p : i + self.p + self.q]
        return float(c), np.asarray(phi), np.asarray(theta)

    def _residuals(self, w: np.ndarray, c: float, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Conditional residuals of the ARMA recursion (pre-sample = 0)."""
        from scipy.signal import lfilter

        # rhs_t = w_t - c - sum phi_i w_{t-i}
        rhs = lfilter(np.concatenate(([1.0], -phi)), [1.0], w) - c
        # e_t = rhs_t - sum theta_j e_{t-j}
        e = lfilter([1.0], np.concatenate(([1.0], theta)), rhs)
        return e

    @staticmethod
    def _unstable(coeffs: np.ndarray) -> bool:
        """True when the polynomial 1 - c1 z - ... has a root inside the unit circle."""
        if coeffs.size == 0:
            return False
        roots = np.roots(np.concatenate(([1.0], -coeffs)))
        return bool(roots.size) and bool((np.abs(roots) > 1.0 - 1e-6).any())

    def _css(self, params: np.ndarray, w: np.ndarray) -> float:
        c, phi, theta = self._unpack(params)
        # soft barrier keeps the optimizer in the stationary/invertible region
        if self._unstable(phi) or self._unstable(-theta):
            return 1e12
        e = self._residuals(w, c, phi, theta)
        e = e[self.p :]  # conditional: skip the start-up transient
        return float((e**2).sum())

    def _hannan_rissanen(self, w: np.ndarray) -> np.ndarray:
        """Two-stage least-squares initialization."""
        t = len(w)
        m = min(max(self.p + self.q + 3, 5), max(t // 4, 1))
        # stage 1: long AR for residual estimates
        if m >= 1 and t > m + 1:
            rows = np.column_stack([w[m - i - 1 : t - i - 1] for i in range(m)])
            xmat = np.column_stack([np.ones(len(rows)), rows])
            beta, *_ = np.linalg.lstsq(xmat, w[m:], rcond=None)
            e_hat = np.zeros(t)
            e_hat[m:] = w[m:] - xmat @ beta
        else:
            e_hat = w - w.mean()

        # stage 2: regress w on its own lags and residual lags
        k = max(self.p, self.q)
        if t <= k + 2:
            x0 = np.zeros(int(self.include_constant) + self.p + self.q)
            if self.include_constant:
                x0[0] = w.mean()
            return x0
        cols = []
        if self.include_constant:
            cols.append(np.ones(t - k))
        for i in range(1, self.p + 1):
            cols.append(w[k - i : t - i])
        for j in range(1, self.q + 1):
            cols.append(e_hat[k - j : t - j])
        if not cols:
            return np.zeros(0)
        xmat = np.column_stack(cols)
        beta, *_ = np.linalg.lstsq(xmat, w[k:], rcond=None)

        # shrink any explosive initialization back inside the unit region
        c, phi, theta = self._unpack(beta)
        while self._unstable(phi):
            phi = phi * 0.9
        while self._unstable(-theta):
            theta = theta * 0.9
        out = []
        if self.include_constant:
            out.append(c)
        out.extend(phi)
        out.extend(theta)
        return np.asarray(out)

    # -- API -------------------------------------------------------------------

    def fit(self, series: np.ndarray) -> "ARIMA":
        series = np.asarray(series, float)
        if series.ndim != 1:
            raise ValueError(f"series must be 1-D, got shape {series.shape}")
        w = np.diff(series, n=self.d) if self.d else series.copy()
        min_len = self.p + self.q + 2 + int(self.include_constant)
        if len(w) < max(min_len, 8):
            raise ValueError(
                f"series too short: {len(series)} points for ARIMA({self.p},{self.d},{self.q})"
            )

        x0 = self._hannan_rissanen(w)
        if x0.size:
            from scipy.optimize import minimize

            res = minimize(
                self._css,
                x0,
                args=(w,),
                method="Nelder-Mead",
                options={"maxiter": 2000, "xatol": 1e-6, "fatol": 1e-8},
            )
            params = res.x if res.fun < self._css(x0, w) else x0
        else:
            params = x0
        self.const_, self.phi_, self.theta_ = self._unpack(params)
        e = self._residuals(w, self.const_, self.phi_, self.theta_)[self.p :]
        self.nobs_ = len(e)
        self.sigma2_ = float((e**2).mean()) if len(e) else float("nan")
        self._train_tail = series[-(self.d + max(self.p, self.q) + 32) :].copy()
        self.fitted = True
        return self

    @property
    def n_params(self) -> int:
        return self.p + self.q + int(self.include_constant)

    @property
    def aic(self) -> float:
        """Gaussian-CSS AIC: T log(sigma^2) + 2k."""
        if not self.fitted:
            raise RuntimeError("fit before reading AIC")
        if self.nobs_ == 0 or not math.isfinite(self.sigma2_) or self.sigma2_ <= 0:
            return float("inf")
        return self.nobs_ * math.log(self.sigma2_) + 2 * self.n_params

    def forecast(self, steps: int, history: np.ndarray | None = None) -> np.ndarray:
        """Forecast ``steps`` ahead from ``history`` (default: training tail).

        Parameters are the fitted ones; only the conditioning data changes,
        which is how the rolling evaluation applies one fitted model to
        every test window.
        """
        if not self.fitted:
            raise RuntimeError("fit before forecasting")
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        history = np.asarray(history, float) if history is not None else self._train_tail
        if len(history) < self.d + 1:
            raise ValueError(f"history of {len(history)} too short for d={self.d}")

        w = np.diff(history, n=self.d) if self.d else history.copy()
        e = self._residuals(w, self.const_, self.phi_, self.theta_)

        w_ext = list(w)
        e_ext = list(e)
        for _ in range(steps):
            val = self.const_
            for i in range(1, self.p + 1):
                if len(w_ext) - i >= 0:
                    val += self.phi_[i - 1] * w_ext[-i]
            for j in range(1, self.q + 1):
                if len(e_ext) - j >= 0:
                    val += self.theta_[j - 1] * e_ext[-j]
            w_ext.append(val)
            e_ext.append(0.0)
        w_fc = np.asarray(w_ext[len(w) :])

        # integrate the differencing back out, one order at a time
        fc = w_fc
        for k in range(self.d, 0, -1):
            base = np.diff(history, n=k - 1)[-1]
            fc = base + np.cumsum(fc)
        return fc


def select_arima_order(
    series: np.ndarray,
    max_p: int = 3,
    max_q: int = 2,
    d_candidates: tuple[int, ...] = (0, 1),
) -> tuple[int, int, int]:
    """Grid-search (p, d, q) by AIC (skipping degenerate (0, d, 0))."""
    best: tuple[float, tuple[int, int, int]] | None = None
    for d, p, q in itertools.product(d_candidates, range(max_p + 1), range(max_q + 1)):
        if p == 0 and q == 0:
            continue
        try:
            model = ARIMA(p, d, q).fit(series)
        except (ValueError, np.linalg.LinAlgError):
            continue
        score = model.aic
        if best is None or score < best[0]:
            best = (score, (p, d, q))
    if best is None:
        raise RuntimeError("no ARIMA order could be fitted on this series")
    return best[1]


@register_forecaster("arima")
class ARIMAForecaster(Forecaster):
    """Windowed-interface wrapper around :class:`ARIMA`.

    Parameters are estimated once on the (contiguous) training target
    series, then applied to every evaluation window: each window's target
    history conditions the residual recursion and the model forecasts
    ``horizon`` steps ahead. ARIMA is univariate, so only the target
    column of the window is used — the paper's Table II accordingly
    reports ARIMA in the *Uni* scenario only.
    """

    def __init__(
        self,
        horizon: int = 1,
        target_col: int = 0,
        order: tuple[int, int, int] | None = None,
        auto_max_p: int = 3,
        auto_max_q: int = 2,
    ) -> None:
        super().__init__(horizon=horizon, target_col=target_col)
        self.order = order
        self.auto_max_p = auto_max_p
        self.auto_max_q = auto_max_q
        self.model: ARIMA | None = None

    @staticmethod
    def _training_series(x: np.ndarray, y: np.ndarray, target_col: int) -> np.ndarray:
        """Reassemble the contiguous target series from stride-1 windows."""
        return np.concatenate([x[0, :, target_col], y[:, 0]])

    def fit(self, x, y, x_val=None, y_val=None) -> "ARIMAForecaster":
        self._check_xy(x, y)
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        series = self._training_series(x, y, self.target_col)
        order = self.order or select_arima_order(
            series, max_p=self.auto_max_p, max_q=self.auto_max_q
        )
        self.model = ARIMA(*order).fit(series)
        self.fitted = True
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        self._check_fitted()
        self._check_xy(x)
        assert self.model is not None
        x = np.asarray(x, float)
        out = np.empty((len(x), self.horizon))
        for i in range(len(x)):
            out[i] = self.model.forecast(self.horizon, history=x[i, :, self.target_col])
        return out
