"""Feature scaling — step 2 of Algorithm 1.

The paper normalizes with the max-min method (eq. 1):
``x_norm = (x - X_min) / (X_max - X_min)``. :class:`MinMaxScaler`
implements exactly that with a fitted inverse for de-normalizing
predictions back to utilization percent.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MinMaxScaler"]


class MinMaxScaler:
    """Per-column min-max normalization to ``[0, 1]`` (paper eq. 1).

    Constant columns map to 0 (the paper's formula would divide by zero;
    zero is the conventional choice and keeps the inverse exact).
    """

    _fitted: bool = False

    def __init__(self) -> None:
        self.min_: np.ndarray | None = None
        self.max_: np.ndarray | None = None

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__} must be fitted before use")

    def fit(self, x: np.ndarray) -> "MinMaxScaler":
        x = np.asarray(x, float)
        if x.ndim == 1:
            x = x[:, None]
        if np.isnan(x).any():
            raise ValueError("MinMaxScaler.fit received NaNs; clean the data first")
        self.min_ = x.min(axis=0)
        self.max_ = x.max(axis=0)
        self._fitted = True
        return self

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def _span(self) -> np.ndarray:
        span = self.max_ - self.min_
        span = np.where(span == 0.0, 1.0, span)
        return span

    def transform(self, x: np.ndarray) -> np.ndarray:
        self._check_fitted()
        x = np.asarray(x, float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        out = (x - self.min_) / self._span()
        return out[:, 0] if squeeze else out

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        self._check_fitted()
        x = np.asarray(x, float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        out = x * self._span() + self.min_
        return out[:, 0] if squeeze else out

    def inverse_transform_column(self, x: np.ndarray, column: int) -> np.ndarray:
        """Invert a single column's scaling (for de-normalizing CPU predictions)."""
        self._check_fitted()
        span = self._span()
        return np.asarray(x, float) * span[column] + self.min_[column]

