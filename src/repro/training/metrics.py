"""Evaluation metrics.

MSE (paper eq. 9) and MAE (paper eq. 10) are the two metrics Table II
reports; the prediction pipeline also reports their companion RMSE. All
metrics accept arrays of any matching shape and reduce over every
element.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mse", "mae", "rmse"]


def _check(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, float)
    y_pred = np.asarray(y_pred, float)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("empty arrays")
    return y_true, y_pred


def mse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean squared error — paper eq. (9)."""
    y_true, y_pred = _check(y_true, y_pred)
    return float(np.mean((y_true - y_pred) ** 2))


def mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean absolute error — paper eq. (10)."""
    y_true, y_pred = _check(y_true, y_pred)
    return float(np.mean(np.abs(y_true - y_pred)))


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.sqrt(mse(y_true, y_pred)))

