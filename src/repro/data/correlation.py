"""Pearson correlation screening — step 3/4 of Algorithm 1.

The paper (eq. 2) ranks every monitored indicator by its Pearson
correlation with the prediction target and keeps **the top half** of the
ranked list as model input. :func:`correlation_matrix` also regenerates
the Fig. 7 heatmap data.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pearson",
    "correlation_matrix",
    "rank_by_correlation",
    "select_top_half",
]


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient ρ(X, Y) — paper eq. (2).

    Returns 0 for a constant series (the limit convention; a constant
    indicator carries no linear information about the target).
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"pearson expects equal-length 1-D arrays, got {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise ValueError("need at least two samples")
    # ρ is scale-invariant: a unit largest magnitude keeps the sums of
    # squares of a tiny series from underflowing
    x = x / (np.abs(x).max() or 1.0)
    y = y / (np.abs(y).max() or 1.0)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc**2).sum() * (yc**2).sum())
    if denom == 0.0:
        return 0.0
    return float(np.clip((xc * yc).sum() / denom, -1.0, 1.0))


def correlation_matrix(values: np.ndarray) -> np.ndarray:
    """All-pairs Pearson matrix of a ``(T, k)`` indicator log (Fig. 7 data)."""
    values = np.asarray(values, float)
    if values.ndim != 2:
        raise ValueError(f"expected (T, k) matrix, got shape {values.shape}")
    # as in pearson: a unit largest magnitude per column keeps the sums of
    # squares of a tiny column from underflowing
    scale = np.abs(values).max(axis=0, initial=0.0)
    values = values / np.where(scale == 0.0, 1.0, scale)
    centered = values - values.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    safe = np.where(norms == 0.0, 1.0, norms)
    normalized = centered / safe
    corr = normalized.T @ normalized
    corr[norms == 0.0, :] = 0.0
    corr[:, norms == 0.0] = 0.0
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


def rank_by_correlation(
    values: np.ndarray, names: list[str], target: str
) -> list[tuple[str, float]]:
    """Indicators sorted by |ρ| with the target, target first.

    The target itself always ranks first (ρ = 1), matching the paper's
    screened set which retains the predicted resource's own history.
    """
    if target not in names:
        raise KeyError(f"target {target!r} not among indicators {names}")
    ti = names.index(target)
    corr = correlation_matrix(values)[ti]
    order = np.argsort(-np.abs(corr), kind="stable")
    return [(names[i], float(corr[i])) for i in order]


def select_top_half(
    values: np.ndarray, names: list[str], target: str
) -> tuple[list[str], list[tuple[str, float]]]:
    """Keep the top half of the correlation ranking (Algorithm 1, line 3-4).

    ``p = len(indicators) / 2`` rounded up so the screened set always
    includes the target plus at least one auxiliary indicator.
    """
    ranking = rank_by_correlation(values, names, target)
    p = max(2, (len(names) + 1) // 2)
    selected = [name for name, _ in ranking[:p]]
    return selected, ranking
