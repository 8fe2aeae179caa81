"""Feature expansion — step 5 of Algorithm 1 (the paper's Fig. 4).

*Horizontal* expansion (Fig. 4b, the paper's choice) widens the feature
axis with lagged copies of each indicator: ``r`` becomes
``r_{t-2}, r_{t-1}, r_t`` (eq. 11). This increases the weight of
short-term-neighbouring moments and extends the effective time span seen
by a fixed-length window without lengthening it.

*Vertical* expansion (Fig. 4a) lengthens the per-indicator history, so
it needs no function here: it is a longer ``window`` passed to
:func:`repro.data.windowing.make_windows`.

The §V-C "future work" variants are implemented too: first-order
difference features and correlation-weighted lag counts.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "horizontal_expand",
    "difference_expand",
    "weighted_horizontal_expand",
]


def horizontal_expand(
    values: np.ndarray,
    names: list[str] | None = None,
    lags: tuple[int, ...] = (2, 1, 0),
) -> tuple[np.ndarray, list[str]]:
    """Widen ``(T, k)`` into ``(T - max_lag, k * len(lags))`` lag columns.

    Column order groups lags per indicator: for the paper's default
    ``lags=(2, 1, 0)`` the expansion of indicator ``cpu`` contributes
    ``cpu_lag2, cpu_lag1, cpu_lag0`` (``lag0`` is the current value).
    Rows before ``max(lags)`` are dropped because their lags don't exist.
    """
    values = np.asarray(values, float)
    if values.ndim != 2:
        raise ValueError(f"expected (T, k) matrix, got shape {values.shape}")
    if not lags:
        raise ValueError("lags may not be empty")
    if any(l < 0 for l in lags):
        raise ValueError(f"lags must be non-negative, got {lags}")
    t, k = values.shape
    max_lag = max(lags)
    if t <= max_lag:
        raise ValueError(f"series of length {t} too short for max lag {max_lag}")
    names = names if names is not None else [f"f{i}" for i in range(k)]
    if len(names) != k:
        raise ValueError(f"{k} columns but {len(names)} names")

    out_rows = t - max_lag
    blocks = []
    out_names: list[str] = []
    for j in range(k):
        for lag in lags:
            blocks.append(values[max_lag - lag : max_lag - lag + out_rows, j])
            out_names.append(f"{names[j]}_lag{lag}")
    return np.column_stack(blocks), out_names


def difference_expand(
    values: np.ndarray, names: list[str] | None = None
) -> tuple[np.ndarray, list[str]]:
    """Append first-order differences as extra feature columns (§V-C).

    The differenced column at row ``t`` is ``x_t - x_{t-1}``; the first
    row is dropped so every feature is defined.
    """
    values = np.asarray(values, float)
    if values.ndim != 2:
        raise ValueError(f"expected (T, k) matrix, got shape {values.shape}")
    if len(values) < 2:
        raise ValueError("need at least two rows to difference")
    k = values.shape[1]
    names = names if names is not None else [f"f{i}" for i in range(k)]
    diffs = np.diff(values, axis=0)
    out = np.concatenate([values[1:], diffs], axis=1)
    out_names = list(names) + [f"{n}_diff1" for n in names]
    return out, out_names


def weighted_horizontal_expand(
    values: np.ndarray,
    correlations: np.ndarray,
    names: list[str] | None = None,
    max_lags: int = 4,
) -> tuple[np.ndarray, list[str]]:
    """Correlation-weighted horizontal expansion (§V-C future work).

    Each indicator gets a lag count proportional to its |ρ| with the
    target: the most-correlated indicator receives ``max_lags`` lagged
    copies, the least-correlated exactly one (its current value).
    """
    values = np.asarray(values, float)
    correlations = np.asarray(correlations, float)
    if values.ndim != 2:
        raise ValueError(f"expected (T, k) matrix, got shape {values.shape}")
    k = values.shape[1]
    if correlations.shape != (k,):
        raise ValueError(f"need one correlation per column, got {correlations.shape}")
    if max_lags < 1:
        raise ValueError(f"max_lags must be >= 1, got {max_lags}")
    names = names if names is not None else [f"f{i}" for i in range(k)]

    weights = np.abs(correlations)
    top = weights.max()
    scale = weights / top if top > 0 else np.ones(k)
    n_copies = np.maximum(1, np.ceil(scale * max_lags).astype(int))

    max_lag = int(n_copies.max()) - 1
    t = values.shape[0]
    if t <= max_lag:
        raise ValueError(f"series of length {t} too short for max lag {max_lag}")
    out_rows = t - max_lag

    blocks = []
    out_names: list[str] = []
    for j in range(k):
        for lag in range(n_copies[j] - 1, -1, -1):
            blocks.append(values[max_lag - lag : max_lag - lag + out_rows, j])
            out_names.append(f"{names[j]}_lag{lag}")
    return np.column_stack(blocks), out_names
