"""DataClean — step 1 of the paper's Algorithm 1.

"We first screen the records with complete information from the trace"
(§III-A). Besides the paper's drop-incomplete policy this module offers
linear interpolation (useful when a model needs a gap-free regular grid),
duplicate-timestamp removal, and outlier winsorization; each action is
recorded in a :class:`CleaningReport` for auditability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CleaningReport", "clean_matrix"]


@dataclass(frozen=True)
class CleaningReport:
    """What the cleaning pass did."""

    n_input: int
    n_output: int
    n_dropped_incomplete: int
    n_deduplicated: int
    n_interpolated_cells: int
    n_winsorized_cells: int

    @property
    def drop_fraction(self) -> float:
        return 0.0 if self.n_input == 0 else 1.0 - self.n_output / self.n_input


def _dedupe(timestamps: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Keep the first record of each timestamp (at-least-once delivery)."""
    _, first_idx = np.unique(timestamps, return_index=True)
    first_idx.sort()
    removed = len(timestamps) - len(first_idx)
    return timestamps[first_idx], values[first_idx], removed


def _interpolate_nan(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Linearly interpolate NaN cells column-by-column, edge-filling ends."""
    out = values.copy()
    filled = 0
    x = np.arange(len(values))
    for j in range(values.shape[1]):
        col = out[:, j]
        bad = np.isnan(col)
        if not bad.any():
            continue
        if bad.all():
            raise ValueError(f"column {j} is entirely missing; cannot interpolate")
        col[bad] = np.interp(x[bad], x[~bad], col[~bad])
        filled += int(bad.sum())
    return out, filled


def _winsorize(values: np.ndarray, z: float) -> tuple[np.ndarray, int]:
    """Clamp cells beyond ``z`` robust standard deviations (MAD-based)."""
    out = values.copy()
    med = np.nanmedian(out, axis=0)
    mad = np.nanmedian(np.abs(out - med), axis=0)
    sigma = 1.4826 * mad  # consistent with Gaussian std
    sigma[sigma == 0] = np.nanstd(out, axis=0)[sigma == 0] + 1e-12
    hi = med + z * sigma
    lo = med - z * sigma
    mask = (out > hi) | (out < lo)
    out = np.clip(out, lo, hi)
    return out, int(np.nansum(mask))


def clean_matrix(
    timestamps: np.ndarray,
    values: np.ndarray,
    *,
    policy: str = "drop",
    winsorize_z: float | None = None,
) -> tuple[np.ndarray, np.ndarray, CleaningReport]:
    """Clean a raw ``(T, k)`` log.

    policy:
        ``"drop"`` — the paper's rule: keep only complete records.
        ``"interpolate"`` — fill NaN cells by per-column linear interpolation
        (keeps the time axis regular for window construction).
    winsorize_z:
        If set, clamp cells further than ``z`` robust sigmas from the
        column median after missing-data handling.
    """
    if policy not in ("drop", "interpolate"):
        raise ValueError(f"policy must be 'drop' or 'interpolate', got {policy!r}")
    n_input = len(values)
    timestamps, values, n_dedup = _dedupe(np.asarray(timestamps), np.asarray(values, float))

    n_interp = 0
    if policy == "drop":
        keep = ~np.isnan(values).any(axis=1)
        dropped = int((~keep).sum())
        timestamps, values = timestamps[keep], values[keep]
    else:
        dropped = 0
        values, n_interp = _interpolate_nan(values)

    n_wins = 0
    if winsorize_z is not None:
        values, n_wins = _winsorize(values, winsorize_z)

    report = CleaningReport(
        n_input=n_input,
        n_output=len(values),
        n_dropped_incomplete=dropped,
        n_deduplicated=n_dedup,
        n_interpolated_cells=n_interp,
        n_winsorized_cells=n_wins,
    )
    return timestamps, values, report

