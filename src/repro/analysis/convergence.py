"""Loss-convergence analysis (paper Figs. 9-10).

The paper compares models on (a) how low the loss starts, (b) how fast it
converges, and (c) how low it ends. :func:`compare_convergence` extracts
those three facets from per-epoch loss curves so the benchmark can assert
the paper's qualitative ordering (RPTCN starts lowest and stays lowest).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ConvergenceRecord", "epochs_to_threshold", "compare_convergence"]


@dataclass(frozen=True)
class ConvergenceRecord:
    """Summary of one model's loss curve."""

    model: str
    initial_loss: float
    final_loss: float
    best_loss: float
    epochs: int
    epochs_to_90pct: int
    auc: float  # area under the loss curve — lower = faster + lower

    @property
    def converged(self) -> bool:
        return self.final_loss <= 1.05 * self.best_loss


def epochs_to_threshold(curve: list[float] | np.ndarray, fraction: float = 0.9) -> int:
    """First epoch at which ``fraction`` of the total loss drop is achieved.

    Returns the 1-based epoch index; a flat curve converges at epoch 1.
    """
    curve = np.asarray(curve, float)
    if curve.size == 0:
        raise ValueError("empty loss curve")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    start, best = curve[0], curve.min()
    drop = start - best
    if drop <= 0:
        return 1
    target = start - fraction * drop
    return int(np.argmax(curve <= target)) + 1


def compare_convergence(curves: dict[str, list[float]]) -> list[ConvergenceRecord]:
    """Summarize several models' loss curves, sorted by final loss."""
    records = []
    for model, curve in curves.items():
        arr = np.asarray(curve, float)
        if arr.size == 0:
            raise ValueError(f"model {model!r} has an empty loss curve")
        records.append(
            ConvergenceRecord(
                model=model,
                initial_loss=float(arr[0]),
                final_loss=float(arr[-1]),
                best_loss=float(arr.min()),
                epochs=int(arr.size),
                epochs_to_90pct=epochs_to_threshold(arr, 0.9),
                auc=float(np.trapezoid(arr)) if arr.size > 1 else float(arr[0]),
            )
        )
    records.sort(key=lambda r: r.final_loss)
    return records
