"""Loss functions.

MSE (paper eq. 9) is the training objective in all experiments. MAE
(paper eq. 10) is a reporting metric only
(:func:`repro.training.metrics.mae`); the quantile forecasters' pinball
loss lives with them in :mod:`repro.models.quantile`.
"""

from __future__ import annotations

from .module import Module
from .tensor import Tensor

__all__ = ["MSELoss"]


class _Loss(Module):
    def __init__(self, reduction: str = "mean") -> None:
        super().__init__()
        if reduction not in ("mean", "sum", "none"):
            raise ValueError(f"reduction must be mean/sum/none, got {reduction!r}")
        self.reduction = reduction

    def _reduce(self, per_element: Tensor) -> Tensor:
        if self.reduction == "mean":
            return per_element.mean()
        if self.reduction == "sum":
            return per_element.sum()
        return per_element


class MSELoss(_Loss):
    """Mean squared error — paper eq. (9)."""

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        target = Tensor.ensure(target)
        diff = prediction - target
        return self._reduce(diff * diff)
