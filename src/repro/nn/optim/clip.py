"""Gradient-norm clipping (used for recurrent baselines)."""

from __future__ import annotations

import math
from typing import Iterable

from ..module import Parameter

__all__ = ["clip_grad_norm"]


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for logging training dynamics).
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    grads = [p.grad for p in params if p.grad is not None]
    if not grads:
        return 0.0
    total = math.sqrt(sum(float((g**2).sum()) for g in grads))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total
