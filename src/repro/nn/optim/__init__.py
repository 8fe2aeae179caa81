"""First-order optimizers and gradient clipping."""

from .adam import Adam, AdamW
from .base import Optimizer
from .clip import clip_grad_norm, clip_grad_value

__all__ = [
    "Optimizer",
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "clip_grad_value",
]
