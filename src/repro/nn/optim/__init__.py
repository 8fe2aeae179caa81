"""The Adam optimizer and gradient-norm clipping."""

from .adam import Adam
from .clip import clip_grad_norm

__all__ = [
    "Adam",
    "clip_grad_norm",
]
