"""Elementwise activation layers."""

from __future__ import annotations

from ..module import Module
from ..tensor import Tensor

__all__ = ["Tanh"]


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def __repr__(self) -> str:  # pragma: no cover
        return "Tanh()"
