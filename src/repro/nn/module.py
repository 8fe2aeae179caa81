"""Module / Parameter machinery (a compact analogue of ``torch.nn.Module``).

Modules register parameters and sub-modules automatically through
``__setattr__`` so that :meth:`Module.parameters`, :meth:`Module.state_dict`
and train/eval mode switching walk the whole tree.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A Tensor that is a learnable leaf of a module tree."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)
        # Parameters must stay differentiable even when constructed inside
        # a no_grad() block (e.g. lazily-built layers during inference).
        self.requires_grad = True


class Module:
    """Base class for all neural-network layers and models.

    ``Module.weights_version`` is one process-wide counter that every
    :meth:`load_state_dict` and :meth:`to_dtype` bumps, on whichever
    module of whichever tree it is called: state derived from a network's
    weights (a frozen inference plan) is valid while the counter holds
    still. Training steps (``p.data`` edited in place by an optimizer) do
    not bump it.
    """

    weights_version = 0

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- registration -------------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        setattr(self, name, module)

    # -- traversal -----------------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        """Yield every learnable parameter in the subtree (depth-first)."""
        seen: set[int] = set()
        for _, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                yield p

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def num_parameters(self) -> int:
        """Total number of scalar learnable weights."""
        return sum(p.size for p in self.parameters())

    # -- mode ------------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def to_dtype(self, dtype) -> "Module":
        """Cast every parameter in place (float32 for serving, float64 to train).

        Pair with :func:`repro.nn.set_default_dtype` (or the
        :class:`~repro.nn.tensor.dtype_policy` context manager) so inputs
        and weights agree and the inference fast paths stay in one dtype.
        """
        dt = np.dtype(dtype)
        for p in self.parameters():
            p.data = p.data.astype(dt, copy=False)
        Module.weights_version += 1
        return self

    # -- gradients ---------------------------------------------------------------

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # -- serialization -------------------------------------------------------------

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((name, p.data.copy()) for name, p in self.named_parameters())

    def load_state_dict(self, state: dict) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, p in own.items():
            value = np.asarray(state[name], dtype=p.data.dtype)
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: have {p.data.shape}, got {value.shape}"
                )
            p.data[...] = value
        Module.weights_version += 1

    # -- call protocol ------------------------------------------------------------

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        child_lines = [f"  ({name}): {module!r}" for name, module in self._modules.items()]
        body = "\n".join(child_lines)
        header = self.__class__.__name__
        return f"{header}(\n{body}\n)" if body else f"{header}()"
