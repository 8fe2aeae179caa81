"""Training callbacks: the :class:`Callback` hooks and early stopping.

:class:`EarlyStopping` reproduces the paper's setup: "we use the callback
function EarlyStopping to prevent model overfitting, and the parameter
*patience* is 10" (§IV-A), including Keras' restore-best-weights option.
Per-epoch logs need no callback: they come back in the
:class:`~repro.training.trainer.TrainingHistory` that
:meth:`~repro.training.trainer.Trainer.fit` returns.
"""

from __future__ import annotations

import math

from ..nn.module import Module

__all__ = ["Callback", "EarlyStopping"]


class Callback:
    """Hooks invoked by :class:`repro.training.trainer.Trainer`."""

    def on_train_begin(self, model: Module) -> None: ...

    def on_epoch_end(self, epoch: int, logs: dict[str, float], model: Module) -> None: ...

    def on_train_end(self, model: Module) -> None: ...

    @property
    def stop_training(self) -> bool:
        return False


class EarlyStopping(Callback):
    """Stop when a monitored metric stops improving (paper: patience=10)."""

    def __init__(
        self,
        monitor: str = "val_loss",
        patience: int = 10,
        min_delta: float = 0.0,
        restore_best_weights: bool = True,
    ) -> None:
        if patience < 0:
            raise ValueError(f"patience must be >= 0, got {patience}")
        self.monitor = monitor
        self.patience = patience
        self.min_delta = min_delta
        self.restore_best_weights = restore_best_weights
        self.best = math.inf
        self.best_epoch = -1
        self.wait = 0
        self._stop = False
        self._best_state: dict | None = None

    @property
    def stop_training(self) -> bool:
        return self._stop

    def on_train_begin(self, model: Module) -> None:
        self.best = math.inf
        self.best_epoch = -1
        self.wait = 0
        self._stop = False
        self._best_state = None

    def on_epoch_end(self, epoch: int, logs: dict[str, float], model: Module) -> None:
        current = logs.get(self.monitor)
        if current is None:
            raise KeyError(
                f"EarlyStopping monitors {self.monitor!r} but logs only has {sorted(logs)}"
            )
        if current < self.best - self.min_delta:
            self.best = current
            self.best_epoch = epoch
            self.wait = 0
            if self.restore_best_weights:
                self._best_state = model.state_dict()
        else:
            self.wait += 1
            if self.wait > self.patience:
                self._stop = True

    def on_train_end(self, model: Module) -> None:
        if self.restore_best_weights and self._best_state is not None:
            model.load_state_dict(self._best_state)

