"""Mini-batch training loop for :mod:`repro.nn` models.

The loop is observable through :mod:`repro.obs`: ``fit`` runs inside a
``train.fit`` span with one ``train.epoch`` child per epoch, per-batch
and per-epoch latencies land in histograms, and loss / grad-norm /
throughput gauges track the most recent values. All of it is skipped when
:func:`repro.obs.set_enabled` has turned instrumentation off, so the
uninstrumented hot path stays as fast as before.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..nn import init as nn_init
from ..nn.module import Module
from ..nn.optim.adam import Adam
from ..nn.optim.clip import clip_grad_norm
from ..nn.tensor import Tensor, no_grad
from ..obs import trace
from ..obs.registry import MetricRegistry, get_registry, is_enabled
from .callbacks import Callback

__all__ = ["Trainer", "TrainingHistory", "predict_batches"]


def predict_batches(
    forward: Callable[[np.ndarray], np.ndarray], x: np.ndarray, batch_size: int = 256
) -> np.ndarray:
    """``forward`` over ``batch_size``-row chunks of ``x``, into one array.

    The output array is preallocated after the first chunk reveals the
    head shape, and each chunk is written into its slice in place: no
    Python list of chunk outputs, no terminal ``np.concatenate``. An
    empty ``x`` still runs one zero-row forward, so the result has the
    head's trailing shape.
    """
    out_arr: np.ndarray | None = None
    for start in range(0, max(len(x), 1), batch_size):
        stop = min(start + batch_size, len(x))
        out = forward(x[start:stop])
        if out_arr is None:
            out_arr = np.empty((len(x),) + out.shape[1:], dtype=out.dtype)
        out_arr[start:stop] = out
    return out_arr


@dataclass
class TrainingHistory:
    """Per-epoch loss curves produced by one :meth:`Trainer.fit` run."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    epochs_run: int = 0
    stopped_early: bool = False

    def as_dict(self) -> dict[str, list[float]]:
        return {"loss": self.train_loss, "val_loss": self.val_loss}


class Trainer:
    """Train a model with an optimizer, a loss module, and callbacks.

    Parameters
    ----------
    model, optimizer, loss:
        The model, an :class:`~repro.nn.optim.Adam` over its parameters,
        and a loss module; the loss is called as
        ``loss(prediction, target)`` and must return a scalar Tensor.
    grad_clip_norm:
        Optional joint-L2 gradient clipping (recurrent nets benefit).
    rng:
        Generator for the per-epoch batch shuffle — keeps runs
        reproducible.
    registry:
        :class:`~repro.obs.MetricRegistry` for training metrics
        (``None`` = the process-global default, resolved at fit time).
    """

    def __init__(
        self,
        model: Module,
        optimizer: Adam,
        loss: Module,
        grad_clip_norm: float | None = None,
        rng: np.random.Generator | None = None,
        registry: MetricRegistry | None = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.loss = loss
        self.grad_clip_norm = grad_clip_norm
        self.rng = rng if rng is not None else nn_init.default_rng()
        self.registry = registry

    # -- evaluation ----------------------------------------------------------

    @contextmanager
    def _eval_mode(self) -> Iterator[None]:
        """Eval mode for the block, restored after it.

        The module tree is walked only when the mode changes: a model
        already in eval mode (every fitted model) is left alone.
        """
        was_training = self.model.training
        if was_training:
            self.model.eval()
        try:
            yield
        finally:
            if was_training:
                self.model.train()

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
        """Mean loss over a dataset, in eval mode with autograd off.

        The model's train/eval mode is restored afterwards.
        """
        total = 0.0
        count = 0
        with self._eval_mode(), no_grad():
            for start in range(0, len(x), batch_size):
                stop = min(start + batch_size, len(x))
                xb = Tensor(x[start:stop])
                yb = Tensor(y[start:stop])
                out = self.model(xb)
                loss = self.loss(out, yb)
                total += loss.item() * (stop - start)
                count += stop - start
        return total / max(count, 1)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Forward pass over a dataset (eval mode, no graph).

        Runs :func:`predict_batches` over the Module forward. The model's
        train/eval mode is restored afterwards.
        """
        with self._eval_mode(), no_grad():
            return predict_batches(lambda xb: self.model(Tensor(xb)).data, x, batch_size)

    # -- training ----------------------------------------------------------------

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
        epochs: int = 50,
        batch_size: int = 32,
        callbacks: list[Callback] | None = None,
    ) -> TrainingHistory:
        callbacks = list(callbacks or [])
        history = TrainingHistory()
        has_val = x_val is not None and y_val is not None

        obs_on = is_enabled()
        if obs_on:
            reg = get_registry(self.registry)
            h_batch = reg.histogram("training_batch_seconds", "batch step latency")
            h_epoch = reg.histogram("training_epoch_seconds", "epoch latency")
            c_epochs = reg.counter("training_epochs_total", "epochs completed")
            c_batches = reg.counter("training_batches_total", "batch steps completed")
            g_loss = reg.gauge("training_loss", "most recent epoch training loss")
            g_val = reg.gauge("training_val_loss", "most recent validation loss")
            g_grad = reg.gauge("training_grad_norm", "pre-clip grad norm of the last batch")
            g_tput = reg.gauge(
                "training_throughput_samples_per_sec", "samples/s of the last epoch"
            )

        for cb in callbacks:
            cb.on_train_begin(self.model)

        self.model.train()
        n = len(x_train)
        # one module-tree walk per fit, not per batch
        clipped = list(self.model.parameters()) if self.grad_clip_norm is not None else []
        with trace.span("train.fit") as fit_span:
            for epoch in range(epochs):
                idx = np.arange(n)
                self.rng.shuffle(idx)
                epoch_loss = 0.0
                epoch_t0 = time.perf_counter()
                with trace.span("train.epoch") as epoch_span:
                    for start in range(0, n, batch_size):
                        sel = idx[start : start + batch_size]
                        batch_t0 = time.perf_counter()
                        xb = Tensor(x_train[sel])
                        yb = Tensor(y_train[sel])
                        self.optimizer.zero_grad()
                        out = self.model(xb)
                        loss = self.loss(out, yb)
                        loss.backward()
                        if self.grad_clip_norm is not None:
                            grad_norm = clip_grad_norm(clipped, self.grad_clip_norm)
                            if obs_on:
                                g_grad.set(grad_norm)
                        self.optimizer.step()
                        epoch_loss += loss.item() * len(sel)
                        if obs_on:
                            h_batch.observe(time.perf_counter() - batch_t0)
                            c_batches.inc()
                            epoch_span.add("batches")
                epoch_loss /= n
                epoch_dt = time.perf_counter() - epoch_t0

                logs: dict[str, float] = {"loss": epoch_loss}
                history.train_loss.append(epoch_loss)
                if has_val:
                    val_loss = self.evaluate(x_val, y_val)
                    logs["val_loss"] = val_loss
                    history.val_loss.append(val_loss)
                history.epochs_run = epoch + 1

                if obs_on:
                    h_epoch.observe(epoch_dt)
                    c_epochs.inc()
                    fit_span.add("epochs")
                    g_loss.set(epoch_loss)
                    if has_val:
                        g_val.set(logs["val_loss"])
                    if epoch_dt > 0:
                        g_tput.set(n / epoch_dt)

                stop = False
                for cb in callbacks:
                    cb.on_epoch_end(epoch, logs, self.model)
                    stop = stop or cb.stop_training
                if stop:
                    history.stopped_early = True
                    break

        for cb in callbacks:
            cb.on_train_end(self.model)
        self.model.eval()
        return history
