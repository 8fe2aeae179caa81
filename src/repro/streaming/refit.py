"""Async background refits with atomic weight swap.

A pooled refit in :class:`~repro.streaming.fleet.FleetPredictor` used to
run in-line with the serving tick, so the tick that triggered it paid
the full fit cost — exactly the p99 tail spike that blocks 10^6-stream
runs (ROADMAP item 3; cf. the pruned-GRU online predictor and esDNN in
PAPERS.md, which both assume model updates never block serving).

This module moves the fit off the serving path:

* :class:`RefitTask` is a self-contained fit request — forecaster name +
  kwargs, the pooled ``(x, y)`` training windows (copied, so the serving
  ring can keep mutating), an optional warm-start payload (the current
  model's bytes, resumed via :meth:`Forecaster.warm_fit`), and the fleet
  step at submission (the staleness anchor). Tasks pickle, so an
  in-flight refit survives checkpoint/restore by resubmission.
* :class:`AsyncRefitEngine` owns one background worker — a daemon
  thread (numpy kernels release the GIL, so the fit genuinely overlaps
  serving on multicore) — with **one task in flight at a time**:
  ``submit`` rejects while busy (the caller's refit clock decides
  whether to retry next tick), ``poll`` is the non-blocking
  serving-path call that collects a finished fit.
* :func:`fit_task` executes one task. The worker runs it on a
  **fresh** model object (warm starts resume a *copy* deserialized from
  bytes), so the live serving model is never mutated off-thread; the
  finished model travels back in a :class:`RefitOutcome`. In-line
  (sync) refits run the same function under the caller's supervisor.

The engine is mechanism only: adoption (when to poll, what counts as a
failure, staleness accounting) lives with the caller —
:class:`FleetPredictor` adopts a finished model at the start of a tick
by one reference assignment, so serving sees the old model or the new
one, never a half-updated one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..models.base import Forecaster, create_forecaster

__all__ = ["RefitTask", "RefitOutcome", "AsyncRefitEngine", "fit_task"]


@dataclass(frozen=True)
class RefitTask:
    """One self-contained background fit request.

    ``x``/``y`` are private copies of the pooled training windows —
    the submitting predictor's ring buffer keeps mutating while the fit
    runs, so the task must not alias serving memory. ``warm_state``
    carries the current model's :meth:`Forecaster.to_bytes` payload when
    the caller wants a warm-start resume; the worker deserializes a
    *copy*, so the live model is never touched off-thread.
    """

    forecaster_name: str
    forecaster_kwargs: dict[str, Any]
    x: np.ndarray
    y: np.ndarray
    warm_state: bytes | None = None
    warm_epochs: int | None = None
    step: int = -1  #: fleet step at submission — anchors refit lag/staleness

    def state_dict(self) -> dict:
        """Checkpoint payload; inverse of :meth:`from_state`."""
        return {
            "forecaster_name": self.forecaster_name,
            "forecaster_kwargs": dict(self.forecaster_kwargs),
            "x": np.array(self.x),
            "y": np.array(self.y),
            "warm_state": self.warm_state,
            "warm_epochs": self.warm_epochs,
            "step": self.step,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RefitTask":
        return cls(**state)


@dataclass(frozen=True)
class RefitOutcome:
    """What the worker produced for one task (exactly one per submit)."""

    ok: bool
    model: Forecaster | None
    task: RefitTask
    error: str | None = None
    fit_seconds: float = 0.0


def fit_task(task: RefitTask) -> Forecaster:
    """Execute one fit request; shared by the worker and sync callers.

    Warm path: deserialize the shipped weights and resume via
    :meth:`Forecaster.warm_fit` with the task's epoch budget. Any warm
    failure — corrupt payload, shape drift, model without warm support —
    falls back to a fit-from-scratch, so a warm request can only ever
    degrade to the cold behavior, never to no model.
    """
    if task.warm_state is not None:
        try:
            model = Forecaster.from_bytes(task.warm_state)
            if getattr(model, "supports_warm_fit", False):
                model.warm_fit(task.x, task.y, epochs=task.warm_epochs)
                return model
        except Exception:  # noqa: BLE001 — warm start is an optimization, not a contract
            pass
    model = create_forecaster(task.forecaster_name, **task.forecaster_kwargs)
    model.fit(task.x, task.y)
    return model


class AsyncRefitEngine:
    """One background fit at a time; outcomes collected by :meth:`poll`.

    Lifecycle per refit::

        submit(task) -> True        # worker starts fitting off-path
        busy -> True                # until the outcome is polled
        poll() -> RefitOutcome      # non-blocking; exactly once per task

    ``submit`` while ``busy`` (a task in flight, or its outcome
    unconsumed) returns ``False`` — the caller's refit clock re-arms and
    tries again later, so refit cadence degrades gracefully to
    ``max(refit_interval, fit_time)`` instead of queueing stale work.

    ``pending_task()`` exposes the task that has not yet been *adopted*
    (in flight or finished-but-unpolled) so a checkpoint can persist it
    and a restore can resubmit it deterministically.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: RefitTask | None = None
        self._outcome: RefitOutcome | None = None
        self._closed = False
        self._thread: threading.Thread | None = None

    # -- worker plumbing -------------------------------------------------------

    def _ensure_thread(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._thread = threading.Thread(
            target=self._thread_main, name="refit-worker", daemon=True
        )
        self._thread.start()

    def _thread_main(self) -> None:
        while True:
            with self._cond:
                while self._pending is None and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return
                task = self._pending
            t0 = time.perf_counter()
            try:
                model = fit_task(task)
                outcome = RefitOutcome(
                    True, model, task, fit_seconds=time.perf_counter() - t0
                )
            except Exception as exc:  # noqa: BLE001 — failures become outcomes
                outcome = RefitOutcome(
                    False,
                    None,
                    task,
                    error=f"{type(exc).__name__}: {exc}",
                    fit_seconds=time.perf_counter() - t0,
                )
            with self._cond:
                self._outcome = outcome
                self._pending = None
                self._cond.notify_all()

    # -- API -------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """A submitted task has not been collected by :meth:`poll` yet.

        True while the fit runs *and* while its outcome waits unpolled —
        exactly the condition under which :meth:`submit` rejects, so a
        caller that checks ``busy`` first never has a submit rejected.
        """
        with self._lock:
            return self._pending is not None or self._outcome is not None

    def submit(self, task: RefitTask) -> bool:
        """Hand a task to the worker; ``False`` while :attr:`busy`."""
        if self._closed:
            raise RuntimeError("AsyncRefitEngine is closed")
        with self._cond:
            if self._pending is not None or self._outcome is not None:
                return False
            self._pending = task
            self._cond.notify_all()
        self._ensure_thread()
        return True

    def poll(self) -> RefitOutcome | None:
        """Collect a finished fit, if any — non-blocking, the serving-path call."""
        with self._lock:
            outcome = self._outcome
            self._outcome = None
            return outcome

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the in-flight fit (if any) lands; ``True`` if none runs.

        A landed outcome still waits for :meth:`poll`, so ``busy`` stays
        True after a successful ``wait`` until the caller collects it.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._cond:
            while self._pending is not None:
                remaining = None if deadline is None else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def pending_task(self) -> RefitTask | None:
        """The task not yet adopted by the caller (for checkpointing)."""
        with self._lock:
            if self._pending is not None:
                return self._pending
            if self._outcome is not None:
                return self._outcome.task
            return None

    def close(self) -> None:
        """Stop the worker; in-flight work is abandoned."""
        if self._closed:
            return
        self._closed = True
        with self._cond:
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "AsyncRefitEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
