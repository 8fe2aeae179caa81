"""Online prediction service: gate -> buffer -> predict -> score -> (re)fit.

Prequential protocol: for each arriving record the predictor first emits
a forecast for it from the previous state (test), then absorbs the record
(train). Refits happen every ``refit_interval`` records and whenever the
Page-Hinkley detector fires on the absolute-error stream.

Unlike the first version of this module, the serving loop is built for a
hostile stream (paper §III-A: data "partially incomplete or has outliers
due to network anomalies, system interruption etc."):

* every record passes an :class:`~repro.streaming.resilience.InputGate`
  before it can touch the :class:`RollingBuffer` — NaN or malformed
  records are repaired or quarantined and *counted*, never absorbed;
* refits and predictions run under a
  :class:`~repro.streaming.resilience.Supervisor` (retry + backoff +
  wall-time budget); repeated refit failure degrades to a registered
  fallback forecaster instead of killing the service;
* every :class:`PredictionRecord` carries a
  :class:`~repro.streaming.resilience.HealthStatus`;
* the full serving state checkpoints to a single crash-safe artifact
  (:meth:`OnlinePredictor.save` / :meth:`OnlinePredictor.restore`), so a
  restarted process resumes mid-stream bit-for-bit.

The model lifecycle — refit adoption, fallback, health, serving counters
and the checkpoint envelope — lives in :class:`_ServingPredictor`, which
:class:`~repro.streaming.fleet.FleetPredictor` shares; each predictor
keeps only its own hot path (gate, buffer, stats, sanitizer, record
assembly).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, TypeVar

import numpy as np

from ..models.base import Forecaster, create_forecaster
from ..obs import trace
from ..obs.registry import Gauge as MetricGauge
from ..obs.registry import Histogram as MetricHistogram
from ..obs.registry import MetricRegistry, get_registry, is_enabled, log_buckets
from .buffer import RollingBuffer
from .checkpoint import CheckpointError, Stateful, parse_fields, read_checkpoint, write_checkpoint
from .drift import PageHinkley
from .refit import RefitTask, fit_task
from .resilience import GatePolicy, HealthStatus, InputGate, Supervisor, SupervisorPolicy

#: numeric encoding of :class:`HealthStatus` for the health gauge
_HEALTH_LEVEL = {
    HealthStatus.HEALTHY: 0,
    HealthStatus.DEGRADED: 1,
    HealthStatus.FALLBACK: 2,
    HealthStatus.RECOVERING: 3,
}
#: one serving step (record or fleet tick) in this many opens a trace
#: span; the latency histogram still sees every step
_SPAN_SAMPLE = 8
#: constructor options older checkpoints may still carry; restore drops them
_RETIRED_OPTIONS = ("error_history", "refit_backend", "serve_dtype", "span_sample")

__all__ = ["PredictionRecord", "OnlinePredictor"]

_P = TypeVar("_P", bound="_ServingPredictor")


@dataclass(frozen=True)
class PredictionRecord:
    """One prequential step's outcome."""

    step: int
    prediction: float | None  # None while warming up or when quarantined
    actual: float
    error: float | None
    refit: bool
    drift: bool
    health: HealthStatus = HealthStatus.HEALTHY
    #: gate verdict for this record: None (clean), "imputed" or "quarantined"
    gated: str | None = None


@dataclass
class _OnlineStats(Stateful):
    n_predictions: int = 0
    sum_abs_error: float = 0.0
    sum_sq_error: float = 0.0
    n_refits: int = 0
    n_drifts: int = 0
    n_refit_failures: int = 0
    n_predict_failures: int = 0
    n_fallback_predictions: int = 0
    n_fallback_predict_failures: int = 0
    n_clamped_predictions: int = 0

    @property
    def mae(self) -> float:
        return self.sum_abs_error / max(self.n_predictions, 1)

    @property
    def mse(self) -> float:
        return self.sum_sq_error / max(self.n_predictions, 1)

    def state_dict(self) -> dict:
        return dict(vars(self))

    def parse_state(self, state: dict) -> Callable[[], None]:
        # pre-fleet checkpoints lack ``n_fallback_predict_failures``; it started at 0
        saved = parse_fields({"n_fallback_predict_failures": 0, **state}, vars(self), "stats")
        return lambda: vars(self).update(saved)


class _ServingPredictor(Stateful):
    """The serving-model lifecycle both predictors share.

    :class:`OnlinePredictor` serves one stream record by record and
    :class:`~repro.streaming.fleet.FleetPredictor` serves N streams tick
    by tick; what differs between them is only the hot path (gate,
    history buffer, stats arrays, output sanitizer, record assembly).
    The model they serve is managed here once: refit adoption
    (:meth:`_finish_refit`), the fallback (:meth:`_fit_fallback`,
    :meth:`_forward`), :attr:`health`, the serving counters and the
    checkpoint envelope (:meth:`state_dict`, :meth:`save`,
    :meth:`restore`).

    Parameters
    ----------
    forecaster_name, forecaster_kwargs:
        Registered forecaster refitted on the buffered history. Cheap
        refittable models (``xgboost``, ``holt``, ``arima``) suit the
        online setting; deep models work but pay seconds per refit.
    window:
        Input window length fed to the forecaster.
    buffer_capacity:
        History kept for refits (per stream).
    refit_interval:
        Scheduled refit period (in records, or fleet ticks); drift can
        trigger earlier.
    min_fit_size:
        History a stream needs before drift may trigger a refit, and
        before the first fit (default ``3 * window``).
    target_col:
        Which feature column is the prediction target.
    features:
        Feature columns per record.
    detector:
        Page-Hinkley drift detector over absolute errors (default
        parameters when ``None``).
    gate_policy:
        Input-gate behaviour (imputation / outlier screening); the gate
        is always on — it is what keeps one NaN record from silently
        poisoning every later training window.
    supervisor_policy:
        Retry/backoff/budget envelope for refits (predictions reuse it
        with retries disabled — retrying a deterministic forward pass
        cannot help).
    fallback_forecaster, fallback_kwargs:
        Registered forecaster served when the primary is unusable
        (never fitted, or ``fallback_after`` consecutive refit
        failures). Must be cheap and hard to break: ``"persistence"``
        (default), ``"mean"`` or ``"holt"``.
    refit_fault_hook:
        Test/chaos hook invoked at the start of every refit attempt;
        raising from it simulates a refit crash (see
        :class:`~repro.streaming.faults.FaultInjector.refit_fault`).
    registry:
        :class:`~repro.obs.MetricRegistry` receiving the serving metrics
        (step latency histogram, health gauge, the event counters, plus
        the gate and supervisor instruments). ``None`` uses the
        process-global registry. The event counters move where the event
        happens, so like the gate/supervisor counts they record whether
        or not :func:`repro.obs.set_enabled` is on; the latency
        histogram, the gauges and the trace spans (every eighth step)
        respect it.
    """

    #: ``kind`` tag of the artifacts :meth:`save` writes and :meth:`restore` reads
    _CHECKPOINT_KIND = ""
    #: metric names are ``{prefix}_{counter}_total`` and ``{prefix}_health_state``
    _METRIC_PREFIX = "serving"
    #: checkpoint config entries that must equal the live predictor's
    _IDENTITY = ("forecaster_name", "window", "features", "buffer_capacity")
    _COUNTERS = (
        ("predictions", "predictions served"),
        ("refits", "successful refits"),
        ("refit_failures", "terminally failed refits"),
        ("drift_events", "drift detector firings"),
        ("fallback_predictions", "predictions served by the fallback"),
        ("fallback_predict_failures", "fallback forwards that also failed"),
        ("clamped_predictions", "predictions clamped into the plausibility band"),
    )
    #: warm-started refits are a fleet option; the scalar predictor fits cold
    warm_start = False
    warm_epochs: int | None = None

    def __init__(
        self,
        forecaster_name: str,
        forecaster_kwargs: dict[str, Any] | None,
        window: int,
        buffer_capacity: int,
        refit_interval: int,
        min_fit_size: int | None,
        target_col: int,
        supervisor_policy: SupervisorPolicy | None,
        fallback_forecaster: str,
        fallback_kwargs: dict[str, Any] | None,
        refit_fault_hook: Callable[[], None] | None,
        registry: MetricRegistry | None,
    ) -> None:
        if buffer_capacity < window + 2:
            raise ValueError(
                f"buffer_capacity ({buffer_capacity}) must exceed window+1 ({window + 1})"
            )
        if refit_interval < 1:
            raise ValueError(f"refit_interval must be >= 1, got {refit_interval}")
        self.forecaster_name = forecaster_name
        self.forecaster_kwargs = dict(forecaster_kwargs or {})
        self.forecaster_kwargs.setdefault("target_col", target_col)
        self.window = window
        self.refit_interval = refit_interval
        self.min_fit_size = min_fit_size if min_fit_size is not None else 3 * window
        self.target_col = target_col
        self.fallback_forecaster = fallback_forecaster
        self.fallback_kwargs = dict(fallback_kwargs or {})
        self.fallback_kwargs.setdefault("target_col", target_col)
        self.refit_fault_hook = refit_fault_hook
        self._registry = registry = get_registry(registry)
        self.refit_supervisor = Supervisor(supervisor_policy, duty="refit", registry=registry)
        # predictions: same budget envelope, but no retries
        predict_policy = supervisor_policy or SupervisorPolicy()
        self.predict_supervisor = Supervisor(
            SupervisorPolicy(
                max_retries=0,
                backoff_base=0.0,
                time_budget=predict_policy.time_budget,
                fallback_after=predict_policy.fallback_after,
            ),
            duty="predict",
            registry=registry,
        )
        prefix = self._METRIC_PREFIX
        self._counters = {
            name: registry.counter(f"{prefix}_{name}_total", help)
            for name, help in self._COUNTERS
        }
        self._g_health = registry.register(
            MetricGauge(f"{prefix}_health_state", "0=healthy 1=degraded 2=fallback")
        )
        # the gauge is written only when the level changes
        self._last_health_level: int | None = None
        self._span_tick = 0
        self.model: Forecaster | None = None
        self.fallback_model: Forecaster | None = None
        self.on_fallback = False
        #: bumps on every adopted primary model (0 = no model yet)
        self.model_version = 0
        #: step whose training windows fitted the live model (-1 = none)
        self._model_step = -1
        self._step = 0
        self._since_refit = 0

    # -- health ---------------------------------------------------------------

    @property
    def health(self) -> HealthStatus:
        """Current serving health (a record served by the fallback says so itself)."""
        if self.on_fallback:
            return HealthStatus.FALLBACK
        if (
            self.refit_supervisor.consecutive_failures > 0
            or self.predict_supervisor.consecutive_failures > 0
        ):
            return HealthStatus.DEGRADED
        return HealthStatus.HEALTHY

    def _observe_health(self, status: HealthStatus) -> None:
        level = _HEALTH_LEVEL[status]
        if level != self._last_health_level:
            self._last_health_level = level
            self._g_health.set(level)

    # -- model lifecycle ------------------------------------------------------------

    def _training_windows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(x, y)`` training windows for a refit or the fallback fit."""
        raise NotImplementedError

    def _fit_fallback(self) -> None:
        """Fit the fallback forecaster on the training windows (never raises)."""
        try:
            x, y = self._training_windows()
            model = create_forecaster(self.fallback_forecaster, **self.fallback_kwargs)
            model.fit(x, y)
            self.fallback_model = model
        except Exception:  # noqa: BLE001 — last line of defence stays up
            pass

    def _refit_task(self) -> RefitTask:
        """One refit attempt's fit request (in-line and background fits alike).

        Runs the fault hook, draws the training windows and, with
        ``warm_start``, ships the live model's weights so the fit resumes
        through :meth:`Forecaster.warm_fit`. Raises whatever the hook or
        the windowing raises — the caller counts it as a failed attempt.
        """
        if self.refit_fault_hook is not None:
            self.refit_fault_hook()
        x, y = self._training_windows()
        warm = None
        if (
            self.warm_start
            and self.model is not None
            and getattr(self.model, "supports_warm_fit", False)
        ):
            warm = self.model.to_bytes()
        return RefitTask(
            self.forecaster_name,
            dict(self.forecaster_kwargs),
            x,
            y,
            warm_state=warm,
            warm_epochs=self.warm_epochs,
            step=self._step,
        )

    def _refit(self) -> bool:
        """In-line supervised refit; ``True`` iff a new model was adopted."""
        # the clock resets when the attempt *starts*, not after it returns:
        # anything escaping the supervisor (it only catches Exception, so a
        # BaseException from the fit propagates) must not leave the
        # scheduled trigger armed, or every later step re-fires a refit
        self._since_refit = 0
        _, model = self.refit_supervisor.run(lambda: fit_task(self._refit_task()))
        return self._finish_refit(model, self._step)

    def _finish_refit(self, model: Forecaster | None, step: int) -> bool:
        """Adopt a fitted model, or degrade on a failed attempt.

        The one place a refit changes the serving model or the refit
        counters. ``step`` is the step whose training windows fitted
        ``model`` (the staleness anchor). Adoption is one reference
        assignment of a fully fitted model, so readers see the old model
        or the new one, never a torn mix. Returns ``True`` iff adopted.
        """
        if model is not None:
            self.model = model
            self.model_version += 1
            self._model_step = step
            self.on_fallback = False
            self.stats.n_refits += 1
            self._counters["refits"].inc()
            return True
        self.stats.n_refit_failures += 1
        self._counters["refit_failures"].inc()
        if self.model is None or self.refit_supervisor.should_fall_back:
            self._fit_fallback()
            if self.fallback_model is not None:
                self.on_fallback = True
        return False

    def _forward(self, serving: Forecaster, x: np.ndarray) -> tuple[np.ndarray | None, bool, int]:
        """Forecast column 0 for the windows ``x``, falling back on failure.

        Runs ``serving`` under the predict supervisor. If that forward
        fails and the primary was serving, fits the fallback when there
        is none yet and tries it. Returns ``(values, used_fallback,
        failures)``: ``values`` is ``None`` when nothing could serve, and
        ``failures`` counts the forwards that failed — 0, 1 (the serving
        model) or 2 (the fallback too). The caller counts them, per
        record or per row.
        """
        ok, values = self.predict_supervisor.run(lambda: serving.predict(x)[:, 0])
        if ok:
            return values, self.on_fallback, 0
        if self.on_fallback:
            return None, False, 1
        if self.fallback_model is None:
            self._fit_fallback()
        if self.fallback_model is None:
            return None, False, 1
        try:
            return self.fallback_model.predict(x)[:, 0], True, 1
        except Exception:  # noqa: BLE001 — the step is lost, but counted
            return None, False, 2

    # -- checkpoint / restore ----------------------------------------------------

    def _config(self) -> dict:
        """The constructor arguments :meth:`restore` rebuilds the predictor from."""
        return {
            "forecaster_name": self.forecaster_name,
            "forecaster_kwargs": dict(self.forecaster_kwargs),
            "window": self.window,
            "buffer_capacity": self.buffer.capacity,
            "refit_interval": self.refit_interval,
            "min_fit_size": self.min_fit_size,
            "target_col": self.target_col,
            "features": self.buffer.features,
            "gate_policy": self.gate.policy,
            "supervisor_policy": self.refit_supervisor.policy,
            "fallback_forecaster": self.fallback_forecaster,
            "fallback_kwargs": dict(self.fallback_kwargs),
        }

    #: the scalar serving state; the parts and models are checkpointed on their own
    _STATE = {"step": "_step", "since_refit": "_since_refit", "model_version": "model_version",
              "model_step": "_model_step", "on_fallback": "on_fallback"}  # fmt: skip
    #: absent in checkpoints from before async refits
    _DEFAULTS = {"model_version": 0, "model_step": -1}

    def state_dict(self) -> dict:
        """Full serving state: enough to resume bit-for-bit."""
        return {
            "config": self._config(),
            **super().state_dict(),
            "buffer": self.buffer.state_dict(),
            "gate": self.gate.state_dict(),
            "refit_supervisor": self.refit_supervisor.state_dict(),
            "predict_supervisor": self.predict_supervisor.state_dict(),
            "stats": self.stats.state_dict(),
            "model": None if self.model is None else self.model.to_bytes(),
            "fallback_model": (
                None if self.fallback_model is None else self.fallback_model.to_bytes()
            ),
        }

    def parse_state(self, state: dict) -> Callable[[], None]:
        """Check a :meth:`state_dict` against this predictor; return the commit.

        Parses the config identity (a missing key too), the scalars, every
        part and both models before any commit runs: a fault raises
        :class:`CheckpointError` and changes nothing."""
        try:
            commits = self._parse_parts(state)
        except Exception as exc:  # noqa: BLE001 — parsing writes nothing: any fault refuses
            raise CheckpointError(f"checkpoint refused: {type(exc).__name__}: {exc}") from exc

        def commit() -> None:
            for part in commits:
                part()

        return commit

    def _parse_parts(self, state: dict) -> list[Callable[[], None]]:
        """One commit per stateful part; subclasses append their own."""
        cfg, config = state["config"], self._config()
        saved = {key: cfg[key] for key in self._IDENTITY}
        live = {key: config[key] for key in self._IDENTITY}
        if saved != live:
            raise ValueError(f"config mismatch: saved {saved} vs live {live}")
        scalars = parse_fields({**self._DEFAULTS, **state}, self._live(), "checkpoint")
        model, fallback = (
            None if state[key] is None else Forecaster.from_bytes(state[key])
            for key in ("model", "fallback_model")
        )
        parts = [
            getattr(self, key).parse_state(state[key])
            for key in ("buffer", "gate", "refit_supervisor", "predict_supervisor", "stats")
        ]

        def commit() -> None:
            self._adopt(scalars)
            self.model, self.fallback_model = model, fallback

        return [*parts, commit]

    def save(self, path: str | Path) -> None:
        """Checkpoint the full serving state atomically (crash-safe)."""
        write_checkpoint(path, {"kind": self._CHECKPOINT_KIND, "state": self.state_dict()})

    @classmethod
    def restore(cls: type[_P], path: str | Path, **overrides: Any) -> _P:
        """Rebuild a predictor from a checkpoint and resume mid-stream.

        ``overrides`` patch constructor arguments that are process-local
        and deliberately not persisted (``refit_fault_hook``, a live
        ``detector`` replacement, ...). Options the constructor no longer
        takes are dropped from older checkpoints.
        """
        artifact = read_checkpoint(path)
        if not isinstance(artifact, dict) or artifact.get("kind") != cls._CHECKPOINT_KIND:
            raise CheckpointError(f"{path} does not hold a checkpoint of {cls.__name__}")
        state = artifact.get("state")
        if not isinstance(state, dict) or not isinstance(state.get("config"), dict):
            raise CheckpointError(f"{path} holds no state and config of {cls.__name__}")
        cfg = {k: v for k, v in state["config"].items() if k not in _RETIRED_OPTIONS}
        if "detector_params" in cfg:  # a fleet persists its detector prototype's parameters
            cfg["detector"] = PageHinkley(**cfg.pop("detector_params"))
        predictor = cls(**{**cfg, **overrides})
        predictor.load_state_dict(state)
        return predictor


class OnlinePredictor(_ServingPredictor):
    """Serve one-step-ahead predictions over a live indicator stream.

    Takes the parameters documented on :class:`_ServingPredictor`, which
    it shares with :class:`~repro.streaming.fleet.FleetPredictor`; its
    ``detector`` may be any object with PageHinkley's ``update`` /
    ``reset`` interface. Per-record latency lands in the
    ``serving_process_seconds`` histogram, and every eighth record runs
    inside a ``serving.process`` trace span.
    """

    _CHECKPOINT_KIND = "online_predictor"

    def __init__(
        self,
        forecaster_name: str = "xgboost",
        forecaster_kwargs: dict[str, Any] | None = None,
        window: int = 12,
        buffer_capacity: int = 600,
        refit_interval: int = 100,
        min_fit_size: int | None = None,
        target_col: int = 0,
        features: int = 1,
        detector: PageHinkley | None = None,
        gate_policy: GatePolicy | None = None,
        supervisor_policy: SupervisorPolicy | None = None,
        fallback_forecaster: str = "persistence",
        fallback_kwargs: dict[str, Any] | None = None,
        refit_fault_hook: Callable[[], None] | None = None,
        registry: MetricRegistry | None = None,
    ) -> None:
        super().__init__(
            forecaster_name, forecaster_kwargs, window, buffer_capacity, refit_interval,
            min_fit_size, target_col, supervisor_policy, fallback_forecaster,
            fallback_kwargs, refit_fault_hook, registry,
        )  # fmt: skip
        self.buffer = RollingBuffer(buffer_capacity, features)
        self.detector = detector if detector is not None else PageHinkley()
        self.gate = InputGate(features, gate_policy, registry=self._registry)
        self.stats = _OnlineStats()
        self._h_latency = self._registry.register(
            MetricHistogram(
                "serving_process_seconds",
                "per-record prequential step latency",
                buckets=log_buckets(1e-6, 10.0),
            )
        )
        # hot-path alias: process() runs per record
        self._c_predictions = self._counters["predictions"]
        # preallocated (1, window, features) inference input — refilled in
        # place each step instead of re-materializing the buffer tail
        self._hist = np.empty((1, window, features))

    # -- internals -------------------------------------------------------------

    def _training_windows(self) -> tuple[np.ndarray, np.ndarray]:
        from ..data.windowing import make_windows

        data = self.buffer.view()
        return make_windows(data, data[:, self.target_col], self.window, horizon=1)

    def _predict_next(self) -> tuple[float | None, bool]:
        """Return ``(prediction, used_fallback)`` for the next step."""
        if len(self.buffer) < self.window:
            return None, False
        serving = self.fallback_model if self.on_fallback else self.model
        if serving is None:
            return None, False
        self.buffer.last_into(self._hist[0])
        values, used_fallback, failures = self._forward(serving, self._hist)
        if failures:
            self.stats.n_predict_failures += 1
            if failures == 2:
                self.stats.n_fallback_predict_failures += 1
                self._counters["fallback_predict_failures"].inc()
        if values is None:
            return None, False
        return self._sanitize_prediction(float(values[0])), used_fallback

    def _sanitize_prediction(self, value: float) -> float | None:
        """Output guard: reject non-finite, clamp into the plausibility band."""
        if not np.isfinite(value):
            self.stats.n_predict_failures += 1
            return None
        sigma = self.gate.policy.prediction_sigma
        if sigma is None:
            return value
        band = self.gate.band(sigma)
        if band is None:
            return value
        lo, hi = band[0][self.target_col], band[1][self.target_col]
        if value < lo or value > hi:
            self.stats.n_clamped_predictions += 1
            self._counters["clamped_predictions"].inc()
            return float(np.clip(value, lo, hi))
        return value

    # -- API -------------------------------------------------------------------

    def process(self, record: np.ndarray) -> PredictionRecord:
        """Prequential step: gate ``record``, predict its target, absorb it.

        When observability is enabled the step's latency lands in the
        ``serving_process_seconds`` histogram, the health gauge tracks
        the stamped :class:`HealthStatus`, and every eighth step runs
        inside a ``serving.process`` trace span.
        """
        if not is_enabled():
            return self._process_inner(record)
        t0 = time.perf_counter()
        self._span_tick += 1
        if self._span_tick >= _SPAN_SAMPLE:
            self._span_tick = 0
            with trace.span("serving.process"):
                result = self._process_inner(record)
        else:
            result = self._process_inner(record)
        self._h_latency.observe(time.perf_counter() - t0)
        self._observe_health(result.health)
        return result

    def _process_inner(self, record: np.ndarray) -> PredictionRecord:
        gated = self.gate.check(record)
        if gated.action == "quarantine":
            # the record never reaches the buffer or the error stream; the
            # step still advances so downstream consumers stay aligned
            try:
                raw = np.atleast_1d(np.asarray(record, float)).ravel()
                actual = (
                    float(raw[self.target_col])
                    if raw.shape == (self.gate.features,)
                    else float("nan")
                )
            except (TypeError, ValueError, IndexError):
                actual = float("nan")
            self._step += 1
            return PredictionRecord(
                step=self._step - 1,
                prediction=None,
                actual=actual,
                error=None,
                refit=False,
                drift=False,
                health=self.health,
                gated="quarantined",
            )

        clean = gated.record
        actual = float(clean[self.target_col])

        prediction, used_fallback = self._predict_next()
        st = self.stats
        if used_fallback:
            st.n_fallback_predictions += 1
            self._counters["fallback_predictions"].inc()
        error = None
        drift = False
        if prediction is not None:
            error = abs(prediction - actual)
            st.n_predictions += 1
            self._c_predictions.inc()
            st.sum_abs_error += error
            st.sum_sq_error += error**2
            drift = self.detector.update(error)
            if drift:
                st.n_drifts += 1
                self._counters["drift_events"].inc()

        self.buffer.append(clean)
        self._step += 1
        self._since_refit += 1

        needs_fit = (
            self.model is None
            and len(self.buffer) >= max(self.min_fit_size, self.window + 2)
            and (
                self.refit_supervisor.consecutive_failures == 0
                or self._since_refit >= self.refit_interval
            )
        )
        scheduled = self.model is not None and self._since_refit >= self.refit_interval
        refit = False
        if needs_fit or scheduled or (drift and len(self.buffer) >= self.min_fit_size):
            refit = self._refit()
            if drift:
                self.detector.reset()

        return PredictionRecord(
            step=self._step - 1,
            prediction=prediction,
            actual=actual,
            error=error,
            refit=refit,
            drift=drift,
            health=HealthStatus.FALLBACK if used_fallback else self.health,
            gated=gated.reason and "imputed",
        )

    def run(self, records: np.ndarray) -> list[PredictionRecord]:
        """Process a batch of records sequentially (replay a trace)."""
        records = np.asarray(records, float)
        if records.ndim == 1:
            records = records[:, None]
        with trace.span("serving.run") as sp:
            out = [self.process(row) for row in records]
            sp.add("records", len(out))
        return out

    # -- checkpoint / restore ----------------------------------------------------

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["detector"] = self.detector  # pickled whole
        return state

    def _parse_parts(self, state: dict) -> list[Callable[[], None]]:
        parts = super()._parse_parts(state)
        # pickled whole; a copy, so the live detector never aliases ``state``
        detector = copy.deepcopy(state["detector"])
        if not all(callable(getattr(detector, name, None)) for name in ("update", "reset")):
            raise TypeError(f"detector {type(detector).__name__} lacks update/reset")
        return [*parts, lambda: setattr(self, "detector", detector)]
