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
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..models.base import Forecaster, create_forecaster
from ..obs import trace
from ..obs.registry import Gauge as MetricGauge
from ..obs.registry import Histogram as MetricHistogram
from ..obs.registry import MetricRegistry, get_registry, is_enabled, log_buckets
from .buffer import RollingBuffer
from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from .drift import PageHinkley
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

__all__ = ["PredictionRecord", "OnlinePredictor"]


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
class _OnlineStats:
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
    #: recent per-step errors; bounded by default (see ``error_history``)
    errors: deque[float] = field(default_factory=lambda: deque(maxlen=512))

    @property
    def mae(self) -> float:
        return self.sum_abs_error / max(self.n_predictions, 1)

    @property
    def mse(self) -> float:
        return self.sum_sq_error / max(self.n_predictions, 1)

    def state_dict(self) -> dict:
        return {
            "n_predictions": self.n_predictions,
            "sum_abs_error": self.sum_abs_error,
            "sum_sq_error": self.sum_sq_error,
            "n_refits": self.n_refits,
            "n_drifts": self.n_drifts,
            "n_refit_failures": self.n_refit_failures,
            "n_predict_failures": self.n_predict_failures,
            "n_fallback_predictions": self.n_fallback_predictions,
            "n_fallback_predict_failures": self.n_fallback_predict_failures,
            "n_clamped_predictions": self.n_clamped_predictions,
            "errors": list(self.errors),
            "errors_maxlen": self.errors.maxlen,
        }

    def load_state_dict(self, state: dict) -> None:
        self.n_predictions = int(state["n_predictions"])
        self.sum_abs_error = float(state["sum_abs_error"])
        self.sum_sq_error = float(state["sum_sq_error"])
        self.n_refits = int(state["n_refits"])
        self.n_drifts = int(state["n_drifts"])
        self.n_refit_failures = int(state["n_refit_failures"])
        self.n_predict_failures = int(state["n_predict_failures"])
        self.n_fallback_predictions = int(state["n_fallback_predictions"])
        # key absent in pre-fleet checkpoints; the count started at 0 there
        self.n_fallback_predict_failures = int(state.get("n_fallback_predict_failures", 0))
        self.n_clamped_predictions = int(state["n_clamped_predictions"])
        self.errors = deque(state["errors"], maxlen=state["errors_maxlen"])


class OnlinePredictor:
    """Serve one-step-ahead predictions over a live indicator stream.

    Parameters
    ----------
    forecaster_name, forecaster_kwargs:
        Registered forecaster refitted on the buffer contents. Cheap
        refittable models (``xgboost``, ``holt``, ``arima``) suit the
        online setting; deep models work but pay seconds per refit.
    window:
        Input window length fed to the forecaster.
    buffer_capacity:
        History kept for refits.
    refit_interval:
        Scheduled refit period (in records); drift can trigger earlier.
    target_col:
        Which feature column is the prediction target.
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
    error_history:
        How many recent per-step errors ``stats.errors`` retains
        (ring-buffer semantics). Pass ``None`` to keep the full stream —
        opt-in, because an unbounded list in a long-running server is a
        slow memory leak.
    refit_fault_hook:
        Test/chaos hook invoked at the start of every refit attempt;
        raising from it simulates a refit crash (see
        :class:`~repro.streaming.faults.FaultInjector.refit_fault`).
    registry:
        :class:`~repro.obs.MetricRegistry` receiving the serving metrics
        (per-record latency histogram, health gauge, refit/drift/fallback
        counters, plus the gate and supervisor instruments). ``None``
        uses the process-global registry. Optional telemetry respects
        :func:`repro.obs.set_enabled`; the gate/supervisor counts are
        serving state and always record. Every eighth record runs
        inside a ``serving.process`` trace span; the latency histogram
        still sees every record.
    """

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
        error_history: int | None = 512,
        refit_fault_hook: Callable[[], None] | None = None,
        registry: MetricRegistry | None = None,
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
        self.buffer = RollingBuffer(buffer_capacity, features)
        self.detector = detector if detector is not None else PageHinkley()
        obs_registry = get_registry(registry)
        self.gate = InputGate(features, gate_policy, registry=obs_registry)
        self.refit_supervisor = Supervisor(supervisor_policy, duty="refit", registry=obs_registry)
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
            registry=obs_registry,
        )
        # serving telemetry: per-record latency, health level, event mirrors
        self._h_latency = MetricHistogram(
            "serving_process_seconds",
            "per-record prequential step latency",
            buckets=log_buckets(1e-6, 10.0),
        )
        self._g_health = MetricGauge(
            "serving_health_state", "0=healthy 1=degraded 2=fallback"
        )
        self._obs_counters = {
            name: obs_registry.counter(f"serving_{name}_total", help)
            for name, help in (
                ("predictions", "predictions served"),
                ("refits", "successful refits"),
                ("refit_failures", "terminally failed refits"),
                ("drift_events", "drift detector firings"),
                ("fallback_predictions", "predictions served by the fallback"),
                ("fallback_predict_failures", "fallback forwards that also failed"),
                ("clamped_predictions", "predictions clamped into the plausibility band"),
            )
        }
        for inst in (self._h_latency, self._g_health):
            obs_registry.register(inst)
        # hot-path aliases: process() runs per record, so spare it the dict
        # lookups and only touch the health gauge when the level changes
        self._c_predictions = self._obs_counters["predictions"]
        self._last_health_level: int | None = None
        self._span_tick = 0
        self.fallback_forecaster = fallback_forecaster
        self.fallback_kwargs = dict(fallback_kwargs or {})
        self.fallback_kwargs.setdefault("target_col", target_col)
        self.refit_fault_hook = refit_fault_hook
        self.model: Forecaster | None = None
        self.fallback_model: Forecaster | None = None
        self.on_fallback = False
        self.error_history = error_history
        self.stats = _OnlineStats(errors=deque(maxlen=error_history))
        self._step = 0
        self._since_refit = 0
        # preallocated (1, window, features) inference input — refilled in
        # place each step instead of re-materializing the buffer tail
        self._hist = np.empty((1, window, features))

    # -- health ---------------------------------------------------------------

    @property
    def health(self) -> HealthStatus:
        """Current serving health (also stamped on every record)."""
        if self.on_fallback:
            return HealthStatus.FALLBACK
        if (
            self.refit_supervisor.consecutive_failures > 0
            or self.predict_supervisor.consecutive_failures > 0
        ):
            return HealthStatus.DEGRADED
        return HealthStatus.HEALTHY

    # -- internals -------------------------------------------------------------

    def _windows_from_buffer(self) -> tuple[np.ndarray, np.ndarray]:
        from ..data.windowing import make_windows

        data = self.buffer.view()
        return make_windows(data, data[:, self.target_col], self.window, horizon=1)

    def _fit_fallback(self) -> None:
        """Fit the fallback forecaster on the buffer (guarded, never raises)."""
        try:
            x, y = self._windows_from_buffer()
            model = create_forecaster(self.fallback_forecaster, **self.fallback_kwargs)
            model.fit(x, y)
            self.fallback_model = model
        except Exception:  # noqa: BLE001 — last line of defence stays up
            pass

    def _refit(self) -> bool:
        """Supervised refit; on terminal failure degrade instead of raising."""

        def attempt() -> Forecaster:
            if self.refit_fault_hook is not None:
                self.refit_fault_hook()
            x, y = self._windows_from_buffer()
            model = create_forecaster(self.forecaster_name, **self.forecaster_kwargs)
            model.fit(x, y)
            return model

        # reset the clock when the attempt *starts*: the supervisor only
        # catches Exception, so a BaseException escaping the fit must not
        # leave the scheduled trigger armed (it would re-fire a refit every
        # subsequent tick) — same semantics as the fleet, sync and async
        self._since_refit = 0
        ok, model = self.refit_supervisor.run(attempt)
        if ok:
            self.model = model
            self.on_fallback = False
            self.stats.n_refits += 1
            return True
        self.stats.n_refit_failures += 1
        if self.model is None or self.refit_supervisor.should_fall_back:
            self._fit_fallback()
            if self.fallback_model is not None:
                self.on_fallback = True
        return False

    def _predict_next(self) -> tuple[float | None, bool]:
        """Return ``(prediction, used_fallback)`` for the next step."""
        if len(self.buffer) < self.window:
            return None, False
        serving = self.fallback_model if self.on_fallback else self.model
        if serving is None:
            return None, False
        self.buffer.last_into(self._hist[0])

        def attempt() -> float:
            return float(serving.predict(self._hist)[0, 0])

        ok, value = self.predict_supervisor.run(attempt)
        if ok:
            return self._sanitize_prediction(value), self.on_fallback
        self.stats.n_predict_failures += 1
        # primary forward pass blew up: serve from the fallback instead
        if not self.on_fallback:
            if self.fallback_model is None:
                self._fit_fallback()
            if self.fallback_model is not None:
                try:
                    value = float(self.fallback_model.predict(self._hist)[0, 0])
                    return self._sanitize_prediction(value), True
                except Exception:  # noqa: BLE001 — the step is lost, but counted
                    self.stats.n_fallback_predict_failures += 1
        return None, False

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
            return float(np.clip(value, lo, hi))
        return value

    # -- API -------------------------------------------------------------------

    def process(self, record: np.ndarray) -> PredictionRecord:
        """Prequential step: gate ``record``, predict its target, absorb it.

        When observability is enabled every step's latency lands in the
        ``serving_process_seconds`` histogram, the health gauge tracks
        the stamped :class:`HealthStatus`, refit/drift/fallback events
        mirror into registry counters, and every eighth step runs inside
        a ``serving.process`` trace span.
        """
        if not is_enabled():
            return self._process_inner(record)
        st = self.stats
        b_refits = st.n_refits
        b_refit_failures = st.n_refit_failures
        b_drifts = st.n_drifts
        b_fallback = st.n_fallback_predictions
        b_fb_fail = st.n_fallback_predict_failures
        b_clamped = st.n_clamped_predictions
        t0 = time.perf_counter()
        self._span_tick += 1
        if self._span_tick >= _SPAN_SAMPLE:
            self._span_tick = 0
            with trace.span("serving.process"):
                result = self._process_inner(record)
        else:
            result = self._process_inner(record)
        self._h_latency.observe(time.perf_counter() - t0)
        level = _HEALTH_LEVEL[result.health]
        if level != self._last_health_level:
            self._last_health_level = level
            self._g_health.set(level)
        if result.prediction is not None:
            self._c_predictions.inc()
        counters = self._obs_counters
        if st.n_refits != b_refits:
            counters["refits"].inc(st.n_refits - b_refits)
        if st.n_refit_failures != b_refit_failures:
            counters["refit_failures"].inc(st.n_refit_failures - b_refit_failures)
        if st.n_drifts != b_drifts:
            counters["drift_events"].inc(st.n_drifts - b_drifts)
        if st.n_fallback_predictions != b_fallback:
            counters["fallback_predictions"].inc(st.n_fallback_predictions - b_fallback)
        if st.n_fallback_predict_failures != b_fb_fail:
            counters["fallback_predict_failures"].inc(
                st.n_fallback_predict_failures - b_fb_fail
            )
        if st.n_clamped_predictions != b_clamped:
            counters["clamped_predictions"].inc(st.n_clamped_predictions - b_clamped)
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
        if used_fallback:
            self.stats.n_fallback_predictions += 1
        error = None
        drift = False
        if prediction is not None:
            error = abs(prediction - actual)
            self.stats.n_predictions += 1
            self.stats.sum_abs_error += error
            self.stats.sum_sq_error += error**2
            self.stats.errors.append(error)
            drift = self.detector.update(error)
            if drift:
                self.stats.n_drifts += 1

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
        """Full serving state: enough to resume the stream bit-for-bit."""
        return {
            "config": {
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
                "error_history": self.error_history,
            },
            "step": self._step,
            "since_refit": self._since_refit,
            "on_fallback": self.on_fallback,
            "buffer": self.buffer.state_dict(),
            "detector": self.detector,  # pickled whole
            "gate": self.gate.state_dict(),
            "refit_supervisor": self.refit_supervisor.state_dict(),
            "predict_supervisor": self.predict_supervisor.state_dict(),
            "stats": self.stats.state_dict(),
            "model": None if self.model is None else self.model.to_bytes(),
            "fallback_model": (
                None if self.fallback_model is None else self.fallback_model.to_bytes()
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Adopt a :meth:`state_dict`; the predictor must match its config."""
        cfg = state["config"]
        if (
            cfg["window"] != self.window
            or cfg["features"] != self.buffer.features
            or cfg["buffer_capacity"] != self.buffer.capacity
            or cfg["forecaster_name"] != self.forecaster_name
        ):
            raise CheckpointError(
                "checkpoint config mismatch: "
                f"saved (forecaster={cfg['forecaster_name']}, window={cfg['window']}, "
                f"features={cfg['features']}, capacity={cfg['buffer_capacity']}) vs "
                f"live (forecaster={self.forecaster_name}, window={self.window}, "
                f"features={self.buffer.features}, capacity={self.buffer.capacity})"
            )
        self._step = int(state["step"])
        self._since_refit = int(state["since_refit"])
        self.on_fallback = bool(state["on_fallback"])
        self.buffer.load_state_dict(state["buffer"])
        self.detector = state["detector"]
        self.gate.load_state_dict(state["gate"])
        self.refit_supervisor.load_state_dict(state["refit_supervisor"])
        self.predict_supervisor.load_state_dict(state["predict_supervisor"])
        self.stats.load_state_dict(state["stats"])
        self.model = None if state["model"] is None else Forecaster.from_bytes(state["model"])
        self.fallback_model = (
            None
            if state["fallback_model"] is None
            else Forecaster.from_bytes(state["fallback_model"])
        )

    def save(self, path: str | Path) -> None:
        """Checkpoint the full serving state atomically (crash-safe)."""
        write_checkpoint(path, {"kind": "online_predictor", "state": self.state_dict()})

    @classmethod
    def restore(cls, path: str | Path, **overrides: Any) -> "OnlinePredictor":
        """Rebuild a predictor from a checkpoint and resume mid-stream.

        ``overrides`` patch constructor arguments that are process-local
        and deliberately not persisted (``refit_fault_hook``, a live
        ``detector`` replacement, ...).
        """
        artifact = read_checkpoint(path)
        if not isinstance(artifact, dict) or artifact.get("kind") != "online_predictor":
            raise CheckpointError(f"{path} does not hold an OnlinePredictor checkpoint")
        state = artifact["state"]
        cfg = dict(state["config"])
        cfg.pop("serve_dtype", None)  # a retired option older checkpoints carry
        cfg.update(overrides)
        predictor = cls(**cfg)
        predictor.load_state_dict(state)
        return predictor
