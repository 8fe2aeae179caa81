"""Fleet-scale micro-batched serving: one model forward for N streams.

:class:`~repro.streaming.online.OnlinePredictor` runs a Python-level
gate -> buffer -> predict loop *per record*. That is fine for one
container, but the paper's setting is a cluster: thousands of
containers/machines all sampled on the same 10 s clock. At that scale
the per-record Python overhead — not the model — dominates serving cost
(cf. esDNN and the pruned-GRU online predictor in PAPERS.md, which both
frame cloud-scale prediction as a per-host inference-cost problem).

:class:`FleetPredictor` multiplexes N independent streams over shared
model state and processes one *tick* (one record per stream) at a time:

* the whole ``(N, F)`` tick is gated at once by a vectorized
  :class:`~repro.streaming.resilience.FleetGate` (per-stream Welford
  moments, verdicts and counters preserved exactly);
* per-stream histories live in one
  wrap-padded :class:`~repro.streaming.buffer.MatrixRingBuffer` — a
  tick appends with one fancy-indexed write, and the due windows of all
  streams gather into a single ``(B, window, F)`` batch by one strided
  read per stream;
* prediction is **micro-batched**: one supervised ``model.predict``
  call (under the nn substrate's no-grad inference path) serves every
  due stream, and the results scatter back into per-stream statistics,
  health and drift state;
* refits are **coalesced and staggered**: streams share one forecaster
  fitted on windows pooled from a bounded, round-robin sample of stream
  buffers, so a refit costs O(sample) instead of O(N) and a drift storm
  across the fleet cannot stall serving;
* with ``refit_mode="async"`` the pooled fit itself leaves the serving
  path: an :class:`~repro.streaming.refit.AsyncRefitEngine` fits a fresh
  model on a background worker and the serving thread adopts it at the
  start of a later tick by **atomic weight swap** — the tick that
  triggers a refit only pools and submits, so refit ticks stop paying
  the fit cost (the p99 stall ROADMAP item 3 targets). Every tick
  carries the live ``model_version`` and obs tracks staleness, refit
  lag and swap counts. In-line and background refits build the same
  :class:`~repro.streaming.refit.RefitTask` and finish through one
  handler, so failures degrade identically and warm starts work in
  both modes;
* the whole fleet checkpoints to one crash-safe artifact via
  :mod:`repro.streaming.checkpoint`.

**Exactness contract:** with ``n_streams=1`` every emitted record —
prediction, error, health, gate verdict — is bit-identical to
:class:`OnlinePredictor` fed the same stream, including after a
checkpoint/restore mid-stream (asserted in
``tests/streaming/test_fleet.py``). With N > 1 the semantics
deliberately generalize: the refit clock is fleet-global (a tick in
which at least one stream absorbed advances it), the model is shared,
and a tick is a uniformly shaped matrix (absent streams are all-NaN
rows, quarantined as ``"empty"``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..models.base import Forecaster, create_forecaster
from ..obs import trace
from ..obs.registry import Gauge as MetricGauge
from ..obs.registry import Histogram as MetricHistogram
from ..obs.registry import MetricRegistry, get_registry, is_enabled, log_buckets
from .buffer import MatrixRingBuffer
from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from .drift import PageHinkley
from .online import _HEALTH_LEVEL, _SPAN_SAMPLE, PredictionRecord
from .refit import AsyncRefitEngine, RefitTask, fit_task
from .resilience import (
    GATE_QUARANTINE,
    GatePolicy,
    HealthStatus,
    FleetGate,
    Supervisor,
    SupervisorPolicy,
)

__all__ = ["FleetPredictor", "FleetTick"]

#: health-gauge level -> HealthStatus (inverse of online._HEALTH_LEVEL)
_HEALTH_BY_LEVEL = {level: status for status, level in _HEALTH_LEVEL.items()}
#: gate action code -> the ``gated`` field of :class:`PredictionRecord`
_GATED_BY_ACTION = (None, "imputed", "quarantined")
#: constructor options older checkpoints may still carry; restore drops them
_RETIRED_OPTIONS = ("error_history", "refit_backend", "serve_dtype", "span_sample")


@dataclass(frozen=True)
class FleetTick:
    """Columnar outcome of one fleet tick (all N streams at once).

    The serving hot path never materializes per-stream objects — arrays
    in, arrays out. :meth:`record` / :meth:`records` convert to
    :class:`~repro.streaming.online.PredictionRecord` for consumers
    (and the parity tests) that want the scalar view.
    """

    step: int
    predictions: np.ndarray  #: (N,) float — NaN where no prediction was served
    actuals: np.ndarray  #: (N,) float — gated target values (raw if quarantined)
    errors: np.ndarray  #: (N,) float — NaN where no prediction was served
    #: a new primary model was adopted this tick — sync: the in-line refit
    #: at the end of the trigger tick; async: the swap at the tick's start
    refit: bool
    drift: np.ndarray  #: (N,) bool — stream's drift detector fired this tick
    health: np.ndarray  #: (N,) uint8 — 0 healthy / 1 degraded / 2 fallback / 3 recovering (sharded)
    gated: np.ndarray  #: (N,) int8 — gate action codes (accept/impute/quarantine)
    #: primary-model version as the tick ends (0 = no model yet). Async: the
    #: version that served the tick (swaps land before predicting). Sync:
    #: counts the refit made at the end of this tick, so on a ``refit``
    #: tick it is one past the version that served it. Sharded fleets
    #: report the minimum across live shards.
    model_version: int = 0

    @property
    def n_streams(self) -> int:
        return len(self.predictions)

    @property
    def served(self) -> np.ndarray:
        """Mask of streams that received a prediction this tick."""
        return np.isfinite(self.predictions)

    def record(self, stream: int) -> PredictionRecord:
        """Materialize one stream's scalar :class:`PredictionRecord`."""
        pred = self.predictions[stream]
        err = self.errors[stream]
        return PredictionRecord(
            step=self.step,
            prediction=float(pred) if np.isfinite(pred) else None,
            actual=float(self.actuals[stream]),
            error=float(err) if np.isfinite(err) else None,
            refit=self.refit,
            drift=bool(self.drift[stream]),
            health=_HEALTH_BY_LEVEL[int(self.health[stream])],
            gated=_GATED_BY_ACTION[int(self.gated[stream])],
        )

    def records(self) -> list[PredictionRecord]:
        return [self.record(i) for i in range(self.n_streams)]


class _FleetPageHinkley:
    """Page-Hinkley drift test vectorized across N error streams.

    Elementwise identical arithmetic to
    :class:`~repro.streaming.drift.PageHinkley`, state held as ``(N,)``
    arrays; only streams selected by the update mask advance. Every
    update is a masked whole-array ufunc pass (``where=``), so values on
    masked-off streams — NaN errors of unserved streams — are never read.
    """

    def __init__(
        self, streams: int, delta: float, threshold: float, min_instances: int
    ) -> None:
        self.delta = delta
        self.threshold = threshold
        self.min_instances = min_instances
        self.streams = streams
        self.n_seen = np.zeros(streams, dtype=np.int64)
        self.drift_detected = np.zeros(streams, dtype=bool)
        self._mean = np.zeros(streams)
        self._cumulative = np.zeros(streams)
        self._minimum = np.zeros(streams)
        # per-update scratch; masked-off entries hold stale values no pass reads
        self._tmp = np.zeros(streams)

    @classmethod
    def from_prototype(cls, proto: PageHinkley, streams: int) -> "_FleetPageHinkley":
        return cls(streams, proto.delta, proto.threshold, proto.min_instances)

    def update(self, values: np.ndarray, mask: np.ndarray | bool) -> np.ndarray:
        """Advance masked streams by one observation; return the fired mask.

        ``mask`` is an ``(N,)`` bool array, or ``True`` for every stream.
        """
        tmp = self._tmp
        np.add(self.n_seen, 1, out=self.n_seen, where=mask)
        np.subtract(values, self._mean, out=tmp, where=mask)
        np.divide(tmp, self.n_seen, out=tmp, where=mask)
        np.add(self._mean, tmp, out=self._mean, where=mask)
        np.subtract(values, self._mean, out=tmp, where=mask)
        np.subtract(tmp, self.delta, out=tmp, where=mask)
        np.add(self._cumulative, tmp, out=self._cumulative, where=mask)
        np.minimum(self._minimum, self._cumulative, out=self._minimum, where=mask)
        np.subtract(self._cumulative, self._minimum, out=tmp, where=mask)
        # a fresh array per call: the fired mask is a FleetTick column
        fired = np.greater(tmp, self.threshold, out=np.zeros(self.streams, bool), where=mask)
        fired &= self.n_seen >= self.min_instances
        self.drift_detected |= fired
        return fired

    def reset(self, mask: np.ndarray) -> None:
        states = (self.n_seen, self.drift_detected, self._mean, self._cumulative, self._minimum)
        for state in states:
            np.copyto(state, state.dtype.type(0), where=mask)

    def state_dict(self) -> dict:
        return {
            "n_seen": self.n_seen.copy(),
            "drift_detected": self.drift_detected.copy(),
            "mean": self._mean.copy(),
            "cumulative": self._cumulative.copy(),
            "minimum": self._minimum.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.n_seen[...] = state["n_seen"]
        self.drift_detected[...] = state["drift_detected"]
        self._mean[...] = state["mean"]
        self._cumulative[...] = state["cumulative"]
        self._minimum[...] = state["minimum"]


class _FleetStats:
    """Per-stream serving statistics as ``(N,)`` arrays + fleet totals."""

    _ARRAYS = (
        "n_predictions",
        "n_drifts",
        "n_predict_failures",
        "n_fallback_predictions",
        "n_fallback_predict_failures",
        "n_clamped_predictions",
    )

    def __init__(self, streams: int) -> None:
        self.n_predictions = np.zeros(streams, dtype=np.int64)
        self.sum_abs_error = np.zeros(streams)
        self.sum_sq_error = np.zeros(streams)
        self.n_drifts = np.zeros(streams, dtype=np.int64)
        self.n_predict_failures = np.zeros(streams, dtype=np.int64)
        self.n_fallback_predictions = np.zeros(streams, dtype=np.int64)
        self.n_fallback_predict_failures = np.zeros(streams, dtype=np.int64)
        self.n_clamped_predictions = np.zeros(streams, dtype=np.int64)
        #: fleet-wide (the model is shared, so refits are not per-stream)
        self.n_refits = 0
        self.n_refit_failures = 0
        #: async mode: refit triggers that found a background fit in flight
        self.n_refits_deferred = 0
        #: running fleet totals mirrored at the mutation sites so the
        #: per-tick obs wrapper reads O(1) ints instead of summing the
        #: per-stream arrays (4 O(N) scans/tick — the N=1 bench killer)
        self.total_fallback_predictions = 0
        self.total_clamped_predictions = 0

    @property
    def mae(self) -> np.ndarray:
        """Per-stream online MAE."""
        return self.sum_abs_error / np.maximum(self.n_predictions, 1)

    @property
    def mse(self) -> np.ndarray:
        """Per-stream online MSE."""
        return self.sum_sq_error / np.maximum(self.n_predictions, 1)

    @property
    def fleet_mae(self) -> float:
        """MAE over every prediction the fleet served."""
        return float(self.sum_abs_error.sum() / max(self.n_predictions.sum(), 1))

    def state_dict(self) -> dict:
        state = {name: getattr(self, name).copy() for name in self._ARRAYS}
        state["sum_abs_error"] = self.sum_abs_error.copy()
        state["sum_sq_error"] = self.sum_sq_error.copy()
        state["n_refits"] = self.n_refits
        state["n_refit_failures"] = self.n_refit_failures
        state["n_refits_deferred"] = self.n_refits_deferred
        return state

    def load_state_dict(self, state: dict) -> None:
        for name in self._ARRAYS:
            getattr(self, name)[...] = state[name]
        self.sum_abs_error[...] = state["sum_abs_error"]
        self.sum_sq_error[...] = state["sum_sq_error"]
        self.n_refits = int(state["n_refits"])
        self.n_refit_failures = int(state["n_refit_failures"])
        self.n_refits_deferred = int(state.get("n_refits_deferred", 0))
        self.total_fallback_predictions = int(self.n_fallback_predictions.sum())
        self.total_clamped_predictions = int(self.n_clamped_predictions.sum())


class FleetPredictor:
    """Serve one-step-ahead predictions for N streams per shared forward.

    Parameters mirror :class:`~repro.streaming.online.OnlinePredictor`
    (so a fleet of one is a drop-in, bit-identical replacement), plus:

    n_streams:
        Number of multiplexed streams; each tick carries one record per
        stream as an ``(n_streams, features)`` matrix (or ``(n_streams,)``
        when ``features == 1``). A stream with nothing to report this
        tick is an all-NaN row.
    detector:
        A :class:`~repro.streaming.drift.PageHinkley` *prototype*; its
        parameters are applied to every stream's vectorized detector
        state.
    refit_streams:
        How many stream buffers contribute windows to one shared-model
        (re)fit. Sampling is round-robin across refits, so successive
        refits stagger through the fleet instead of re-reading the same
        histories; fit cost is O(refit_streams), never O(N).
    max_fit_windows:
        Hard cap on the pooled training-set size per refit (the most
        recent windows win) — the per-tick refit budget that keeps a
        drift storm from stalling serving.
    refit_mode:
        ``"sync"`` (default, the PR-5 behavior: pooled refits run
        in-line with the triggering tick) or ``"async"``: the trigger
        tick only pools windows and submits them to a background
        :class:`~repro.streaming.refit.AsyncRefitEngine`; the fitted
        model is adopted by atomic swap at the start of a later tick,
        so no tick ever blocks on a fit. One refit is in flight at a
        time — triggers that land while the worker is busy are deferred
        to the next tick (counted in
        ``serving_fleet_refits_deferred_total``), so the effective
        cadence degrades gracefully to ``max(refit_interval, fit_time)``.
    warm_start:
        Ship the current model's weights with each refit task, in either
        ``refit_mode``, so models implementing :meth:`Forecaster.warm_fit`
        resume training instead of refitting from scratch. The fit
        resumes a *copy* deserialized from the weights; the live model
        is never mutated (nor touched off-thread in async mode).
    warm_epochs:
        Epoch budget for warm-started resumes (``None`` = the model's
        default, a quarter of its cold budget).
    """

    def __init__(
        self,
        n_streams: int,
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
        refit_streams: int = 8,
        max_fit_windows: int = 4096,
        refit_mode: str = "sync",
        warm_start: bool = False,
        warm_epochs: int | None = None,
    ) -> None:
        if n_streams < 1:
            raise ValueError(f"n_streams must be >= 1, got {n_streams}")
        if buffer_capacity < window + 2:
            raise ValueError(
                f"buffer_capacity ({buffer_capacity}) must exceed window+1 ({window + 1})"
            )
        if refit_interval < 1:
            raise ValueError(f"refit_interval must be >= 1, got {refit_interval}")
        if refit_streams < 1 or max_fit_windows < 1:
            raise ValueError("refit_streams and max_fit_windows must be >= 1")
        if refit_mode not in ("sync", "async"):
            raise ValueError(f"refit_mode must be 'sync' or 'async', got {refit_mode!r}")
        if warm_epochs is not None and warm_epochs < 1:
            raise ValueError(f"warm_epochs must be >= 1, got {warm_epochs}")
        if detector is not None and type(detector) is not PageHinkley:
            raise TypeError(
                "FleetPredictor vectorizes PageHinkley detector state; "
                f"got {type(detector).__name__} (use OnlinePredictor for "
                "custom detectors)"
            )
        self.n_streams = n_streams
        self.forecaster_name = forecaster_name
        self.forecaster_kwargs = dict(forecaster_kwargs or {})
        self.forecaster_kwargs.setdefault("target_col", target_col)
        self.window = window
        self.refit_interval = refit_interval
        self.min_fit_size = min_fit_size if min_fit_size is not None else 3 * window
        self.target_col = target_col
        self.refit_streams = refit_streams
        self.max_fit_windows = max_fit_windows
        self.buffer = MatrixRingBuffer(n_streams, buffer_capacity, features, window=window)
        proto = detector if detector is not None else PageHinkley()
        self._detector_params = {
            "delta": proto.delta,
            "threshold": proto.threshold,
            "min_instances": proto.min_instances,
        }
        self.detector = _FleetPageHinkley.from_prototype(proto, n_streams)
        obs_registry = get_registry(registry)
        self.gate = FleetGate(n_streams, features, gate_policy, registry=obs_registry)
        self.refit_supervisor = Supervisor(supervisor_policy, duty="refit", registry=obs_registry)
        # predictions: same budget envelope, but no retries (see OnlinePredictor)
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
        # fleet telemetry: tick latency, forward batch size, throughput
        self._h_latency = MetricHistogram(
            "serving_fleet_tick_seconds",
            "per-tick fleet serving latency (all streams)",
            buckets=log_buckets(1e-6, 10.0),
        )
        self._h_batch = MetricHistogram(
            "serving_fleet_batch_size",
            "streams served per micro-batched model forward",
            buckets=log_buckets(1.0, 65536.0),
        )
        self._g_throughput = MetricGauge(
            "serving_fleet_records_per_sec", "instantaneous fleet serving throughput"
        )
        self._g_health = MetricGauge(
            "serving_fleet_health_state", "0=healthy 1=degraded 2=fallback"
        )
        self._obs_counters = {
            name: obs_registry.counter(f"serving_fleet_{name}_total", help)
            for name, help in (
                ("records", "records offered to the fleet"),
                ("predictions", "predictions served"),
                ("refits", "successful shared-model refits"),
                ("refit_failures", "terminally failed shared-model refits"),
                ("drift_events", "per-stream drift detector firings"),
                ("fallback_predictions", "predictions served by the fallback"),
                ("clamped_predictions", "predictions clamped into the plausibility band"),
                ("async_swaps", "background fits adopted by atomic weight swap"),
                ("refits_deferred", "refit triggers deferred: a background fit was in flight"),
            )
        }
        # async-refit telemetry: live version, staleness, submit->swap lag,
        # off-path fit cost (these make the swap protocol observable)
        self._g_version = MetricGauge(
            "serving_fleet_model_version", "live shared-model version (0 = no model yet)"
        )
        self._g_staleness = MetricGauge(
            "serving_fleet_model_staleness_ticks",
            "ticks elapsed since the live model's training pool was drawn",
        )
        self._h_refit_lag = MetricHistogram(
            "serving_fleet_refit_lag_ticks",
            "ticks between refit submission and the adopting weight swap",
            buckets=log_buckets(1.0, 4096.0),
        )
        self._h_fit_seconds = MetricHistogram(
            "serving_fleet_refit_fit_seconds",
            "background fit duration (spent off the serving path)",
            buckets=log_buckets(1e-4, 600.0),
        )
        for inst in (
            self._h_latency,
            self._h_batch,
            self._g_throughput,
            self._g_health,
            self._g_version,
            self._g_staleness,
            self._h_refit_lag,
            self._h_fit_seconds,
        ):
            obs_registry.register(inst)
        self._last_health_level: int | None = None
        self._span_tick = 0
        self.fallback_forecaster = fallback_forecaster
        self.fallback_kwargs = dict(fallback_kwargs or {})
        self.fallback_kwargs.setdefault("target_col", target_col)
        self.refit_fault_hook = refit_fault_hook
        self.model: Forecaster | None = None
        self.fallback_model: Forecaster | None = None
        self.on_fallback = False
        self.stats = _FleetStats(n_streams)
        self.refit_mode = refit_mode
        self.warm_start = bool(warm_start)
        self.warm_epochs = warm_epochs
        #: bumps on every adopted primary model (in-line refit or async swap)
        self.model_version = 0
        #: fleet step whose pooled windows trained the live model (-1 = none)
        self._model_step = -1
        # the engine spawns its worker lazily on first submit, so sync-mode
        # fleets (and async ones that never refit) pay nothing here
        self.refit_engine: AsyncRefitEngine | None = (
            AsyncRefitEngine() if refit_mode == "async" else None
        )
        self._step = 0
        self._since_refit = 0
        self._refit_cursor = 0
        # preallocated (n_streams, window, features) inference batch —
        # each tick's due windows gather into its leading rows in place
        self._batch = np.empty((n_streams, window, features))
        # scratch of the masked squared-error pass (rows read only under its mask)
        self._sq_error = np.zeros(n_streams)
        self._last_batch_size = 0
        self._last_n_served = 0

    # -- health ---------------------------------------------------------------

    @property
    def health(self) -> HealthStatus:
        """Current fleet-wide serving health (per-stream fallback overrides)."""
        if self.on_fallback:
            return HealthStatus.FALLBACK
        if (
            self.refit_supervisor.consecutive_failures > 0
            or self.predict_supervisor.consecutive_failures > 0
        ):
            return HealthStatus.DEGRADED
        return HealthStatus.HEALTHY

    # -- internals -------------------------------------------------------------

    def _fit_pool(self) -> tuple[np.ndarray, np.ndarray]:
        """Training windows pooled from a staggered sample of stream buffers.

        Round-robin over the streams with enough history: each refit
        starts where the previous one stopped, so over successive refits
        the shared model sees the whole fleet while any single refit
        reads at most ``refit_streams`` buffers / ``max_fit_windows``
        windows.
        """
        from ..data.windowing import make_windows

        sizes = self.buffer.sizes
        viable = np.flatnonzero(sizes >= self.window + 1)
        if viable.size == 0:
            # same failure mode as the scalar predictor fitting a short
            # buffer: raise, and let the supervisor count it
            raise ValueError(
                f"no stream holds the >= {self.window + 1} records needed "
                "to build a training window"
            )
        k = min(int(viable.size), self.refit_streams)
        start = self._refit_cursor % viable.size
        pick = viable[(start + np.arange(k)) % viable.size]
        self._refit_cursor += k
        xs, ys = [], []
        budget = self.max_fit_windows
        for s in pick:
            data = self.buffer.view(int(s))
            x, y = make_windows(data, data[:, self.target_col], self.window, horizon=1)
            if len(x) > budget:
                x, y = x[-budget:], y[-budget:]
            xs.append(x)
            ys.append(y)
            budget -= len(x)
            if budget <= 0:
                break
        if len(xs) == 1:
            return xs[0], ys[0]
        return np.concatenate(xs), np.concatenate(ys)

    def _fit_fallback(self) -> None:
        """Fit the fallback forecaster on the pool (guarded, never raises)."""
        try:
            x, y = self._fit_pool()
            model = create_forecaster(self.fallback_forecaster, **self.fallback_kwargs)
            model.fit(x, y)
            self.fallback_model = model
        except Exception:  # noqa: BLE001 — last line of defence stays up
            pass

    def _refit_task(self) -> RefitTask:
        """One refit attempt's fit request (both modes build it the same way).

        Runs the fault hook, pools the training windows and, with
        ``warm_start``, ships the live model's weights so the fit resumes
        through :meth:`Forecaster.warm_fit`. Raises whatever the hook or
        the pooling raises — the caller counts it as a failed attempt.
        """
        if self.refit_fault_hook is not None:
            self.refit_fault_hook()
        x, y = self._fit_pool()
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

    def _start_refit(self) -> bool:
        """Refit trigger; ``True`` iff an attempt *started*.

        Sync mode fits in-line under the refit supervisor (retries re-run
        the hook and the pooling) and finishes the attempt before this
        tick returns. Async mode submits the task, and the outcome is
        finished by the poll at the start of a later tick; a failure of
        the hook or the pooling finishes it at once. A busy engine defers
        the trigger instead, *without* resetting the refit clock, so it
        re-arms next tick and the effective cadence degrades to
        ``max(refit_interval, fit_time)``.
        """
        engine = self.refit_engine
        if engine is not None and engine.busy:
            self.stats.n_refits_deferred += 1
            self._obs_counters["refits_deferred"].inc()
            return False
        # the clock resets when the attempt *starts*, not after it returns:
        # anything escaping the supervisor (it only catches Exception, so a
        # BaseException from the fit propagates) must not leave the
        # ``scheduled`` trigger armed, or every subsequent tick re-fires a
        # refit
        self._since_refit = 0
        if engine is None:
            _, model = self.refit_supervisor.run(lambda: fit_task(self._refit_task()))
            self._finish_refit(model, self._step)
            return True
        try:
            task = self._refit_task()
        except Exception as exc:  # noqa: BLE001 — a failed attempt, as in sync mode
            self.refit_supervisor.record(False, f"{type(exc).__name__}: {exc}")
            self._finish_refit(None, self._step)
            return True
        # ``busy`` covers an unpolled outcome too, so this cannot be rejected
        engine.submit(task)
        return True

    def _finish_refit(self, model: Forecaster | None, step: int) -> bool:
        """Adopt a fitted model, or degrade on a failed attempt.

        The one place a refit changes the serving model or the refit
        counters. ``step`` is the fleet step whose pooled windows trained
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
            self._obs_counters["refits"].inc()
            return True
        self.stats.n_refit_failures += 1
        self._obs_counters["refit_failures"].inc()
        if self.model is None or self.refit_supervisor.should_fall_back:
            self._fit_fallback()
            if self.fallback_model is not None:
                self.on_fallback = True
        return False

    def _sanitize(self, predictions: np.ndarray, served: np.ndarray) -> None:
        """Vectorized output guard over the streams that were just served.

        Mirrors ``OnlinePredictor._sanitize_prediction``: non-finite
        forecasts are dropped (and counted as predict failures), finite
        ones are clamped into each stream's plausibility band.
        """
        vals = predictions[served]
        bad = ~np.isfinite(vals)
        if bad.any():
            self.stats.n_predict_failures[served[bad]] += 1
            predictions[served[bad]] = np.nan
        sigma = self.gate.policy.prediction_sigma
        if sigma is None:
            return
        lo_t, hi_t, armed = self.gate.band(sigma, served, self.target_col)
        vals = predictions[served]
        wild = armed & np.isfinite(vals) & ((vals < lo_t) | (vals > hi_t))
        if wild.any():
            self.stats.n_clamped_predictions[served[wild]] += 1
            self.stats.total_clamped_predictions += int(np.count_nonzero(wild))
            predictions[served[wild]] = np.clip(
                vals[wild], lo_t[wild], hi_t[wild]
            )

    # -- API -------------------------------------------------------------------

    def process_tick(self, tick: np.ndarray) -> FleetTick:
        """One fleet step: gate, micro-batch predict, absorb, maybe refit.

        ``tick`` is ``(n_streams, features)`` (or ``(n_streams,)`` for
        univariate fleets) — one record per stream, NaN rows for absent
        streams. When observability is enabled the tick's latency,
        forward batch size and instantaneous throughput land in the
        fleet instruments, and every eighth tick runs inside a
        ``serving.fleet_tick`` trace span.
        """
        if not is_enabled():
            return self._process_tick_inner(tick)
        st = self.stats
        b_fallback = st.total_fallback_predictions
        b_clamped = st.total_clamped_predictions
        t0 = time.perf_counter()
        self._span_tick += 1
        if self._span_tick >= _SPAN_SAMPLE:
            self._span_tick = 0
            with trace.span("serving.fleet_tick") as sp:
                result = self._process_tick_inner(tick)
                sp.add("streams", self.n_streams)
        else:
            result = self._process_tick_inner(tick)
        elapsed = time.perf_counter() - t0
        self._h_latency.observe(elapsed)
        self._h_batch.observe(self._last_batch_size)
        if elapsed > 0:
            self._g_throughput.set(self.n_streams / elapsed)
        counters = self._obs_counters
        counters["records"].inc(self.n_streams)
        n_served = self._last_n_served
        if n_served:
            counters["predictions"].inc(n_served)
        level = _HEALTH_LEVEL[self.health]
        if level != self._last_health_level:
            self._last_health_level = level
            self._g_health.set(level)
        self._g_version.set(float(self.model_version))
        self._g_staleness.set(
            float(self._step - self._model_step) if self.model is not None else 0.0
        )
        n_drift = int(result.drift.sum())
        if n_drift:
            counters["drift_events"].inc(n_drift)
        fallback = st.total_fallback_predictions - b_fallback
        if fallback:
            counters["fallback_predictions"].inc(fallback)
        clamped = st.total_clamped_predictions - b_clamped
        if clamped:
            counters["clamped_predictions"].inc(clamped)
        return result

    def _process_tick_inner(self, tick: np.ndarray) -> FleetTick:
        arr = np.asarray(tick, float)
        if arr.ndim == 1 and self.buffer.features == 1:
            arr = arr[:, None]
        if arr.shape != (self.n_streams, self.buffer.features):
            raise ValueError(
                f"expected tick of shape ({self.n_streams}, {self.buffer.features}), "
                f"got {arr.shape}"
            )
        st = self.stats
        # async mode: adopt a finished background fit *before* predicting, so
        # the freshest completed model serves this tick — with a fit that
        # lands within one tick gap this is exactly the sync schedule (model
        # fitted at trigger tick k serves tick k+1), which is what the
        # paced-parity tests assert
        version = self.model_version
        engine = self.refit_engine
        if engine is not None and (outcome := engine.poll()) is not None:
            self.refit_supervisor.record(outcome.ok, outcome.error)
            if self._finish_refit(outcome.model, outcome.task.step):
                self._obs_counters["async_swaps"].inc()
                self._h_refit_lag.observe(float(self._step - outcome.task.step))
                self._h_fit_seconds.observe(outcome.fit_seconds)
        gated = self.gate.check_tick(arr)
        accepted = gated.actions != GATE_QUARANTINE
        # quarantined rows report their *raw* target (possibly NaN), accepted
        # rows the repaired one — exactly the scalar predictor's bookkeeping
        actuals = np.where(accepted, gated.records[:, self.target_col], arr[:, self.target_col])

        # -- micro-batched prediction (prequential: before absorbing the tick)
        predictions = np.full(self.n_streams, np.nan)
        used_fallback = np.zeros(self.n_streams, dtype=bool)
        self._last_batch_size = 0
        due = accepted & (self.buffer.sizes >= self.window)
        serving = self.fallback_model if self.on_fallback else self.model
        if serving is not None and due.any():
            idx = np.flatnonzero(due)
            self._last_batch_size = int(idx.size)
            batch = self.buffer.last_windows(idx, self.window, out=self._batch[: idx.size])

            def attempt() -> np.ndarray:
                return np.asarray(serving.predict(batch), float)[:, 0].copy()

            ok, values = self.predict_supervisor.run(attempt)
            fresh: np.ndarray | None = None
            if ok:
                predictions[idx] = values
                used_fallback[idx] = self.on_fallback
                fresh = idx
            else:
                st.n_predict_failures[idx] += 1
                # primary forward blew up: serve the tick from the fallback
                if not self.on_fallback:
                    if self.fallback_model is None:
                        self._fit_fallback()
                    if self.fallback_model is not None:
                        try:
                            values = np.asarray(
                                self.fallback_model.predict(batch), float
                            )[:, 0].copy()
                            predictions[idx] = values
                            used_fallback[idx] = True
                            fresh = idx
                        except Exception:  # noqa: BLE001 — the tick is lost, but counted
                            st.n_fallback_predict_failures[idx] += 1
            if fresh is not None:
                self._sanitize(predictions, fresh)
        if used_fallback.any():
            st.n_fallback_predictions[used_fallback] += 1
            st.total_fallback_predictions += int(np.count_nonzero(used_fallback))

        # -- score + drift (only streams that actually got a prediction)
        have = np.isfinite(predictions)
        self._last_n_served = int(np.count_nonzero(have))
        errors = np.full(self.n_streams, np.nan)
        if self._last_n_served:
            # masked passes: unserved rows keep their NaN error and their sums.
            # With every stream served the mask is ``True``: a bool-array
            # ``where=`` more than doubles a ufunc call's fixed cost, which is
            # most of each call in a small fleet
            served = True if self._last_n_served == self.n_streams else have
            np.subtract(predictions, actuals, out=errors, where=served)
            np.abs(errors, out=errors, where=served)
            np.add(st.n_predictions, 1, out=st.n_predictions, where=served)
            np.add(st.sum_abs_error, errors, out=st.sum_abs_error, where=served)
            sq = np.multiply(errors, errors, out=self._sq_error, where=served)
            np.add(st.sum_sq_error, sq, out=st.sum_sq_error, where=served)
            fired = self.detector.update(errors, served)
            np.add(st.n_drifts, 1, out=st.n_drifts, where=fired)
        else:
            fired = np.zeros(self.n_streams, dtype=bool)

        # -- absorb + refit clock (a fully quarantined tick changes nothing,
        #    matching the scalar predictor's early return)
        self.buffer.append_tick(gated.records, mask=accepted)
        self._step += 1
        if accepted.any():
            self._since_refit += 1
            sizes = self.buffer.sizes
            ready = sizes >= max(self.min_fit_size, self.window + 2)
            needs_fit = (
                self.model is None
                and bool(ready.any())
                and (
                    self.refit_supervisor.consecutive_failures == 0
                    or self._since_refit >= self.refit_interval
                )
            )
            scheduled = self.model is not None and self._since_refit >= self.refit_interval
            drift_ready = fired & (sizes >= self.min_fit_size)
            if (needs_fit or scheduled or bool(drift_ready.any())) and self._start_refit():
                self.detector.reset(fired)

        health = np.full(self.n_streams, _HEALTH_LEVEL[self.health], dtype=np.uint8)
        health[used_fallback] = _HEALTH_LEVEL[HealthStatus.FALLBACK]
        return FleetTick(
            step=self._step - 1,
            predictions=predictions,
            actuals=actuals,
            errors=errors,
            refit=self.model_version != version,
            drift=fired,
            health=health,
            gated=gated.actions,
            model_version=self.model_version,
        )

    def run(self, ticks: np.ndarray) -> list[FleetTick]:
        """Process a ``(T, n_streams[, features])`` tick matrix sequentially."""
        ticks = np.asarray(ticks, float)
        if ticks.ndim == 2 and self.buffer.features == 1:
            ticks = ticks[:, :, None]
        with trace.span("serving.fleet_run") as sp:
            out = [self.process_tick(t) for t in ticks]
            sp.add("ticks", len(out))
            sp.add("records", len(out) * self.n_streams)
        return out

    # -- checkpoint / restore ----------------------------------------------------

    def state_dict(self) -> dict:
        """Full fleet serving state: enough to resume every stream bit-for-bit."""
        return {
            "config": {
                "n_streams": self.n_streams,
                "forecaster_name": self.forecaster_name,
                "forecaster_kwargs": dict(self.forecaster_kwargs),
                "window": self.window,
                "buffer_capacity": self.buffer.capacity,
                "refit_interval": self.refit_interval,
                "min_fit_size": self.min_fit_size,
                "target_col": self.target_col,
                "features": self.buffer.features,
                "detector_params": dict(self._detector_params),
                "gate_policy": self.gate.policy,
                "supervisor_policy": self.refit_supervisor.policy,
                "fallback_forecaster": self.fallback_forecaster,
                "fallback_kwargs": dict(self.fallback_kwargs),
                "refit_streams": self.refit_streams,
                "max_fit_windows": self.max_fit_windows,
                "refit_mode": self.refit_mode,
                "warm_start": self.warm_start,
                "warm_epochs": self.warm_epochs,
            },
            "step": self._step,
            "since_refit": self._since_refit,
            "refit_cursor": self._refit_cursor,
            "model_version": self.model_version,
            "model_step": self._model_step,
            # an in-flight (or finished-but-unadopted) background fit is
            # persisted as its *task*: restore resubmits it, so the fit it
            # would have produced still lands — restore-then-replay equals
            # the uninterrupted run (fits are seeded and deterministic)
            "pending_refit": (
                None
                if self.refit_engine is None
                or (task := self.refit_engine.pending_task()) is None
                else task.state_dict()
            ),
            "on_fallback": self.on_fallback,
            "buffer": self.buffer.state_dict(),
            "detector": self.detector.state_dict(),
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
            cfg["n_streams"] != self.n_streams
            or cfg["window"] != self.window
            or cfg["features"] != self.buffer.features
            or cfg["buffer_capacity"] != self.buffer.capacity
            or cfg["forecaster_name"] != self.forecaster_name
        ):
            raise CheckpointError(
                "checkpoint config mismatch: "
                f"saved (streams={cfg['n_streams']}, forecaster={cfg['forecaster_name']}, "
                f"window={cfg['window']}, features={cfg['features']}, "
                f"capacity={cfg['buffer_capacity']}) vs live "
                f"(streams={self.n_streams}, forecaster={self.forecaster_name}, "
                f"window={self.window}, features={self.buffer.features}, "
                f"capacity={self.buffer.capacity})"
            )
        # reject a bad ring before any field changes: a half-restored
        # predictor is worse than a refused checkpoint
        try:
            self.buffer.validate_state(state["buffer"])
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"checkpoint holds a corrupt ring state: {exc}") from exc
        self._step = int(state["step"])
        self._since_refit = int(state["since_refit"])
        self._refit_cursor = int(state["refit_cursor"])
        self.model_version = int(state.get("model_version", 0))
        self._model_step = int(state.get("model_step", -1))
        self.on_fallback = bool(state["on_fallback"])
        self.buffer.load_state_dict(state["buffer"])
        self.detector.load_state_dict(state["detector"])
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
        pending = state.get("pending_refit")
        if pending is not None and self.refit_engine is not None:
            # deterministic resume: re-run the interrupted fit on the same
            # pooled windows (a busy engine drops it — the restored refit
            # clock reschedules with fresh data, also deterministically)
            self.refit_engine.submit(RefitTask.from_state(pending))

    def close(self) -> None:
        """Release the background refit worker (no-op in sync mode).

        Safe to call repeatedly; an in-flight fit is abandoned (its task
        is recoverable from the last checkpoint). Sync-mode fleets have
        nothing to release, so existing callers need not change.
        """
        if self.refit_engine is not None:
            self.refit_engine.close()

    def save(self, path: str | Path) -> None:
        """Checkpoint the full fleet state atomically (crash-safe)."""
        write_checkpoint(path, {"kind": "fleet_predictor", "state": self.state_dict()})

    @classmethod
    def restore(cls, path: str | Path, **overrides: Any) -> "FleetPredictor":
        """Rebuild a fleet from a checkpoint and resume every stream."""
        artifact = read_checkpoint(path)
        if not isinstance(artifact, dict) or artifact.get("kind") != "fleet_predictor":
            raise CheckpointError(f"{path} does not hold a FleetPredictor checkpoint")
        state = artifact["state"]
        cfg = {k: v for k, v in state["config"].items() if k not in _RETIRED_OPTIONS}
        params = cfg.pop("detector_params")
        cfg["detector"] = PageHinkley(**params)
        cfg.update(overrides)
        predictor = cls(**cfg)
        predictor.load_state_dict(state)
        return predictor
