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
* with ``refit_mode="async"`` the pooled fit leaves the serving path:
  an :class:`~repro.streaming.refit.AsyncRefitEngine` fits on a
  background worker, and a later tick adopts the model by **atomic
  weight swap**; every tick carries the live ``model_version``;
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

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..obs.registry import MetricRegistry
from .buffer import MatrixRingBuffer
from .checkpoint import Stateful, parse_fields, parse_options, refused_option
from .drift import PageHinkley
from .online import _HEALTH_LEVEL, PredictionRecord, _page_hinkley, _ServingPredictor
from .refit import AsyncRefitEngine, RefitTask
from .resilience import (
    GATE_QUARANTINE,
    GatePolicy,
    HealthStatus,
    FleetGate,
    SupervisorPolicy,
)

__all__ = ["FleetPredictor", "FleetTick"]

#: health-gauge level -> HealthStatus (inverse of online._HEALTH_LEVEL)
_HEALTH_BY_LEVEL = {level: status for status, level in _HEALTH_LEVEL.items()}
#: gate action code -> the ``gated`` field of :class:`PredictionRecord`
_GATED_BY_ACTION = (None, "imputed", "quarantined")
#: the PageHinkley parameters a fleet checkpoints for its detector
_DETECTOR_PARAMS = ("delta", "threshold", "min_instances")


def _tick_matrix(tick: np.ndarray, streams: int, features: int) -> np.ndarray:
    """``tick`` as the ``(streams, features)`` float matrix a fleet step serves."""
    arr = np.asarray(tick, float)
    if arr.ndim == 1 and features == 1:
        arr = arr[:, None]
    if arr.shape != (streams, features):
        raise ValueError(f"expected tick of shape ({streams}, {features}), got {arr.shape}")
    return arr


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


class _FleetPageHinkley(Stateful):
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

    _STATE = {"n_seen": "n_seen", "drift_detected": "drift_detected", "mean": "_mean",
              "cumulative": "_cumulative", "minimum": "_minimum"}  # fmt: skip
    _WHAT = "detector"


class _FleetStats(Stateful):
    """Per-stream serving statistics as ``(N,)`` arrays + fleet totals."""

    #: checkpointed under their own names, in this order
    _STATE = {name: name for name in (
        "n_predictions", "n_drifts", "n_predict_failures", "n_fallback_predictions",
        "n_fallback_predict_failures", "n_clamped_predictions", "sum_abs_error",
        "sum_sq_error", "n_refits", "n_refit_failures", "n_refits_deferred",
    )}  # fmt: skip
    #: absent in checkpoints from before async refits
    _DEFAULTS = {"n_refits_deferred": 0}
    _WHAT = "stats"

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

    @property
    def total_fallback_predictions(self) -> int:
        """Predictions the fallback served, over all streams."""
        return int(self.n_fallback_predictions.sum())

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


class FleetPredictor(_ServingPredictor):
    """Serve one-step-ahead predictions for N streams per shared forward.

    Takes the parameters documented on
    :class:`~repro.streaming.online._ServingPredictor`, which it shares
    with :class:`~repro.streaming.online.OnlinePredictor` (so a fleet of
    one is a drop-in, bit-identical replacement), plus:

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

    _CHECKPOINT_KIND = "fleet_predictor"
    _METRIC_PREFIX = "serving_fleet"
    _SPANS = ("serving.fleet_tick", "serving.fleet_run")
    _IDENTITY = ("n_streams", *_ServingPredictor._IDENTITY)
    _COUNTERS = (
        *_ServingPredictor._COUNTERS,
        ("records", "records offered to the fleet"),
        ("async_swaps", "background fits adopted by atomic weight swap"),
        ("refits_deferred", "refit triggers deferred: a background fit was in flight"),
    )
    #: beside health and tick latency: throughput, forward batch size, and the
    #: async-refit protocol's live version, staleness, submit->swap lag and fit cost
    _GAUGES = {
        **_ServingPredictor._GAUGES,
        "records_per_sec": "instantaneous fleet serving throughput",
        "model_version": "live shared-model version (0 = no model yet)",
        "model_staleness_ticks": "ticks elapsed since the live model's training pool was drawn",
    }
    _HISTOGRAMS = {
        "tick_seconds": ("per-tick fleet serving latency (all streams)", (1e-6, 10.0)),
        "batch_size": ("streams served per micro-batched model forward", (1.0, 65536.0)),
        "refit_lag_ticks": (
            "ticks between refit submission and the adopting weight swap", (1.0, 4096.0)
        ),
        "refit_fit_seconds": (
            "background fit duration (spent off the serving path)", (1e-4, 600.0)
        ),
    }

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
            raise refused_option(f"n_streams must be >= 1, got {n_streams}", "n_streams")
        for name, value in (("refit_streams", refit_streams), ("max_fit_windows", max_fit_windows)):
            if value < 1:
                raise refused_option(f"{name} must be >= 1, got {value}", name)
        if refit_mode not in ("sync", "async"):
            raise refused_option(
                f"refit_mode must be 'sync' or 'async', got {refit_mode!r}", "refit_mode"
            )
        if warm_epochs is not None and warm_epochs < 1:
            raise refused_option(f"warm_epochs must be >= 1, got {warm_epochs}", "warm_epochs")
        proto = PageHinkley() if detector is None else _page_hinkley(detector)
        super().__init__(
            forecaster_name, forecaster_kwargs, window, buffer_capacity, refit_interval,
            min_fit_size, target_col, supervisor_policy, fallback_forecaster,
            fallback_kwargs, refit_fault_hook, registry,
        )  # fmt: skip
        self.n_streams = n_streams
        self.refit_streams = refit_streams
        self.max_fit_windows = max_fit_windows
        self.buffer = MatrixRingBuffer(n_streams, buffer_capacity, features, window=window)
        self.detector = _FleetPageHinkley.from_prototype(proto, n_streams)
        self.gate = FleetGate(n_streams, features, gate_policy, registry=self._registry)
        self.stats = _FleetStats(n_streams)
        self.refit_mode = refit_mode
        self.warm_start = bool(warm_start)
        self.warm_epochs = warm_epochs
        # the engine spawns its worker lazily on first submit, so sync-mode
        # fleets (and async ones that never refit) pay nothing here
        self.refit_engine: AsyncRefitEngine | None = (
            AsyncRefitEngine() if refit_mode == "async" else None
        )
        self._refit_cursor = 0
        # preallocated (n_streams, window, features) inference batch —
        # each tick's due windows gather into its leading rows in place
        self._batch = np.empty((n_streams, window, features))
        # scratch of the masked squared-error pass (rows read only under its mask)
        self._sq_error = np.zeros(n_streams)
        self._last_batch_size = 0

    # -- internals -------------------------------------------------------------

    def _training_windows(self) -> tuple[np.ndarray, np.ndarray]:
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
            self._counters["clamped_predictions"].inc(int(np.count_nonzero(wild)))
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
        return self._observed_step(tick)

    def _observe_step(self, result: FleetTick, elapsed: float) -> HealthStatus:
        gauges = self._gauges
        self._histograms["batch_size"].observe(self._last_batch_size)
        if elapsed > 0:
            gauges["records_per_sec"].set(self.n_streams / elapsed)
        gauges["model_version"].set(float(self.model_version))
        gauges["model_staleness_ticks"].set(
            float(self._step - self._model_step) if self.model is not None else 0.0
        )
        return self.health

    def _count_span(self, span: Any, steps: int | None) -> None:
        if steps is None:
            span.add("streams", self.n_streams)
        else:
            span.add("ticks", steps)
            span.add("records", steps * self.n_streams)

    def _step_inner(self, tick: np.ndarray) -> FleetTick:
        arr = _tick_matrix(tick, self.n_streams, self.buffer.features)
        st = self.stats
        counters = self._counters
        counters["records"].inc(self.n_streams)
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
                counters["async_swaps"].inc()
                self._histograms["refit_lag_ticks"].observe(float(self._step - outcome.task.step))
                self._histograms["refit_fit_seconds"].observe(outcome.fit_seconds)
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
            values, used, failures = self._forward(serving, batch)
            if failures:
                st.n_predict_failures[idx] += 1
                if failures == 2:
                    st.n_fallback_predict_failures[idx] += 1
                    counters["fallback_predict_failures"].inc(idx.size)
            if values is not None:
                predictions[idx] = values
                used_fallback[idx] = used
                self._sanitize(predictions, idx)
        n_fallback = int(np.count_nonzero(used_fallback))
        if n_fallback:
            st.n_fallback_predictions[used_fallback] += 1
            counters["fallback_predictions"].inc(n_fallback)

        # -- score + drift (only streams that actually got a prediction)
        have = np.isfinite(predictions)
        n_served = int(np.count_nonzero(have))
        errors = np.full(self.n_streams, np.nan)
        n_drift = 0
        if n_served:
            # masked passes: unserved rows keep their NaN error and their sums.
            # With every stream served the mask is ``True``: a bool-array
            # ``where=`` more than doubles a ufunc call's fixed cost, which is
            # most of each call in a small fleet
            served = True if n_served == self.n_streams else have
            np.subtract(predictions, actuals, out=errors, where=served)
            np.abs(errors, out=errors, where=served)
            np.add(st.n_predictions, 1, out=st.n_predictions, where=served)
            counters["predictions"].inc(n_served)
            np.add(st.sum_abs_error, errors, out=st.sum_abs_error, where=served)
            sq = np.multiply(errors, errors, out=self._sq_error, where=served)
            np.add(st.sum_sq_error, sq, out=st.sum_sq_error, where=served)
            fired = self.detector.update(errors, served)
            n_drift = int(np.count_nonzero(fired))
            if n_drift:
                np.add(st.n_drifts, 1, out=st.n_drifts, where=fired)
                counters["drift_events"].inc(n_drift)
        else:
            fired = np.zeros(self.n_streams, dtype=bool)

        # -- absorb + refit clock (a fully quarantined tick changes nothing,
        #    matching the scalar predictor's early return)
        self.buffer.append_tick(gated.records, mask=accepted)
        self._step += 1
        if accepted.any():
            self._since_refit += 1
            sizes = self.buffer.sizes
            # each mask is built only where the rule reads it
            ready = self.model is None and bool(
                (sizes >= max(self.min_fit_size, self.window + 2)).any()
            )
            drift_ready = n_drift > 0 and bool((fired & (sizes >= self.min_fit_size)).any())
            if self._refit_rule(ready, drift_ready) and n_drift:
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

    # -- checkpoint / restore ----------------------------------------------------

    def _config(self) -> dict:
        return {
            "n_streams": self.n_streams,
            **super()._config(),
            "detector_params": {k: getattr(self.detector, k) for k in _DETECTOR_PARAMS},
            "refit_streams": self.refit_streams,
            "max_fit_windows": self.max_fit_windows,
            "refit_mode": self.refit_mode,
            "warm_start": self.warm_start,
            "warm_epochs": self.warm_epochs,
        }

    _STATE = {**_ServingPredictor._STATE, "refit_cursor": "_refit_cursor"}

    @classmethod
    def _options(cls, config: dict[str, Any]) -> dict[str, Any]:
        # the detector prototype is persisted as its parameters
        params = config.pop("detector_params", None)
        options = super()._options(config)
        if params is not None:
            options["detector"] = PageHinkley(**parse_options(PageHinkley, params))
        return options

    def state_dict(self) -> dict:
        state = super().state_dict()
        # an in-flight (or finished-but-unadopted) background fit is
        # persisted as its *task*: restore resubmits it, so the fit it
        # would have produced still lands — restore-then-replay equals
        # the uninterrupted run (fits are seeded and deterministic)
        engine = self.refit_engine
        task = None if engine is None else engine.pending_task()
        state["pending_refit"] = None if task is None else task.state_dict()
        state["detector"] = self.detector.state_dict()
        return state

    def _parse_parts(self, state: dict) -> list[Callable[[], None]]:
        """The base parts, the detector, and a pending task checked against this fleet."""
        parts = [*super()._parse_parts(state), self.detector.parse_state(state["detector"])]
        pending = state.get("pending_refit")  # absent before async refits
        if pending is not None:
            n = len(pending["x"])
            windows = {"x": np.empty((n, self.window, self.buffer.features)), "y": np.empty((n, 1))}
            fields = parse_fields(pending, {**windows, "step": 0}, "pending refit")
            task = RefitTask.from_state({**pending, **fields})
            if not isinstance(task.forecaster_name, str) or type(task.forecaster_kwargs) is not dict:
                raise TypeError("pending refit needs a forecaster name and a kwargs dict")
            if self.refit_engine is not None:
                # deterministic resume: re-run the interrupted fit on the same
                # pooled windows (a busy engine drops it — the restored refit
                # clock reschedules with fresh data, also deterministically)
                parts.append(lambda: self.refit_engine.submit(task))
        return parts

    def close(self) -> None:
        """Release the background refit worker (no-op in sync mode).

        Safe to call repeatedly; an in-flight fit is abandoned (its task
        is recoverable from the last checkpoint). Sync-mode fleets have
        nothing to release, so existing callers need not change.
        """
        if self.refit_engine is not None:
            self.refit_engine.close()

    _discard = close
