"""Serving resilience: input gating, supervised execution, health states.

The paper's own data is "partially incomplete or has outliers due to
network anomalies, system interruption etc." (§III-A) — and a live
monitoring stream is strictly worse than an archived trace. This module
gives :class:`~repro.streaming.online.OnlinePredictor` the pieces it
needs to survive that reality:

* :class:`InputGate` — validates every incoming record *before* it can
  reach the rolling buffer. Malformed records (wrong arity, all-NaN)
  are quarantined; partially missing or outlying cells are imputed from
  per-feature running statistics. Every decision is counted, so data
  loss is a visible metric instead of silent poison.
* :class:`Supervisor` — runs refits (and predictions) inside a
  try/retry envelope with exponential backoff and a wall-time budget,
  tracking consecutive failures so the predictor knows when to degrade
  to its fallback forecaster.
* :class:`HealthStatus` — the three-state health signal stamped on
  every :class:`~repro.streaming.online.PredictionRecord`.
"""

from __future__ import annotations

import enum
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

import numpy as np

from ..obs.registry import Counter as MetricCounter
from ..obs.registry import Gauge as MetricGauge
from ..obs.registry import MetricRegistry, get_registry
from .checkpoint import Stateful, parse_fields

__all__ = [
    "HealthStatus",
    "GatePolicy",
    "GateResult",
    "InputGate",
    "FleetGate",
    "FleetGateResult",
    "SupervisorPolicy",
    "Supervisor",
]

T = TypeVar("T")


class HealthStatus(str, enum.Enum):
    """Serving health emitted with every prediction record.

    ``HEALTHY``  — the primary forecaster is fitted and serving.
    ``DEGRADED`` — the primary still serves but recent refits or
    predictions failed (the supervisor is retrying).
    ``FALLBACK`` — predictions come from the registered fallback
    forecaster because the primary is unusable.
    ``RECOVERING`` — sharded serving only: the stream's shard worker is
    down but supervised recovery (respawn + checkpoint restore) is in
    progress; rows hold the last served prediction instead of NaN.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FALLBACK = "fallback"
    RECOVERING = "recovering"


# ---------------------------------------------------------------------------
# input gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GatePolicy:
    """How the input gate treats suspect records.

    Parameters
    ----------
    impute:
        Repair strategy for partially missing records: ``"last"`` fills
        NaN cells with the most recent accepted value for that feature,
        ``"mean"`` with its running mean, ``"drop"`` quarantines any
        record containing a non-finite cell.
    outlier_sigma:
        If set, cells further than ``outlier_sigma`` running standard
        deviations from their feature's running mean are treated per
        ``outlier_action``. ``None`` disables outlier screening.
    outlier_action:
        ``"clamp"`` pulls the offending cell back to the band edge,
        ``"quarantine"`` drops the whole record.
    min_history:
        Accepted records required before outlier screening arms (the
        running moments are meaningless earlier).
    prediction_sigma:
        Output-side guard: served predictions are clamped into
        ``mean ± prediction_sigma * std`` of the gated stream (a model
        extrapolating a corrupted window can forecast far outside any
        value the stream has ever taken). ``None`` disables clamping.
    """

    impute: str = "last"
    outlier_sigma: float | None = None
    outlier_action: str = "clamp"
    min_history: int = 20
    prediction_sigma: float | None = 6.0

    def __post_init__(self) -> None:
        if self.impute not in ("last", "mean", "drop"):
            raise ValueError(f"impute must be 'last', 'mean' or 'drop', got {self.impute!r}")
        if self.outlier_action not in ("clamp", "quarantine"):
            raise ValueError(
                f"outlier_action must be 'clamp' or 'quarantine', got {self.outlier_action!r}"
            )
        if self.outlier_sigma is not None and self.outlier_sigma <= 0:
            raise ValueError(f"outlier_sigma must be positive, got {self.outlier_sigma}")
        if self.prediction_sigma is not None and self.prediction_sigma <= 0:
            raise ValueError(f"prediction_sigma must be positive, got {self.prediction_sigma}")
        if self.min_history < 2:
            raise ValueError(f"min_history must be >= 2, got {self.min_history}")


@dataclass(frozen=True)
class GateResult:
    """Outcome of gating one record.

    ``action`` is ``"accept"``, ``"impute"`` or ``"quarantine"``;
    ``record`` holds the (possibly repaired) record for the first two
    and ``None`` when quarantined; ``reason`` names the defect class
    (``"arity"``, ``"empty"``, ``"missing"``, ``"outlier"``, ...).
    """

    action: str
    record: np.ndarray | None
    reason: str | None = None


class InputGate(Stateful):
    """Validate, repair or quarantine records before they enter the buffer.

    Keeps per-feature running moments (Welford) over *accepted* data
    only, so corrupt records cannot skew the statistics used to judge
    later ones. Every decision counts into :mod:`repro.obs` instruments
    registered with ``registry`` (default: the process-global registry),
    aggregated across gates in exported snapshots; the historical
    ``n_seen``/``n_accepted``/``n_imputed``/``n_quarantined``/``reasons``
    attributes remain as exact per-instance views. These counts are
    serving state (checkpointed, asserted on), so they record regardless
    of the :func:`repro.obs.set_enabled` switch.
    """

    def __init__(
        self,
        features: int,
        policy: GatePolicy | None = None,
        registry: MetricRegistry | None = None,
    ) -> None:
        if features < 1:
            raise ValueError(f"features must be >= 1, got {features}")
        self.features = features
        self.policy = policy or GatePolicy()
        self._registry = get_registry(registry)
        self._c_seen = MetricCounter(
            "serving_gate_seen_total", "records offered to the input gate"
        )
        self._c_actions = {
            action: MetricCounter(
                "serving_gate_records_total",
                "gate verdicts by action",
                {"action": action},
            )
            for action in ("accept", "impute", "quarantine")
        }
        self._c_reasons: dict[str, MetricCounter] = {}
        for inst in (self._c_seen, *self._c_actions.values()):
            self._registry.register(inst)
        self._last = np.full(features, np.nan)
        self._count = 0
        self._mean = np.zeros(features)
        self._m2 = np.zeros(features)

    # -- counter views ----------------------------------------------------------

    @property
    def n_seen(self) -> int:
        return int(self._c_seen.value)

    @property
    def n_accepted(self) -> int:
        return int(self._c_actions["accept"].value)

    @property
    def n_imputed(self) -> int:
        return int(self._c_actions["impute"].value)

    @property
    def n_quarantined(self) -> int:
        return int(self._c_actions["quarantine"].value)

    @property
    def reasons(self) -> Counter[str]:
        """Per-reason defect counts (view over the registry instruments)."""
        return Counter({k: int(c.value) for k, c in self._c_reasons.items() if c.value})

    def _count_reason(self, reason: str) -> None:
        counter = self._c_reasons.get(reason)
        if counter is None:
            counter = MetricCounter(
                "serving_gate_reasons_total", "gate defect classes", {"reason": reason}
            )
            self._registry.register(counter)
            self._c_reasons[reason] = counter
        counter.inc()

    # -- internals -------------------------------------------------------------

    def _quarantine(self, reason: str) -> GateResult:
        self._c_actions["quarantine"].inc()
        self._count_reason(reason)
        return GateResult("quarantine", None, reason)

    def _absorb(self, record: np.ndarray) -> None:
        self._last = record.copy()
        self._count += 1
        delta = record - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (record - self._mean)

    def _running_std(self) -> np.ndarray:
        if self._count < 2:
            return np.zeros(self.features)
        return np.sqrt(self._m2 / (self._count - 1))

    def band(self, sigma: float) -> tuple[np.ndarray, np.ndarray] | None:
        """``(lo, hi)`` plausibility band per feature, or None before arming."""
        if self._count < self.policy.min_history:
            return None
        std = self._running_std()
        return self._mean - sigma * std, self._mean + sigma * std

    # -- API -------------------------------------------------------------------

    def check(self, record: Any) -> GateResult:
        """Gate one incoming record; never raises on malformed input."""
        self._c_seen.inc()
        try:
            arr = np.atleast_1d(np.asarray(record, float)).ravel()
        except (TypeError, ValueError):
            return self._quarantine("unparseable")
        if arr.shape != (self.features,):
            return self._quarantine("arity")

        repaired = arr.copy()
        finite = np.isfinite(arr)
        reason: str | None = None
        if not finite.any():
            return self._quarantine("empty")
        if not finite.all():
            if self.policy.impute == "drop":
                return self._quarantine("missing")
            fill = self._last if self.policy.impute == "last" else self._mean
            usable = np.isfinite(fill) if self.policy.impute == "last" else self._count > 0
            if not np.all(np.where(finite, True, usable)):
                # a missing cell with no history to impute from
                return self._quarantine("no_history")
            repaired[~finite] = fill[~finite]
            reason = "missing"

        if self.policy.outlier_sigma is not None and self._count >= self.policy.min_history:
            std = self._running_std()
            band = self.policy.outlier_sigma * std
            wild = (std > 0) & (np.abs(repaired - self._mean) > band)
            if wild.any():
                clamped = repaired.copy()
                clamped[wild] = (
                    self._mean[wild]
                    + np.sign(repaired[wild] - self._mean[wild]) * band[wild]
                )
                if self.policy.outlier_action == "quarantine":
                    # the record is dropped, but the *clamped* value still
                    # feeds the running moments: a genuine regime shift keeps
                    # pulling the band toward itself (bounded influence) and
                    # gets re-admitted, while an impulse fault barely moves it
                    self._absorb(clamped)
                    return self._quarantine("outlier")
                repaired = clamped
                reason = "outlier" if reason is None else reason

        self._absorb(repaired)
        if reason is None:
            self._c_actions["accept"].inc()
            return GateResult("accept", repaired)
        self._c_actions["impute"].inc()
        self._count_reason(reason)
        return GateResult("impute", repaired, reason)

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "n_seen": self.n_seen,
            "n_accepted": self.n_accepted,
            "n_imputed": self.n_imputed,
            "n_quarantined": self.n_quarantined,
            "reasons": dict(self.reasons),
            "last": self._last.copy(),
            "count": self._count,
            "mean": self._mean.copy(),
            "m2": self._m2.copy(),
        }

    def parse_state(self, state: dict) -> Callable[[], None]:
        """Check a :meth:`state_dict` (counts >= 0, reasons by name, moments per feature)."""
        counts = ("n_seen", "n_accepted", "n_imputed", "n_quarantined")
        moments = {"count": self._count, "last": self._last, "mean": self._mean, "m2": self._m2}
        saved = parse_fields(state, {**dict.fromkeys(counts, 0), **moments}, "gate")
        reasons = parse_fields(state["reasons"], dict.fromkeys(state["reasons"], 0), "gate reason")
        named = all(isinstance(reason, str) for reason in reasons)
        if not named or min(saved[key] for key in counts) < 0 or min(reasons.values(), default=0) < 0:
            raise ValueError("gate counts must be >= 0 and reasons named by strings")

        def commit() -> None:
            for counter, key in zip((self._c_seen, *self._c_actions.values()), counts):
                counter.restore(saved[key])
            for counter in self._c_reasons.values():
                counter.restore(0)
            for reason, count in reasons.items():
                self._count_reason(reason)
                self._c_reasons[reason].restore(count)
            self._last, self._count = saved["last"], saved["count"]
            self._mean, self._m2 = saved["mean"], saved["m2"]

        return commit


# ---------------------------------------------------------------------------
# fleet (vectorized) input gate
# ---------------------------------------------------------------------------

#: integer encodings used by :class:`FleetGateResult` (hot-path friendly)
GATE_ACCEPT, GATE_IMPUTE, GATE_QUARANTINE = 0, 1, 2
#: reason codes -> the reason strings :class:`InputGate` uses
GATE_REASONS = (None, "missing", "outlier", "empty", "no_history")
_R_NONE, _R_MISSING, _R_OUTLIER, _R_EMPTY, _R_NO_HISTORY = range(5)


@dataclass(frozen=True)
class FleetGateResult:
    """Columnar outcome of gating one ``(streams, features)`` tick.

    ``actions`` holds :data:`GATE_ACCEPT` / :data:`GATE_IMPUTE` /
    :data:`GATE_QUARANTINE` per stream, ``reasons`` indexes into
    :data:`GATE_REASONS`, and ``records`` is the repaired tick matrix
    (rows of quarantined streams keep their raw values — callers must
    not absorb them).
    """

    actions: np.ndarray  # (N,) int8
    records: np.ndarray  # (N, F) float
    reasons: np.ndarray  # (N,) int8

    @property
    def accepted(self) -> np.ndarray:
        return self.actions != GATE_QUARANTINE


class FleetGate(Stateful):
    """Vectorized :class:`InputGate` over N parallel streams.

    Runs the NaN / empty-record / imputation / Welford-band checks on a
    whole ``(streams, features)`` tick at once while keeping *per-stream*
    running moments, verdict counters and reason tallies — each stream's
    decisions and statistics are bit-identical to what a dedicated
    :class:`InputGate` fed the same records would produce. The one
    intentional difference: a tick is a uniformly shaped float matrix,
    so the scalar gate's ``"unparseable"`` / ``"arity"`` defects cannot
    occur here (a stream with no data this tick is an all-NaN row, which
    quarantines as ``"empty"``); malformed per-stream payloads must be
    mapped to NaN rows by whatever assembles the tick.
    """

    def __init__(
        self,
        streams: int,
        features: int,
        policy: GatePolicy | None = None,
        registry: MetricRegistry | None = None,
    ) -> None:
        if streams < 1 or features < 1:
            raise ValueError(f"streams and features must be >= 1, got {streams}, {features}")
        self.streams = streams
        self.features = features
        self.policy = policy or GatePolicy()
        self._registry = get_registry(registry)
        self._c_seen = MetricCounter(
            "serving_gate_seen_total", "records offered to the input gate"
        )
        self._c_actions = {
            action: MetricCounter(
                "serving_gate_records_total",
                "gate verdicts by action",
                {"action": action},
            )
            for action in ("accept", "impute", "quarantine")
        }
        self._c_reasons: dict[str, MetricCounter] = {}
        for inst in (self._c_seen, *self._c_actions.values()):
            self._registry.register(inst)
        # per-stream verdict counters (checkpointed serving state)
        self._n_seen = np.zeros(streams, dtype=np.int64)
        self._n_accepted = np.zeros(streams, dtype=np.int64)
        self._n_imputed = np.zeros(streams, dtype=np.int64)
        self._n_quarantined = np.zeros(streams, dtype=np.int64)
        self._reason_counts = np.zeros((len(GATE_REASONS), streams), dtype=np.int64)
        # per-stream running moments over accepted data (Welford)
        self._last = np.full((streams, features), np.nan)
        self._count = np.zeros(streams, dtype=np.int64)
        self._mean = np.zeros((streams, features))
        self._m2 = np.zeros((streams, features))
        # running std, derived from m2/count: updated only on the rows an
        # absorb touches (0 until a stream has 2 records), rebuilt on load,
        # never checkpointed
        self._std = np.zeros((streams, features))
        # per-tick scratch of the masked Welford passes; its masked-off
        # rows hold stale values that no pass reads
        self._delta = np.zeros((streams, features))
        self._term = np.zeros((streams, features))

    # -- counter views ----------------------------------------------------------

    @property
    def n_seen(self) -> np.ndarray:
        return self._n_seen.copy()

    @property
    def n_accepted(self) -> np.ndarray:
        return self._n_accepted.copy()

    @property
    def n_imputed(self) -> np.ndarray:
        return self._n_imputed.copy()

    @property
    def n_quarantined(self) -> np.ndarray:
        return self._n_quarantined.copy()

    def reasons(self, stream: int | None = None) -> Counter[str]:
        """Defect counts for one stream (or the whole fleet)."""
        counts = (
            self._reason_counts.sum(axis=1)
            if stream is None
            else self._reason_counts[:, stream]
        )
        return Counter(
            {
                name: int(c)
                for name, c in zip(GATE_REASONS, counts)
                if name is not None and c
            }
        )

    # -- internals -------------------------------------------------------------

    def _obs_reason(self, reason: str, amount: int) -> None:
        counter = self._c_reasons.get(reason)
        if counter is None:
            counter = MetricCounter(
                "serving_gate_reasons_total", "gate defect classes", {"reason": reason}
            )
            self._registry.register(counter)
            self._c_reasons[reason] = counter
        counter.inc(amount)

    def _absorb_rows(self, rows: np.ndarray | bool, values: np.ndarray) -> None:
        """Welford update for ``rows`` (bool mask, or ``True`` for all) with ``values``.

        Whole-array ufunc passes masked by ``where=``: rows outside the
        mask are neither read nor written, so a discarded row's NaN or
        inf never reaches the arithmetic. Same operations, same order as
        the scalar gate's ``_absorb``.
        """
        cells = rows if rows is True else rows[:, None]
        delta, term = self._delta, self._term
        np.copyto(self._last, values, where=cells)
        np.add(self._count, 1, out=self._count, where=rows)
        np.subtract(values, self._mean, out=delta, where=cells)
        np.divide(delta, self._count[:, None], out=term, where=cells)
        np.add(self._mean, term, out=self._mean, where=cells)
        np.subtract(values, self._mean, out=term, where=cells)
        np.multiply(delta, term, out=term, where=cells)
        np.add(self._m2, term, out=self._m2, where=cells)
        self._refresh_std(rows)

    def _refresh_std(self, rows: np.ndarray | bool) -> None:
        """``std = sqrt(m2 / (count - 1))`` on ``rows`` that hold >= 2 records."""
        cells = (rows & (self._count >= 2))[:, None]
        np.divide(self._m2, (self._count - 1)[:, None], out=self._std, where=cells)
        np.sqrt(self._std, out=self._std, where=cells)

    def band(
        self, sigma: float, rows: np.ndarray | slice = slice(None), col: int | slice = slice(None)
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-stream ``(lo, hi, armed)`` plausibility bands.

        ``lo``/``hi`` are ``(streams, features)``; rows where ``armed``
        is False have not seen ``min_history`` accepted records yet and
        must not be used (the scalar gate returns ``None`` there).
        ``rows`` and ``col`` select a part of the band, computed by the
        same ops on just those cells: ``band(s, idx, c)`` equals
        ``lo[idx, c], hi[idx, c], armed[idx]`` of the whole band.
        """
        armed = self._count[rows] >= self.policy.min_history
        # column first, then rows: a 1-D gather, ~4x faster than [rows, col]
        mean, std = self._mean[:, col][rows], self._std[:, col][rows]
        return mean - sigma * std, mean + sigma * std, armed

    # -- API -------------------------------------------------------------------

    def check_tick(self, tick: np.ndarray) -> FleetGateResult:
        """Gate one ``(streams, features)`` tick; all streams at once."""
        arr = np.asarray(tick, float)
        if arr.shape != (self.streams, self.features):
            raise ValueError(
                f"expected tick of shape ({self.streams}, {self.features}), got {arr.shape}"
            )
        n = self.streams
        self._n_seen += 1
        self._c_seen.inc(n)

        actions = np.zeros(n, dtype=np.int8)
        reasons = np.zeros(n, dtype=np.int8)
        repaired = arr.copy()
        finite = np.isfinite(arr)
        row_finite = finite.all(axis=1)

        empty = ~finite.any(axis=1)
        quarantined = empty.copy()
        reasons[empty] = _R_EMPTY

        missing_rows = ~row_finite & ~empty
        if missing_rows.any():
            if self.policy.impute == "drop":
                quarantined |= missing_rows
                reasons[missing_rows] = _R_MISSING
            else:
                if self.policy.impute == "last":
                    fill = self._last
                    usable = np.isfinite(self._last)
                else:
                    fill = self._mean
                    usable = np.broadcast_to((self._count > 0)[:, None], finite.shape)
                # a missing cell with no history to impute from
                no_hist = missing_rows & ~np.where(finite, True, usable).all(axis=1)
                quarantined |= no_hist
                reasons[no_hist] = _R_NO_HISTORY
                fixable = missing_rows & ~no_hist
                cells = ~finite & fixable[:, None]
                repaired[cells] = fill[cells]
                reasons[fixable] = _R_MISSING

        if self.policy.outlier_sigma is not None:
            armed = ~quarantined & (self._count >= self.policy.min_history)
            if armed.any():
                std = self._std
                band = self.policy.outlier_sigma * std
                wild = armed[:, None] & (std > 0) & (np.abs(repaired - self._mean) > band)
                wild_rows = wild.any(axis=1)
                if wild_rows.any():
                    clamped = np.where(
                        wild,
                        self._mean + np.sign(repaired - self._mean) * band,
                        repaired,
                    )
                    if self.policy.outlier_action == "quarantine":
                        # drop the record, but feed the *clamped* value to the
                        # running moments (bounded influence — see InputGate)
                        self._absorb_rows(wild_rows, clamped)
                        quarantined |= wild_rows
                        reasons[wild_rows] = _R_OUTLIER
                    else:
                        repaired = np.where(wild_rows[:, None], clamped, repaired)
                        reasons[wild_rows & (reasons == _R_NONE)] = _R_OUTLIER

        accepted = ~quarantined
        n_quar = int(quarantined.sum())
        # all rows accepted: ``True`` runs the plain ufunc loops, cheaper per call
        self._absorb_rows(True if n_quar == 0 else accepted, repaired)
        imputed = accepted & (reasons != _R_NONE)
        clean = accepted & (reasons == _R_NONE)
        actions[imputed] = GATE_IMPUTE
        actions[quarantined] = GATE_QUARANTINE

        self._n_accepted += clean
        self._n_imputed += imputed
        self._n_quarantined += quarantined
        counted = np.flatnonzero(reasons != _R_NONE)
        if counted.size:
            np.add.at(self._reason_counts, (reasons[counted], counted), 1)
        n_clean, n_imp = int(clean.sum()), int(imputed.sum())
        if n_clean:
            self._c_actions["accept"].inc(n_clean)
        if n_imp:
            self._c_actions["impute"].inc(n_imp)
        if n_quar:
            self._c_actions["quarantine"].inc(n_quar)
        if n_imp or n_quar:
            for code, name in enumerate(GATE_REASONS):
                if name is None:
                    continue
                amount = int((reasons == code).sum())
                if amount:
                    self._obs_reason(name, amount)
        return FleetGateResult(actions=actions, records=repaired, reasons=reasons)

    # -- checkpointing ---------------------------------------------------------

    _STATE = {"n_seen": "_n_seen", "n_accepted": "_n_accepted", "n_imputed": "_n_imputed",
              "n_quarantined": "_n_quarantined", "reason_counts": "_reason_counts",
              "last": "_last", "count": "_count", "mean": "_mean", "m2": "_m2"}  # fmt: skip
    _WHAT = "gate"

    def _adopt(self, saved: dict[str, Any]) -> None:
        super()._adopt(saved)
        # the running std is derived, never checkpointed: rebuild it
        self._std[...] = 0.0
        self._refresh_std(np.ones(self.streams, dtype=bool))


# ---------------------------------------------------------------------------
# supervised execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/backoff/budget envelope for supervised calls.

    ``max_retries`` extra attempts follow a failed call, separated by
    ``backoff_base * backoff_factor**attempt`` seconds (capped at
    ``backoff_max``; a base of 0 disables sleeping, which tests use).
    ``time_budget`` is a wall-clock allowance spanning all attempts of
    one call: once exhausted no further retries are made, and a call
    that succeeds over budget is counted in ``n_budget_exceeded``.
    After ``fallback_after`` consecutive failed calls the owner should
    switch to its fallback forecaster (:meth:`Supervisor.should_fall_back`).
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    time_budget: float | None = None
    fallback_after: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_max < 0:
            raise ValueError("backoff parameters must be non-negative (factor >= 1)")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError(f"time_budget must be positive, got {self.time_budget}")
        if self.fallback_after < 1:
            raise ValueError(f"fallback_after must be >= 1, got {self.fallback_after}")


class Supervisor(Stateful):
    """Execute callables under the failure-isolation policy.

    One instance supervises one duty (the predictor keeps separate
    instances for refits and predictions, so a flaky refit path does not
    mask a healthy serving path). Exceptions never escape
    :meth:`run` — the caller gets ``(ok, result)`` and decides how to
    degrade.

    Call/retry/failure counts live in :mod:`repro.obs` instruments
    labelled by ``duty`` and registered with ``registry`` (default: the
    process-global one); the historical ``n_calls``/``total_retries``/
    ``total_failures``/``n_budget_exceeded``/``consecutive_failures``
    attributes remain as exact per-instance views.
    """

    def __init__(
        self,
        policy: SupervisorPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
        duty: str = "call",
        registry: MetricRegistry | None = None,
    ) -> None:
        self.policy = policy or SupervisorPolicy()
        self._sleep = sleep
        self.duty = duty
        labels = {"duty": duty}
        self._c_calls = MetricCounter(
            "serving_supervisor_calls_total", "supervised calls", labels
        )
        self._c_failures = MetricCounter(
            "serving_supervisor_failures_total", "terminally failed supervised calls", labels
        )
        self._c_retries = MetricCounter(
            "serving_supervisor_retries_total", "retry attempts after failures", labels
        )
        self._c_budget = MetricCounter(
            "serving_supervisor_budget_exceeded_total",
            "successful calls that overran the time budget",
            labels,
        )
        self._g_consecutive = MetricGauge(
            "serving_supervisor_consecutive_failures", "current failure streak", labels
        )
        reg = get_registry(registry)
        for inst in (
            self._c_calls,
            self._c_failures,
            self._c_retries,
            self._c_budget,
            self._g_consecutive,
        ):
            reg.register(inst)
        self.last_error: str | None = None

    # -- counter views ----------------------------------------------------------

    @property
    def n_calls(self) -> int:
        return int(self._c_calls.value)

    @property
    def total_failures(self) -> int:
        return int(self._c_failures.value)

    @property
    def total_retries(self) -> int:
        return int(self._c_retries.value)

    @property
    def n_budget_exceeded(self) -> int:
        return int(self._c_budget.value)

    @property
    def consecutive_failures(self) -> int:
        return int(self._g_consecutive.value)

    @property
    def should_fall_back(self) -> bool:
        return self.consecutive_failures >= self.policy.fallback_after

    def run(self, fn: Callable[[], T]) -> tuple[bool, T | None]:
        """Call ``fn`` with retries; return ``(True, result)`` or ``(False, None)``."""
        self._c_calls.inc()
        start = time.perf_counter()
        attempt = 0
        while True:
            try:
                result = fn()
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                self.last_error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                out_of_budget = (
                    self.policy.time_budget is not None and elapsed >= self.policy.time_budget
                )
                if attempt >= self.policy.max_retries or out_of_budget:
                    self._g_consecutive.inc()
                    self._c_failures.inc()
                    return False, None
                delay = min(
                    self.policy.backoff_base * self.policy.backoff_factor**attempt,
                    self.policy.backoff_max,
                )
                if delay > 0:
                    self._sleep(delay)
                attempt += 1
                self._c_retries.inc()
            else:
                elapsed = time.perf_counter() - start
                if self.policy.time_budget is not None and elapsed > self.policy.time_budget:
                    self._c_budget.inc()
                self._g_consecutive.set(0)
                return True, result

    def record(self, ok: bool, error: str | None = None) -> None:
        """Count one externally executed attempt (the async refit path).

        The async refit engine runs the fit off the serving thread with
        no in-line retries; the owner reports the adopted outcome here,
        so the failure-streak/health/fallback semantics stay identical
        to a supervised in-line :meth:`run`.
        """
        self._c_calls.inc()
        if ok:
            self._g_consecutive.set(0)
        else:
            self.last_error = error
            self._g_consecutive.inc()
            self._c_failures.inc()

    # -- checkpointing ---------------------------------------------------------

    #: the checkpointed counts, each read through its view property
    _COUNTS = ("consecutive_failures", "total_failures", "total_retries", "n_calls",
               "n_budget_exceeded")  # fmt: skip

    def state_dict(self) -> dict:
        return {**{key: getattr(self, key) for key in self._COUNTS}, "last_error": self.last_error}

    def parse_state(self, state: dict) -> Callable[[], None]:
        """Check a :meth:`state_dict` (counts >= 0, ``last_error`` str or None)."""
        what = f"{self.duty} supervisor"
        saved = parse_fields(state, dict.fromkeys(self._COUNTS, 0), what)
        last_error = state["last_error"]
        if min(saved.values()) < 0 or not isinstance(last_error, (str, type(None))):
            raise ValueError(f"{what} holds a negative count or a non-string last_error")
        counters = (self._c_failures, self._c_retries, self._c_calls, self._c_budget)

        def commit() -> None:
            self._g_consecutive.set(saved["consecutive_failures"])
            for key, counter in zip(self._COUNTS[1:], counters):
                counter.restore(saved[key])
            self.last_error = last_error

        return commit
