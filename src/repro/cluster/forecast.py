"""Forecast sources feeding the cluster autoscaler.

The loop's contract with a source is deliberately narrow: each tick the
simulator *observes* one record per job slot (the throttled utilization
the cluster actually measured — decisions feed back into the data), then
asks for a *forecast* of the next tick. A forecast may be missing
(``NaN``) for any job: the model is not fitted yet, the job's history is
shorter than a window, or the serving path failed this tick. Staleness
is therefore a first-class outcome that the autoscaler policies handle
(they fall back to reactive sizing), never an exception.

:class:`FleetForecastSource` is the production path: a full
:class:`~repro.streaming.fleet.FleetPredictor` — vectorized gate, matrix
ring buffers, micro-batched forward, supervised staggered refits — with
one stream slot per job. Jobs not currently running send all-NaN rows,
which the fleet gate quarantines as ``"empty"`` exactly like absent
streams in the serving product. On top of the point forecast it exposes
a per-job *residual quantile* (the ``tau``-quantile of each stream's
retained sizing residuals) — the calibrated headroom vector the
quantile policy adds to the point forecast.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..streaming.buffer import MatrixRingBuffer
from ..streaming.fleet import FleetPredictor

__all__ = ["Forecasts", "ForecastSource", "FleetForecastSource"]


@dataclass(frozen=True)
class Forecasts:
    """Per-job next-tick forecasts; ``NaN`` marks a stale/missing entry."""

    #: (n_jobs,) point forecast of next-tick utilization
    point: np.ndarray
    #: (n_jobs,) residual-quantile headroom, NaN where uncalibrated
    headroom: np.ndarray

    @property
    def coverage(self) -> float:
        """Fraction of slots holding a fresh point forecast."""
        return float(np.isfinite(self.point).mean())


class ForecastSource(abc.ABC):
    """Observe one tick per call, then forecast the next one."""

    name: str = ""

    @abc.abstractmethod
    def observe(
        self, observed: np.ndarray, censored: np.ndarray | None = None
    ) -> None:
        """Absorb this tick's ``(n_jobs,)`` observed utilization (NaN = absent).

        ``censored`` flags slots whose observation was *throttled* — true
        demand exceeded the reservation, so the recorded value (and any
        error scored from it) is a lower bound, not a measurement. Real
        clusters expose this signal (CPU throttle counters) even though
        the uncensored demand is unobservable.
        """

    @abc.abstractmethod
    def forecast(self, need_headroom: bool = False) -> Forecasts:
        """Next-tick forecasts given everything observed so far."""


class FleetForecastSource(ForecastSource):
    """One :class:`FleetPredictor` stream slot per job.

    ``observe`` runs a full fleet tick (gate -> micro-batched prequential
    predict -> absorb -> drift/refit bookkeeping), which keeps the
    fleet's per-stream error statistics honest; ``forecast`` then gathers
    the freshest window of every eligible stream and runs one extra
    micro-batched forward to produce a *next*-tick forecast — the tick
    the autoscaler is about to size reservations for. Without that extra
    forward the newest prediction available would target the tick that
    just happened: one decision interval stale, which is exactly the
    reactive baseline's information set.
    """

    name = "fleet"

    def __init__(
        self,
        n_jobs: int,
        tau: float = 0.99,
        headroom_every: int = 4,
        min_errors: int = 16,
        censor_growth: float = 1.3,
        censor_decay: float = 0.95,
        censor_cap: float = 3.0,
        residual_history: int = 256,
        **fleet_kwargs: Any,
    ) -> None:
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
        if headroom_every < 1:
            raise ValueError(f"headroom_every must be >= 1, got {headroom_every}")
        if censor_growth < 1.0 or censor_decay > 1.0 or censor_cap < 1.0:
            raise ValueError(
                "censor_growth/cap must be >= 1 and censor_decay <= 1, got "
                f"{censor_growth}/{censor_cap}/{censor_decay}"
            )
        self.n_jobs = n_jobs
        self.tau = tau
        #: streams with fewer scored predictions than this report NaN
        #: headroom (tail quantiles of tiny samples are not calibration)
        self.min_errors = min_errors
        #: AIMD-style multiplicative correction for censored residuals: a
        #: throttled tick clips the recorded error at exactly the moments
        #: the tail quantile exists to cover, so the empirical band is
        #: biased low precisely when it is too small. Each censored tick
        #: multiplies that job's band by ``censor_growth``; uncensored
        #: ticks decay the multiplier back toward 1.
        self.censor_growth = censor_growth
        self.censor_decay = censor_decay
        self.censor_cap = censor_cap
        self._censor_mult = np.ones(n_jobs)
        #: signed residuals of the forecasts *used for sizing* (the extra
        #: next-tick forward), scored against the following observation.
        #: The band must calibrate the decision path, not the fleet's
        #: internal prequential predictions — and it must be one-sided:
        #: reserving above demand costs money but never violates, so only
        #: the upper tail of (actual - forecast) needs covering.
        self.residuals = MatrixRingBuffer(n_jobs, residual_history, 1)
        self._pending_point: np.ndarray | None = None
        #: residual quantiles are recomputed every this many forecasts —
        #: they drift slowly, and the row sort of the whole error ring
        #: is the one O(n_jobs * history log history) step in the loop
        self.headroom_every = headroom_every
        self.fleet = FleetPredictor(n_streams=n_jobs, **fleet_kwargs)
        self._ticks_seen = 0
        self._headroom_cache = np.full(n_jobs, np.nan)
        self._headroom_age = headroom_every  # force compute on first ask

    def observe(
        self, observed: np.ndarray, censored: np.ndarray | None = None
    ) -> None:
        observed = np.asarray(observed, float)
        if observed.shape != (self.n_jobs,):
            raise ValueError(f"observed must be ({self.n_jobs},), got {observed.shape}")
        if self._pending_point is not None:
            err = observed - self._pending_point
            have = np.isfinite(err)
            if have.any():
                self.residuals.append_tick(err[:, None], mask=have)
            self._pending_point = None
        self.fleet.process_tick(observed)
        self._ticks_seen += 1
        if censored is not None:
            censored = np.asarray(censored, bool)
            mult = self._censor_mult
            mult[censored] = np.minimum(
                mult[censored] * self.censor_growth, self.censor_cap
            )
            seen = np.isfinite(observed) & ~censored
            mult[seen] = np.maximum(mult[seen] * self.censor_decay, 1.0)

    def forecast(self, need_headroom: bool = False) -> Forecasts:
        fleet = self.fleet
        point = np.full(self.n_jobs, np.nan)
        serving = fleet.fallback_model if fleet.on_fallback else fleet.model
        if serving is not None:
            idx = np.flatnonzero(fleet.buffer.sizes >= fleet.window)
            if idx.size:
                batch = fleet.buffer.last_windows(idx, fleet.window)
                try:
                    point[idx] = np.asarray(serving.predict(batch), float)[:, 0]
                except Exception:  # noqa: BLE001 — a failed forward is a stale tick
                    pass
                bad = ~np.isfinite(point[idx]) | (np.abs(point[idx]) > 1e6)
                if bad.any():
                    point[idx[bad]] = np.nan
        self._pending_point = point.copy()
        headroom = self._headroom_cache
        if need_headroom:
            self._headroom_age += 1
            if self._headroom_age >= self.headroom_every:
                self._headroom_age = 0
                headroom = self._residual_quantiles()
                self._headroom_cache = headroom
            headroom = headroom * self._censor_mult
        return Forecasts(point=point, headroom=headroom)

    def _residual_quantiles(self) -> np.ndarray:
        """Upper ``tau``-quantile of each job's signed sizing residuals.

        NaN below ``min_errors`` scored forecasts (tail quantiles of tiny
        samples are not calibration); floored at zero — a negative band
        would spend forecast skill on shaving below the point estimate,
        which risks violations to save capacity the floor/cap already
        bound.
        """
        out = np.full(self.n_jobs, np.nan)
        idx = np.flatnonzero(self.residuals.sizes >= self.min_errors)
        if idx.size:
            retained = self.residuals.filled_matrix()[idx, :, 0]
            out[idx] = nan_quantile_rows(retained, self.tau)
        return np.maximum(out, 0.0)


def nan_quantile_rows(a: np.ndarray, tau: float) -> np.ndarray:
    """``np.nanquantile(a, tau, axis=1)`` of a 2-D ``a``, from one row sort.

    NumPy runs ``nanquantile`` row by row (``apply_along_axis``); this
    sorts every row at once, NaNs last, and applies NumPy's ``linear``
    rule to each row's ``n`` finite values: virtual index ``(n - 1) *
    tau``, its floor and fraction ``gamma``, then NumPy's two-sided lerp.
    The results equal NumPy's value for value; a zero may differ in sign
    only, since NumPy's partition orders tied ``-0.0``/``0.0`` unlike a
    sort. A row without a finite value reads NaN.
    """
    srt = np.sort(a, axis=1)
    n = np.count_nonzero(~np.isnan(srt), axis=1)
    virt = (n - 1) * tau
    prev = np.floor(virt)
    # at or past the last value NumPy takes it twice, with index -1 --
    # which also enters its gamma; a row without a finite value (n = 0)
    # so reads its last entry, a NaN
    top = virt >= n - 1
    lo = np.where(top, n - 1, prev).astype(np.intp)
    hi = np.where(top, n - 1, prev + 1).astype(np.intp)
    gamma = virt - np.where(top, -1.0, prev)
    rows = np.arange(len(srt))
    below, above = srt[rows, lo], srt[rows, hi]
    diff = above - below
    out = below + diff * gamma
    np.subtract(above, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out
