"""Autoscaling decision policies: forecasts in, reservations out.

Each tick the simulator hands a policy everything the cluster knows
(:class:`PolicyInputs`) and gets back one reservation per job. Policies
are pure functions of their inputs — all cluster mutation (placement,
migration, consolidation) stays in the simulator — which is what makes
the policy grid comparable: every policy sees the identical trace,
identical placements, identical feedback loop.

The ladder is the repo's one set of sizing rules: the closed loop runs
it every tick, and the open-loop replays (per-interval allocation on a
test split, one-shot packing of a job batch — see
:mod:`repro.cluster.replay`) call the same :meth:`reservations` on
inputs built from their own data:

* ``request`` — never resize; reserve what the owner asked for. The
  no-op baseline: zero violations by construction (usage never exceeds
  the request in this workload model), maximal cost.
* ``reactive`` — last observed utilization plus fixed headroom; what an
  autoscaler does without a model.
* ``predictive`` — fleet point forecast plus the same fixed headroom;
  the paper's predict-then-provision loop.
* ``quantile`` — fleet point forecast plus a per-job *residual-quantile*
  headroom, sized per job instead of one-size-fits-all.
* ``oracle`` — true next-tick usage plus the fixed headroom; the lower
  bound at matched safety margin.

**Staleness contract:** any job whose forecast is ``NaN`` (model not
fitted, window not filled, serving failure) is sized by the reactive
rule; any job with no observation yet (it arrives next tick) is sized by
its request. Predictive policies therefore degrade *to* the reactive
baseline, never below it, when predictions are unavailable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolicyInputs",
    "AutoscalePolicy",
    "RequestPolicy",
    "ReactivePolicy",
    "PredictivePointPolicy",
    "PredictiveQuantilePolicy",
    "OraclePolicy",
    "make_policy",
    "POLICY_NAMES",
]


@dataclass(frozen=True)
class PolicyInputs:
    """Everything a policy may look at when sizing the next tick."""

    #: (n_jobs,) most recent *observed* (throttled) utilization; NaN before
    #: a job's first observation
    last_observed: np.ndarray
    #: (n_jobs,) point forecast of next-tick utilization; NaN = stale
    point: np.ndarray
    #: (n_jobs,) residual-quantile headroom; NaN = uncalibrated
    headroom_q: np.ndarray
    #: (n_jobs,) true next-tick utilization — only the oracle may read it;
    #: NaN where the job will not run next tick
    truth_next: np.ndarray
    #: (n_jobs,) owner-requested capacity (the reservation ceiling)
    request: np.ndarray
    #: (n_jobs,) liveness mask — only active slots are resized
    active: np.ndarray
    #: (n_jobs,) jobs throttled this tick (observed == reservation < demand).
    #: Throttling right-censors the observation stream — the predictor
    #: only sees the clipped value — so policies must treat it as a
    #: grow signal, not as data.
    throttled: np.ndarray


class AutoscalePolicy(abc.ABC):
    """Maps cluster observations to per-job reservations for the next tick."""

    name: str = ""
    #: whether the simulator must run a forecast source for this policy
    needs_forecasts: bool = False
    #: whether the source should also maintain residual-quantile headrooms
    needs_headroom: bool = False

    def __init__(self, headroom: float = 0.06, floor: float = 0.02) -> None:
        if headroom < 0:
            raise ValueError(f"headroom must be non-negative, got {headroom}")
        if floor <= 0:
            raise ValueError(f"floor must be positive, got {floor}")
        self.headroom = headroom
        self.floor = floor

    @abc.abstractmethod
    def reservations(self, obs: PolicyInputs) -> np.ndarray:
        """(n_jobs,) reservations; entries at inactive slots are ignored."""

    def _clip(self, raw: np.ndarray, obs: PolicyInputs) -> np.ndarray:
        """Bound reservations to [floor, request] and patch non-finite slots.

        The request cap means no policy can buy its way out of risk by
        reserving more than the owner asked for; the floor keeps every
        running job schedulable. Slots that are still non-finite after
        the policy's own fallbacks (first tick of a job's life) get their
        request — the safe cold-start.

        Throttled jobs get the *escape* rule: the new reservation must be
        at least the old one plus the fixed headroom. A throttled
        observation is right-censored (the predictor saw demand clipped to
        the reservation), so any model sized from it will look
        well-calibrated while demand silently outruns supply — without the
        escape, calibrated policies death-spiral: throttling shrinks the
        apparent errors, which shrinks the band, which throttles harder.
        Additive-increase until uncensored breaks the loop for every
        policy identically (for the reactive baseline it is a no-op: its
        rule already is last-observed + headroom).
        """
        raw = np.where(
            obs.throttled, np.maximum(raw, obs.last_observed + self.headroom), raw
        )
        raw = np.where(np.isfinite(raw), raw, obs.request)
        return np.clip(raw, self.floor, obs.request)

    def _reactive(self, obs: PolicyInputs) -> np.ndarray:
        """The shared fallback rule: last observation plus fixed headroom."""
        return obs.last_observed + self.headroom


class RequestPolicy(AutoscalePolicy):
    """Never resize: reserve the full request (the no-op baseline)."""

    name = "request"

    def reservations(self, obs: PolicyInputs) -> np.ndarray:
        return self._clip(obs.request.copy(), obs)


class ReactivePolicy(AutoscalePolicy):
    """Last observed utilization plus fixed headroom (model-free)."""

    name = "reactive"

    def reservations(self, obs: PolicyInputs) -> np.ndarray:
        return self._clip(self._reactive(obs), obs)


class PredictivePointPolicy(AutoscalePolicy):
    """Fleet point forecast plus fixed headroom; reactive where stale."""

    name = "predictive"
    needs_forecasts = True

    def reservations(self, obs: PolicyInputs) -> np.ndarray:
        raw = obs.point + self.headroom
        stale = ~np.isfinite(raw)
        if stale.any():
            raw = np.where(stale, self._reactive(obs), raw)
        return self._clip(raw, obs)


class PredictiveQuantilePolicy(AutoscalePolicy):
    """Point forecast plus per-job residual-quantile headroom.

    ``tau`` names the quantile the forecast source's residual band
    estimates. Jobs whose band is still uncalibrated, or whose point
    forecast is stale, fall back to reactive sizing.
    """

    name = "quantile"
    needs_forecasts = True
    needs_headroom = True

    def __init__(
        self,
        headroom: float = 0.06,
        floor: float = 0.02,
        tau: float = 0.99,
        safety: float = 0.02,
    ) -> None:
        super().__init__(headroom=headroom, floor=floor)
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
        if safety < 0:
            raise ValueError(f"safety must be non-negative, got {safety}")
        self.tau = tau
        #: additive finite-sample correction on top of the empirical
        #: quantile: the band is estimated from a few hundred censored
        #: residuals, so its own tail is noisy exactly where it matters
        self.safety = safety

    def reservations(self, obs: PolicyInputs) -> np.ndarray:
        quantiles = obs.point + obs.headroom_q + self.safety
        # calibrated means BOTH a fresh point forecast and a residual band
        # backed by enough scored predictions; a half-calibrated slot
        # (fresh point, tiny error sample) is sized reactively — an
        # uncalibrated tail quantile is noise, not a risk bound
        stale = ~np.isfinite(quantiles)
        raw = np.where(stale, self._reactive(obs), quantiles)
        return self._clip(raw, obs)


class OraclePolicy(AutoscalePolicy):
    """True next-tick usage plus fixed headroom — perfect foresight."""

    name = "oracle"

    def reservations(self, obs: PolicyInputs) -> np.ndarray:
        raw = obs.truth_next + self.headroom
        # a job departing after this tick has no next-tick truth: hold its
        # last sizing rule (reactive) for the final interval
        stale = ~np.isfinite(raw)
        if stale.any():
            raw = np.where(stale, self._reactive(obs), raw)
        return self._clip(raw, obs)


_POLICIES: dict[str, type[AutoscalePolicy]] = {
    cls.name: cls
    for cls in (
        RequestPolicy,
        ReactivePolicy,
        PredictivePointPolicy,
        PredictiveQuantilePolicy,
        OraclePolicy,
    )
}

#: every registered policy name, baseline -> oracle order
POLICY_NAMES = tuple(_POLICIES)


def make_policy(name: str, **kwargs) -> AutoscalePolicy:
    """Instantiate a registered policy by name."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise KeyError(f"unknown policy {name!r}; available: {sorted(_POLICIES)}") from None
    return cls(**kwargs)
