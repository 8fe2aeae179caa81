"""The closed-loop tick: predict → decide → act, with feedback.

This is the paper's §II motivation made end-to-end: forecasts
(:mod:`repro.streaming`), reservation sizing (the policy ladder of
:mod:`~repro.cluster.autoscaler`) and packing
(:class:`~repro.cluster.state.ClusterState`) wired into one discrete-time
cluster simulation where decisions change what is observed next.

Each tick ``t``:

1. **lifecycle** — jobs whose lifetime ended depart (releasing their
   reservation, possibly powering a machine off); arriving jobs are
   admitted best-fit by their requested capacity (the safe cold-start
   footprint).
2. **realize + score** — every active job's true demand materializes.
   A job demanding more than its reservation is *throttled* to it: that
   job-tick is an SLA violation, and — the feedback loop — the predictor
   only ever sees the throttled value. Machine-level demand above
   capacity (possible when shortage forced overcommit) is an overload
   machine-tick.
3. **observe** — the throttled tick (NaN rows for absent jobs) feeds the
   forecast source, i.e. a full :class:`~repro.streaming.fleet.FleetPredictor`
   serving one stream per job.
4. **decide** — the policy sizes every active job's next-tick
   reservation from the freshest forecasts (stale slots fall back to
   reactive sizing); the state applies the resize, migrates jobs off
   overcommitted machines, and periodically consolidates the emptiest
   machine away.

Observability: SLA-violation/migration/admission counters, utilization
and overload-risk gauges, and decision/tick latency histograms land in
the process metric registry. Wall-clock never enters the
:class:`~repro.cluster.report.ClusterReport` — reports are bit-exact
functions of (schedule, policy, seed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..obs.registry import MetricRegistry, get_registry, is_enabled, log_buckets
from ..obs import trace
from .autoscaler import AutoscalePolicy, PolicyInputs
from .forecast import ForecastSource, Forecasts
from .jobs import JobGenerator
from .report import ClusterReport
from .state import ClusterState

__all__ = ["ClusterConfig", "JobSchedule", "make_schedule", "ClusterSimulator"]


@dataclass(frozen=True)
class ClusterConfig:
    """Sizing and mechanics of one closed-loop run."""

    n_machines: int
    capacity: float = 1.0
    #: attempt a consolidation drain every this many ticks (0 disables)
    consolidate_every: int = 2
    #: machines drained per consolidation attempt
    max_drains: int = 2
    #: demand must exceed the reservation by more than this to violate
    sla_eps: float = 1e-9


@dataclass(frozen=True)
class JobSchedule:
    """The full job population and when each member runs.

    ``usage`` is dense ``(ticks, n_jobs)``: true demand while the job is
    alive, NaN outside ``[arrival, departure)``. Dense beats ragged here
    — every per-tick slice the simulator needs is one row view.
    """

    usage: np.ndarray
    request: np.ndarray
    arrival: np.ndarray
    departure: np.ndarray  #: exclusive end tick (clipped to the horizon)
    #: jobs whose full sampled lifetime fits inside the horizon
    completes: np.ndarray

    @property
    def ticks(self) -> int:
        return self.usage.shape[0]

    @property
    def n_jobs(self) -> int:
        return self.usage.shape[1]

    @property
    def job_ticks(self) -> int:
        """Total scheduled (job, tick) samples — the SLA denominator."""
        return int((self.departure - self.arrival).sum())


def make_schedule(
    n_jobs: int,
    ticks: int,
    seed: int = 0,
    generator: JobGenerator | None = None,
    min_life: int = 30,
    max_life: int | None = None,
) -> JobSchedule:
    """Sample an arrival/departure schedule over the workload archetypes.

    Jobs come from :class:`~repro.cluster.jobs.JobGenerator` (usage
    sized for the whole horizon, then sliced to each job's sampled
    lifetime), arrivals are uniform over the horizon, and lifetimes are
    uniform in ``[min_life, max_life]`` — so the cluster sees churn the
    whole run, not one synchronized batch.
    """
    if ticks < min_life:
        raise ValueError(f"ticks ({ticks}) must be >= min_life ({min_life})")
    if generator is None:
        generator = JobGenerator(duration=ticks, seed=seed)
    jobs = generator.generate(n_jobs)
    max_life = min(max_life if max_life is not None else ticks // 2, ticks)
    if max_life < min_life:
        raise ValueError(f"max_life ({max_life}) must be >= min_life ({min_life})")
    rng = np.random.default_rng(seed + 0x5EED)
    life = rng.integers(min_life, max_life + 1, n_jobs)
    arrival = rng.integers(0, ticks - min_life + 1, n_jobs)
    departure = np.minimum(arrival + life, ticks)
    usage = np.full((ticks, n_jobs), np.nan)
    for j, job in enumerate(jobs):
        span = int(departure[j] - arrival[j])
        usage[arrival[j] : departure[j], j] = job.usage[:span]
    return JobSchedule(
        usage=usage,
        request=np.array([job.request for job in jobs]),
        arrival=arrival.astype(np.int64),
        departure=departure.astype(np.int64),
        completes=(arrival + life <= ticks),
    )


class ClusterSimulator:
    """Run one policy against one schedule and report the outcome."""

    def __init__(
        self,
        schedule: JobSchedule,
        policy: AutoscalePolicy,
        config: ClusterConfig,
        source: ForecastSource | None = None,
        registry: MetricRegistry | None = None,
    ) -> None:
        if policy.needs_forecasts and source is None:
            raise ValueError(f"policy {policy.name!r} needs a forecast source")
        self.schedule = schedule
        self.policy = policy
        self.config = config
        self.source = source
        reg = get_registry(registry)
        self._c_violations = reg.counter(
            "cluster_sla_violations_total", "job-ticks throttled below true demand"
        )
        self._c_migrations = reg.counter(
            "cluster_migrations_total", "job moves after admission"
        )
        self._c_admissions = reg.counter(
            "cluster_admissions_total", "jobs placed on the cluster"
        )
        self._c_forced = reg.counter(
            "cluster_forced_placements_total", "admissions that found no room"
        )
        self._g_util = reg.gauge(
            "cluster_utilization", "served demand / powered-on capacity, last tick"
        )
        self._g_risk = reg.gauge(
            "cluster_overload_risk", "fraction of powered-on machines overcommitted"
        )
        self._g_jobs = reg.gauge("cluster_active_jobs", "jobs running this tick")
        self._g_machines = reg.gauge("cluster_machines_on", "machines powered on")
        self._h_decision = reg.histogram(
            "cluster_decision_seconds",
            "autoscaler decide+act latency per tick",
            buckets=log_buckets(1e-6, 10.0),
        )
        self._h_tick = reg.histogram(
            "cluster_tick_seconds",
            "full closed-loop tick latency",
            buckets=log_buckets(1e-6, 10.0),
        )

    # -- one full run ----------------------------------------------------------

    def run(self) -> ClusterReport:
        sched, policy, cfg = self.schedule, self.policy, self.config
        ticks, n_jobs = sched.ticks, sched.n_jobs
        capacity = cfg.capacity
        state = ClusterState(cfg.n_machines, n_jobs, capacity)
        obs_on = is_enabled()

        # per-tick lifecycle index, precomputed once
        arrivals = [np.flatnonzero(sched.arrival == t) for t in range(ticks)]
        departures = [np.flatnonzero(sched.departure == t) for t in range(ticks + 1)]

        last_observed = np.full(n_jobs, np.nan)
        nan_row = np.full(n_jobs, np.nan)
        empty_fc = Forecasts(point=nan_row, headroom=nan_row)

        job_ticks = 0
        violations = 0
        violation_depth = 0.0
        machine_ticks = 0
        overloaded_ticks = 0
        served_sum = 0.0
        stranded_sum = 0.0
        waste_sum = 0.0
        reservation_sum = 0.0
        stale_decisions = 0
        predictive_decisions = 0

        with trace.span("cluster.run") as sp:
            for t in range(ticks):
                t0 = time.perf_counter() if obs_on else 0.0
                # -- lifecycle
                for j in departures[t]:
                    state.depart(int(j))
                for j in arrivals[t]:
                    state.admit(int(j), float(sched.request[j]))
                act = state.active
                idx = np.flatnonzero(act)
                if obs_on and len(arrivals[t]):
                    self._c_admissions.inc(len(arrivals[t]))

                # -- realize demand, throttle, score
                u = sched.usage[t]
                r = state.reservation
                viol = act & (u > r + cfg.sla_eps)
                n_viol = int(np.count_nonzero(viol))
                violations += n_viol
                if n_viol:
                    violation_depth += float((u - r)[viol].sum())
                observed = np.where(viol, r, u)
                job_ticks += int(idx.size)

                load = state.machine_demand(np.where(act, observed, 0.0))
                on = state.powered_on
                n_on = int(np.count_nonzero(on))
                machine_ticks += n_on
                overloaded_ticks += int(
                    np.count_nonzero(load[on] > capacity + cfg.sla_eps)
                )
                tick_served = float(observed[idx].sum())
                served_sum += tick_served
                stranded_sum += float(np.maximum(capacity - state.reserved[on], 0.0).sum())
                waste_sum += float(np.maximum(r[idx] - u[idx], 0.0).sum())
                reservation_sum += float(r[idx].sum())

                # -- observe (the feedback: the predictor sees throttled usage)
                obs_row = np.where(act, observed, np.nan)
                if self.source is not None:
                    self.source.observe(obs_row, censored=viol)
                last_observed = np.where(act, observed, last_observed)

                # -- decide next tick's reservations
                d0 = time.perf_counter() if obs_on else 0.0
                if t < ticks - 1 and idx.size:
                    if policy.needs_forecasts:
                        fc = self.source.forecast(need_headroom=policy.needs_headroom)
                        predictive_decisions += int(idx.size)
                        stale_decisions += int(
                            np.count_nonzero(~np.isfinite(fc.point[idx]))
                        )
                    else:
                        fc = empty_fc
                    inputs = PolicyInputs(
                        last_observed=last_observed,
                        point=fc.point,
                        headroom_q=fc.headroom,
                        truth_next=sched.usage[t + 1],
                        request=sched.request,
                        active=act,
                        throttled=viol,
                    )
                    new_res = policy.reservations(inputs)
                    state.resize(idx, new_res[idx])
                    moved = state.rebalance()
                    if cfg.consolidate_every and (t + 1) % cfg.consolidate_every == 0:
                        moved += state.consolidate(cfg.max_drains)
                    if obs_on and moved:
                        self._c_migrations.inc(moved)

                if obs_on:
                    now = time.perf_counter()
                    self._h_decision.observe(now - d0)
                    self._h_tick.observe(now - t0)
                    if n_viol:
                        self._c_violations.inc(n_viol)
                    if n_on:
                        self._g_util.set(tick_served / (n_on * capacity))
                        self._g_risk.set(
                            float(
                                np.count_nonzero(
                                    state.reserved[on] > capacity + cfg.sla_eps
                                )
                            )
                            / n_on
                        )
                    self._g_jobs.set(int(idx.size))
                    self._g_machines.set(n_on)
            sp.add("ticks", ticks)
            sp.add("job_ticks", job_ticks)
        if obs_on and state.n_forced_placements:
            self._c_forced.inc(state.n_forced_placements)

        on_capacity = machine_ticks * capacity
        return ClusterReport(
            policy=policy.name,
            n_machines=cfg.n_machines,
            n_jobs=n_jobs,
            ticks=ticks,
            job_ticks=job_ticks,
            sla_violation_rate=violations / max(job_ticks, 1),
            mean_violation_depth=violation_depth / max(violations, 1),
            overload_rate=overloaded_ticks / max(machine_ticks, 1),
            mean_utilization=served_sum / max(on_capacity, 1e-12),
            stranded_frac=stranded_sum / max(on_capacity, 1e-12),
            waste_frac=waste_sum / max(reservation_sum, 1e-12),
            mean_reservation=reservation_sum / max(job_ticks, 1),
            machine_ticks=machine_ticks,
            migrations=state.n_migrations,
            forced_placements=state.n_forced_placements,
            jobs_completed=int(sched.completes.sum()),
            forecast_coverage=(
                1.0 - stale_decisions / predictive_decisions
                if predictive_decisions
                else 1.0
            ),
        )
