"""Closed-loop autoscaling: the policy grid at cluster scale.

The experiment the :mod:`repro.cluster` subsystem exists for. One shared
job schedule per trace seed; every autoscaling policy runs the identical
closed loop (same arrivals, same true demand, same packing mechanics)
and the table compares what each one bought: SLA-violation rate,
utilization, waste, stranded capacity, migrations, and machine-ticks per
completed job.

The workload mix is deliberately cluster-shaped rather than uniform: a
majority of service-like jobs (diurnal periodicity, the paper's Fig. 2
machine behaviour) and a volatile minority (bursty, regime-switching,
spiky batch — the Fig. 1 container behaviour). That split is where
per-job calibration earns its keep: a fixed headroom is simultaneously
too generous for the stable majority and too small for the volatile
tail, while the quantile policy sizes each band from that job's own
residual history.

The headline gate — asserted by ``benchmarks/test_autoscale_loop.py``
and checked in CI — is that the calibrated predictive policy beats the
reactive baseline on SLA-violation rate at equal-or-lower cost per job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.autoscaler import POLICY_NAMES, make_policy
from ..cluster.forecast import FleetForecastSource
from ..cluster.jobs import JobGenerator
from ..cluster.report import ClusterReport, aggregate_reports, format_policy_table
from ..cluster.simulator import ClusterConfig, ClusterSimulator, make_schedule
from ..obs.registry import MetricRegistry
from .config import ExperimentProfile, get_profile
from .parallel import TaskSpec, run_tasks

__all__ = ["AutoscaleResult", "run_autoscale", "AUTOSCALE_MIX"]

#: cluster-shaped archetype mix: stable service majority, volatile tail
AUTOSCALE_MIX = {
    "periodic": 0.55,
    "regime_switching": 0.15,
    "bursty": 0.2,
    "spiky_batch": 0.1,
}

#: per-profile cluster sizing: (n_machines, n_jobs, ticks, min_life,
#: max_life, trace seeds, GBT estimators)
_SIZING: dict[str, tuple[int, int, int, int, int, tuple[int, ...], int]] = {
    "quick": (24, 40, 240, 100, 220, (1,), 40),
    "default": (48, 96, 300, 100, 260, (1, 2, 3), 60),
    "paper": (256, 640, 480, 120, 400, (1, 2, 3, 4, 5), 100),
}


def _sizing(prof: ExperimentProfile):
    try:
        return _SIZING[prof.name]
    except KeyError:
        return _SIZING["default"]


def _autoscale_cell(policy: str, trace_seed: int, profile: str) -> ClusterReport:
    """One (policy, trace seed) closed-loop run — a parallel task unit.

    Module-level and fully determined by its parameters, so it can cross
    the process boundary and the result cache can key on it.
    """
    prof = get_profile(profile)
    n_machines, n_jobs, ticks, min_life, max_life, _, estimators = _sizing(prof)
    generator = JobGenerator(duration=ticks, seed=trace_seed, mix=dict(AUTOSCALE_MIX))
    schedule = make_schedule(
        n_jobs=n_jobs,
        ticks=ticks,
        seed=trace_seed,
        generator=generator,
        min_life=min_life,
        max_life=max_life,
    )
    pol = make_policy(policy)
    source = None
    if pol.needs_forecasts:
        source = FleetForecastSource(
            n_jobs=n_jobs,
            tau=getattr(pol, "tau", 0.99),
            min_errors=12,
            forecaster_name="xgboost",
            forecaster_kwargs={"n_estimators": estimators, "max_depth": 3},
            window=8,
            refit_interval=20,
            refit_streams=24,
            registry=MetricRegistry(),
        )
    sim = ClusterSimulator(
        schedule,
        pol,
        ClusterConfig(n_machines=n_machines),
        source=source,
        registry=MetricRegistry(),
    )
    return sim.run()


@dataclass
class AutoscaleResult:
    """Every policy's closed-loop outcome over the shared trace seeds."""

    profile: str
    n_machines: int
    n_jobs: int
    ticks: int
    seeds: tuple[int, ...]
    #: policy -> per-seed reports, seed order matching ``seeds``
    reports: dict[str, list[ClusterReport]] = field(default_factory=dict)

    def aggregated(self, policy: str) -> ClusterReport:
        """Mean-over-seeds report for one policy."""
        return aggregate_reports(self.reports[policy])

    @property
    def gate_pass(self) -> bool:
        """The headline claim: calibrated predictive beats reactive.

        Lower SLA-violation rate at equal-or-lower machine-ticks per
        completed job, on the seed-aggregated reports.
        """
        reactive = self.aggregated("reactive")
        quantile = self.aggregated("quantile")
        return (
            quantile.sla_violation_rate < reactive.sla_violation_rate
            and quantile.cost_per_job() <= reactive.cost_per_job()
        )

    def table(self) -> str:
        """The policy-comparison table over seed-aggregated reports."""
        return format_policy_table(
            [self.aggregated(name) for name in POLICY_NAMES if name in self.reports]
        )


def run_autoscale(
    profile: str | ExperimentProfile = "quick",
    jobs: int = 1,
    cache=None,
) -> AutoscaleResult:
    """Run the full policy grid; one parallel cell per (policy, seed)."""
    prof = get_profile(profile) if isinstance(profile, str) else profile
    n_machines, n_jobs, ticks, _, _, seeds, _ = _sizing(prof)
    tasks = [
        TaskSpec(
            experiment="autoscale",
            key=(prof.name, policy, seed),
            fn="repro.experiments.autoscale._autoscale_cell",
            params=dict(policy=policy, trace_seed=seed, profile=prof.name),
        )
        for policy in POLICY_NAMES
        for seed in seeds
    ]
    results = run_tasks(tasks, jobs=jobs, cache=cache)
    failed = {r.spec.name: r.error for r in results if not r.ok}
    if failed:
        lines = "; ".join(f"{k}: {v}" for k, v in failed.items())
        raise RuntimeError(f"autoscale cells failed: {lines}")
    out = AutoscaleResult(
        profile=prof.name,
        n_machines=n_machines,
        n_jobs=n_jobs,
        ticks=ticks,
        seeds=tuple(seeds),
    )
    for res in results:
        out.reports.setdefault(res.spec.key[1], []).append(res.value)
    return out


if __name__ == "__main__":  # pragma: no cover - manual smoke entry point
    res = run_autoscale("quick")
    print(res.table())
    print(f"gate (quantile beats reactive): {res.gate_pass}")
