"""Closed-loop cluster outcomes and the policy-comparison table.

A :class:`ClusterReport` is a frozen record of one simulated run — every
field is a deterministic function of (trace, policy, seed), so two runs
with the same inputs must produce *equal* reports (asserted by the
determinism tests). Wall-clock quantities (decision latency, tick
latency) deliberately live in the obs registry's histograms, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["ClusterReport", "aggregate_reports", "format_policy_table"]


@dataclass(frozen=True)
class ClusterReport:
    """Operational outcome of one autoscaling policy over one trace."""

    policy: str
    n_machines: int
    n_jobs: int
    ticks: int
    #: (job, tick) samples scored — the SLA denominator
    job_ticks: int
    #: fraction of job-ticks where true demand exceeded the reservation
    sla_violation_rate: float
    #: mean unmet demand during violating job-ticks (breach severity)
    mean_violation_depth: float
    #: fraction of powered-on machine-ticks where true demand exceeded capacity
    overload_rate: float
    #: served demand / powered-on capacity (the Fig.2/Fig.3 metric, closed-loop)
    mean_utilization: float
    #: powered-on capacity never reserved by anyone / powered-on capacity
    stranded_frac: float
    #: reserved-but-unused share of reserved job-tick capacity (allocation waste)
    waste_frac: float
    #: mean per-job reservation over all job-ticks
    mean_reservation: float
    #: powered-on machine-ticks — the bill
    machine_ticks: int
    #: job moves after admission (rebalancing + consolidation)
    migrations: int
    #: admissions that found no machine with reservable room
    forced_placements: int
    #: jobs whose full lifetime completed inside the horizon
    jobs_completed: int
    #: fraction of predictive decisions backed by a fresh forecast
    forecast_coverage: float

    def cost_per_job(self, machine_tick_cost: float = 1.0) -> float:
        """Machine-ticks paid per completed job — the headline bill."""
        return self.machine_ticks * machine_tick_cost / max(self.jobs_completed, 1)

    def cost(
        self, machine_tick_cost: float = 1.0, violation_penalty: float = 10.0
    ) -> float:
        """Scalar objective: the bill plus penalized SLA breaches.

        The 10x penalty encodes that an SLA breach costs far more than
        idle capacity — the same weighting the allocation replay scores
        waste against violations with.
        """
        return self.cost_per_job(machine_tick_cost) * (
            1.0
            + violation_penalty
            * self.sla_violation_rate
            * max(self.mean_violation_depth, 1e-9)
        )


def aggregate_reports(reports: list[ClusterReport]) -> ClusterReport:
    """Mean-over-runs report (e.g. across trace seeds) for one policy.

    Rates and fractions average directly; count fields average and round
    (so derived ratios like :meth:`ClusterReport.cost_per_job` become
    ratios of means, which is what a multi-seed gate should compare).
    All inputs must describe the same policy.
    """
    if not reports:
        raise ValueError("need at least one report to aggregate")
    names = {r.policy for r in reports}
    if len(names) > 1:
        raise ValueError(f"refusing to aggregate across policies: {sorted(names)}")
    if len(reports) == 1:
        return reports[0]
    values = {}
    for f in fields(ClusterReport):
        if f.name == "policy":
            values[f.name] = reports[0].policy
            continue
        mean = sum(getattr(r, f.name) for r in reports) / len(reports)
        values[f.name] = round(mean) if f.type == "int" else mean
    return ClusterReport(**values)


def format_policy_table(reports: list[ClusterReport], baseline: str = "reactive") -> str:
    """Render the policy-comparison table the autoscale experiment prints."""
    from ..analysis.reporting import format_table

    by_name = {r.policy: r for r in reports}
    base = by_name.get(baseline)
    rows = []
    for r in reports:
        cost = r.cost_per_job()
        rel = "-"
        if base is not None and base.cost_per_job() > 0:
            rel = f"{(cost / base.cost_per_job() - 1.0) * 100:+.1f}%"
        rows.append(
            [
                r.policy,
                f"{r.sla_violation_rate * 100:.3f}",
                f"{r.overload_rate * 100:.3f}",
                f"{r.mean_utilization * 100:.1f}",
                f"{r.waste_frac * 100:.1f}",
                f"{r.stranded_frac * 100:.1f}",
                f"{cost:.2f}",
                rel,
                r.migrations,
                f"{r.forecast_coverage * 100:.0f}",
            ]
        )
    return format_table(
        [
            "policy",
            "SLA viol %",
            "overload %",
            "util %",
            "waste %",
            "stranded %",
            "cost/job",
            f"vs {baseline}",
            "migrations",
            "fc cov %",
        ],
        rows,
    )
