"""Closed-loop cluster autoscaling: predict → decide → act at cluster scale.

The subpackage that connects the repo's previously-isolated layers into
one feedback loop. A discrete-time simulator hosts thousands of jobs on
a machine fleet; a :class:`~repro.streaming.fleet.FleetPredictor`
forecasts every job's next-tick utilization from what the cluster
*observed* (throttled usage, not true demand); pluggable autoscaling
policies turn forecasts into per-job reservations; and the packing layer
places arrivals, migrates jobs off overcommitted machines, and
consolidates emptied ones. Decisions change observations, observations
change forecasts, forecasts change decisions.

Modules:

* :mod:`~repro.cluster.replay` — shared demand-vs-supply scoring, plus
  the best-fit-decreasing packing replay of one job batch;
* :mod:`~repro.cluster.state` — vectorized machine/job state with
  placement, migration, and consolidation;
* :mod:`~repro.cluster.jobs` — jobs with requested vs actual usage, and
  the archetype-mix job generator;
* :mod:`~repro.cluster.forecast` — the fleet-served forecast source with
  residual-quantile headrooms;
* :mod:`~repro.cluster.autoscaler` — the policy ladder (request,
  reactive, predictive, quantile, oracle), shared by the closed loop and
  the open-loop allocation and packing replays;
* :mod:`~repro.cluster.simulator` — the tick loop;
* :mod:`~repro.cluster.report` — outcome records and the comparison table.
"""

from .replay import EXCESS_EPS, ExcessStats, excess_stats, replay_packing
from .state import ClusterState
from .jobs import Job, JobGenerator
from .report import ClusterReport, aggregate_reports, format_policy_table
from .forecast import FleetForecastSource, ForecastSource, Forecasts
from .autoscaler import (
    POLICY_NAMES,
    AutoscalePolicy,
    OraclePolicy,
    PolicyInputs,
    PredictivePointPolicy,
    PredictiveQuantilePolicy,
    ReactivePolicy,
    RequestPolicy,
    make_policy,
)
from .simulator import ClusterConfig, ClusterSimulator, JobSchedule, make_schedule

__all__ = [
    "EXCESS_EPS",
    "ExcessStats",
    "excess_stats",
    "replay_packing",
    "ClusterState",
    "Job",
    "JobGenerator",
    "ClusterReport",
    "aggregate_reports",
    "format_policy_table",
    "ForecastSource",
    "Forecasts",
    "FleetForecastSource",
    "AutoscalePolicy",
    "PolicyInputs",
    "RequestPolicy",
    "ReactivePolicy",
    "PredictivePointPolicy",
    "PredictiveQuantilePolicy",
    "OraclePolicy",
    "make_policy",
    "POLICY_NAMES",
    "ClusterConfig",
    "JobSchedule",
    "make_schedule",
    "ClusterSimulator",
]
