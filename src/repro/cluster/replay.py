"""Shared demand-vs-supply replay primitives.

Every replay harness in this repo scores the same two failure modes the
paper's §I names — idle capacity from over-supply and degraded workloads
from under-supply — with :func:`excess_stats`: the closed cluster loop,
the open-loop allocation replay (a policy's per-interval reservations
against a container's realized demand) and the open-loop packing replay
(:func:`replay_packing`: one batch of jobs placed by a policy's
footprints, then their actual usage summed per machine).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import ClusterState

__all__ = ["ExcessStats", "excess_stats", "replay_packing"]

#: excess below this is float noise, not a breach (matches the historical
#: thresholds of both replay simulators)
EXCESS_EPS = 1e-12


@dataclass(frozen=True)
class ExcessStats:
    """How demand compared to supply over a set of samples.

    The same statistics read as *violation/over-provision* when supply is
    a reservation (allocation replay), as *overload/stranding* when
    supply is a machine capacity (packing replay), and as both at
    once in the cluster loop.
    """

    #: samples scored
    n_samples: int
    #: fraction of samples where demand exceeded supply
    rate: float
    #: mean unmet demand during exceeding samples (breach severity)
    mean_depth: float
    #: mean supplied-but-unused capacity (the waste side)
    mean_slack: float
    #: mean demand actually servable, ``mean(min(demand, supply))``
    mean_served: float
    #: largest demand observed in any sample
    peak_demand: float


def excess_stats(demand: np.ndarray, supply: np.ndarray | float) -> ExcessStats:
    """Score ``demand`` against ``supply`` elementwise (broadcastable).

    ``demand`` may be any shape — per-interval reservations score a
    ``(N,)`` vector, a placement replay scores a ``(machines, steps)``
    load matrix against a scalar capacity; the statistics are taken over
    all elements either way.
    """
    demand = np.asarray(demand, float)
    supply = np.asarray(supply, float)
    if demand.size == 0:
        raise ValueError("cannot score an empty demand sample")
    excess = np.maximum(demand - supply, 0.0)
    exceeded = excess > EXCESS_EPS
    return ExcessStats(
        n_samples=int(demand.size),
        rate=float(exceeded.mean()),
        mean_depth=float(excess[exceeded].mean()) if exceeded.any() else 0.0,
        mean_slack=float(np.maximum(supply - demand, 0.0).mean()),
        mean_served=float(np.minimum(demand, supply).mean()),
        peak_demand=float(demand.max()),
    )


def replay_packing(
    footprints: np.ndarray, usage: np.ndarray, capacity: float = 1.0
) -> tuple[ClusterState, ExcessStats]:
    """Pack one job batch best-fit decreasing, then replay its usage.

    Jobs are admitted into a :class:`ClusterState` with one machine per
    job, in decreasing ``footprints`` order (ties keep batch order), so a
    footprint within ``capacity`` is never force-placed. ``usage`` is
    ``(steps, n_jobs)`` actual demand; each step's per-machine load is
    scored against ``capacity`` over the powered-on machines only.
    """
    footprints = np.asarray(footprints, float)
    usage = np.asarray(usage, float)
    n_jobs = len(footprints)
    if usage.ndim != 2 or usage.shape[1] != n_jobs:
        raise ValueError(f"usage must be (steps, {n_jobs}), got {usage.shape}")
    state = ClusterState(n_machines=n_jobs, n_jobs=n_jobs, capacity=capacity)
    for job in np.argsort(-footprints, kind="stable"):
        state.admit(int(job), float(footprints[job]))
    load = np.stack([state.machine_demand(step) for step in usage])
    return state, excess_stats(load[:, state.powered_on], capacity)
