"""Allocation-cost bench (the application §I-II motivates).

Turns Table II's accuracy numbers into operational consequences: replays
the cluster autoscaler's policy ladder, open loop, over a high-dynamic
container's test split and checks the expected ordering — reserving the
full request wastes most, reactive lags regime switches, the
RPTCN-driven policy keeps its bill near the oracle's.

The replay runs in capacity units (CPU % / 100 of the one container,
whose request is the whole container). The pipeline scales demand by the
*training* split's range, so normalized test demand may exceed 1.0 while
no reservation can; in capacity units demand is at most 1.0 by the trace
schema.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.cluster import POLICY_NAMES, PolicyInputs, excess_stats, make_policy
from repro.data import PipelineConfig, PredictionPipeline
from repro.models import QuantileGBTForecaster, create_forecaster
from repro.traces import ClusterTraceGenerator, TraceConfig

from .conftest import run_once

HEADROOM = 0.08


def _run(profile):
    entity = ClusterTraceGenerator(
        TraceConfig(
            n_machines=1,
            containers_per_machine=1,
            n_steps=profile.n_steps,
            seed=profile.seed,
            container_mix={"regime_switching": 1.0},
        )
    ).generate().containers[0]

    pipe = PredictionPipeline(PipelineConfig(scenario="mul_exp", window=profile.window))
    prepared = pipe.prepare(entity)
    xt, yt = prepared.dataset.train
    xv, yv = prepared.dataset.val
    xe, ye = prepared.dataset.test

    forecaster = create_forecaster(
        "rptcn",
        target_col=prepared.target_col,
        epochs=profile.epochs,
        seed=profile.seed,
    )
    forecaster.fit(xt, yt, xv, yv)

    quantile_forecaster = QuantileGBTForecaster(
        taus=(0.5, 0.95),
        target_col=prepared.target_col,
        n_estimators=100,
        max_depth=2,
        min_child_weight=30,
    )
    quantile_forecaster.fit(xt, yt)

    def capacity(values):
        return prepared.denormalize_target(values) / 100.0

    n = len(ye)
    truth = capacity(ye[:, 0])
    last = capacity(xe[:, -1, prepared.target_col])
    points = {
        "predictive": capacity(forecaster.predict(xe)[:, 0]),
        "quantile": capacity(quantile_forecaster.predict_quantile(xe, 0.95)),
    }
    reports = {}
    for name in POLICY_NAMES:
        if name == "quantile":
            # the q95 forecast is the whole reservation: no band, no safety
            policy = make_policy(name, tau=0.95, safety=0.0)
        else:
            policy = make_policy(name, headroom=HEADROOM)
        obs = PolicyInputs(
            last_observed=last,
            point=points.get(name, np.full(n, np.nan)),
            headroom_q=np.zeros(n),
            truth_next=truth,
            request=np.ones(n),
            active=np.ones(n, dtype=bool),
            throttled=np.zeros(n, dtype=bool),
        )
        reports[name] = excess_stats(truth, policy.reservations(obs))
    return reports


def reserved(stats):
    """Mean reservation: served demand plus unused slack."""
    return stats.mean_served + stats.mean_slack


def test_allocation_cost(benchmark, profile):
    reports = run_once(benchmark, _run, profile)

    rows = [
        [name, reserved(s), s.mean_slack, s.rate * 100,
         s.mean_slack + 10.0 * s.rate * s.mean_depth]
        for name, s in reports.items()
    ]
    print("\n" + format_table(
        ["policy", "avg reserved", "waste", "violations %", "cost(10x)"], rows,
        title="Allocation replay on a regime-switching container "
              "(capacity units)",
    ))

    request = reports["request"]
    predictive = reports["predictive"]
    oracle = reports["oracle"]

    # reserving the request (peak provisioning) wastes the most capacity
    assert request.mean_slack > predictive.mean_slack
    assert request.mean_slack > oracle.mean_slack

    # the oracle never violates with positive headroom
    assert oracle.rate == 0.0

    # prediction keeps reservations near the oracle's bill, far below
    # peak provisioning: 0.76 of capacity is 0.8 x a 0.95 static level
    assert reserved(predictive) < 0.76
    assert reserved(predictive) < 2.0 * reserved(oracle)
