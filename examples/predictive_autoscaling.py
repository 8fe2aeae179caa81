"""Predictive autoscaling: turning Table II accuracy into cluster savings.

The paper's motivation (§I-II): accurate prediction lets the resource
manager reserve just enough CPU — less waste than provisioning the full
request, fewer QoS violations than reactive scaling. This example trains
RPTCN on a high-dynamic container, feeds its forecasts to the cluster
autoscaler's policy ladder open loop — one sizing decision per test
interval — and compares the policies on waste vs violations.

Run:  python examples/predictive_autoscaling.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.cluster import POLICY_NAMES, PolicyInputs, excess_stats, make_policy
from repro.data import PipelineConfig, PredictionPipeline
from repro.models import QuantileGBTForecaster, create_forecaster
from repro.traces import ClusterTraceGenerator, TraceConfig


def main() -> None:
    container = ClusterTraceGenerator(
        TraceConfig(n_machines=1, containers_per_machine=1, n_steps=1500, seed=19,
                    container_mix={"regime_switching": 1.0})
    ).generate().containers[0]
    print(f"container {container.entity_id}: regime-switching CPU demand")

    # the paper's pipeline feeds the forecaster
    pipeline = PredictionPipeline(PipelineConfig(scenario="mul_exp", window=12))
    prepared = pipeline.prepare(container)
    xt, yt = prepared.dataset.train
    xv, yv = prepared.dataset.val
    xe, ye = prepared.dataset.test

    forecaster = create_forecaster(
        "rptcn", target_col=prepared.target_col, epochs=30, seed=4
    )
    forecaster.fit(xt, yt, xv, yv)

    # a quantile alternative: reserve the predicted 95th percentile
    quantile_forecaster = QuantileGBTForecaster(
        taus=(0.5, 0.95),
        target_col=prepared.target_col,
        n_estimators=100,
        max_depth=2,
        min_child_weight=30,
    )
    quantile_forecaster.fit(xt, yt)

    # replay in capacity units: normalized test demand may exceed 1.0
    # (the scaler saw only the training split), real CPU % cannot
    def capacity(values):
        return prepared.denormalize_target(values) / 100.0

    n = len(ye)
    truth = capacity(ye[:, 0])
    last = capacity(xe[:, -1, prepared.target_col])
    points = {
        "predictive": capacity(forecaster.predict(xe)[:, 0]),
        "quantile": capacity(quantile_forecaster.predict_quantile(xe, 0.95)),
    }
    headroom = 0.08
    rows = []
    for name in POLICY_NAMES:
        if name == "quantile":
            policy = make_policy(name, tau=0.95, safety=0.0)
        else:
            policy = make_policy(name, headroom=headroom)
        obs = PolicyInputs(
            last_observed=last,
            point=points.get(name, np.full(n, np.nan)),
            headroom_q=np.zeros(n),
            truth_next=truth,
            request=np.ones(n),
            active=np.ones(n, dtype=bool),
            throttled=np.zeros(n, dtype=bool),
        )
        s = excess_stats(truth, policy.reservations(obs))
        rows.append(
            [
                name,
                f"{s.mean_served + s.mean_slack:.3f}",
                f"{s.mean_slack:.3f}",
                f"{s.rate * 100:.1f}%",
                f"{s.mean_depth:.3f}",
                f"{s.mean_slack + 10.0 * s.rate * s.mean_depth:.3f}",
            ]
        )
    print("\n" + format_table(
        ["policy", "avg reserved", "waste", "violations", "depth", "cost(10x)"],
        rows,
        title=f"Allocation replay over {n} test intervals "
              f"(capacity units, headroom {headroom:.0%})",
    ))

    print("\nReading: reserving the full request wastes the most; reactive "
          "lags every regime switch (violations); the RPTCN-driven policy "
          "keeps its bill near the oracle's — the remaining violation gap "
          "is the value of further prediction accuracy.")


if __name__ == "__main__":
    main()
