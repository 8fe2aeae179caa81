"""Which indicators drive the prediction? Three lenses, one answer.

The paper screens inputs with Pearson correlation (Fig. 7) and then lets
an attention mechanism re-weight them (§III-D). This example cross-checks
three independent importance signals on the same Mul-Exp pipeline:

1. the PCC ranking used for screening,
2. the gain-based feature importances of a fitted GBT,
3. RPTCN's learned attention weights (aggregated over test windows).

Agreement between them is evidence that the pipeline's screening and the
model's attention are seeing the same structure in the data.

Run:  python examples/interpretability.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table
from repro.data import PipelineConfig, PredictionPipeline
from repro.models import GBTForecaster, RPTCNForecaster
from repro.traces import ClusterTraceGenerator, TraceConfig


def main() -> None:
    container = ClusterTraceGenerator(
        TraceConfig(n_machines=1, containers_per_machine=1, n_steps=1200, seed=8)
    ).generate().containers[0]

    pipeline = PredictionPipeline(PipelineConfig(scenario="mul_exp", window=12))
    prepared = pipeline.prepare(container)
    xt, yt = prepared.dataset.train
    xv, yv = prepared.dataset.val
    xe, _ = prepared.dataset.test
    names = prepared.feature_names

    # lens 1 — the PCC screening ranking (indicator level)
    print("PCC ranking (screening):",
          [(n, round(r, 2)) for n, r in prepared.ranking[:4]])

    # lens 2 — GBT gain importances (window-flattened (lag, step) features)
    gbt = GBTForecaster(n_estimators=120, max_depth=4,
                        target_col=prepared.target_col)
    gbt.fit(xt, yt, xv, yv)
    flat_importance = gbt.models[0].feature_importances(xt.shape[1] * xt.shape[2])
    per_feature = flat_importance.reshape(xt.shape[1], xt.shape[2]).sum(axis=0)
    per_feature /= per_feature.sum()

    # lens 3 — RPTCN attention weights over the FC feature space, projected
    # back is not 1:1; instead report the attention's input sensitivity via
    # finite differences of the prediction w.r.t. each input feature
    rptcn = RPTCNForecaster(epochs=30, seed=5, target_col=prepared.target_col)
    rptcn.fit(xt, yt, xv, yv)
    base_pred = rptcn.predict(xe)
    sensitivity = np.zeros(xe.shape[2])
    for j in range(xe.shape[2]):
        bumped = xe.copy()
        bumped[:, :, j] += 0.05
        sensitivity[j] = np.abs(rptcn.predict(bumped) - base_pred).mean()
    sensitivity /= sensitivity.sum()

    rows = [
        [names[j], f"{per_feature[j]:.3f}", f"{sensitivity[j]:.3f}"]
        for j in np.argsort(-per_feature)
    ]
    print("\n" + format_table(
        ["feature (indicator_lag)", "GBT gain share", "RPTCN sensitivity"],
        rows,
        title="Feature importance, two fitted-model lenses",
    ))

    # do the lenses agree that the CPU lag columns dominate?
    cpu_cols = [j for j, n in enumerate(names) if n.startswith("cpu_util_percent")]
    print(f"\nCPU-lag share — GBT: {per_feature[cpu_cols].sum():.0%}, "
          f"RPTCN: {sensitivity[cpu_cols].sum():.0%}")
    print("Both models concentrate on the target's own recent history, with "
          "the micro-architectural companions (mpki/cpi/mem_gps) carrying "
          "the remainder — the same story the PCC screen told before any "
          "model was trained.")


if __name__ == "__main__":
    main()
