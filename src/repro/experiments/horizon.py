"""Long-term (multi-step) prediction harness.

The paper's title and abstract claim gains "in dynamic and *long-term*
prediction of resource usage". This harness sweeps the prediction horizon
k and compares RPTCN with the baselines at each k — the error-growth curve
that quantifies the long-term axis (an extension bench; the paper reports
only the aggregate claim).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..data.pipeline import PipelineConfig, PredictionPipeline
from ..traces.generator import ClusterTraceGenerator, TraceConfig
from .accuracy import model_kwargs_for
from .config import ExperimentProfile, get_profile

__all__ = ["HorizonResult", "run_horizon_sweep"]

_MODELS = ("persistence", "xgboost", "lstm", "rptcn")


@dataclass
class HorizonResult:
    """model → horizon → metrics."""

    horizons: tuple[int, ...] = ()
    metrics: dict[str, dict[int, dict[str, float]]] = field(default_factory=dict)

    def degradation(self, model: str, metric: str = "mae") -> float:
        """Error at the longest horizon relative to the shortest."""
        per_h = self.metrics[model]
        return per_h[max(per_h)][metric] / per_h[min(per_h)][metric]

    def best_at(self, horizon: int, metric: str = "mse") -> str:
        return min(self.metrics, key=lambda m: self.metrics[m][horizon][metric])


def run_horizon_sweep(
    profile: str | ExperimentProfile = "quick",
    horizons: tuple[int, ...] = (1, 3, 6),
    models: tuple[str, ...] = _MODELS,
) -> HorizonResult:
    """Evaluate each model at each k-step horizon.

    The workload is a machine-level series with a resolvable periodic
    component (a compressed diurnal cycle). The choice matters: on a pure
    regime-switching (martingale-like) series *no* forecaster can beat
    k-step persistence in expectation — structure is what long-horizon
    prediction exploits, and machine-level load has it (paper Fig. 2).
    """
    prof = get_profile(profile) if isinstance(profile, str) else profile
    max_h = max(horizons)
    gen = ClusterTraceGenerator(TraceConfig(n_steps=prof.n_steps, seed=prof.seed))
    entity = gen.generate_entity(
        "periodic",
        entity_id="m_horizon",
        kind="machine",
        base=0.45,
        amplitude=0.22,
        period=max(60, 12 * max_h),
        noise=0.03,
    )

    result = HorizonResult(horizons=tuple(sorted(horizons)))
    for model in models:
        result.metrics[model] = {}
    for horizon in result.horizons:
        pipe = PredictionPipeline(
            PipelineConfig(scenario="mul_exp", window=max(prof.window, 2 * horizon),
                           horizon=horizon)
        )
        prepared = pipe.prepare(entity)
        for model in models:
            kwargs = model_kwargs_for(model, prof)
            kwargs["horizon"] = horizon
            run = pipe.run(entity, model, kwargs, prepared=prepared)
            result.metrics[model][horizon] = dict(run.metrics)
    return result
