"""Figs. 9-10 harness — loss-convergence comparison.

Fig. 9: training-loss curves of the deep models (plus XGBoost's staged
validation RMSE, which is what a boosting library exposes) on a
*container* workload. Fig. 10: validation-loss curves on a *machine*
workload. The paper's qualitative claims: RPTCN starts at a much lower
loss than the baselines and stays lowest throughout; LSTM spikes early;
CNN-LSTM converges slowly on machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.convergence import ConvergenceRecord, compare_convergence
from ..data.pipeline import PipelineConfig, PredictionPipeline
from ..traces.generator import ClusterTraceGenerator, TraceConfig
from .accuracy import model_kwargs_for
from .config import ExperimentProfile, get_profile

__all__ = ["ConvergenceResult", "run_fig9", "run_fig10"]

_DEEP_MODELS = ("lstm", "cnn_lstm", "rptcn")


@dataclass
class ConvergenceResult:
    """Loss curves per model plus summary records."""

    curves: dict[str, list[float]] = field(default_factory=dict)
    records: list[ConvergenceRecord] = field(default_factory=list)
    level: str = ""
    monitor: str = ""

    def model_record(self, name: str) -> ConvergenceRecord:
        for rec in self.records:
            if rec.model == name:
                return rec
        raise KeyError(f"no record for model {name!r}")


def _run_convergence(
    profile: str | ExperimentProfile,
    level: str,
    monitor: str,
    include_xgboost: bool = True,
) -> ConvergenceResult:
    prof = get_profile(profile) if isinstance(profile, str) else profile
    gen = ClusterTraceGenerator(
        TraceConfig(
            n_machines=prof.n_machines,
            containers_per_machine=prof.containers_per_machine,
            n_steps=prof.n_steps,
            seed=prof.seed,
        )
    )
    trace = gen.generate()
    entity = trace.containers[0] if level == "containers" else trace.machines[0]

    pipe = PredictionPipeline(
        PipelineConfig(scenario="mul_exp", window=prof.window, horizon=prof.horizon)
    )
    prepared = pipe.prepare(entity)

    result = ConvergenceResult(level=level, monitor=monitor)
    for model in _DEEP_MODELS:
        kwargs = model_kwargs_for(model, prof)
        # convergence comparison needs full-length curves — no early stop
        kwargs["patience"] = max(prof.epochs, kwargs.get("patience", 10))
        run = pipe.run(entity, model, kwargs, prepared=prepared)
        curves = run.forecaster.loss_curves  # type: ignore[attr-defined]
        key = "val_loss" if monitor == "val_loss" else "loss"
        result.curves[model] = list(curves[key])
    if include_xgboost:
        run = pipe.run(entity, "xgboost", model_kwargs_for("xgboost", prof), prepared=prepared)
        staged = run.forecaster.loss_curves["val_loss"]  # type: ignore[attr-defined]
        # staged RMSE → squared loss so all curves share units
        result.curves["xgboost"] = [float(v) ** 2 for v in staged]
    result.records = compare_convergence(result.curves)
    return result


def run_fig9(profile: str | ExperimentProfile = "quick") -> ConvergenceResult:
    """Fig. 9: training-loss convergence on a container workload."""
    return _run_convergence(profile, level="containers", monitor="loss")


def run_fig10(profile: str | ExperimentProfile = "quick") -> ConvergenceResult:
    """Fig. 10: validation-loss convergence on a machine workload."""
    return _run_convergence(profile, level="machines", monitor="val_loss")
