"""Ablation benches for the design choices DESIGN.md calls out.

These go beyond the paper's tables: they isolate the contribution of
each RPTCN addition (FC layer, attention) and each pipeline stage
(screening, expansion variants), quantifying the §V-C future-work ideas
the authors sketch (first-order differences, correlation-weighted lags).
"""

import pytest

from repro.analysis.reporting import format_table
from repro.data.pipeline import PipelineConfig, PredictionPipeline
from repro.traces.generator import ClusterTraceGenerator, TraceConfig

from .conftest import run_once


@pytest.fixture(scope="module")
def entity():
    gen = ClusterTraceGenerator(
        TraceConfig(n_machines=1, containers_per_machine=1, n_steps=700, seed=33)
    )
    return gen.generate().containers[0]


def _evaluate(entity, config: PipelineConfig, **model_kwargs) -> dict[str, float]:
    pipe = PredictionPipeline(config)
    kwargs = {"epochs": 12, "seed": 7, "channels": (8, 8, 8), **model_kwargs}
    return pipe.run(entity, "rptcn", kwargs).metrics


def test_ablation_architecture(benchmark, entity):
    """RPTCN components: full model vs no-attention vs no-FC vs bare TCN."""

    def run():
        config = PipelineConfig(scenario="mul_exp", window=12)
        return {
            "full": _evaluate(entity, config),
            "no_attention": _evaluate(entity, config, attention="none"),
            "no_fc": _evaluate(entity, config, use_fc=False),
            "bare_tcn": _evaluate(entity, config, attention="none", use_fc=False),
            "temporal_attention": _evaluate(entity, config, attention="temporal"),
        }

    results = run_once(benchmark, run)
    rows = [[k, v["mse"], v["mae"]] for k, v in results.items()]
    print("\n" + format_table(["variant", "mse", "mae"], rows,
                              title="RPTCN architecture ablation (mul_exp)"))

    # every variant must train to a sane accuracy; the full model must not
    # be catastrophically worse than the best ablation (the paper admits
    # "the improvement is not so obvious")
    best = min(v["mse"] for v in results.values())
    assert results["full"]["mse"] <= 2.5 * best
    for name, vals in results.items():
        assert vals["mse"] < 0.08, f"{name} diverged"


def test_ablation_expansion_variants(benchmark, entity):
    """Pipeline variants: uni / mul / mul_exp / weighted / differences."""

    def run():
        return {
            "uni": _evaluate(entity, PipelineConfig(scenario="uni", window=12)),
            "mul": _evaluate(entity, PipelineConfig(scenario="mul", window=12)),
            "mul_exp": _evaluate(entity, PipelineConfig(scenario="mul_exp", window=12)),
            "weighted": _evaluate(
                entity,
                PipelineConfig(scenario="mul_exp", window=12, correlation_weighted=True),
            ),
            "differences": _evaluate(
                entity, PipelineConfig(scenario="mul", window=12, add_differences=True)
            ),
        }

    results = run_once(benchmark, run)
    rows = [[k, v["mse"], v["mae"]] for k, v in results.items()]
    print("\n" + format_table(["pipeline", "mse", "mae"], rows,
                              title="Input-scenario ablation (RPTCN)"))

    values = [v["mse"] for v in results.values()]
    assert max(values) / min(values) < 10.0, "a pipeline variant diverged"


def test_ablation_receptive_field(benchmark, entity):
    """Kernel/dilation sweep: receptive field vs accuracy (paper §V-C)."""

    def run():
        config = PipelineConfig(scenario="mul_exp", window=16)
        out = {}
        for channels, kernel in [((8,), 2), ((8, 8), 3), ((8, 8, 8), 3)]:
            from repro.models.tcn import TCN

            rf = TCN(1, channels=channels, kernel_size=kernel).receptive_field
            metrics = _evaluate(entity, config, channels=channels, kernel_size=kernel)
            out[f"L{len(channels)}_k{kernel}"] = {"rf": rf, **metrics}
        return out

    results = run_once(benchmark, run)
    rows = [[k, v["rf"], v["mse"], v["mae"]] for k, v in results.items()]
    print("\n" + format_table(["config", "receptive field", "mse", "mae"], rows,
                              title="Receptive-field sweep"))

    rfs = [v["rf"] for v in results.values()]
    assert rfs == sorted(rfs), "sweep should grow the receptive field"
    for vals in results.values():
        assert vals["mse"] < 0.08


def test_ablation_vertical_vs_horizontal(benchmark, entity):
    """Fig. 4 trade-off: vertical (longer window) vs horizontal expansion.

    The paper argues horizontal expansion adds short-term information
    without the training-cost growth of a longer window; this bench
    measures both accuracy and wall-clock.
    """
    import time

    def run():
        out = {}
        for name, config in [
            ("horizontal_w12", PipelineConfig(scenario="mul_exp", window=12)),
            ("vertical_w24", PipelineConfig(scenario="mul", window=24)),
            ("baseline_w12", PipelineConfig(scenario="mul", window=12)),
        ]:
            t0 = time.perf_counter()
            metrics = _evaluate(entity, config)
            out[name] = {**metrics, "seconds": time.perf_counter() - t0}
        return out

    results = run_once(benchmark, run)
    rows = [[k, v["mse"], v["mae"], v["seconds"]] for k, v in results.items()]
    print("\n" + format_table(["expansion", "mse", "mae", "train+eval s"], rows,
                              title="Vertical vs horizontal expansion"))

    # the paper's claim about cost: vertical expansion trains slower than
    # horizontal at matched information content
    assert results["vertical_w24"]["seconds"] > 0.5 * results["horizontal_w12"]["seconds"]
