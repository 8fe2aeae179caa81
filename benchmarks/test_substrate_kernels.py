"""Micro-benchmarks of the substrate kernels.

Not a paper artifact — these time the hot paths (dilated conv forward +
backward, LSTM step, GBT tree growth, ARIMA fit) so performance
regressions in the from-scratch framework are caught by CI history.
``test_bench_holt_fit`` times the Holt grid-search fit at the fleet's
pooled refit shape, the fit that runs on every in-line refit tick.

``test_perf_smoke_kernel_snapshot`` (marker ``perf_smoke``) additionally
writes an ops/sec snapshot to ``BENCH_kernels.json`` at the repo root, so
successive PRs accumulate a kernel-throughput trajectory:

    python -m pytest benchmarks -m perf_smoke -q
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.models.arima import ARIMA
from repro.models.exponential import HoltForecaster
from repro.models.gbt import GradientBoostedTrees
from repro.nn import functional as F
from repro.nn.layers import LSTM
from repro.nn.tensor import Tensor

from ._machine import machine_info


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_bench_conv1d_forward(benchmark, rng):
    x = Tensor(rng.random((32, 16, 64)))
    w = Tensor(rng.random((16, 16, 3)))

    out = benchmark(lambda: F.conv1d(x, w, padding=(4, 0), dilation=2))
    assert out.shape == (32, 16, 64)


def test_bench_conv1d_backward(benchmark, rng):
    def step():
        x = Tensor(rng.random((16, 8, 64)), requires_grad=True)
        w = Tensor(rng.random((8, 8, 3)), requires_grad=True)
        out = F.conv1d(x, w, padding=(4, 0), dilation=2)
        (out * out).sum().backward()
        return x.grad

    grad = benchmark(step)
    assert grad is not None


def test_bench_lstm_forward(benchmark, rng):
    layer = LSTM(8, 32, rng=rng)
    layer.eval()
    x = Tensor(rng.random((32, 12, 8)))

    from repro.nn.tensor import no_grad

    def fwd():
        with no_grad():
            return layer(x)

    out = benchmark(fwd)
    assert out.shape == (32, 12, 32)


def test_bench_gbt_fit(benchmark, rng):
    x = rng.random((500, 24))
    y = x[:, 0] * 2 + np.sin(x[:, 1] * 6)

    def fit():
        return GradientBoostedTrees(n_estimators=20, max_depth=4).fit(x, y)

    model = benchmark(fit)
    assert len(model.trees) == 20


def test_bench_arima_fit(benchmark, rng):
    from scipy.signal import lfilter

    e = rng.normal(0, 0.1, 1500)
    series = lfilter([1.0], [1.0, -0.7], e)

    model = benchmark(lambda: ARIMA(2, 0, 1).fit(series))
    assert model.fitted


def _holt_pool(rng):
    """The fleet's pooled refit input: 1024 windows of 12, one target."""
    x = rng.random((1024, 12, 1))
    y = rng.random((1024, 1))
    return x, y


def test_bench_holt_fit(benchmark, rng):
    x, y = _holt_pool(rng)

    model = benchmark(lambda: HoltForecaster().fit(x, y))
    assert model.fitted and model.alpha_ in model.alphas


def test_bench_trace_generation(benchmark):
    from repro.traces.generator import ClusterTraceGenerator, TraceConfig

    cfg = TraceConfig(n_machines=8, containers_per_machine=3, n_steps=2000, seed=1)

    trace = benchmark(lambda: ClusterTraceGenerator(cfg).generate())
    assert trace.n_containers == 24


def _ops_per_sec(fn, min_time: float = 0.25) -> float:
    """Calls/second of ``fn``, measured over at least ``min_time`` seconds."""
    fn()  # warm-up (fills the plan caches, which is the steady state)
    calls = 0
    t0 = time.perf_counter()
    while (elapsed := time.perf_counter() - t0) < min_time:
        fn()
        calls += 1
    return calls / elapsed


@pytest.mark.perf_smoke
def test_perf_smoke_kernel_snapshot(rng):
    """Quick ops/sec snapshot of the substrate hot paths -> BENCH_kernels.json.

    Shapes match the micro-benchmarks above so the snapshot numbers are
    comparable with pytest-benchmark history. Entries are keyed by the
    ``RPTCN_BENCH_LABEL`` env var (default ``working-tree``) so each PR can
    record its own row next to its predecessors.
    """
    from repro.nn.tensor import no_grad
    from repro.streaming import OnlinePredictor, PageHinkley
    from repro.traces import ClusterTraceGenerator, TraceConfig

    x = Tensor(rng.random((32, 16, 64)))
    w = Tensor(rng.random((16, 16, 3)))
    conv_fwd = _ops_per_sec(lambda: F.conv1d(x, w, padding=(4, 0), dilation=2))

    def conv_step():
        xg = Tensor(rng.random((16, 8, 64)), requires_grad=True)
        wg = Tensor(rng.random((8, 8, 3)), requires_grad=True)
        out = F.conv1d(xg, wg, padding=(4, 0), dilation=2)
        (out * out).sum().backward()

    conv_bwd = _ops_per_sec(conv_step)

    layer = LSTM(8, 32, rng=rng)
    layer.eval()
    xl = Tensor(rng.random((32, 12, 8)))

    def lstm_fwd():
        with no_grad():
            layer(xl)

    lstm_fwd_ops = _ops_per_sec(lstm_fwd)

    xh, yh = _holt_pool(rng)
    holt_fit = _ops_per_sec(lambda: HoltForecaster().fit(xh, yh))

    gen = ClusterTraceGenerator(TraceConfig(n_steps=400, seed=0))
    entity = gen.generate_entity("mutation", entity_id="c_smoke", low=0.3, high=0.7)
    stream = entity.cpu / 100.0
    predictor = OnlinePredictor(
        "holt",
        window=12,
        buffer_capacity=200,
        refit_interval=100,
        min_fit_size=60,
        detector=PageHinkley(threshold=0.25, min_instances=30),
    )
    t0 = time.perf_counter()
    predictor.run(stream)
    serving_throughput = len(stream) / (time.perf_counter() - t0)

    snapshot = {
        "shapes": {
            "conv1d_forward": "x(32,16,64) w(16,16,3) pad=(4,0) dil=2",
            "conv1d_backward": "x(16,8,64) w(8,8,3) pad=(4,0) dil=2 (incl. fwd+loss)",
            "lstm_forward": "LSTM(8->32) x(32,12,8) no_grad",
            "online_serving": "holt predictor, 400-step mutation stream",
            "holt_fit": "HoltForecaster.fit, 1024 windows of 12, default 5x4 grid",
        },
        "ops_per_sec": {
            "conv1d_forward": round(conv_fwd, 1),
            "conv1d_backward": round(conv_bwd, 1),
            "lstm_forward": round(lstm_fwd_ops, 1),
            "online_serving_records_per_sec": round(serving_throughput, 1),
            "holt_fit": round(holt_fit, 1),
        },
        "machine": {
            **machine_info(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }

    path = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
    data = {"schema": "bench-kernels/v1", "entries": {}}
    if path.exists():
        data = json.loads(path.read_text())
    label = os.environ.get("RPTCN_BENCH_LABEL", "working-tree")
    data["entries"][label] = snapshot
    path.write_text(json.dumps(data, indent=2) + "\n")

    assert conv_fwd > 0 and conv_bwd > 0 and lstm_fwd_ops > 0 and holt_fit > 0
    assert serving_throughput > 100.0


def test_bench_pipeline_prepare(benchmark):
    from repro.data.pipeline import PipelineConfig, PredictionPipeline
    from repro.traces.generator import ClusterTraceGenerator, TraceConfig

    entity = ClusterTraceGenerator(
        TraceConfig(n_machines=1, containers_per_machine=1, n_steps=3000, seed=2)
    ).generate().containers[0]
    pipe = PredictionPipeline(PipelineConfig(scenario="mul_exp"))

    res = benchmark(lambda: pipe.prepare(entity))
    assert len(res.feature_names) == 12
