"""Micro-benchmarks of the substrate kernels.

Not a paper artifact — these time the hot paths (dilated conv forward +
backward, LSTM step, GBT tree growth, ARIMA fit) so performance
regressions in the from-scratch framework are caught by CI history.
``test_bench_holt_fit`` times the Holt grid-search fit at the fleet's
pooled refit shape, the fit that runs on every in-line refit tick;
``test_bench_holt_predict`` times that model's forecast (one product
with its cached window filter) for one window of 12, the scalar
predictor's per-record forward, and for 4096, ``fleet_holt_4k``'s tick;
``test_bench_gbt_predict`` times one forecast of the boosted trees at the
closed cluster loop's shape (30 rows through 40 trees of depth 3).
``test_bench_gbt_fit_pool_3279`` times that loop's largest refit: 40 trees
of depth 3 over a pool of 3279 windows of 8, the fit that sets the
``autoscale_quantile`` tick p99.
``test_bench_rptcn_predict`` and ``test_bench_tcn_block_step`` time the
paper's model at the fleet serving shape: one 253-row forecast, and one
forward + backward of a fused 16-channel residual block at training
batch size. ``test_bench_rptcn_predict_n1`` times that model's forecast
of one window, the scalar predictor's per-record forward, where fixed
per-call cost dominates. Both forecasts run the model's frozen
inference plan. ``test_bench_tcn_last_step_train_step`` times one fit batch
of RPTCN's backbone: forward and backward of 32 windows through
``TCN.last_step``, which computes only the conv rows the loss reads.
``test_bench_adam_step`` times the rest of that fit batch: the gradient
clip (per parameter) and the Adam update over a fitted RPTCN's 26
parameters, a few whole-vector ops over the optimizer's flat weights and
moments.
``test_bench_ring_last_windows`` and
``test_bench_ring_append_tick`` time the fleet history ring at the
``fleet_holt_4k`` shape (4096 streams, capacity 140, window 12, one
feature, ~1 % of streams masked out per tick): the per-tick window
gather and the per-tick absorb. ``test_bench_fleet_gate_check_tick``
and ``test_bench_fleet_page_hinkley_update`` time two more per-tick
passes of the fleet at that shape: gating one ``(4096, 1)`` tick with
~1 % NaN rows, and advancing 4096 drift detectors on the ~99 % of
streams that were served.

The snapshot also records two start-up costs, each read in a fresh
interpreter: the import of ``repro.streaming.shard`` (what a spawned shard
worker, refit process or pool worker pays before its first line of work)
and construct-to-ready of ``ShardedFleetPredictor(64, shards=2,
forecaster_name="holt")``, which spawns two workers and waits for both
ready handshakes.

``test_perf_smoke_kernel_snapshot`` (marker ``perf_smoke``) additionally
writes an ops/sec snapshot to ``BENCH_kernels.json`` at the repo root, so
successive PRs accumulate a kernel-throughput trajectory. Pin BLAS to one
thread, as the serving benchmark does, so rows compare across machines:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python -m pytest benchmarks -m perf_smoke -q
"""

import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.models.arima import ARIMA
from repro.models.exponential import HoltForecaster
from repro.models.gbt import GradientBoostedTrees
from repro.models.rptcn import RPTCNForecaster
from repro.models.tcn import TCN, TemporalBlock
from repro.nn import functional as F
from repro.nn.layers import LSTM
from repro.nn.optim import clip_grad_norm
from repro.nn.tensor import Tensor
from repro.streaming import MatrixRingBuffer, PageHinkley
from repro.streaming.fleet import _FleetPageHinkley
from repro.streaming.resilience import FleetGate

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


def _gbt_pool(rng, n=1431):
    """The cluster loop's pooled refit input: ``n`` windows of 8, flattened."""
    x = rng.random((n, 8))
    y = x[:, -1] + 0.5 * np.sin(6 * x[:, -2]) + 0.05 * rng.random(n)
    return x, y


def _gbt_autoscale_fit(x, y):
    return GradientBoostedTrees(n_estimators=40, max_depth=3).fit(x, y)


def test_bench_gbt_fit_pool_3279(benchmark):
    # its own generator: the module's shared one keeps feeding later tests as before
    x, y = _gbt_pool(np.random.default_rng(3279), 3279)
    model = benchmark(lambda: _gbt_autoscale_fit(x, y))
    assert len(model.trees) == 40


def test_bench_gbt_predict(benchmark, rng):
    x, y = _gbt_pool(rng)
    model = _gbt_autoscale_fit(x, y)

    pred = benchmark(lambda: model.predict(x[:30]))
    assert pred.shape == (30,)


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


def _holt_serving(rng):
    """A Holt model fitted on the pooled refit input; 4096 windows of 12 to serve."""
    x, y = _holt_pool(rng)
    return HoltForecaster().fit(x, y), rng.random((4096, 12, 1))


@pytest.mark.parametrize("n", [1, 4096])
def test_bench_holt_predict(benchmark, rng, n):
    model, x = _holt_serving(rng)

    pred = benchmark(lambda: model.predict(x[:n]))
    assert pred.shape == (n, 1)


def _rptcn_pool(rng):
    """The fleet's pooled RPTCN refit input: 907 windows of 12, one feature."""
    x = rng.random((907, 12, 1))
    y = rng.random((907, 1))
    return x, y


def _rptcn_fit(x, y):
    return RPTCNForecaster(epochs=2, seed=0).fit(x, y)


def test_bench_rptcn_predict(benchmark, rng):
    x, y = _rptcn_pool(rng)
    model = _rptcn_fit(x, y)

    pred = benchmark(lambda: model.predict(x[:253]))
    assert pred.shape == (253, 1)


def test_bench_rptcn_predict_n1(benchmark, rng):
    x, y = _rptcn_pool(rng)
    model = _rptcn_fit(x, y)

    pred = benchmark(lambda: model.predict(x[:1]))
    assert pred.shape == (1, 1)


def _adam_step(model):
    """clip_grad_norm + Adam.step over a fitted model's parameters, its last batch's grads."""
    params = list(model.model.parameters())
    opt = model.trainer.optimizer

    def step():
        clip_grad_norm(params, model.grad_clip_norm)
        opt.step()

    return step


def test_bench_adam_step(benchmark, rng):
    x, y = _rptcn_pool(rng)
    model = _rptcn_fit(x, y)
    assert len(list(model.model.parameters())) == 26

    benchmark(_adam_step(model))
    assert all(p.grad is not None for p in model.model.parameters())


def _tcn_block_step(rng):
    """fwd+bwd of one 16-channel residual block, batch 32, L=12, dilation 2."""
    block = TemporalBlock(16, 16, 3, 2, dropout=0.1, rng=rng)
    x = Tensor(rng.random((32, 16, 12)), requires_grad=True)

    def step():
        block.zero_grad()
        x.grad = None
        out = block(x)
        (out * out).sum().backward()
        return x.grad

    return step


def test_bench_tcn_block_step(benchmark, rng):
    grad = benchmark(_tcn_block_step(rng))
    assert grad.shape == (32, 16, 12)


def _tcn_last_step_train_step(rng):
    """fwd+bwd of RPTCN's backbone through ``TCN.last_step``: one fit batch.

    The paper's stack (16, 16, 16), kernel 3, dilations (1, 2, 4), one
    feature, 32 windows of 12, training mode (dropout 0.1).
    """
    net = TCN(1, (16, 16, 16), kernel_size=3, dropout=0.1, rng=rng)
    net.train()
    x = Tensor(rng.random((32, 1, 12)))

    def step():
        net.zero_grad()
        out = net.last_step(x)
        (out * out).sum().backward()
        return net.blocks[0].conv1.v.grad

    return step


def test_bench_tcn_last_step_train_step(benchmark, rng):
    grad = benchmark(_tcn_last_step_train_step(rng))
    assert grad.shape == (16, 1, 3)


def _fleet_ring(rng):
    """The fleet history ring at fleet_holt_4k's shape, wrapped, heads staggered.

    Returns the ring plus one tick's gather targets, gather batch, tick
    and absorb mask; ~1 % of streams sit out each tick, as quarantined
    records do, so per-stream heads differ.
    """
    streams, capacity, window = 4096, 140, 12
    ring = MatrixRingBuffer(streams, capacity, 1, window=window)
    for _ in range(capacity + window):
        ring.append_tick(rng.random((streams, 1)), mask=rng.random(streams) > 0.01)
    due = np.flatnonzero(rng.random(streams) > 0.01)
    batch = np.empty((due.size, window, 1))
    tick = rng.random((streams, 1))
    accepted = rng.random(streams) > 0.01
    return ring, due, batch, tick, accepted


def test_bench_ring_last_windows(benchmark, rng):
    ring, due, batch, _, _ = _fleet_ring(rng)

    out = benchmark(lambda: ring.last_windows(due, 12, out=batch))
    assert out.shape == (due.size, 12, 1)


def test_bench_ring_append_tick(benchmark, rng):
    ring, _, _, tick, accepted = _fleet_ring(rng)

    benchmark(lambda: ring.append_tick(tick, mask=accepted))
    assert int(ring.sizes.min()) == 140


def _fleet_gate(rng):
    """The fleet_holt_4k gate (4096 streams, 1 feature) past arming, plus one tick.

    The gate has absorbed 40 ticks, past ``min_history`` (20), as in
    steady serving; ~1 % of the tick's rows are NaN, as the workload's
    faults are.
    """
    streams = 4096
    gate = FleetGate(streams, 1)
    for _ in range(40):
        gate.check_tick(rng.random((streams, 1)))
    tick = rng.random((streams, 1))
    tick[rng.random(streams) < 0.01] = np.nan
    return gate, tick


def test_bench_fleet_gate_check_tick(benchmark, rng):
    gate, tick = _fleet_gate(rng)

    res = benchmark(lambda: gate.check_tick(tick))
    assert res.records.shape == (4096, 1)


def _fleet_page_hinkley(rng):
    """4096 default Page-Hinkley detectors, 40 updates in, plus one tick's errors.

    ~99 % of streams are served (the mask); unserved rows carry a NaN
    error, as ``FleetPredictor`` passes them.
    """
    streams = 4096
    detector = _FleetPageHinkley.from_prototype(PageHinkley(), streams)
    for _ in range(40):
        detector.update(rng.random(streams) * 0.05, rng.random(streams) > 0.01)
    have = rng.random(streams) > 0.01
    errors = np.where(have, rng.random(streams) * 0.05, np.nan)
    return detector, errors, have


def test_bench_fleet_page_hinkley_update(benchmark, rng):
    detector, errors, have = _fleet_page_hinkley(rng)

    fired = benchmark(lambda: detector.update(errors, have))
    assert fired.shape == (4096,)


def _minor_faults_per_call(fn, calls: int = 200) -> float:
    """Steady-state minor page faults per call of ``fn`` (after a warm-up)."""
    for _ in range(20):
        fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


def test_bench_trace_generation(benchmark):
    from repro.traces.generator import ClusterTraceGenerator, TraceConfig

    cfg = TraceConfig(n_machines=8, containers_per_machine=3, n_steps=2000, seed=1)

    trace = benchmark(lambda: ClusterTraceGenerator(cfg).generate())
    assert trace.n_containers == 24


_STARTUP_PROBE = """
import json, time
t0 = time.perf_counter()
import repro.streaming.shard
t1 = time.perf_counter()
sp = repro.streaming.shard.ShardedFleetPredictor(64, shards=2, forecaster_name="holt")
t2 = time.perf_counter()
sp.close()
print(json.dumps({"import_streaming_shard": t1 - t0, "sharded_holt_64x2_ready": t2 - t1}))
"""


def _startup_seconds() -> dict[str, float]:
    """Start-up seconds of the shard entry module and a 2-worker fleet, fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(proc.stdout.splitlines()[-1])


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
    from repro.streaming import OnlinePredictor
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
    holt, xs = _holt_serving(rng)
    holt_predict_n1 = _ops_per_sec(lambda: holt.predict(xs[:1]))
    holt_predict_n4096 = _ops_per_sec(lambda: holt.predict(xs))

    xg, yg = _gbt_pool(rng)
    gbt_fit = _ops_per_sec(lambda: _gbt_autoscale_fit(xg, yg), min_time=1.0)
    # its own generator: the rows after it keep the inputs they always had
    xg_big, yg_big = _gbt_pool(np.random.default_rng(3279), 3279)
    gbt_fit_pool_3279 = _ops_per_sec(lambda: _gbt_autoscale_fit(xg_big, yg_big), min_time=1.0)
    gbt = _gbt_autoscale_fit(xg, yg)
    gbt_predict = _ops_per_sec(lambda: gbt.predict(xg[:30]))

    xr, yr = _rptcn_pool(rng)
    rptcn_fit = _ops_per_sec(lambda: _rptcn_fit(xr, yr), min_time=1.0)
    rptcn = _rptcn_fit(xr, yr)
    rptcn_predict = _ops_per_sec(lambda: rptcn.predict(xr[:253]))
    rptcn_predict_n1 = _ops_per_sec(lambda: rptcn.predict(xr[:1]))
    rptcn_faults = _minor_faults_per_call(lambda: rptcn.predict(xr[:253]))
    adam_step = _ops_per_sec(_adam_step(_rptcn_fit(xr, yr)))
    block_step = _ops_per_sec(_tcn_block_step(rng))
    last_step_train = _ops_per_sec(_tcn_last_step_train_step(rng))

    ring, due, batch, tick, accepted = _fleet_ring(rng)
    ring_gather = _ops_per_sec(lambda: ring.last_windows(due, 12, out=batch))
    ring_append = _ops_per_sec(lambda: ring.append_tick(tick, mask=accepted))
    gate, gate_tick = _fleet_gate(rng)
    gate_check = _ops_per_sec(lambda: gate.check_tick(gate_tick))
    detector, errors, have = _fleet_page_hinkley(rng)
    ph_update = _ops_per_sec(lambda: detector.update(errors, have))

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

    startup = _startup_seconds()

    snapshot = {
        "shapes": {
            "conv1d_forward": "x(32,16,64) w(16,16,3) pad=(4,0) dil=2",
            "conv1d_backward": "x(16,8,64) w(8,8,3) pad=(4,0) dil=2 (incl. fwd+loss)",
            "lstm_forward": "LSTM(8->32) x(32,12,8) no_grad",
            "online_serving": "holt predictor, 400-step mutation stream",
            "holt_fit": "HoltForecaster.fit, 1024 windows of 12, default 5x4 grid",
            "holt_predict_n1": "predict of a model fitted that way, 1 window of 12, 1 feature",
            "holt_predict_n4096": "predict of that model, 4096 windows of 12, 1 feature",
            "gbt_fit": "GradientBoostedTrees.fit, 1431 windows of 8, 40 trees, depth 3",
            "gbt_fit_pool_3279": "GradientBoostedTrees.fit, 3279 windows of 8, 40 trees, "
            "depth 3 (the largest autoscale refit pool)",
            "gbt_predict": "predict of that model, 30 rows",
            "rptcn_fit": "RPTCNForecaster.fit, 907 windows of 12, 1 feature, 2 epochs",
            "rptcn_predict": "predict of that model, 253 rows",
            "rptcn_predict_n1": "predict of that model, 1 row",
            "adam_step": "clip_grad_norm (max_norm 5) + Adam.step over that model's 26 "
            "parameters, its last fit batch's grads",
            "tcn_block_step": "TemporalBlock(16->16, k=3, dil=2) x(32,16,12) fwd+bwd",
            "tcn_last_step_train_step": "TCN(1, (16,16,16), k=3) train mode, x(32,1,12): "
            "last_step fwd+bwd",
            "rptcn_predict_minor_faults": "minor page faults per steady-state predict",
            "ring_last_windows": "MatrixRingBuffer(4096, 140, 1, window=12), wrapped: "
            "last_windows of ~4055 streams into a float64 batch",
            "ring_append_tick": "append_tick of one (4096, 1) tick into that ring, ~1% masked",
            "fleet_gate_check_tick": "FleetGate(4096, 1), default policy, armed: "
            "check_tick of one tick with ~1% NaN rows",
            "fleet_page_hinkley_update": "4096 default Page-Hinkley detectors: one "
            "masked update, ~99% of streams served",
            "import_streaming_shard": "import repro.streaming.shard in a fresh interpreter",
            "sharded_holt_64x2_ready": "ShardedFleetPredictor(64, shards=2, "
            "forecaster_name='holt') construction to both workers ready",
        },
        "ops_per_sec": {
            "conv1d_forward": round(conv_fwd, 1),
            "conv1d_backward": round(conv_bwd, 1),
            "lstm_forward": round(lstm_fwd_ops, 1),
            "online_serving_records_per_sec": round(serving_throughput, 1),
            "holt_fit": round(holt_fit, 1),
            "holt_predict_n1": round(holt_predict_n1, 1),
            "holt_predict_n4096": round(holt_predict_n4096, 1),
            "gbt_fit": round(gbt_fit, 1),
            "gbt_fit_pool_3279": round(gbt_fit_pool_3279, 1),
            "gbt_predict": round(gbt_predict, 1),
            "rptcn_fit": round(rptcn_fit, 2),
            "rptcn_predict": round(rptcn_predict, 1),
            "rptcn_predict_n1": round(rptcn_predict_n1, 1),
            "adam_step": round(adam_step, 1),
            "tcn_block_step": round(block_step, 1),
            "tcn_last_step_train_step": round(last_step_train, 1),
            "ring_last_windows": round(ring_gather, 1),
            "ring_append_tick": round(ring_append, 1),
            "fleet_gate_check_tick": round(gate_check, 1),
            "fleet_page_hinkley_update": round(ph_update, 1),
        },
        "startup_seconds": {name: round(sec, 3) for name, sec in startup.items()},
        "informational": {"rptcn_predict_minor_faults": round(rptcn_faults, 1)},
        "machine": {
            **machine_info(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {
                var: os.environ.get(var, "")
                for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
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
    assert holt_predict_n1 > 0 and holt_predict_n4096 > 0
    assert gbt_fit > 0 and gbt_fit_pool_3279 > 0 and gbt_predict > 0
    assert rptcn_fit > 0 and rptcn_predict > 0 and rptcn_predict_n1 > 0 and adam_step > 0
    assert block_step > 0 and last_step_train > 0
    assert ring_gather > 0 and ring_append > 0
    assert gate_check > 0 and ph_update > 0
    assert all(sec > 0 for sec in startup.values())
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
