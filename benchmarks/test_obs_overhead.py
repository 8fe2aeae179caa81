"""Observability overhead guard (marker ``perf_smoke``) -> ``BENCH_obs.json``.

The :mod:`repro.obs` instrumentation wired through ``Trainer.fit``,
``OnlinePredictor.run`` and ``FleetPredictor.process_tick`` must stay
cheap enough to leave enabled in production: this test runs each
workload twice in lockstep — one instrumented worker, one with
observability disabled, alternating every few milliseconds of work — and
asserts the instrumented side stays within 10% of the plain side. The
fleet is gated at N=64 and N=4096; its N=1 ratio is recorded ungated.

Two choices keep the measurement honest on a busy machine:

* **CPU time, not wall time** (``time.process_time``): instrumentation
  overhead is pure CPU work, and CPU time is blind to other processes
  stealing the core mid-measurement.
* **Fine-grained interleaving**: the two workers advance through the
  *same* stream/epochs in alternating chunks, so a load burst or
  frequency change hits both sides almost equally instead of landing on
  whichever config happened to be running.

The measured ratios land in ``BENCH_obs.json`` at the repo root, keyed
by the ``RPTCN_BENCH_LABEL`` env var, so successive PRs accumulate an
overhead trajectory next to ``BENCH_kernels.json``:

    python -m pytest benchmarks/test_obs_overhead.py -q
"""

import gc
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.experiments.fleet import make_fleet_streams
from repro.nn.layers import Linear, Sequential, Tanh
from repro.nn.losses import MSELoss
from repro.nn.optim import Adam
from repro.obs.registry import MetricRegistry
from repro.streaming import FleetPredictor, OnlinePredictor, PageHinkley
from repro.training.trainer import Trainer

#: instrumented CPU time may exceed uninstrumented by at most this factor
MAX_OVERHEAD_RATIO = 1.10
#: full interleaved passes per workload; the min ratio is reported
PASSES = 3
#: fleet sizes -> (ticks, ticks per chunk); only the sizes in FLEET_GATED are gated
FLEET_SIZES = {1: (1200, 50), 64: (1200, 50), 4096: (320, 10)}
FLEET_GATED = (64, 4096)
#: the serving configuration every predictor worker shares
SERVE_KW = dict(window=12, buffer_capacity=200, refit_interval=100, min_fit_size=60)


def _interleaved_cpu_ratio(make_worker, chunks):
    """CPU-time ratio instrumented/plain over chunk-interleaved workers.

    ``make_worker()`` returns a fresh ``step(chunk)`` callable; two are
    created per pass and advanced through the same ``chunks`` in
    alternation, one with observability on, one with it off.
    Returns ``(ratio, cpu_on, cpu_off)`` for the best (lowest-ratio) pass.
    """
    best = (float("inf"), 0.0, 0.0)
    try:
        for _ in range(PASSES):
            workers = {True: make_worker(), False: make_worker()}
            cpu = {True: 0.0, False: 0.0}
            gc.collect()
            for chunk in chunks:
                for enabled in (True, False):
                    obs.set_enabled(enabled)
                    t0 = time.process_time()
                    workers[enabled](chunk)
                    cpu[enabled] += time.process_time() - t0
            ratio = cpu[True] / cpu[False]
            if ratio < best[0]:
                best = (ratio, cpu[True], cpu[False])
    finally:
        obs.set_enabled(True)
    return best


def _make_serve_worker():
    predictor = OnlinePredictor(
        "holt", detector=PageHinkley(threshold=0.25, min_instances=30),
        registry=MetricRegistry(), **SERVE_KW,
    )

    def step(rows):
        for row in rows:
            predictor.process(row)

    return step


def _fleet_worker_factory(n_streams):
    def make():
        fleet = FleetPredictor(
            n_streams, "holt", detector=PageHinkley(threshold=0.25, min_instances=30),
            registry=MetricRegistry(), **SERVE_KW,
        )

        def step(ticks):
            for tick in ticks:
                fleet.process_tick(tick)

        return step

    return make


def _make_train_worker():
    rng = np.random.default_rng(0)
    model = Sequential(Linear(16, 64, rng=rng), Tanh(), Linear(64, 1, rng=rng))
    trainer = Trainer(
        model, Adam(model.parameters(), lr=0.01), MSELoss(),
        rng=rng, registry=MetricRegistry(),
    )
    x = rng.random((512, 16))
    y = x[:, :1]

    def step(_epoch):
        trainer.fit(x, y, epochs=1, batch_size=64)

    return step


@pytest.mark.perf_smoke
def test_perf_smoke_obs_overhead():
    """Instrumented Trainer.fit / OnlinePredictor.run / FleetPredictor within 10% of plain."""
    from repro.traces import ClusterTraceGenerator, TraceConfig

    gen = ClusterTraceGenerator(TraceConfig(n_steps=1200, seed=0))
    stream = gen.generate_entity("mutation", entity_id="c_obs", low=0.3, high=0.7).cpu / 100.0
    stream = stream[:, None]
    record_chunks = [stream[i : i + 50] for i in range(0, len(stream), 50)]

    _make_serve_worker()(stream[:200])  # warm caches and lazy imports
    _make_train_worker()(0)

    serve_ratio, serve_on, serve_off = _interleaved_cpu_ratio(
        _make_serve_worker, record_chunks
    )
    train_ratio, train_on, train_off = _interleaved_cpu_ratio(
        _make_train_worker, range(12)
    )
    fleet = {}
    for n, (ticks, chunk) in FLEET_SIZES.items():
        trace = make_fleet_streams(n, ticks, seed=0)
        _fleet_worker_factory(n)()(trace[:chunk])  # warm caches and lazy imports
        chunks = [trace[i : i + chunk] for i in range(0, ticks, chunk)]
        fleet[f"fleet_n{n}"] = _interleaved_cpu_ratio(_fleet_worker_factory(n), chunks)

    snapshot = {
        "workloads": {
            "trainer_fit": "Linear(16,64)+Tanh+Linear(64,1), Adam, 512x16, 12 epochs, batch 64",
            "online_serving": "holt predictor, 1200-step mutation stream",
            **{
                f"fleet_n{n}": f"holt FleetPredictor, {n} streams, {ticks} ticks "
                f"(make_fleet_streams, 1 % NaN cells)"
                + ("" if n in FLEET_GATED else "; recorded, not gated")
                for n, (ticks, _) in FLEET_SIZES.items()
            },
        },
        "method": f"chunk-interleaved instrumented/plain workers, CPU time, min of {PASSES} passes",
        "cpu_seconds": {
            "trainer_fit_instrumented": round(train_on, 6),
            "trainer_fit_plain": round(train_off, 6),
            "online_serving_instrumented": round(serve_on, 6),
            "online_serving_plain": round(serve_off, 6),
            **{
                f"{name}_{side}": round(cpu, 6)
                for name, (_, on, off) in fleet.items()
                for side, cpu in (("instrumented", on), ("plain", off))
            },
        },
        "overhead_ratio": {
            "trainer_fit": round(train_ratio, 4),
            "online_serving": round(serve_ratio, 4),
            **{name: round(ratio, 4) for name, (ratio, _, _) in fleet.items()},
        },
        "max_allowed_ratio": MAX_OVERHEAD_RATIO,
    }

    path = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
    data = {"schema": "bench-obs/v1", "entries": {}}
    if path.exists():
        data = json.loads(path.read_text())
    label = os.environ.get("RPTCN_BENCH_LABEL", "working-tree")
    data["entries"][label] = snapshot
    path.write_text(json.dumps(data, indent=2) + "\n")

    assert train_ratio <= MAX_OVERHEAD_RATIO, (
        f"training instrumentation overhead {train_ratio:.3f}x exceeds "
        f"{MAX_OVERHEAD_RATIO}x ({train_on * 1e3:.1f}ms vs {train_off * 1e3:.1f}ms CPU)"
    )
    assert serve_ratio <= MAX_OVERHEAD_RATIO, (
        f"serving instrumentation overhead {serve_ratio:.3f}x exceeds "
        f"{MAX_OVERHEAD_RATIO}x ({serve_on * 1e3:.1f}ms vs {serve_off * 1e3:.1f}ms CPU)"
    )
    for n in FLEET_GATED:
        ratio, on, off = fleet[f"fleet_n{n}"]
        assert ratio <= MAX_OVERHEAD_RATIO, (
            f"fleet N={n} instrumentation overhead {ratio:.3f}x exceeds "
            f"{MAX_OVERHEAD_RATIO}x ({on * 1e3:.1f}ms vs {off * 1e3:.1f}ms CPU)"
        )
