"""Measure one workload: repeated passes, end-to-end metrics, output checks.

``measure`` runs passes until the timed phases add up to the requested
seconds, at least three set-ups were timed, and at least 2000 timed
calls exist (so at least twenty lie beyond p99). With ``trace=True`` it
alternates passes of the untraced run, the same run with the product's
observability switched off, the run with the benchmark's probes in place
and the side runs the anomaly ratios need, and reports the per-layer table.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import repro.obs
import workloads as wl
from probes import ModelProbe, timed_forecaster

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
MIN_SAMPLES = 2000

END_TO_END_UNITS = {
    "records_per_s": "records/s",
    "tick_p50_ms": "ms",
    "tick_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "fleet.self_ms_p50": "ms",
    "fleet.self_ms_p99": "ms",
    "fleet.batch_rows_mean": "rows",
    "fleet.refits": "count",
    "fleet.drift_events": "count",
    "fleet.quarantined": "count",
    "fleet.fallback_predictions": "count",
    "models.predict_ms_p50": "ms",
    "models.predict_rows_per_s": "rows/s",
    "models.predict_calls": "count",
    "models.fit_ms_p50": "ms",
    "models.fit_calls": "count",
    "models.fit_windows_mean": "windows",
    "training.windows_per_s": "windows/s",
    "training.epochs_run": "count",
    "online.self_us_p50": "us",
    "online.fleet_n1_ratio": "ratio",
    "shard.submit_ms_p50": "ms",
    "shard.collect_ms_p50": "ms",
    "shard.collect_ms_p99": "ms",
    "shard.worker_failures": "count",
    "shard.vs_single_ratio": "ratio",
    "shard.s1_vs_single_ratio": "ratio",
    "shard.pipeline_vs_barrier_ratio": "ratio",
    "cluster.observe_ms_p50": "ms",
    "cluster.forecast_ms_p50": "ms",
    "cluster.decide_ms_p50": "ms",
    "cluster.self_ms_p50": "ms",
    "cluster.migrations": "count",
    "cluster.forced_placements": "count",
    "obs.overhead_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
    "bench.tick_samples": "count",
}

#: quality outputs each workload reports, checked against expected.json
QUALITY_KEYS = {
    "autoscale_quantile": ("mae", "sla_violation_rate", "cost_per_job"),
}


# -- machine stamp ----------------------------------------------------------------


def _openblas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def stamp(seed: int) -> dict:
    """Machine, environment and seed every result carries."""
    from benchmarks._machine import machine_info

    return {
        **machine_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "seed": seed,
    }


# -- pass loops -------------------------------------------------------------------


def run_passes(one_pass, seconds: float, fast: bool) -> list[wl.Pass]:
    """Repeat ``one_pass(first)`` until the run has measured enough."""
    passes: list[wl.Pass] = []
    timed = 0.0
    samples = 0
    deadline = perf_counter() + 4 * seconds + 30
    while True:
        gc.collect()
        p = one_pass(not passes)
        passes.append(p)
        timed += p.wall_s
        samples += len(p.latencies)
        if fast or perf_counter() > deadline:
            return passes
        if len(passes) >= MIN_PASSES and timed >= seconds and samples >= MIN_SAMPLES:
            return passes


def pass_fn(workload: str, inputs, fast: bool, probe: ModelProbe | None = None, **variant):
    """The pass callable of ``workload``; ``variant`` selects a side measurement."""
    size = wl.SIZES[workload][1 if fast else 0]
    if workload == "autoscale_quantile":
        return lambda first: wl.autoscale_pass(inputs, size, probe=probe)
    if workload == "stream_holt_1":
        if variant.get("fleet_n1"):
            kwargs = wl.fleet_kwargs(workload, fast)
            return lambda first: wl.fleet_pass(inputs, kwargs, keep=first)
        name = "holt" if probe is None else timed_forecaster("holt", probe)
        return lambda first: wl.online_pass(inputs, probe=probe, forecaster=name)
    if workload == "sharded_holt_4k":
        kwargs = wl.fleet_kwargs(workload, fast)
        if variant.get("single"):
            return lambda first: wl.fleet_pass(inputs, kwargs)
        shards = variant.get("shards", 2)
        pipeline = variant.get("pipeline", True)
        return lambda first: wl.sharded_pass(
            inputs, kwargs, shards=shards, pipeline=pipeline, keep=first
        )
    base = wl.fleet_kwargs(workload, fast)["forecaster_name"]
    name = base if probe is None else timed_forecaster(base, probe)
    kwargs = wl.fleet_kwargs(workload, fast, forecaster=name)
    return lambda first: wl.fleet_pass(inputs, kwargs, probe=probe)


def records_per_s(passes: list[wl.Pass]) -> float:
    """Median over passes of records served per second of timed wall time."""
    return float(np.median([p.records / p.wall_s if p.wall_s > 0 else 0.0 for p in passes]))


def end_to_end(passes: list[wl.Pass]) -> dict[str, float]:
    lat = np.concatenate([p.latencies for p in passes]) if passes else np.zeros(1)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_kb += max(p.worker_rss_kb for p in passes)
    return {
        "records_per_s": records_per_s(passes),
        "tick_p50_ms": float(np.percentile(lat, 50) * 1e3),
        "tick_p99_ms": float(np.percentile(lat, 99) * 1e3),
        "setup_s": float(np.median([p.setup_s for p in passes])),
        "peak_rss_mb": peak_kb / 1024.0,
    }


# -- output checks --------------------------------------------------------------------


def _expected(seed: int, workload: str) -> dict[str, float] | None:
    path = HERE / "expected.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get("values", {}).get(str(seed), {}).get(workload)


def check_passes(workload: str, seed: int, passes: list[wl.Pass], inputs, fast: bool) -> list[str]:
    """Every output check of an untraced run; returns the failures."""
    bad = []
    if any(len(p.latencies) == 0 for p in passes):
        bad.append("a pass never brought a fitted model live")
    if len({p.digest for p in passes}) != 1:
        bad.append("served outputs differ between passes over the same trace")
    for key in passes[0].quality:
        if len({repr(p.quality[key]) for p in passes}) != 1:
            bad.append(f"{key} differs between passes over the same trace")
    mae = passes[0].quality.get("mae", math.nan)
    if workload != "autoscale_quantile" and not (0.0 <= mae < 0.2):
        bad.append(f"mae {mae!r} outside [0, 0.2) load units")
    if workload == "sharded_holt_4k":
        kwargs = wl.fleet_kwargs(workload, fast)
        bad += wl.shard_slice_mismatches(inputs, kwargs, passes[0].outputs)
    want = _expected(seed, workload) if not fast else None
    if want is not None:
        for key, value in want.items():
            got = passes[0].quality.get(key)
            if got is None or not math.isclose(got, value, rel_tol=1e-6, abs_tol=1e-12):
                bad.append(f"{key} {got!r} != recorded {value!r} for seed {seed}")
    return bad


# -- the run --------------------------------------------------------------------------


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    stamp: dict
    metrics: dict[str, float] = field(default_factory=dict)
    units: dict[str, str] = field(default_factory=dict)
    end_to_end: dict[str, float] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    tick_samples: int = 0
    passes: int = 0
    speed: float = 1.0  #: median host-speed factor over the passes
    per_pass: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    unmeasured: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    k: {"value": v, "unit": self.units[k]} for k, v in self.metrics.items()
                },
            }
        )


def _p50_ms(values) -> float:
    return float(np.median(values) * 1e3) if len(values) else 0.0


def _layers(traced: list[wl.Pass], extras: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the traced passes; 0 where the workload
    never reaches the layer."""
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    first = traced[0]
    for key, value in first.counts.items():
        out[key] = float(value)
    pooled: dict[str, list] = {}
    for p in traced:
        for key, values in p.samples.items():
            pooled.setdefault(key, []).extend(values)
    predicts = pooled.get("predicts", [])
    fits = pooled.get("fits", [])
    if predicts:
        secs = np.array([s for s, _ in predicts])
        rows = np.array([r for _, r in predicts])
        out["models.predict_ms_p50"] = float(np.median(secs) * 1e3)
        out["models.predict_rows_per_s"] = float(rows.sum() / secs.sum())
        out["models.predict_calls"] = float(len(first.samples["predicts"]))
    if fits:
        secs = np.array([s for s, _, _ in fits])
        windows = np.array([w for _, w, _ in fits])
        epochs = np.array([e for _, _, e in fits])
        out["models.fit_ms_p50"] = float(np.median(secs) * 1e3)
        out["models.fit_calls"] = float(len(first.samples["fits"]))
        out["models.fit_windows_mean"] = float(windows.mean())
        if epochs.sum():
            out["training.windows_per_s"] = float((windows * epochs).sum() / secs.sum())
            out["training.epochs_run"] = float(sum(e for _, _, e in first.samples["fits"]))
    if "fleet.self_s" in pooled:
        self_s = np.array(pooled["fleet.self_s"])
        out["fleet.self_ms_p50"] = float(np.percentile(self_s, 50) * 1e3)
        out["fleet.self_ms_p99"] = float(np.percentile(self_s, 99) * 1e3)
        served = [r for _, r in first.samples["predicts"]]
        out["fleet.batch_rows_mean"] = float(np.mean(served)) if served else 0.0
    if "online.self_s" in pooled:
        out["online.self_us_p50"] = float(np.median(pooled["online.self_s"]) * 1e6)
    if "shard.submit_s" in pooled:
        out["shard.submit_ms_p50"] = _p50_ms(pooled["shard.submit_s"])
        out["shard.collect_ms_p50"] = _p50_ms(pooled["shard.collect_s"])
        out["shard.collect_ms_p99"] = float(np.percentile(pooled["shard.collect_s"], 99) * 1e3)
    for part in ("observe", "forecast", "decide", "self"):
        key = f"cluster.{part}_s"
        if key in pooled:
            out[f"cluster.{part}_ms_p50"] = _p50_ms(pooled[key])
    out.update(extras)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, fast: bool) -> Result:
    inputs = wl.make_inputs(workload, seed, fast)
    result = Result(workload, seed, trace, stamp(seed))

    if trace:
        arms = _traced_arms(workload, inputs, fast)
        runs = run_interleaved(arms, seconds, fast)
        passes = runs["plain"]
    else:
        passes = run_passes(pass_fn(workload, inputs, fast), seconds, fast)
    result.passes = len(passes)
    result.speed = float(np.median([p.speed for p in passes]))
    result.per_pass = [
        {k: v for k, v in end_to_end([p]).items() if k != "peak_rss_mb"} for p in passes
    ]
    result.end_to_end = end_to_end(passes)
    result.tick_samples = int(sum(len(p.latencies) for p in passes))
    result.quality = dict(passes[0].quality)
    due = sum(p.due or p.records for p in passes)
    missing = sum(p.missing for p in passes)
    result.quality.setdefault("failed_frac", missing / due if due else 0.0)
    result.failures = check_passes(workload, seed, passes, inputs, fast)

    if trace:
        result.failures += _arm_mismatches(workload, runs)
        result.metrics = _layers(runs["traced"], _traced_ratios(runs))
        result.metrics["bench.tick_samples"] = float(result.tick_samples)
        result.units = dict(PER_LAYER_UNITS)
        if workload == "sharded_holt_4k":
            result.unmeasured.append(
                "shard 4-shard >= 2x gate: needs >= 4 usable cores "
                f"(this machine: {result.stamp['cpu_affinity']})"
            )
    else:
        result.metrics = dict(result.end_to_end)
        result.units = dict(END_TO_END_UNITS)

    result.attempted = due + 1
    result.failed = missing + (1 if result.failures else 0)
    return result


# -- the traced run ---------------------------------------------------------------------


def run_interleaved(arms: dict, seconds: float, fast: bool) -> dict[str, list[wl.Pass]]:
    """Round-robin one pass of every arm until each has enough passes.

    Ratios between arms are taken from passes that alternate in time, so
    drift in the machine's speed lands on both sides alike.
    """
    runs: dict[str, list[wl.Pass]] = {name: [] for name in arms}
    deadline = perf_counter() + 4 * seconds + 30
    timed = 0.0
    while True:
        for name, one_pass in arms.items():
            gc.collect()
            p = one_pass(not runs[name])
            runs[name].append(p)
            timed += p.wall_s
        rounds = len(runs["plain"])
        if fast or perf_counter() > deadline:
            return runs
        if rounds >= MIN_PASSES and timed >= 1.5 * seconds:
            return runs


def _obs_off(one_pass):
    def run(first: bool) -> wl.Pass:
        previous = repro.obs.set_enabled(False)
        try:
            return one_pass(first)
        finally:
            repro.obs.set_enabled(previous)

    return run


def _traced_arms(workload: str, inputs, fast: bool) -> dict:
    """The passes a traced run alternates: untraced, obs off, traced, side runs."""
    plain = pass_fn(workload, inputs, fast)
    arms = {
        "plain": plain,
        "obs_off": _obs_off(plain),
        "traced": pass_fn(workload, inputs, fast, probe=ModelProbe()),
    }
    if workload == "stream_holt_1":
        arms["fleet_n1"] = pass_fn(workload, inputs, fast, fleet_n1=True)
    if workload == "sharded_holt_4k":
        arms["single"] = pass_fn(workload, inputs, fast, single=True)
        arms["s1_barrier"] = pass_fn(workload, inputs, fast, shards=1, pipeline=False)
        arms["barrier"] = pass_fn(workload, inputs, fast, pipeline=False)
    return arms


def _arm_mismatches(workload: str, runs: dict[str, list[wl.Pass]]) -> list[str]:
    """Arms that must serve the plain run's outputs bit for bit."""
    same = {arm: "plain" for arm in ("obs_off", "traced")}
    if workload == "sharded_holt_4k":
        # pipelined == barrier at 2 shards, shards=1 == single process
        same.update(barrier="plain", s1_barrier="single")
    bad = [
        f"{arm} run served different outputs than the {ref} run"
        for arm, ref in same.items()
        if {p.digest for p in runs[arm]} != {runs[ref][0].digest}
    ]
    if "fleet_n1" in runs:
        online = runs["plain"][0].outputs[0]
        fleet = runs["fleet_n1"][0].outputs[0][:, 0]
        if not np.array_equal(online, fleet, equal_nan=True):
            bad.append("FleetPredictor(n_streams=1) serves other predictions than OnlinePredictor")
    return bad


def _traced_ratios(runs: dict[str, list[wl.Pass]]) -> dict[str, float]:
    rps = {name: records_per_s(passes) for name, passes in runs.items()}
    out = {
        "obs.overhead_frac": 1.0 - rps["plain"] / rps["obs_off"],
        "bench.trace_overhead_frac": 1.0 - rps["traced"] / rps["plain"],
    }
    if "fleet_n1" in rps:
        out["online.fleet_n1_ratio"] = rps["fleet_n1"] / rps["plain"]
    if "single" in rps:
        out["shard.vs_single_ratio"] = rps["plain"] / rps["single"]
        out["shard.s1_vs_single_ratio"] = rps["s1_barrier"] / rps["single"]
        out["shard.pipeline_vs_barrier_ratio"] = rps["plain"] / rps["barrier"]
    return out


def result_dict(result: Result) -> dict:
    """Everything a run measured, for ``--out`` files and comparisons."""
    return {
        "workload": result.workload,
        "seed": result.seed,
        "trace": result.trace,
        "stamp": result.stamp,
        "correct": result.correct,
        "failures": result.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "passes": result.passes,
        "speed": result.speed,
        "per_pass": result.per_pass,
        "tick_samples": result.tick_samples,
        "end_to_end": result.end_to_end,
        "quality": result.quality,
        "metrics": {k: {"value": v, "unit": result.units[k]} for k, v in result.metrics.items()},
        "unmeasured": result.unmeasured,
    }
