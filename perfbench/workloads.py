"""The five serving workloads: seeded input generators and one measured pass each.

A *pass* builds a fresh serving object, serves one generated trace from
its first record to its last as a closed loop (one caller, the next call
only after the previous one returned), and tears the object down. The
pass's set-up phase runs from construction through the call in which the
first fitted model went live; every later call is timed. Times are taken
on a :class:`PassClock` and scaled to the nominal host speed. Served
outputs of the whole pass are hashed, so passes over the same trace can
be compared bit for bit.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.cluster.autoscaler import make_policy
from repro.cluster.forecast import FleetForecastSource
from repro.cluster.simulator import ClusterConfig, ClusterSimulator, JobSchedule
from repro.obs.registry import MetricRegistry
from repro.streaming import (
    FleetPredictor,
    OnlinePredictor,
    PageHinkley,
    ShardedFleetPredictor,
    shard_boundaries,
)
from repro.streaming.resilience import GATE_QUARANTINE, HealthStatus
from repro.traces.workloads import WORKLOAD_ARCHETYPES

from clock import PassClock, kernel_for
from probes import ModelProbe, PassThroughPolicy, PassThroughSource, timed_forecaster

WORKLOADS = (
    "fleet_holt_4k",
    "fleet_rptcn_256",
    "sharded_holt_4k",
    "autoscale_quantile",
    "stream_holt_1",
)

#: cluster-shaped archetype mix of the autoscale workload (stable service
#: majority, volatile tail), as the autoscale experiment uses it
AUTOSCALE_MIX = {
    "periodic": 0.55,
    "regime_switching": 0.15,
    "bursty": 0.2,
    "spiky_batch": 0.1,
}

#: serving config shared by every stream workload: window 12, sync refits
#: every 64 ticks, first fit once a stream holds 36 records
SERVE = dict(window=12, buffer_capacity=2 * 64 + 12, refit_interval=64, min_fit_size=36)

#: full sizes, then the tiny sizes of the smoke mode
SIZES = {
    "fleet_holt_4k": (dict(n=4096, ticks=1024), dict(n=64, ticks=128)),
    "fleet_rptcn_256": (dict(n=256, ticks=640, epochs=2), dict(n=16, ticks=128, epochs=1)),
    "sharded_holt_4k": (dict(n=4096, ticks=1024), dict(n=64, ticks=128)),
    "autoscale_quantile": (
        dict(machines=24, jobs=40, ticks=240, min_life=100, max_life=220, estimators=40),
        dict(machines=6, jobs=8, ticks=96, min_life=40, max_life=80, estimators=5),
    ),
    "stream_holt_1": (dict(ticks=2048), dict(ticks=256)),
}


# -- input generators ---------------------------------------------------------


def make_fleet_streams(n_streams: int, ticks: int, seed: int, nan_rate: float = 0.01):
    """``(ticks, n_streams)`` diurnal fleet trace with ``nan_rate`` NaN faults.

    Each stream has its own level, amplitude, phase, period and noise;
    the opening tick is never corrupted, so every stream starts finite.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(ticks, dtype=float)[:, None]
    level = rng.uniform(0.3, 0.6, n_streams)
    amp = rng.uniform(0.05, 0.2, n_streams)
    phase = rng.uniform(0.0, 2 * np.pi, n_streams)
    period = rng.uniform(18.0, 30.0, n_streams)
    x = level + amp * np.sin(2 * np.pi * t / period + phase)
    x += rng.normal(0.0, 0.01, x.shape)
    if nan_rate > 0:
        x[rng.random(x.shape) < nan_rate] = np.nan
    x[0] = level + amp * np.sin(phase)
    return x


def make_stream_trace(ticks: int, seed: int):
    """``(ticks, 1)`` trace of one stream, drawn like one fleet stream."""
    return make_fleet_streams(1, ticks, seed)


def _strata(rng, n: int) -> np.ndarray:
    """``n`` uniform draws in [0, 1), one from each of ``n`` equal strata, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def make_schedule(
    n_jobs: int, ticks: int, seed: int, min_life: int, max_life: int
) -> JobSchedule:
    """Job arrivals, lifetimes and demand over the autoscale archetype mix.

    Usage follows the trace archetypes scaled to 10-50 % of a machine;
    each owner requests 1.2-2x its true peak; arrivals are uniform over
    the horizon and lifetimes uniform in ``[min_life, max_life]``, both
    drawn stratified so that the number of jobs alive per tick, and with
    it the work per tick, varies little between seeds.
    """
    rng = np.random.default_rng(seed)
    names = sorted(AUTOSCALE_MIX)
    weights = np.array([AUTOSCALE_MIX[k] for k in names], float)
    weights /= weights.sum()
    shapes, requests = [], []
    for _ in range(n_jobs):
        archetype = str(rng.choice(names, p=weights))
        shape = WORKLOAD_ARCHETYPES[archetype](ticks, rng)
        usage = np.clip(shape * rng.uniform(0.1, 0.5), 0.0, 1.0)
        peak = max(float(usage.max()), 1e-3)
        requests.append(float(np.clip(peak * rng.uniform(1.2, 2.0), 0.01, 1.0)))
        shapes.append(usage)
    life_rng = np.random.default_rng(seed + 0x5EED)
    life = min_life + (_strata(life_rng, n_jobs) * (max_life - min_life + 1)).astype(np.int64)
    arrival = (_strata(life_rng, n_jobs) * (ticks - min_life + 1)).astype(np.int64)
    departure = np.minimum(arrival + life, ticks)
    usage = np.full((ticks, n_jobs), np.nan)
    for j, job_usage in enumerate(shapes):
        usage[arrival[j] : departure[j], j] = job_usage[: departure[j] - arrival[j]]
    return JobSchedule(
        usage=usage,
        request=np.array(requests),
        arrival=arrival.astype(np.int64),
        departure=departure.astype(np.int64),
        completes=(arrival + life <= ticks),
    )


def make_inputs(workload: str, seed: int, fast: bool):
    size = SIZES[workload][1 if fast else 0]
    if workload == "autoscale_quantile":
        return make_schedule(
            size["jobs"], size["ticks"], seed, size["min_life"], size["max_life"]
        )
    if workload == "stream_holt_1":
        return make_stream_trace(size["ticks"], seed)
    return make_fleet_streams(size["n"], size["ticks"], seed)


# -- one pass -------------------------------------------------------------------


@dataclass
class Pass:
    """What one pass over the trace produced."""

    setup_s: float  #: scaled, like every time below
    latencies: np.ndarray  #: seconds per timed call
    records: int  #: records served by the timed calls
    wall_s: float  #: wall time of the timed phase
    speed: float  #: median host-speed factor of the timed phase
    digest: str  #: hash of every served output of the pass
    due: int = 0  #: timed records that should have been served
    missing: int = 0  #: due records with no finite served prediction
    quality: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list] = field(default_factory=dict)  #: traced layer timings
    worker_rss_kb: int = 0
    outputs: tuple | None = None  #: (predictions, health, versions) when kept


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _missing(preds, gated, start: int) -> tuple[int, int]:
    due = gated[start:] != GATE_QUARANTINE
    return int(due.sum()), int((due & ~np.isfinite(preds[start:])).sum())


def fleet_kwargs(workload: str, fast: bool, forecaster: str | None = None) -> dict:
    """Constructor keywords of the fleet serving the named workload."""
    size = SIZES[workload][1 if fast else 0]
    if workload == "fleet_rptcn_256":
        # fixed epoch budget and no validation split: every refit does the
        # same work; the high drift threshold keeps refits on the 64-tick
        # cadence instead of firing on each noisy stream
        return dict(
            forecaster_name=forecaster or "rptcn",
            forecaster_kwargs=dict(epochs=size["epochs"], seed=0),
            detector=PageHinkley(threshold=50.0),
            **SERVE,
        )
    return dict(forecaster_name=forecaster or "holt", **SERVE)


def fleet_pass(trace, kwargs: dict, probe: ModelProbe | None = None, keep: bool = False) -> Pass:
    """Serve ``trace`` through one in-process :class:`FleetPredictor`."""
    ticks, n = trace.shape
    preds = np.empty((ticks, n))
    health = np.empty((ticks, n), np.uint8)
    gated = np.empty((ticks, n), np.int8)
    versions = np.empty(ticks, np.int64)
    lat = np.empty(ticks)
    ends = np.empty(ticks)
    model_s = np.zeros(ticks)
    start = ticks
    probe_start = probe.mark() if probe is not None else None
    clock = PassClock(kernel_for(n))
    t0 = clock.now()
    fleet = FleetPredictor(n, registry=MetricRegistry(), **kwargs)
    for i in range(ticks):
        mark = probe.mark() if probe is not None else None
        a = perf_counter()
        out = fleet.process_tick(trace[i])
        b = perf_counter()
        lat[i] = b - a
        ends[i] = b - clock.paused
        if mark is not None:
            model_s[i] = probe.seconds_since(mark)
        preds[i] = out.predictions
        health[i] = out.health
        gated[i] = out.gated
        versions[i] = out.model_version
        if start == ticks and out.model_version >= 1:
            start = i + 1
        clock.between_calls()
    setup, scaled, wall, speed = clock.scaled(ends, lat, start, t0)
    timed = slice(start, ticks)
    due, missing = _missing(preds, gated, start)
    st = fleet.stats
    result = Pass(
        setup_s=setup,
        latencies=scaled,
        records=(ticks - start) * n,
        wall_s=wall,
        speed=speed,
        digest=_digest(preds, health, versions),
        due=due,
        missing=missing,
        quality={"mae": st.fleet_mae},
        counts={
            "fleet.refits": st.n_refits,
            "fleet.drift_events": int(st.n_drifts.sum()),
            "fleet.quarantined": int(fleet.gate.n_quarantined.sum()),
            "fleet.fallback_predictions": st.total_fallback_predictions,
        },
        outputs=(preds, health, versions) if keep else None,
    )
    if probe is not None:
        p0, f0 = probe_start
        result.samples = {
            "fleet.self_s": list(lat[timed] - model_s[timed]),
            "predicts": probe.predicts[p0:],
            "fits": probe.fits[f0:],
        }
    fleet.close()
    return result


def _worker_rss_kb() -> int:
    """Summed peak resident memory of this process's live children."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total


def sharded_pass(
    trace, kwargs: dict, shards: int = 2, pipeline: bool = True, keep: bool = False
) -> Pass:
    """Serve ``trace`` through :class:`ShardedFleetPredictor` workers.

    The caller keeps up to two ticks in flight when ``pipeline`` is set
    (submit t+1, then collect t) and one otherwise. A tick's latency runs
    from its ``submit_tick`` entry to its ``collect_tick`` return.
    """
    ticks, n = trace.shape
    depth = 2 if pipeline else 1
    preds = np.empty((ticks, n))
    health = np.empty((ticks, n), np.uint8)
    gated = np.empty((ticks, n), np.int8)
    versions = np.empty(ticks, np.int64)
    submitted_at = np.empty(ticks)
    lat = np.empty(ticks)
    submit_s = np.empty(ticks)
    collect_s = np.empty(ticks)
    ends = np.empty(ticks)
    start = ticks
    clock = PassClock(kernel_for(n))
    t0 = clock.now()
    sp = ShardedFleetPredictor(
        n, shards=shards, pipeline=pipeline, registry=MetricRegistry(), **kwargs
    )
    try:
        sent = 0
        drain = False  # calibration due: stop submitting until none is in flight
        for i in range(ticks):
            while sent < ticks and sp.inflight < depth and not drain:
                a = perf_counter()
                submitted_at[sent] = a
                sp.submit_tick(trace[sent])
                submit_s[sent] = perf_counter() - a
                sent += 1
            a = perf_counter()
            out = sp.collect_tick()
            b = perf_counter()
            collect_s[i] = b - a
            lat[i] = b - submitted_at[i]
            ends[i] = b - clock.paused
            preds[i] = out.predictions
            health[i] = out.health
            gated[i] = out.gated
            versions[i] = out.model_version
            if start == ticks and out.model_version >= 1:
                start = i + 1
            drain = drain or clock.due()
            if drain and sp.inflight == 0:
                clock.calibrate()
                drain = False
        mae = sp.stats()["fleet_mae"]
        failures = sp.worker_failures
        rss = _worker_rss_kb()
    finally:
        sp.close(collect_metrics=False)
    setup, scaled, wall, speed = clock.scaled(ends, lat, start, t0)
    timed = slice(start, ticks)
    due, missing = _missing(preds, gated, start)
    return Pass(
        setup_s=setup,
        latencies=scaled,
        records=(ticks - start) * n,
        wall_s=wall,
        speed=speed,
        digest=_digest(preds, health, versions),
        due=due,
        missing=missing,
        quality={"mae": mae},
        counts={"shard.worker_failures": failures},
        worker_rss_kb=rss,
        outputs=(preds, health, versions) if keep else None,
        samples={
            "shard.submit_s": list(submit_s[timed]),
            "shard.collect_s": list(collect_s[timed]),
        },
    )


def shard_slice_mismatches(trace, kwargs: dict, outputs: tuple, shards: int = 2) -> list[str]:
    """Compare each shard's rows with a single-process fleet fed its slice."""
    preds, health, versions = outputs
    bounds = shard_boundaries(trace.shape[1], shards)
    ref_versions = []
    bad = []
    for i in range(shards):
        lo, hi = bounds[i], bounds[i + 1]
        ref = fleet_pass(trace[:, lo:hi], kwargs, keep=True)
        r_preds, r_health, r_versions = ref.outputs
        if not np.array_equal(preds[:, lo:hi], r_preds, equal_nan=True):
            bad.append(f"shard {i}: predictions differ from its single-process slice")
        if not np.array_equal(health[:, lo:hi], r_health):
            bad.append(f"shard {i}: health differs from its single-process slice")
        ref_versions.append(r_versions)
    if not np.array_equal(versions, np.min(ref_versions, axis=0)):
        bad.append("composed model_version is not the minimum of the slice fleets'")
    return bad


def online_pass(trace, probe: ModelProbe | None = None, forecaster: str = "holt") -> Pass:
    """Serve a one-stream trace record by record through :class:`OnlinePredictor`."""
    ticks = len(trace)
    preds = np.empty(ticks)
    health = np.empty(ticks, np.uint8)
    gated = np.empty(ticks, np.int8)
    lat = np.empty(ticks)
    ends = np.empty(ticks)
    model_s = np.zeros(ticks)
    codes = {None: 0, "imputed": 1, "quarantined": GATE_QUARANTINE}
    levels = {status: k for k, status in enumerate(HealthStatus)}
    start = ticks
    probe_start = probe.mark() if probe is not None else None
    clock = PassClock("narrow")
    t0 = clock.now()
    pred = OnlinePredictor(forecaster, registry=MetricRegistry(), **SERVE)
    for i in range(ticks):
        mark = probe.mark() if probe is not None else None
        a = perf_counter()
        rec = pred.process(trace[i])
        b = perf_counter()
        lat[i] = b - a
        ends[i] = b - clock.paused
        if mark is not None:
            model_s[i] = probe.seconds_since(mark)
        preds[i] = np.nan if rec.prediction is None else rec.prediction
        health[i] = levels[rec.health]
        gated[i] = codes[rec.gated]
        if start == ticks and pred.model is not None:
            start = i + 1
        clock.between_calls()
    setup, scaled, wall, speed = clock.scaled(ends, lat, start, t0)
    timed = slice(start, ticks)
    due, missing = _missing(preds[:, None], gated[:, None], start)
    result = Pass(
        setup_s=setup,
        latencies=scaled,
        records=ticks - start,
        wall_s=wall,
        speed=speed,
        digest=_digest(preds, health),
        due=due,
        missing=missing,
        quality={"mae": pred.stats.mae},
        outputs=(preds,),
    )
    if probe is not None:
        p0, f0 = probe_start
        result.samples = {
            "online.self_s": list(lat[timed] - model_s[timed]),
            "predicts": probe.predicts[p0:],
            "fits": probe.fits[f0:],
        }
    return result


def autoscale_pass(
    schedule: JobSchedule, size: dict, probe: ModelProbe | None = None
) -> Pass:
    """One closed-loop :class:`ClusterSimulator` run under the quantile policy.

    The forecast source is configured as in the autoscale experiment
    (GBT forecaster, window 8, refits every 20 ticks over 24 streams),
    except that a high drift threshold keeps refits on that cadence:
    drift-triggered GBT refits made job-ticks per second swing by a
    fifth between seeds. A tick is the interval between successive
    ``observe`` entries.
    """
    traced = probe is not None
    clock = PassClock("trees")
    t0 = clock.now()
    policy = make_policy("quantile")
    forecaster = "xgboost" if probe is None else timed_forecaster("xgboost", probe)
    source = PassThroughSource(
        FleetForecastSource(
            n_jobs=schedule.n_jobs,
            tau=policy.tau,
            min_errors=12,
            forecaster_name=forecaster,
            forecaster_kwargs={"n_estimators": size["estimators"], "max_depth": 3},
            window=8,
            refit_interval=20,
            refit_streams=24,
            detector=PageHinkley(threshold=50.0),
            registry=MetricRegistry(),
        ),
        clock,
        timed=traced,
    )
    if traced:
        policy = PassThroughPolicy(policy, source)
        probe_start = probe.mark()
    sim = ClusterSimulator(
        schedule,
        policy,
        ClusterConfig(n_machines=size["machines"]),
        source=source,
        registry=MetricRegistry(),
    )
    report = sim.run()
    t_end = clock.now()
    start = source.live.index(True) if True in source.live else len(source.live)
    ends = np.array(source.entries[1:] + [t_end])
    intervals = np.diff(np.concatenate([source.entries[:1], ends]))
    setup, scaled, wall, speed = clock.scaled(ends, intervals, start, t0)
    intervals = intervals[start:]
    result = Pass(
        setup_s=setup,
        latencies=scaled,
        records=int(sum(source.active[start:])),
        wall_s=wall,
        speed=speed,
        digest=hashlib.sha256(repr(report).encode()).hexdigest(),
        quality={
            "mae": source.inner.fleet.stats.fleet_mae,
            "failed_frac": 1.0 - report.forecast_coverage,
            "sla_violation_rate": report.sla_violation_rate,
            "cost_per_job": report.cost_per_job(),
        },
        counts={
            "cluster.migrations": report.migrations,
            "cluster.forced_placements": report.forced_placements,
        },
    )
    if traced:
        ticks = range(start, len(source.entries))
        parts = [source.observe_s, source.forecast_s, policy.decide_s]
        p0, f0 = probe_start
        result.samples = {
            "cluster.observe_s": [source.observe_s[k] for k in ticks],
            "cluster.forecast_s": [source.forecast_s[k] for k in ticks if k in source.forecast_s],
            "cluster.decide_s": [policy.decide_s[k] for k in ticks if k in policy.decide_s],
            "cluster.self_s": [
                iv - sum(p.get(k, 0.0) for p in parts) for k, iv in zip(ticks, intervals)
            ],
            "predicts": probe.predicts[p0:],
            "fits": probe.fits[f0:],
        }
    return result
