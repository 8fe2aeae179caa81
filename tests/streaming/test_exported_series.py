"""The series each predictor exports: names, kinds, labels and help texts.

An operator's dashboards and alerts key on these, so a refactor of the
serving envelope must not rename, drop or relabel one. Each predictor
serves a short run with obs on; its registry must then export exactly
the ``serving_*`` series below (the sharded fleet: after ``close`` has
merged its workers' series).
"""

import numpy as np
import pytest

from repro.obs.registry import MetricRegistry, set_enabled
from repro.streaming import FleetPredictor, OnlinePredictor, PageHinkley, ShardedFleetPredictor

KW = dict(
    forecaster_name="holt",
    window=4,
    buffer_capacity=16,
    refit_interval=6,
    min_fit_size=8,
    detector=PageHinkley(threshold=5.0, min_instances=10),
)

GATE = {
    ("serving_gate_seen_total", "counter", "", "records offered to the input gate"),
    *(
        ("serving_gate_records_total", "counter", f"action={action}", "gate verdicts by action")
        for action in ("accept", "impute", "quarantine")
    ),
}
SUPERVISOR = {
    (f"serving_supervisor_{name}", kind, f"duty={duty}", help)
    for duty in ("predict", "refit")
    for name, kind, help in (
        ("calls_total", "counter", "supervised calls"),
        ("failures_total", "counter", "terminally failed supervised calls"),
        ("retries_total", "counter", "retry attempts after failures"),
        ("budget_exceeded_total", "counter", "successful calls that overran the time budget"),
        ("consecutive_failures", "gauge", "current failure streak"),
    )
}


def _events(prefix):
    return {
        (f"{prefix}_{name}_total", "counter", "", help)
        for name, help in (
            ("predictions", "predictions served"),
            ("refits", "successful refits"),
            ("refit_failures", "terminally failed refits"),
            ("drift_events", "drift detector firings"),
            ("fallback_predictions", "predictions served by the fallback"),
            ("fallback_predict_failures", "fallback forwards that also failed"),
            ("clamped_predictions", "predictions clamped into the plausibility band"),
        )
    }


ONLINE = GATE | SUPERVISOR | _events("serving") | {
    ("serving_health_state", "gauge", "", "0=healthy 1=degraded 2=fallback"),
    ("serving_process_seconds", "histogram", "", "per-record prequential step latency"),
}
FLEET = GATE | SUPERVISOR | _events("serving_fleet") | {
    ("serving_fleet_records_total", "counter", "", "records offered to the fleet"),
    ("serving_fleet_async_swaps_total", "counter", "",
     "background fits adopted by atomic weight swap"),
    ("serving_fleet_refits_deferred_total", "counter", "",
     "refit triggers deferred: a background fit was in flight"),
    ("serving_fleet_health_state", "gauge", "", "0=healthy 1=degraded 2=fallback"),
    ("serving_fleet_records_per_sec", "gauge", "", "instantaneous fleet serving throughput"),
    ("serving_fleet_model_version", "gauge", "", "live shared-model version (0 = no model yet)"),
    ("serving_fleet_model_staleness_ticks", "gauge", "",
     "ticks elapsed since the live model's training pool was drawn"),
    ("serving_fleet_tick_seconds", "histogram", "", "per-tick fleet serving latency (all streams)"),
    ("serving_fleet_batch_size", "histogram", "", "streams served per micro-batched model forward"),
    ("serving_fleet_refit_lag_ticks", "histogram", "",
     "ticks between refit submission and the adopting weight swap"),
    ("serving_fleet_refit_fit_seconds", "histogram", "",
     "background fit duration (spent off the serving path)"),
}  # fmt: skip
SHARDED = FLEET | {
    ("serving_fleet_tick_seconds", "histogram", "shard=0",
     "per-tick fleet serving latency (all streams)"),
    ("serving_shard_ticks_total", "counter", "", "fleet ticks driven through the shard pool"),
    ("serving_shard_worker_failures_total", "counter", "",
     "shard workers declared dead or hung by the coordinator"),
    ("serving_shard_respawns_total", "counter", "", "shard workers respawned by the supervisor"),
    ("serving_shard_quarantines_total", "counter", "",
     "shards durably quarantined by the crash-loop breaker"),
    ("serving_shard_records_per_sec", "gauge", "", "instantaneous sharded-fleet throughput"),
    ("serving_shard_staleness_ticks", "gauge", "",
     "worst-case held-prediction age across recovering shards (ticks)"),
    ("serving_shard_tick_seconds", "histogram", "",
     "per-tick sharded-fleet latency (fan-out + shards + fan-in)"),
    ("serving_shard_recovery_ticks", "histogram", "",
     "fleet ticks from shard failure to a restored live worker"),
}  # fmt: skip


def _exported(registry):
    return {
        (s["name"], s["kind"], ",".join(f"{k}={v}" for k, v in s["labels"]), s["help"])
        for s in registry.collect()
        if s["name"].startswith("serving_")
    }


def _serve(make, ticks):
    registry = MetricRegistry()
    prev = set_enabled(True)
    try:
        make(registry, ticks)
    finally:
        set_enabled(prev)
    return _exported(registry)


def _online(registry, ticks):
    OnlinePredictor(registry=registry, **KW).run(ticks[:, 0])


def _fleet(registry, ticks):
    FleetPredictor(3, registry=registry, **KW).run(ticks)


def _sharded(registry, ticks):
    with ShardedFleetPredictor(3, shards=1, registry=registry, **KW) as fleet:
        fleet.run(ticks)


@pytest.mark.parametrize(
    "make, expected",
    [(_online, ONLINE), (_fleet, FLEET), (_sharded, SHARDED)],
    ids=["online", "fleet", "sharded"],
)
def test_exported_series_are_pinned(make, expected):
    ticks = 0.5 + 0.1 * np.random.default_rng(0).standard_normal((24, 3))
    assert _serve(make, ticks) == expected
