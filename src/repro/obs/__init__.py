"""Unified observability: metrics registry, tracing spans, profiling, exporters.

The paper's premise is monitoring-driven prediction, and this subsystem
turns the same lens on our own stack. Counters, gauges and log-bucket
histograms live in a process-global (or injected) :class:`MetricRegistry`
(:mod:`.registry`); nestable :func:`span` context managers build trace
trees with a deterministic-clock hook (:mod:`.trace`); snapshots export
as Prometheus text format or JSONL through crash-safe atomic writes
(:mod:`.export`); and :func:`profiled` hooks time hot functions
(:mod:`.profile`). The trainer, the online serving loop, the nn kernel
plan caches and the experiment runner are all wired through it — see
``runner --metrics-out`` for a one-flag snapshot of any experiment.

Everything here is stdlib-only, so any layer can import it without
cycles or optional dependencies. :func:`set_enabled` is the global kill
switch for optional telemetry (functional counters, e.g. the input
gate's quarantine counts, always record — they are serving state).
"""

from __future__ import annotations

from . import export, profile, registry, trace
from .export import jsonl_text, prometheus_text, summary, write_snapshot
from .profile import profiled
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    default_registry,
    get_registry,
    log_buckets,
    set_default_registry,
    use_registry,
)
from .trace import Span, Tracer, default_tracer, set_clock, span, use_clock

__all__ = [
    "registry",
    "trace",
    "export",
    "profile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "log_buckets",
    "default_registry",
    "set_default_registry",
    "get_registry",
    "use_registry",
    "Span",
    "Tracer",
    "span",
    "default_tracer",
    "set_clock",
    "use_clock",
    "prometheus_text",
    "jsonl_text",
    "summary",
    "write_snapshot",
    "profiled",
    "set_enabled",
    "is_enabled",
]


def set_enabled(flag: bool) -> bool:
    """Toggle metrics *and* tracing together; returns the previous metric flag."""
    trace.set_enabled(flag)
    return registry.set_enabled(flag)


def is_enabled() -> bool:
    """Whether optional instrumentation is currently recording."""
    return registry.is_enabled()
