"""Synthetic Alibaba-cluster-trace-v2018 substrate.

The paper evaluates on the public Alibaba trace v2018 (4034 machines, 8
days, 10 s sampling in the experiments). This environment has no network
access, so :mod:`repro.traces` generates a synthetic cluster trace with the
same schema (Table I indicators for both ``machine_usage`` and
``container_usage``) and calibrated to every quantitative property the
paper reports about the real trace — see ``DESIGN.md`` §2.
"""

from .corruption import CorruptionConfig, corrupt_trace
from .generator import ClusterTraceGenerator, TraceConfig, generate_cluster_cached
from .io import read_trace_csv, write_trace_csv
from .schema import (
    CONTAINER_COLUMNS,
    INDICATORS,
    MACHINE_COLUMNS,
    EntityTrace,
    ClusterTrace,
    indicator_names,
)
from .workloads import (
    WORKLOAD_ARCHETYPES,
    bursty_load,
    mutation_load,
    periodic_load,
    ramp_load,
    regime_switching_load,
    spiky_batch_load,
)

__all__ = [
    "INDICATORS",
    "MACHINE_COLUMNS",
    "CONTAINER_COLUMNS",
    "indicator_names",
    "EntityTrace",
    "ClusterTrace",
    "ClusterTraceGenerator",
    "generate_cluster_cached",
    "TraceConfig",
    "CorruptionConfig",
    "corrupt_trace",
    "read_trace_csv",
    "write_trace_csv",
    "WORKLOAD_ARCHETYPES",
    "periodic_load",
    "bursty_load",
    "regime_switching_load",
    "ramp_load",
    "spiky_batch_load",
    "mutation_load",
]
