"""RPTCN reproduction (IEEE CLUSTER 2021).

Resource-usage prediction for high-dynamic cloud workloads with a Temporal
Convolutional Network augmented by a fully connected layer and an attention
mechanism, plus every substrate the paper depends on: a NumPy deep-learning
framework (:mod:`repro.nn`), an Alibaba-trace-v2018-like synthetic cluster
trace (:mod:`repro.traces`), the Algorithm-1 data pipeline
(:mod:`repro.data`), all baselines (:mod:`repro.models`), and the experiment
harnesses that regenerate every table and figure
(:mod:`repro.experiments`).

Subpackages load on first access (PEP 562): ``import repro`` imports none
of them, ``repro.nn`` imports :mod:`repro.nn` the first time it is read,
and ``import repro.streaming.shard`` loads only what the shard module
itself imports. A spawned worker therefore pays only for the code it runs.
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "nn",
    "models",
    "traces",
    "data",
    "training",
    "analysis",
    "experiments",
    "streaming",
    "cluster",
    "obs",
]


def __getattr__(name: str):
    if name in __all__:
        # import_module binds the subpackage on this module, so the hook
        # runs at most once per name
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
