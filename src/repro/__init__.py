"""RPTCN reproduction (IEEE CLUSTER 2021).

Resource-usage prediction for high-dynamic cloud workloads with a Temporal
Convolutional Network augmented by a fully connected layer and an attention
mechanism, plus every substrate the paper depends on: a NumPy deep-learning
framework (:mod:`repro.nn`), an Alibaba-trace-v2018-like synthetic cluster
trace (:mod:`repro.traces`), the Algorithm-1 data pipeline
(:mod:`repro.data`), all baselines (:mod:`repro.models`), and the experiment
harnesses that regenerate every table and figure
(:mod:`repro.experiments`).
"""

__version__ = "1.0.0"

from . import (  # noqa: E402  (re-exported subpackages)
    analysis,
    cluster,
    data,
    experiments,
    models,
    nn,
    obs,
    streaming,
    traces,
    training,
)

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
