"""Named cluster presets — one-line construction of common trace shapes.

``PRESETS[name]()`` returns a ready
:class:`~repro.traces.generator.TraceConfig`, so user code and tests share
calibrated starting points instead of re-deriving knob values; override
fields with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from .generator import TraceConfig

__all__ = ["PRESETS"]


def _dev() -> TraceConfig:
    """Seconds-fast cluster for unit tests and notebooks."""
    return TraceConfig(n_machines=2, containers_per_machine=2, n_steps=600)


def _bench() -> TraceConfig:
    """The benchmark suite's default: small but statistically stable."""
    return TraceConfig(n_machines=8, containers_per_machine=3, n_steps=2000)


def _paper_like() -> TraceConfig:
    """Closest practical approximation of the paper's evaluation slice.

    The real trace covers 4034 machines over 8 days at (the paper's) 10 s
    interval; the paper trains per-entity, so fidelity requires matching
    the *per-entity series length and behaviour*, not the machine count.
    One day of 10 s samples per entity keeps the diurnal cycle resolvable.
    """
    return TraceConfig(
        n_machines=16,
        containers_per_machine=4,
        n_steps=8640,  # 24 h at 10 s
        diurnal_period=8640,
    )


def _high_dynamic() -> TraceConfig:
    """Stress preset: every container regime-switching or bursty."""
    return TraceConfig(
        n_machines=4,
        containers_per_machine=3,
        n_steps=2000,
        container_mix={"regime_switching": 0.6, "bursty": 0.4},
    )


PRESETS = {
    "dev": _dev,
    "bench": _bench,
    "paper_like": _paper_like,
    "high_dynamic": _high_dynamic,
}

