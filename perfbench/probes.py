"""Benchmark-side tracing: timers around calls into each layer's public API.

Nothing here reaches inside ``src/``. Model time is taken by a subclass
of the served forecaster, registered under its own name, so the product
builds it through its normal ``create_forecaster`` path; cluster time is
taken by pass-through wrappers around the forecast source and the
policy, which the caller injects into ``ClusterSimulator``. Probes keep
their samples in memory and are read once a measurement ends.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.cluster.forecast import ForecastSource
from repro.models.base import FORECASTER_REGISTRY, register_forecaster


class ModelProbe:
    """Per-call samples from the timed forecaster subclass."""

    def __init__(self) -> None:
        self.predicts: list[tuple[float, int]] = []  #: (seconds, rows)
        self.fits: list[tuple[float, int, int]] = []  #: (seconds, windows, epochs)

    def mark(self) -> tuple[int, int]:
        return len(self.predicts), len(self.fits)

    def seconds_since(self, mark: tuple[int, int]) -> float:
        p, f = mark
        return sum(s for s, _ in self.predicts[p:]) + sum(s for s, _, _ in self.fits[f:])


def timed_forecaster(base_name: str, probe: ModelProbe) -> str:
    """Register (once) a timing subclass of ``base_name``; returns its name.

    The subclass only wraps ``fit``/``predict`` with a clock, so its
    served outputs are the base class's bit for bit; the harness checks
    that by hashing the traced run's outputs against the untraced run's.
    """
    name = f"bench_timed_{base_name}"
    cls = FORECASTER_REGISTRY.get(name)
    if cls is None:
        base = FORECASTER_REGISTRY[base_name]

        class Timed(base):  # type: ignore[misc, valid-type]
            probe: ModelProbe

            def fit(self, x, y, *args, **kwargs):
                t0 = perf_counter()
                out = super().fit(x, y, *args, **kwargs)
                history = getattr(self, "history", None)
                epochs = int(getattr(history, "epochs_run", 0) or 0)
                type(self).probe.fits.append((perf_counter() - t0, len(x), epochs))
                return out

            def predict(self, x):
                t0 = perf_counter()
                out = super().predict(x)
                type(self).probe.predicts.append((perf_counter() - t0, len(x)))
                return out

        Timed.__name__ = f"Timed{base.__name__}"
        cls = register_forecaster(name)(Timed)
    cls.probe = probe
    return name


class PassThroughSource(ForecastSource):
    """Forwards to a real source; stamps every ``observe`` entry.

    The interval between successive entries is one closed-loop cluster
    tick as the caller sees it. Entries are stamped on the pass's
    :class:`~clock.PassClock`, which calibrates, when due, just before the
    stamp, between two ticks. With ``timed=True`` it also records how long
    each ``observe`` and ``forecast`` call took.
    """

    name = "pass-through"

    def __init__(self, inner, clock, timed: bool = False) -> None:
        self.inner = inner
        self.clock = clock
        self.timed = timed
        self.entries: list[float] = []
        self.active: list[int] = []  #: job rows observed per tick
        self.live: list[bool] = []  #: a fitted model served before this tick
        #: call durations keyed by tick index (the observe entry they follow)
        self.observe_s: dict[int, float] = {}
        self.forecast_s: dict[int, float] = {}

    def observe(self, observed, censored=None) -> None:
        self.clock.between_calls()
        t0 = perf_counter()
        self.entries.append(t0 - self.clock.paused)
        self.active.append(int(np.count_nonzero(np.isfinite(observed))))
        self.live.append(self.inner.fleet.model_version >= 1)
        self.inner.observe(observed, censored=censored)
        if self.timed:
            self.observe_s[len(self.entries) - 1] = perf_counter() - t0

    def forecast(self, need_headroom: bool = False):
        if not self.timed:
            return self.inner.forecast(need_headroom=need_headroom)
        t0 = perf_counter()
        out = self.inner.forecast(need_headroom=need_headroom)
        self.forecast_s[len(self.entries) - 1] = perf_counter() - t0
        return out


class PassThroughPolicy:
    """Forwards to a real autoscale policy; times each ``reservations`` call."""

    def __init__(self, inner, source: PassThroughSource) -> None:
        self.inner = inner
        self.source = source
        self.name = inner.name
        self.needs_forecasts = inner.needs_forecasts
        self.needs_headroom = inner.needs_headroom
        self.decide_s: dict[int, float] = {}

    def reservations(self, obs):
        t0 = perf_counter()
        out = self.inner.reservations(obs)
        self.decide_s[len(self.source.entries) - 1] = perf_counter() - t0
        return out
