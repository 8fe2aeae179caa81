"""Metric instruments and the process-wide registry.

The subsystem is deliberately dependency-free (stdlib only) so any layer
of the stack — the nn substrate, the serving loop, the experiment
harnesses — can instrument itself without import cycles or optional
dependencies. Three instrument kinds cover everything the stack needs:

* :class:`Counter` — monotonically increasing event count.
* :class:`Gauge` — last-written value (optionally computed lazily by a
  callback at collection time).
* :class:`Histogram` — fixed log-scale buckets over positive-ish values
  (latencies, durations) with streaming quantile *estimates* derived
  from the bucket counts; non-finite observations are rejected.

Instruments are standalone objects. A :class:`MetricRegistry` is a
collection of them: ``registry.counter(name, labels=...)`` get-or-creates
a shared instrument, while ``registry.register(inst)`` attaches a
component-owned instrument — the component keeps exact per-instance
values (and can checkpoint/restore them) while the registry aggregates
same-name series across instances at collection time. Registered
instruments are held strongly so an event counted by a now-dead
component still shows up in later snapshots (a quarantine that happened
is a fact, even after its gate is gone); they are small plain objects,
so the cost is a few hundred bytes per component lifetime.

A process-global default registry backs all built-in wiring; tests and
embedders can inject their own via :func:`use_registry`. The module-wide
:func:`set_enabled` switch is consulted by the *instrumentation sites*
(trainer, serving loop, profiler) — functional counters such as the
input gate's quarantine counts always record, because they are serving
state, not optional telemetry.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "log_buckets",
    "default_registry",
    "set_default_registry",
    "get_registry",
    "use_registry",
    "set_enabled",
    "is_enabled",
]

LabelItems = tuple[tuple[str, str], ...]

_enabled = True


def set_enabled(flag: bool) -> bool:
    """Toggle optional instrumentation sites; returns the previous value."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def is_enabled() -> bool:
    """Whether optional instrumentation sites should record."""
    return _enabled


def _freeze_labels(labels: Mapping[str, Any] | None) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared identity: ``name`` plus an immutable, sorted label set."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Mapping[str, Any] | None = None):
        if not name:
            raise ValueError("instrument name must be non-empty")
        self.name = name
        self.help = help
        self.labels: LabelItems = _freeze_labels(labels)
        self._lock = threading.Lock()

    @property
    def key(self) -> tuple[str, str, LabelItems]:
        return (self.kind, self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        lbl = ", ".join(f"{k}={v}" for k, v in self.labels)
        return f"<{type(self).__name__} {self.name}{{{lbl}}}>"


class Counter(_Instrument):
    """Monotonic event counter. ``inc`` only accepts non-negative amounts."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Mapping[str, Any] | None = None):
        super().__init__(name, help, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc by {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def restore(self, value: float) -> None:
        """Adopt an externally tracked total (checkpoint restore, cache mirror)."""
        if value < 0:
            raise ValueError(f"counter {self.name} cannot hold negative total {value}")
        with self._lock:
            self._value = float(value)


class Gauge(_Instrument):
    """Last-written value; pass ``callback`` to compute it lazily at collect."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, Any] | None = None,
        callback: Callable[[], float] | None = None,
    ):
        super().__init__(name, help, labels)
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        return self._value


def log_buckets(lo: float = 1e-6, hi: float = 100.0, per_decade: int = 3) -> tuple[float, ...]:
    """Log-spaced bucket upper bounds from ``lo`` to ``hi`` inclusive.

    The defaults span microseconds to ~2 minutes at 3 buckets per decade
    (25 bounds) — wide enough for both a conv kernel and a full refit.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    n = round(math.log10(hi / lo) * per_decade)
    bounds = [lo * 10 ** (i / per_decade) for i in range(n + 1)]
    bounds[-1] = hi  # kill float drift on the advertised top bound
    return tuple(bounds)


class Histogram(_Instrument):
    """Fixed-bucket histogram with streaming quantile estimates.

    Bucket ``i`` counts observations ``<= bounds[i]`` (and above the
    previous bound); one extra overflow bucket catches everything larger
    than the top bound. Quantiles are estimated by linear interpolation
    within the containing bucket and clamped into the exact observed
    ``[min, max]`` — so a single-sample histogram reports that sample
    exactly. NaN/inf observations raise ``ValueError`` and leave every
    statistic untouched.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, Any] | None = None,
        buckets: tuple[float, ...] | None = None,
    ):
        super().__init__(name, help, labels)
        bounds = tuple(buckets) if buckets is not None else log_buckets()
        if len(bounds) < 1 or any(nxt <= prev for prev, nxt in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing, got {bounds}")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"histogram {self.name} rejects non-finite observation {value!r}")
        # the first bound >= value; past the last bound, the overflow bucket
        bucket = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[bucket] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def minimum(self) -> float:
        return self._min if self._count else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._count else math.nan

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else math.nan

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count<=bound)`` pairs, ending at +inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self._counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + self._counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``); NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return math.nan
        target = q * self._count
        running = 0.0
        for i, n in enumerate(self._counts):
            if n == 0:
                continue
            if running + n >= target:
                lower = 0.0 if i == 0 else self.bounds[i - 1]
                upper = self.bounds[i] if i < len(self.bounds) else self._max
                frac = (target - running) / n
                est = lower + frac * (upper - lower)
                return float(min(max(est, self._min), self._max))
            running += n
        return self._max

    def percentiles(self) -> dict[str, float]:
        return {"p50": self.quantile(0.5), "p90": self.quantile(0.9), "p99": self.quantile(0.99)}

    def restore(self, counts: list[int], total_sum: float, minimum: float, maximum: float) -> None:
        """Adopt externally tracked bucket state (checkpoint restore)."""
        if len(counts) != len(self._counts):
            raise ValueError(
                f"histogram {self.name} restore needs {len(self._counts)} buckets, "
                f"got {len(counts)}"
            )
        with self._lock:
            self._counts = [int(c) for c in counts]
            self._count = sum(self._counts)
            self._sum = float(total_sum)
            self._min = float(minimum) if self._count else math.inf
            self._max = float(maximum) if self._count else -math.inf


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class MetricRegistry:
    """Thread-safe collection of instruments plus lazy collectors.

    ``counter``/``gauge``/``histogram`` get-or-create instruments shared
    by everyone asking for the same ``(name, labels)``; ``register``
    attaches a component-owned instrument and keeps a strong reference
    to it for the registry's lifetime (adopted worker series have no
    other owner). ``collect`` runs any registered collector callbacks
    (e.g. the nn plan-cache mirror), then returns every live series with
    same-key series merged: counters and histograms sum, gauges keep the
    most recently registered writer.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._shared: dict[tuple[str, str, LabelItems], _Instrument] = {}
        self._owned: list[_Instrument] = []
        self._collectors: dict[str, Callable[[], None]] = {}

    # -- get-or-create shared instruments --------------------------------------

    def _get_or_create(self, cls: type, name: str, help: str, labels, **kwargs) -> Any:
        key = (cls.kind, name, _freeze_labels(labels))
        with self._lock:
            inst = self._shared.get(key)
            if inst is None:
                for other_kind in ("counter", "gauge", "histogram"):
                    if other_kind != cls.kind and (other_kind, name, key[2]) in self._shared:
                        raise TypeError(
                            f"metric {name!r} already registered as a {other_kind}"
                        )
                inst = cls(name, help, labels, **kwargs)
                self._shared[key] = inst
            return inst

    def counter(self, name: str, help: str = "", labels: Mapping[str, Any] | None = None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, Any] | None = None,
        callback: Callable[[], float] | None = None,
    ) -> Gauge:
        gauge = self._get_or_create(Gauge, name, help, labels)
        if callback is not None:
            gauge._callback = callback
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, Any] | None = None,
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    # -- component-owned instruments -------------------------------------------

    def register(self, instrument: _Instrument) -> _Instrument:
        """Attach an instrument, held strongly (merged by key at collect)."""
        with self._lock:
            self._owned.append(instrument)
        return instrument

    def add_collector(self, fn: Callable[[], None], name: str | None = None) -> None:
        """Run ``fn`` before every collection; same ``name`` replaces."""
        with self._lock:
            self._collectors[name or f"collector-{id(fn)}"] = fn

    def adopt_series(self, series: Any) -> int:
        """Reconstruct snapshot series as owned instruments and register them.

        The merge half of cross-process observability: a worker process
        snapshots its registry (plain dicts), ships the series over the
        pool boundary, and the parent adopts them here. Adopted
        instruments merge with same-key native ones at collect time
        exactly like any other registered instrument — counters and
        histogram buckets sum across workers. Unknown kinds and
        malformed entries are skipped; returns how many were adopted.
        """
        adopted = 0
        for entry in series:
            try:
                kind = entry["kind"]
                name = entry["name"]
                labels = dict(entry.get("labels") or {})
                help_text = entry.get("help", "")
                inst: _Instrument
                if kind == "counter":
                    inst = Counter(name, help_text, labels)
                    inst.restore(float(entry["value"]))
                elif kind == "gauge":
                    inst = Gauge(name, help_text, labels)
                    inst.set(float(entry["value"]))
                elif kind == "histogram":
                    inst = Histogram(name, help_text, labels,
                                     buckets=tuple(entry["bounds"]))
                    if entry.get("count"):
                        inst.restore(
                            [int(c) for c in entry["bucket_counts"]],
                            float(entry["sum"]),
                            float(entry["min"]),
                            float(entry["max"]),
                        )
                else:
                    continue
            except (KeyError, TypeError, ValueError):
                continue
            self.register(inst)
            adopted += 1
        return adopted

    # -- collection -------------------------------------------------------------

    def _live_instruments(self) -> list[_Instrument]:
        with self._lock:
            return list(self._shared.values()) + list(self._owned)

    def collect(self) -> list[dict[str, Any]]:
        """Aggregated series, sorted by (name, labels) for stable output."""
        for fn in list(self._collectors.values()):
            fn()
        merged: dict[tuple[str, str, LabelItems], dict[str, Any]] = {}
        for inst in self._live_instruments():
            entry = merged.get(inst.key)
            if inst.kind == "counter":
                if entry is None:
                    merged[inst.key] = self._series(inst, value=inst.value)
                else:
                    entry["value"] += inst.value
            elif inst.kind == "gauge":
                if entry is None:
                    merged[inst.key] = self._series(inst, value=inst.value)
                else:
                    entry["value"] = inst.value  # later registration wins
            else:
                self._merge_histogram(merged, inst)
        return sorted(merged.values(), key=lambda s: (s["name"], s["labels"]))

    @staticmethod
    def _series(inst: _Instrument, **extra: Any) -> dict[str, Any]:
        return {"kind": inst.kind, "name": inst.name, "help": inst.help,
                "labels": inst.labels, **extra}

    def _merge_histogram(self, merged: dict, inst: Histogram) -> None:
        entry = merged.get(inst.key)
        if entry is None:
            merged[inst.key] = self._series(
                inst,
                count=inst.count,
                sum=inst.sum,
                min=inst.minimum,
                max=inst.maximum,
                bounds=inst.bounds,
                bucket_counts=list(inst._counts),
                quantiles=inst.percentiles(),
                _insts=[inst],
            )
            return
        if tuple(entry["bounds"]) != inst.bounds:
            return  # incompatible bucket layout: keep the first series
        entry["count"] += inst.count
        entry["sum"] += inst.sum
        entry["min"] = min(entry["min"], inst.minimum) if inst.count else entry["min"]
        entry["max"] = max(entry["max"], inst.maximum) if inst.count else entry["max"]
        entry["bucket_counts"] = [
            a + b for a, b in zip(entry["bucket_counts"], inst._counts)
        ]
        entry["_insts"].append(inst)
        # recompute merged quantiles from the summed buckets
        pool = Histogram(inst.name, inst.help, dict(inst.labels), buckets=inst.bounds)
        pool.restore(entry["bucket_counts"], entry["sum"], entry["min"], entry["max"])
        entry["quantiles"] = pool.percentiles()

    def snapshot(self) -> dict[str, Any]:
        """Plain-data snapshot of every series (JSON-friendly)."""
        series = []
        for s in self.collect():
            s = dict(s)
            s.pop("_insts", None)
            s["labels"] = dict(s["labels"])
            series.append(s)
        return {"schema": "repro-obs/v1", "series": series}

    def clear(self) -> None:
        """Drop every instrument and collector (test isolation)."""
        with self._lock:
            self._shared.clear()
            self._owned.clear()
            self._collectors.clear()


# ---------------------------------------------------------------------------
# process-global default
# ---------------------------------------------------------------------------

_default = MetricRegistry()


def default_registry() -> MetricRegistry:
    return _default


def set_default_registry(registry: MetricRegistry) -> MetricRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _default
    previous = _default
    _default = registry
    return previous


def get_registry(registry: MetricRegistry | None = None) -> MetricRegistry:
    """Resolve an injectable registry argument (None -> the global default)."""
    return registry if registry is not None else _default


@contextmanager
def use_registry(registry: MetricRegistry | None = None) -> Iterator[MetricRegistry]:
    """Temporarily install ``registry`` (default: a fresh one) as the default."""
    registry = registry if registry is not None else MetricRegistry()
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)
