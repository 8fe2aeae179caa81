"""Lightweight function profiling hooks.

:func:`profiled` wraps a hot function so every call is counted and its
latency lands in a shared histogram keyed by function name — enough to
answer "where does serving time go" without a real profiler attached.
For functions called at very high frequency, ``sample=k`` times only
every ``k``-th call (calls are still all counted), keeping the two
clock reads off the common path.

When :func:`repro.obs.registry.set_enabled` has turned instrumentation
off, the wrapper short-circuits to the bare function call — one boolean
check of overhead.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, TypeVar

from .registry import MetricRegistry, get_registry, is_enabled, log_buckets

__all__ = ["profiled"]

F = TypeVar("F", bound=Callable[..., Any])

#: tighter-than-default buckets: profiled functions are sub-second hot paths
_PROFILE_BUCKETS = log_buckets(1e-7, 10.0, per_decade=3)


def profiled(
    fn: F | None = None,
    *,
    name: str | None = None,
    registry: MetricRegistry | None = None,
    sample: int = 1,
) -> F | Callable[[F], F]:
    """Decorator: count calls/errors and histogram the latency of ``fn``.

    Metrics (labelled ``function=<name>``, default the qualified name):

    * ``profiled_calls_total`` — every call, sampled or not;
    * ``profiled_errors_total`` — calls that raised;
    * ``profiled_seconds`` — latency of the sampled calls.

    ``registry=None`` resolves the process default *at call time*, so a
    test that installs its own registry captures the samples.
    """
    if sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")

    def decorate(func: F) -> F:
        label = name or getattr(func, "__qualname__", getattr(func, "__name__", "fn"))
        state = {"tick": 0}

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not is_enabled():
                return func(*args, **kwargs)
            reg = get_registry(registry)
            labels = {"function": label}
            reg.counter("profiled_calls_total", "calls into profiled functions", labels).inc()
            state["tick"] += 1
            if state["tick"] % sample:
                return func(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException:
                reg.counter(
                    "profiled_errors_total", "profiled calls that raised", labels
                ).inc()
                raise
            finally:
                reg.histogram(
                    "profiled_seconds",
                    "latency of profiled functions",
                    labels,
                    buckets=_PROFILE_BUCKETS,
                ).observe(time.perf_counter() - t0)

        return wrapper  # type: ignore[return-value]

    return decorate if fn is None else decorate(fn)
