"""Process-pool execution of independent experiment units.

The paper's evaluation is an embarrassingly parallel grid: every Table II
cell is an independent (scenario, model, granularity) train/eval run, the
robustness sweep repeats cells across seeds, and ``--experiment all``
regenerates eight unrelated artifacts. This module fans those units out
to worker processes while keeping three guarantees the serial runner
already provided:

* **Bit-identical results regardless of parallelism.** A task's only
  randomness inputs are its explicit parameters (every cell carries its
  own seed; nothing reads a shared RNG stream whose position depends on
  execution order), so ``--jobs 1`` and ``--jobs N`` produce the same
  bytes. :func:`derive_seed` gives new harnesses a stable per-task seed
  from the task key alone; the paper-table cells pin the legacy profile
  seed so the parallel grid reproduces the serial numbers exactly.
* **Failure isolation.** A task that raises — in-process or in a worker
  — becomes an error entry on its :class:`TaskResult` instead of killing
  the sweep; the runner turns error entries into a nonzero exit code.
* **Observability across the pool boundary.** Workers run with a fresh
  metric registry and tracer, serialize their finished spans and metric
  series, and the parent revives the spans onto its tracer and adopts
  the series into its registry — ``--metrics-out`` sees one merged view.

Workers are spawned (not forked): each child starts from a clean
interpreter, so no parent state (open instruments, BLAS thread pools,
trace stacks) can leak into a task's execution.

The pool is **persistent**: the first ``run_tasks(jobs=N)`` call spawns
the workers, and every later call with the same ``jobs`` reuses them —
spawn + interpreter + import cost is paid once per process lifetime, not
once per sweep. Tasks are dispatched in **chunks** (several tasks per
pickle round-trip) with per-task failure isolation preserved inside each
chunk; obs isolation moves to chunk granularity (a fresh registry and
tracer per chunk), which keeps the parent's merged view identical
because every chunk's series are adopted exactly once. A broken pool
(worker killed hard mid-chunk) fails only the chunks that were lost and
is disposed so the next call starts clean. Use :func:`warm_pool` to pay
the spawn/import cost ahead of a timed region, and
:func:`shutdown_pools` (also registered ``atexit``) to reap workers.
"""

from __future__ import annotations

import atexit
import hashlib
import importlib
import os
import time
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Callable, Sequence

from ..obs import registry as obs_registry
from ..obs import trace as obs_trace
from ..obs.registry import MetricRegistry, get_registry
from ..obs.trace import Span

__all__ = [
    "TaskSpec",
    "TaskResult",
    "derive_seed",
    "run_tasks",
    "warm_pool",
    "shutdown_pools",
]

#: upper bound (exclusive) for derived seeds; fits every numpy seed API
_SEED_SPACE = 2**32


def derive_seed(base_seed: int, *key_parts: Any) -> int:
    """Stable per-task seed from the task key plus a base seed.

    Uses SHA-256 over the repr of the parts (never Python's randomized
    ``hash``), so the same ``(base_seed, key)`` maps to the same seed in
    every process, interpreter launch, and ``--jobs`` setting — task
    randomness depends only on the task's identity, not on how many
    sibling tasks ran before it.
    """
    material = repr((int(base_seed), *key_parts)).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big") % _SEED_SPACE


@dataclass
class TaskSpec:
    """One independent unit of experiment work.

    ``fn`` is a dotted path to a module-level callable (so specs cross
    the process boundary without pickling closures) invoked as
    ``fn(**params)``. ``params`` must be picklable and must fully
    determine the result — including any seed — for the determinism and
    caching guarantees to hold. ``cacheable`` opts a unit out of the
    result cache (e.g. whole-experiment units that exist to print).
    """

    experiment: str
    key: tuple[Any, ...]
    fn: str
    params: dict[str, Any] = field(default_factory=dict)
    cacheable: bool = True

    @property
    def name(self) -> str:
        return "/".join([self.experiment, *(str(k) for k in self.key)])


@dataclass
class TaskResult:
    """Outcome of one task: a value, a cache hit, or an isolated error."""

    spec: TaskSpec
    value: Any = None
    error: str | None = None
    traceback: str | None = None
    duration: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def _resolve(path: str) -> Callable[..., Any]:
    """Import ``pkg.module.attr`` and return the attribute."""
    module_name, _, attr = path.rpartition(".")
    if not module_name:
        raise ValueError(f"task fn must be a dotted module path, got {path!r}")
    return getattr(importlib.import_module(module_name), attr)


def _execute(fn_path: str, params: dict[str, Any], span_name: str) -> dict[str, Any]:
    """Run one task under a tracing span; errors are serialized, never raised."""
    t0 = time.perf_counter()
    record: dict[str, Any] = {"value": None, "error": None, "traceback": None}
    try:
        with obs_trace.span(span_name):
            record["value"] = _resolve(fn_path)(**params)
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["traceback"] = _traceback.format_exc()
    record["duration"] = time.perf_counter() - t0
    return record


def _execute_chunk_in_worker(
    items: Sequence[tuple[str, dict[str, Any], str]],
) -> dict[str, Any]:
    """Run a chunk of tasks in one dispatch, one obs scope for the chunk.

    Task failures stay isolated per item (an item that raises becomes an
    error record; its successors in the chunk still run). The worker is
    persistent, so obs state is reset at the start of every chunk — each
    chunk's spans/series therefore describe exactly that chunk and the
    parent can adopt them without double counting.
    """
    registry = obs_registry.MetricRegistry()
    obs_registry.set_default_registry(registry)
    tracer = obs_trace.default_tracer()
    tracer.clear()
    records = [_execute(fn_path, params, span_name) for fn_path, params, span_name in items]
    return {
        "records": records,
        "spans": [s.to_dict() for s in tracer.finished],
        "metrics": registry.snapshot()["series"],
    }


# -- persistent pool ---------------------------------------------------------------

#: live executors keyed by worker count; reused across ``run_tasks`` calls
_POOLS: dict[int, ProcessPoolExecutor] = {}


def _get_pool(workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn"))
        _POOLS[workers] = pool
    return pool


def _dispose_pool(workers: int) -> None:
    """Drop a (possibly broken) pool so the next call starts a fresh one."""
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Reap every persistent worker (registered ``atexit``; idempotent)."""
    for workers in list(_POOLS):
        pool = _POOLS.pop(workers)
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pools)


def _warm_worker(_index: int = 0) -> int:
    """No-op task whose unpickling imports the experiment package chain."""
    return os.getpid()


def warm_pool(jobs: int) -> list[int]:
    """Spawn the ``jobs``-worker pool now and pay its import cost up front.

    Returns the worker pids that answered. Call before a timed region so
    benchmarks measure task execution, not interpreter start-up; a no-op
    for ``jobs <= 1`` (inline execution has nothing to warm).
    """
    if jobs <= 1:
        return []
    pool = _get_pool(jobs)
    return sorted({f.result() for f in [pool.submit(_warm_worker, i) for i in range(jobs)]})


def _to_result(spec: TaskSpec, record: dict[str, Any]) -> TaskResult:
    return TaskResult(
        spec=spec,
        value=record["value"],
        error=record["error"],
        traceback=record["traceback"],
        duration=record["duration"],
    )


def run_tasks(
    tasks: Sequence[TaskSpec],
    jobs: int = 1,
    cache: Any | None = None,
    registry: MetricRegistry | None = None,
) -> list[TaskResult]:
    """Execute tasks — inline for ``jobs <= 1``, else on the persistent pool.

    Results come back in task order. With a :class:`~.cache.ResultCache`,
    each cacheable task is looked up first (hits skip execution entirely)
    and successful misses are stored after execution. Worker failures
    (including a worker that dies mid-task) are confined to the tasks
    that were in flight on the lost worker's chunk; the broken pool is
    disposed and the next call starts a fresh one.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    reg = get_registry(registry)

    def count(status: str) -> None:
        reg.counter(
            "experiment_tasks_total",
            "Experiment task executions by outcome",
            labels={"status": status},
        ).inc()

    results: list[TaskResult | None] = [None] * len(tasks)
    digests: dict[int, str] = {}
    pending: list[int] = []
    for i, spec in enumerate(tasks):
        if cache is not None and spec.cacheable:
            digest = cache.task_digest(spec)
            digests[i] = digest
            hit, value = cache.get(digest)
            if hit:
                results[i] = TaskResult(spec=spec, value=value, cached=True)
                count("cached")
                continue
        pending.append(i)

    if pending and (jobs <= 1 or len(pending) == 1):
        for i in pending:
            spec = tasks[i]
            results[i] = _to_result(spec, _execute(spec.fn, spec.params, f"task:{spec.name}"))
    elif pending:
        tracer = obs_trace.default_tracer()
        pool = _get_pool(jobs)
        # chunks small enough to load-balance (≈4 per worker), large
        # enough to amortize the per-dispatch pickle round-trip
        chunk_size = max(1, -(-len(pending) // (jobs * 4)))
        chunks = [pending[j : j + chunk_size] for j in range(0, len(pending), chunk_size)]
        futures = [
            (
                chunk,
                pool.submit(
                    _execute_chunk_in_worker,
                    [(tasks[i].fn, tasks[i].params, f"task:{tasks[i].name}") for i in chunk],
                ),
            )
            for chunk in chunks
        ]
        pool_broken = False
        for chunk, future in futures:
            try:
                payload = future.result()
            except Exception as exc:  # worker died (e.g. BrokenProcessPool)
                pool_broken = True
                for i in chunk:
                    results[i] = TaskResult(
                        spec=tasks[i],
                        error=f"{type(exc).__name__}: {exc}",
                        traceback=_traceback.format_exc(),
                    )
                continue
            for span_data in payload.get("spans") or ():
                Span.from_dict(span_data, tracer)
            reg.adopt_series(payload.get("metrics") or ())
            for i, record in zip(chunk, payload["records"]):
                results[i] = _to_result(tasks[i], record)
        if pool_broken:
            _dispose_pool(jobs)

    for i in pending:
        result = results[i]
        assert result is not None
        count("ok" if result.ok else "error")
        if cache is not None and result.ok and i in digests:
            cache.put(digests[i], result.value)
    return [r for r in results if r is not None]
