"""Sharded multi-process fleet serving over shared-memory tick banks.

:class:`~repro.streaming.fleet.FleetPredictor` vectorizes a whole fleet
into one process; on a multi-core host that one process is the ceiling.
:class:`ShardedFleetPredictor` removes it by partitioning the N streams
of a fleet across a pool of **persistent** worker processes, each
running its own :class:`FleetPredictor` shard. Ticks are driven in
order, either under a lock-step barrier (each tick collected before the
next is sent, the default) or through a two-deep pipeline
(``pipeline=True`` or :meth:`~ShardedFleetPredictor.submit_tick` /
:meth:`~ShardedFleetPredictor.collect_tick`), which sends tick *t+1*
before tick *t* is collected, so at most two ticks are in flight:

* the coordinator writes the ``(N, F)`` tick into its bank of a
  shared-memory block (one :class:`~repro.streaming.shm.ShmBlock` whose
  seven per-tick arrays each carry a leading bank axis, one bank per
  in-flight tick) and sends each worker a constant-size control token —
  per-tick traffic over the pipes is O(shards), never O(N), and no
  record is ever pickled on the hot path;
* each worker reads its contiguous row-slice of the tick, runs its
  shard's ``process_tick``, and writes the columnar
  :class:`~repro.streaming.fleet.FleetTick` mirror (predictions,
  actuals, errors, drift, health, gate actions) back into the same
  bank;
* each worker keeps its streams' histories in its own
  :class:`FleetPredictor`'s private ring; the coordinator reads one on
  the rare path (:meth:`ShardedFleetPredictor.stream_history`, a control
  command to the owning worker);
* the whole fleet checkpoints as **one** artifact: the coordinator
  collects every shard's ``state_dict`` (rare path — the pipe is fine
  there) and composes them with the fleet config; restore rejects
  config mismatches, has every worker parse its whole shard state (the
  ``check`` command runs the parse a ``load`` runs) before any adopts
  one, so a refused snapshot loads on no shard, and resumes every shard
  bit-for-bit;
* worker observability merges on :meth:`close` through the same
  ``adopt_series`` / span-revival path the parallel experiment runner
  uses — per-shard tick-latency histograms are adopted both fleet-wide
  (same-name series sum) and under a ``shard`` label.

**Control plane:** each worker's pipe carries one request/reply shape.
The coordinator sends ``(command, arg)``; the worker answers
``(command, payload)``, or ``("error", (message, traceback))`` if the
command raised, and stays alive. Its start-up report is the reply to an
implicit ``ready`` command. :func:`_payload` validates every reply, and
one exchange (send → deadline → receive → validate) serves start-up,
the control commands, the metrics harvest and ``stop``; the tick fan-in
multiplexes the same receive over all pending pipes under one deadline.

**Exactness contract:** with ``shards=1`` every
:class:`~repro.streaming.fleet.FleetTick` is bit-identical to a
single-process :class:`FleetPredictor` fed the same ticks, including
across a mid-stream snapshot/restore (asserted in
``tests/streaming/test_shard.py``). With ``shards > 1`` the semantics
deliberately change in exactly one way: the shared model and the refit
clock become *per-shard* (shard-local pooled refits) instead of
fleet-global — the same trade the fleet made against the scalar
predictor, one level up.

**Self-healing fault tolerance:** a worker that dies or wedges (crash,
OOM-kill, ``SIGKILL``, deadlock) takes only its own streams down, and
only until the supervisor brings it back. Every coordinator↔worker
exchange observes a deadline (``tick_timeout`` on the hot path,
``control_timeout`` on the rare-path commands), so a *hung* worker is
detected as surely as a dead one; a failed worker is escalated
``terminate → kill`` so the old process can never race its replacement
on the shm rows. The supervision loop then closes detect → respawn →
restore:

* workers snapshot their shard to disk **in the background** every
  ``checkpoint_interval`` ticks (after acking the tick, so the barrier
  never stalls on I/O), through the checksummed atomic writer in
  :mod:`repro.streaming.checkpoint`;
* a failed shard is respawned with exponential backoff
  (:class:`RespawnPolicy`); the replacement re-attaches to the same shm
  block, restores from its last intact background checkpoint (a
  missing/corrupt one degrades to a cold start, never an abort), and
  rejoins the barrier;
* while a shard rebuilds, its rows **hold the last served prediction**
  flagged ``health=3`` (``RECOVERING``) instead of going NaN — degraded
  but available;
* a shard that fails ``max_failures`` times inside ``failure_window``
  ticks trips the crash-loop breaker into durable quarantine (NaN rows,
  ``health=2``, never respawned); when *every* shard is quarantined,
  :meth:`process_tick` raises :class:`AllShardsFailedError` instead of
  silently serving an all-NaN fleet forever.

The whole loop is deterministic enough to test: a
:class:`~repro.streaming.faults.ChaosSchedule` handed to the
constructor is forwarded to the workers, which kill/hang/slow/corrupt
themselves at exact tick indices.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import signal
import time
import traceback as _traceback
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path
from typing import Any

import numpy as np

from ..obs import trace as obs_trace
from ..obs.registry import Counter as MetricCounter
from ..obs.registry import Gauge as MetricGauge
from ..obs.registry import Histogram as MetricHistogram
from ..obs.registry import MetricRegistry, default_registry, get_registry, is_enabled, log_buckets
from ..obs.trace import Span
from .checkpoint import (
    CheckpointError,
    Restorable,
    parse_fields,
    parse_options,
    refused_option,
    try_read_checkpoint,
    write_checkpoint,
)
from .faults import ChaosSchedule, ProcessFault
from .fleet import FleetPredictor, FleetTick, _tick_matrix
from .online import _HEALTH_LEVEL
from .resilience import GATE_QUARANTINE, HealthStatus
from .shm import ShmArraySpec, ShmBlock

__all__ = [
    "ShardedFleetPredictor",
    "RespawnPolicy",
    "AllShardsFailedError",
    "shard_boundaries",
]

#: seconds the coordinator waits for the initial ready handshake — start-up
#: pays interpreter spawn + imports, so it gets a deadline of its own
_STARTUP_TIMEOUT = 120.0


class AllShardsFailedError(RuntimeError):
    """Every shard is quarantined — the fleet cannot serve a single row."""


@dataclass(frozen=True)
class RespawnPolicy:
    """How the supervisor brings failed shard workers back.

    A failed shard waits ``backoff_ticks`` fleet ticks before its first
    respawn, doubling per consecutive failure up to
    ``backoff_max_ticks``. The crash-loop breaker trips when
    ``max_failures`` failures land within a sliding ``failure_window``
    ticks: the shard is durably quarantined (NaN rows, never respawned)
    so a poisoned checkpoint or bad input slice cannot burn CPU forever.
    """

    max_failures: int = 3
    failure_window: int = 512
    backoff_ticks: int = 2
    backoff_max_ticks: int = 64

    def __post_init__(self) -> None:
        if self.max_failures < 1:
            raise ValueError(f"max_failures must be >= 1, got {self.max_failures}")
        if self.failure_window < 1:
            raise ValueError(f"failure_window must be >= 1, got {self.failure_window}")
        if self.backoff_ticks < 0:
            raise ValueError(f"backoff_ticks must be >= 0, got {self.backoff_ticks}")
        if self.backoff_max_ticks < self.backoff_ticks:
            raise ValueError(
                f"backoff_max_ticks ({self.backoff_max_ticks}) must be >= "
                f"backoff_ticks ({self.backoff_ticks})"
            )


def shard_boundaries(n_streams: int, shards: int) -> tuple[int, ...]:
    """Contiguous, balanced partition bounds: shard ``i`` owns ``[b[i], b[i+1])``."""
    if shards < 1 or shards > n_streams:
        raise refused_option(
            f"shards must be in [1, n_streams={n_streams}], got {shards}", "shards", "n_streams"
        )
    return tuple((i * n_streams) // shards for i in range(shards + 1))


#: tick-pipeline depth — two banks: the coordinator writes tick t+1 into
#: bank (t+1) % 2 while workers still compute tick t in bank t % 2
_TICK_BANKS = 2

#: the six columnar FleetTick output fields mirrored through shared memory
_TICK_OUT_FIELDS = ("predictions", "actuals", "errors", "drift", "health", "gated")


def _payload(index: int, command: str, reply: Any) -> Any:
    """The payload of worker ``index``'s ``(command, payload)`` reply to ``command``.

    Anything else — the worker's ``("error", (message, traceback))``
    report, a reply to another command, a reply of another shape —
    raises :class:`RuntimeError` naming the shard and the command.
    """
    pair = isinstance(reply, tuple) and len(reply) == 2
    if pair and reply[0] == command:
        return reply[1]
    if pair and reply[0] == "error" and isinstance(reply[1], tuple) and len(reply[1]) == 2:
        cause = "\n".join(map(str, reply[1]))  # the worker's message and traceback
    else:
        cause = f"corrupt {command} reply {reply!r}"
    doing = "to start" if command == "ready" else repr(command)
    raise RuntimeError(f"shard {index} failed {doing}: {cause}")


class _NoReply(RuntimeError):
    """A worker missed its reply deadline or its pipe closed: it is lost."""


def _tick_specs(n_streams: int, features: int) -> tuple[ShmArraySpec, ...]:
    """The per-tick fan-out/fan-in arrays (columnar FleetTick mirror).

    Each has a leading :data:`_TICK_BANKS` axis: step ``t`` uses bank
    ``block[name][t % _TICK_BANKS]``. The per-shard ``refit`` flag and
    ``model_version`` travel in the tick ack token instead (so swap
    adoption is event-driven, not a barrier read).
    """
    rows = (_TICK_BANKS, n_streams)
    return (
        ShmArraySpec("ticks_in", (*rows, features), "<f8"),
        ShmArraySpec("predictions", rows, "<f8"),
        ShmArraySpec("actuals", rows, "<f8"),
        ShmArraySpec("errors", rows, "<f8"),
        ShmArraySpec("drift", rows, "|b1"),
        ShmArraySpec("health", rows, "|u1"),
        ShmArraySpec("gated", rows, "|i1"),
    )


def _commands(conn: Any) -> Iterator[tuple[str, Any]]:
    """A worker's commands: the implicit ``ready``, then each one received."""
    yield "ready", None
    while True:
        try:
            command = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        yield command


def _shard_worker(
    conn: Any,
    shm_name: str,
    specs: tuple[ShmArraySpec, ...],
    shard_index: int,
    lo: int,
    hi: int,
    fleet_kwargs: dict[str, Any],
    restore_path: str | None = None,
    checkpoint_path: str | None = None,
    checkpoint_interval: int | None = None,
    chaos: dict[int, ProcessFault] | None = None,
) -> None:
    """Worker loop: one persistent process serving streams ``[lo, hi)``.

    Runs in a spawned child with a clean interpreter. All per-tick data
    moves through the attached shm block; the pipe carries only control
    tokens and the rare state/metrics payloads. The tick arrays are
    double-buffered: step ``t`` reads its input from (and writes its
    outputs to) bank ``t % 2``, so the coordinator can stage tick t+1
    while this worker still computes tick t. The tick ack carries the
    shard's ``refit`` flag and live ``model_version`` so the coordinator
    adopts async-refit swaps on the ack itself, not at a barrier read.

    Every command is answered from one of two sites: ``(command,
    payload)`` on success, ``("error", (message, traceback))`` when it
    raised. The first command is an implicit ``ready``; a worker that
    fails it reports the error and exits. ``restore_path`` (set on
    supervised respawn) is a best-effort background checkpoint: intact
    → resume from it, and the ready payload is its step; missing,
    corrupt or refused → cold start, payload ``None``. ``chaos`` maps
    exact fleet steps to scheduled process faults; the step in each tick
    token keys the lookup, so a respawned worker never re-fires a fault
    the fleet already absorbed.
    """
    c_ckpt = c_ckpt_fail = None
    if checkpoint_path is not None and checkpoint_interval:
        reg = default_registry()
        c_ckpt = reg.counter(
            "serving_shard_checkpoints_total", "background shard checkpoints written"
        )
        c_ckpt_fail = reg.counter(
            "serving_shard_checkpoint_failures_total",
            "background shard checkpoint writes that failed",
        )

    predictor: FleetPredictor | None = None
    for command, arg in _commands(conn):
        try:
            if command == "ready":
                block = ShmBlock.attach(specs, shm_name)
                predictor = FleetPredictor(hi - lo, **fleet_kwargs)
                payload = None  # the step of the checkpoint resumed; None = cold
                saved = try_read_checkpoint(restore_path) if restore_path else None
                if isinstance(saved, dict) and (
                    saved.get("kind"), saved.get("lo"), saved.get("hi")
                ) == ("fleet_shard", lo, hi):
                    # a refused snapshot leaves the cold predictor as it was
                    with contextlib.suppress(CheckpointError, KeyError, TypeError, ValueError):
                        step = int(saved["step"])
                        predictor.load_state_dict(saved["state"])
                        payload = step
            elif command == "tick":
                fault = chaos.get(arg) if chaos else None
                if fault is not None:
                    if fault.kind == "kill":
                        # abrupt death, no cleanup — the hardest failure mode
                        if hasattr(signal, "SIGKILL"):
                            os.kill(os.getpid(), signal.SIGKILL)
                        os._exit(1)
                    if fault.kind == "hang":
                        time.sleep(3600.0)
                        continue
                    if fault.kind == "corrupt":
                        conn.send(("garbage", arg, "chaos: corrupted tick reply"))
                        continue
                    if fault.kind == "slow":
                        time.sleep(fault.duration)
                bank = arg % _TICK_BANKS
                result = predictor.process_tick(np.array(block["ticks_in"][bank, lo:hi]))
                for field in _TICK_OUT_FIELDS:
                    block[field][bank, lo:hi] = getattr(result, field)
                # the ack is the event that publishes this shard's refit flag
                # and model version — the coordinator adopts them on receipt
                payload = (arg, int(result.refit), int(result.model_version))
            elif command == "history":
                payload = predictor.buffer.view(arg)
            elif command == "state":
                payload = predictor.state_dict()
            elif command == "check":
                predictor.parse_state(arg)  # parse exactly what a load would; commit nothing
                payload = None
            elif command == "load":
                predictor.load_state_dict(arg)
                payload = None
            elif command == "stats":
                st = predictor.stats
                payload = {
                    "streams": hi - lo,
                    "n_predictions": int(st.n_predictions.sum()),
                    "sum_abs_error": float(st.sum_abs_error.sum()),
                    "n_refits": int(st.n_refits),
                    "n_refit_failures": int(st.n_refit_failures),
                    "n_drifts": int(st.n_drifts.sum()),
                    "n_quarantined": int(predictor.gate.n_quarantined.sum()),
                    "health": predictor.health.name,
                }
            elif command == "metrics":
                tracer = obs_trace.default_tracer()
                payload = (
                    default_registry().snapshot()["series"],
                    [s.to_dict() for s in tracer.finished],
                )
                tracer.clear()
            elif command == "stop":
                payload = None
            else:
                raise ValueError(f"unknown command {command!r}")
            conn.send((command, payload))
        except Exception as exc:  # noqa: BLE001 — report, stay alive; the coordinator decides
            try:
                conn.send(("error", (f"{type(exc).__name__}: {exc}", _traceback.format_exc())))
            except (BrokenPipeError, OSError):
                break
            if predictor is None:
                break  # failed to start: nothing to serve
            continue
        if command == "stop":
            break
        # background checkpoint AFTER the ack: the tick barrier never
        # waits on serialization or disk
        if command == "tick" and c_ckpt is not None and (arg + 1) % checkpoint_interval == 0:
            try:
                write_checkpoint(
                    checkpoint_path,
                    {
                        "kind": "fleet_shard",
                        "shard": shard_index,
                        "lo": lo,
                        "hi": hi,
                        "step": arg,
                        # which double-buffer bank this step served from —
                        # restore tooling can tell whether a snapshot raced
                        # an in-flight pipeline step
                        "bank": bank,
                        "state": predictor.state_dict(),
                    },
                )
                c_ckpt.inc()
            except Exception:  # noqa: BLE001 — checkpoint failure must not kill serving
                c_ckpt_fail.inc()
    if predictor is not None:  # release a per-shard async refit worker, if any
        with contextlib.suppress(Exception):  # shutdown best effort
            predictor.close()
    conn.close()


class _ShardHandle:
    """Coordinator-side record of one worker: process, pipe, slice, lifecycle.

    ``state`` is the supervision state machine:
    ``live`` (serving) → ``down`` (failure detected, waiting out backoff)
    → ``respawning`` (replacement spawned, ready not yet seen) → ``live``
    again on restore, or → ``quarantined`` (breaker tripped, terminal).
    ``close()`` stamps the terminal ``closed`` state.
    """

    __slots__ = (
        "index",
        "lo",
        "hi",
        "proc",
        "conn",
        "state",
        "failed_step",
        "failure_steps",
        "consecutive_failures",
        "next_respawn_step",
        "restored_step",
    )

    def __init__(self, index: int, lo: int, hi: int, proc: Any, conn: Any) -> None:
        self.index = index
        self.lo = lo
        self.hi = hi
        self.proc = proc
        self.conn = conn
        self.state = "live"
        #: fleet step at which the *current* outage began (None when live)
        self.failed_step: int | None = None
        #: recent failure steps inside the breaker window
        self.failure_steps: list[int] = []
        self.consecutive_failures = 0
        self.next_respawn_step = 0
        #: step of the checkpoint the current worker restored from (None = cold)
        self.restored_step: int | None = None


def _no_reply(handle: _ShardHandle, command: str, timeout: float | None) -> str:
    """Why ``handle``'s worker missed a deadline: hung (alive) or dead."""
    kind = "hung" if handle.proc.is_alive() else "dead"
    return f"shard {handle.index}: no {command!r} reply within {timeout}s ({kind} worker)"


def _receive(handle: _ShardHandle, command: str) -> Any:
    """Read ``handle``'s reply to ``command`` and return its validated payload."""
    try:
        reply = handle.conn.recv()
    except (EOFError, OSError) as exc:
        raise _NoReply(
            f"shard {handle.index}: pipe closed awaiting {command!r} ({exc!r})"
        ) from exc
    return _payload(handle.index, command, reply)


def _exchange(
    handle: _ShardHandle, command: str, arg: Any = None, *, timeout: float | None
) -> Any:
    """Send ``(command, arg)`` to ``handle``'s worker; return the reply's payload.

    ``ready`` is never sent — a worker reports it unasked when it has
    started. ``timeout`` seconds bound the wait for the reply (``None``
    waits for ever). Raises :class:`_NoReply` when the worker missed the
    deadline or its pipe closed, and :class:`RuntimeError` on a reply
    :func:`_payload` rejects; what either means is the caller's call.
    """
    try:
        if command != "ready":
            handle.conn.send((command, arg))
        ready = timeout is None or handle.conn.poll(timeout)
    except OSError as exc:
        raise _NoReply(
            f"shard {handle.index}: pipe closed sending {command!r} ({exc!r})"
        ) from exc
    if not ready:
        raise _NoReply(_no_reply(handle, command, timeout))
    return _receive(handle, command)


def _stop_process(handle: _ShardHandle, grace: float = 0.0) -> None:
    """Close ``handle``'s pipe; after ``grace`` seconds escalate terminate → kill.

    A hung (stopped or deadlocked) worker ignores SIGTERM, and a
    half-dead worker left attached to the shm slice could race its
    replacement.
    """
    try:
        handle.conn.close()
    except OSError:  # pragma: no cover
        pass
    proc = handle.proc
    proc.join(timeout=grace)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=2.0)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=5.0)


class _InFlightTick:
    """One dispatched-but-not-yet-composed tick of the pipeline.

    ``pending`` maps each dispatched worker's pipe to its handle until
    the ack arrives; ``acks`` collects ``shard_index -> (refit,
    model_version)`` as acks are harvested. Composition keys off
    ``acks`` — a shard that failed (or went live again) between
    dispatch and collect has no ack for this step and its rows resolve
    through the degraded path.
    """

    __slots__ = ("step", "arr", "pending", "acks", "t0")

    def __init__(self, step: int, arr: np.ndarray, t0: float) -> None:
        self.step = step
        self.arr = arr
        self.pending: dict[Any, _ShardHandle] = {}
        self.acks: dict[int, tuple[bool, int]] = {}
        self.t0 = t0


class ShardedFleetPredictor(Restorable):
    """Drive N streams through ``shards`` supervised FleetPredictor workers.

    Parameters
    ----------
    n_streams:
        Total streams in the fleet; each tick is ``(n_streams, features)``
        (or ``(n_streams,)`` univariate).
    shards:
        Worker process count; streams partition contiguously and evenly
        (:func:`shard_boundaries`). ``shards=1`` is bit-identical to a
        single-process :class:`FleetPredictor`.
    pipeline:
        ``True`` makes :meth:`run` drive a two-deep tick pipeline:
        tick *t+1* is staged into the other shm bank and dispatched
        *before* tick *t* is harvested, so coordinator-side composition
        overlaps shard compute. Predictions are bit-identical either
        way (the workers run the same computation in the same order);
        only wall-clock changes. ``False`` (default) keeps the
        historical lock-step barrier. Custom drivers can pipeline
        explicitly via :meth:`submit_tick` / :meth:`collect_tick`.
    tick_timeout:
        Seconds the coordinator budgets for one tick's whole fan-in —
        a *shared* per-tick deadline over all outstanding shards, not a
        per-shard charge, so k slow shards cost one timeout, never
        k × timeout. This is what detects a *hung* worker, not just a
        dead pipe (``None`` blocks until the pipe closes — a killed
        worker still fails fast via EOF, but a deadlocked one stalls
        the fleet).
    control_timeout:
        Deadline for the rare-path commands (``stats``/``save``/
        ``load``/``metrics``/``stream_history``); a worker that misses it is marked failed
        the same way a tick timeout does.
    respawn:
        :class:`RespawnPolicy` for supervised recovery, or ``None`` to
        disable the supervisor entirely — then any failure is terminal
        (immediate quarantine, the pre-supervision behavior).
    checkpoint_dir:
        Directory for per-shard background checkpoints
        (``shard-NNN.ckpt``). Enables background checkpointing; respawned
        workers restore from the latest intact snapshot found here.
    checkpoint_interval:
        Background checkpoint cadence in fleet ticks (default 64 when
        ``checkpoint_dir`` is set). Requires ``checkpoint_dir``.
    chaos:
        Optional :class:`~repro.streaming.faults.ChaosSchedule` of
        process faults forwarded to the workers — test harness only.
    registry:
        Parent-side :class:`~repro.obs.MetricRegistry` for coordinator
        instruments and the worker metric merge at :meth:`close`.
    fleet_kwargs:
        Every remaining keyword is forwarded verbatim to each worker's
        :class:`FleetPredictor` (``window``, ``refit_interval``,
        ``gate_policy``, ...). They must be picklable (they cross the
        spawn boundary once per worker start); ``refit_fault_hook`` is
        rejected — a live callable cannot cross process boundaries.
    """

    def __init__(
        self,
        n_streams: int,
        shards: int = 2,
        *,
        pipeline: bool = False,
        tick_timeout: float | None = 60.0,
        control_timeout: float | None = 60.0,
        respawn: RespawnPolicy | None = RespawnPolicy(),
        checkpoint_dir: str | Path | None = None,
        checkpoint_interval: int | None = None,
        chaos: ChaosSchedule | None = None,
        registry: MetricRegistry | None = None,
        **fleet_kwargs: Any,
    ) -> None:
        if n_streams < 1:
            raise refused_option(f"n_streams must be >= 1, got {n_streams}", "n_streams")
        for forbidden in ("n_streams", "registry", "refit_fault_hook"):
            if forbidden in fleet_kwargs:
                raise ValueError(
                    f"{forbidden!r} cannot be passed through to shard workers"
                )
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise refused_option(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}",
                "checkpoint_interval",
            )
        if checkpoint_interval is not None and checkpoint_dir is None:
            raise refused_option(
                "checkpoint_interval requires checkpoint_dir",
                "checkpoint_interval",
                "checkpoint_dir",
            )
        self.n_streams = n_streams
        self.shards = shards
        self.boundaries = shard_boundaries(n_streams, shards)
        self.pipeline = bool(pipeline)
        self.tick_timeout = tick_timeout
        self.control_timeout = control_timeout
        self.respawn = respawn
        if chaos is not None and chaos.max_shard() >= shards:
            raise refused_option(
                f"chaos schedule references shard {chaos.max_shard()}, fleet has {shards}",
                "chaos",
                "shards",
            )
        self.chaos = chaos
        if checkpoint_dir is not None:
            self.checkpoint_dir: Path | None = Path(checkpoint_dir)
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
            self.checkpoint_interval: int | None = (
                64 if checkpoint_interval is None else int(checkpoint_interval)
            )
        else:
            self.checkpoint_dir = None
            self.checkpoint_interval = None
        self.fleet_kwargs = dict(fleet_kwargs)
        # a kwarg left unset takes the FleetPredictor default (config
        # snapshots and shm sizing depend on it)
        params = inspect.signature(FleetPredictor).parameters
        cfg = {**{name: p.default for name, p in params.items()}, **self.fleet_kwargs}
        self.features = int(cfg["features"])
        self.target_col = int(cfg["target_col"])
        self.window = int(cfg["window"])
        self.buffer_capacity = int(cfg["buffer_capacity"])
        self.forecaster_name = str(cfg["forecaster_name"])

        self._registry = get_registry(registry)
        register = self._registry.register
        self._c_ticks, self._c_failures, self._c_respawns, self._c_quarantines = (
            register(MetricCounter(f"serving_shard_{name}_total", help))
            for name, help in (
                ("ticks", "fleet ticks driven through the shard pool"),
                ("worker_failures", "shard workers declared dead or hung by the coordinator"),
                ("respawns", "shard workers respawned by the supervisor"),
                ("quarantines", "shards durably quarantined by the crash-loop breaker"),
            )
        )
        self._g_throughput, self._g_staleness = (
            register(MetricGauge(f"serving_shard_{name}", help))
            for name, help in (
                ("records_per_sec", "instantaneous sharded-fleet throughput"),
                ("staleness_ticks",
                 "worst-case held-prediction age across recovering shards (ticks)"),
            )
        )  # fmt: skip
        self._h_latency, self._h_recovery = (
            register(MetricHistogram(f"serving_shard_{name}", help, buckets=log_buckets(*span)))
            for name, help, span in (
                ("tick_seconds", "per-tick sharded-fleet latency (fan-out + shards + fan-in)",
                 (1e-6, 10.0)),
                ("recovery_ticks", "fleet ticks from shard failure to a restored live worker",
                 (1.0, 4096.0)),
            )
        )  # fmt: skip

        self._step = 0  #: ticks composed (collected) so far
        self._submitted = 0  #: ticks dispatched to the workers so far
        self._inflight: deque[_InFlightTick] = deque()
        self._closed = False
        self.worker_failures = 0
        self.respawns = 0
        self.errors: list[str] = []
        self._last_predictions = np.full(n_streams, np.nan)
        #: ticks from the most recent shard failure to its restored worker
        self.last_recovery_ticks: int | None = None
        self._last_compose_t: float | None = None

        self._specs = _tick_specs(n_streams, self.features)
        self._block = ShmBlock.create(self._specs)
        self._block["ticks_in"][...] = np.nan

        self._ctx = get_context("spawn")
        self._handles: list[_ShardHandle] = []
        try:
            for i in range(shards):
                lo, hi = self.boundaries[i], self.boundaries[i + 1]
                proc, conn = self._spawn_worker(i, lo, hi, restore=False)
                self._handles.append(_ShardHandle(i, lo, hi, proc, conn))
            for h in self._handles:
                h.restored_step = _exchange(h, "ready", timeout=_STARTUP_TIMEOUT)
        except Exception:
            self.close(collect_metrics=False)
            raise

    # -- lifecycle --------------------------------------------------------------

    def __enter__(self) -> "ShardedFleetPredictor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover — GC safety net
        try:
            self.close(collect_metrics=False)
        except Exception:  # noqa: BLE001
            pass

    def _checkpoint_path(self, index: int) -> Path | None:
        if self.checkpoint_dir is None:
            return None
        return self.checkpoint_dir / f"shard-{index:03d}.ckpt"

    def _spawn_worker(
        self, index: int, lo: int, hi: int, restore: bool
    ) -> tuple[Any, Any]:
        """Start one worker process; returns ``(proc, parent_conn)``."""
        ckpt = self._checkpoint_path(index)
        restore_path = None
        if restore and ckpt is not None and ckpt.exists():
            restore_path = str(ckpt)
        chaos = (self.chaos.for_shard(index) or None) if self.chaos is not None else None
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(
                child_conn,
                self._block.name,
                self._specs,
                index,
                lo,
                hi,
                self.fleet_kwargs,
                restore_path,
                str(ckpt) if ckpt is not None else None,
                self.checkpoint_interval,
                chaos,
            ),
            daemon=True,
            name=f"fleet-shard-{index}",
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    @property
    def failed_shards(self) -> tuple[int, ...]:
        """Indices of shards whose worker is not currently live."""
        return tuple(h.index for h in self._handles if h.state != "live")

    @property
    def recovering_shards(self) -> tuple[int, ...]:
        """Shards that are down but still eligible for supervised recovery."""
        return tuple(
            h.index for h in self._handles if h.state in ("down", "respawning")
        )

    @property
    def quarantined_shards(self) -> tuple[int, ...]:
        """Shards the crash-loop breaker has durably taken out of service."""
        return tuple(h.index for h in self._handles if h.state == "quarantined")

    # -- failure handling / supervision -------------------------------------------

    def _mark_failed(self, handle: _ShardHandle, reason: str) -> None:
        if handle.state not in ("live", "respawning"):
            return
        handle.state = "down"
        self.worker_failures += 1
        self._c_failures.inc()
        msg = f"shard {handle.index} (streams [{handle.lo}, {handle.hi})) failed: {reason}"
        self.errors.append(msg)
        if len(self.errors) > 64:
            del self.errors[:-64]
        _stop_process(handle)
        if handle.failed_step is None:
            handle.failed_step = self._step
        handle.failure_steps.append(self._step)
        policy = self.respawn
        if policy is not None:
            cutoff = self._step - policy.failure_window
            handle.failure_steps = [s for s in handle.failure_steps if s > cutoff]
        handle.consecutive_failures += 1
        if policy is None or len(handle.failure_steps) >= policy.max_failures:
            handle.state = "quarantined"
            handle.failed_step = None
            self._c_quarantines.inc()
        else:
            delay = min(
                policy.backoff_ticks * 2 ** (handle.consecutive_failures - 1),
                policy.backoff_max_ticks,
            )
            handle.next_respawn_step = self._step + delay

    def _supervise(self) -> None:
        """One supervision pass: respawn due shards, absorb ready workers.

        Runs at the top of every :meth:`process_tick`; never blocks —
        ready handshakes are polled with a zero timeout, so a shard that
        is still importing numpy simply stays ``respawning`` (held rows)
        for another tick.
        """
        if self.respawn is None:
            return
        for h in self._handles:
            if h.state == "down" and self._step >= h.next_respawn_step:
                h.state = "respawning"
                self.respawns += 1
                self._c_respawns.inc()
                try:
                    h.proc, h.conn = self._spawn_worker(
                        h.index, h.lo, h.hi, restore=True
                    )
                except Exception as exc:  # noqa: BLE001 — spawn itself can fail
                    self._mark_failed(h, f"respawn failed: {exc}")
                    continue
            if h.state == "respawning":
                if not h.conn.poll(0) and h.proc.is_alive():
                    continue  # still starting: its rows stay held another tick
                try:
                    h.restored_step = _exchange(h, "ready", timeout=0)
                except RuntimeError as exc:
                    self._mark_failed(h, str(exc))
                    continue
                # recovery accounting is pure bookkeeping; only the histogram
                # observation is conditional on obs — a disabled registry must
                # never change supervision state or recovery-tick arithmetic
                if h.failed_step is not None:
                    self.last_recovery_ticks = self._step - h.failed_step
                    if is_enabled():
                        self._h_recovery.observe(float(self.last_recovery_ticks))
                h.state = "live"
                h.consecutive_failures = 0
                h.failed_step = None

    def _live(self) -> list[_ShardHandle]:
        if self._closed:
            raise RuntimeError("ShardedFleetPredictor is closed")
        return [h for h in self._handles if h.state == "live"]

    # -- serving ----------------------------------------------------------------

    @property
    def inflight(self) -> int:
        """Ticks dispatched but not yet collected (0 outside a pipeline)."""
        return len(self._inflight)

    def _assert_no_inflight(self, what: str) -> None:
        if self._inflight:
            raise RuntimeError(
                f"{what} requires an idle tick pipeline; "
                f"{len(self._inflight)} tick(s) in flight — collect_tick() first"
            )

    def submit_tick(self, tick: np.ndarray) -> int:
        """Stage one tick into the next shm bank and dispatch it; returns its step.

        At most :data:`_TICK_BANKS` ticks may be in flight — a third
        submit would overwrite the bank the oldest outstanding tick is
        still being computed in. Raises :class:`AllShardsFailedError`
        once every shard is quarantined.
        """
        if self._closed:
            raise RuntimeError("ShardedFleetPredictor is closed")
        if len(self._inflight) >= _TICK_BANKS:
            raise RuntimeError(
                f"tick pipeline is full ({_TICK_BANKS} in flight) — "
                "collect_tick() before submitting more"
            )
        self._supervise()
        live = [h for h in self._handles if h.state == "live"]
        if not live and all(h.state == "quarantined" for h in self._handles):
            recent = "; ".join(self.errors[-3:])
            raise AllShardsFailedError(
                f"all {self.shards} shards are quarantined after repeated "
                f"failures — refusing to serve an all-NaN fleet (recent: {recent})"
            )
        arr = _tick_matrix(tick, self.n_streams, self.features)
        step = self._submitted
        entry = _InFlightTick(step, arr, time.perf_counter())
        self._block["ticks_in"][step % _TICK_BANKS] = arr
        for h in live:
            try:
                h.conn.send(("tick", step))
                entry.pending[h.conn] = h
            except OSError as exc:
                self._mark_failed(h, f"pipe closed on dispatch ({exc!r})")
        self._inflight.append(entry)
        self._submitted += 1
        return step

    def _fan_in(self, entry: _InFlightTick) -> None:
        """Harvest every outstanding ack of ``entry`` under one shared deadline.

        ``multiprocessing.connection.wait`` multiplexes all pending
        pipes, so fast shards are absorbed the moment they ack and slow
        ones burn down *one* per-tick budget concurrently — the
        worst case is ``tick_timeout``, never ``shards × tick_timeout``.
        """
        # a shard that failed — or was respawned onto a fresh pipe — since
        # dispatch cannot ack this step anymore; its rows resolve through
        # the degraded path (conn identity catches the respawn case)
        pending = {
            c: h
            for c, h in entry.pending.items()
            if h.state == "live" and h.conn is c
        }
        deadline = (
            None if self.tick_timeout is None else entry.t0 + self.tick_timeout
        )
        while pending:
            remaining = None if deadline is None else deadline - time.perf_counter()
            if remaining is not None and remaining <= 0:
                for h in pending.values():
                    self._mark_failed(h, _no_reply(h, "tick", self.tick_timeout))
                return
            for conn in _conn_wait(list(pending), remaining):
                h = pending.pop(conn)
                try:
                    step, refit, version = _receive(h, "tick")
                    if step != entry.step:
                        raise RuntimeError(f"tick ack for step {step!r}, expected {entry.step}")
                except (RuntimeError, TypeError, ValueError) as exc:  # lost, or a bad ack
                    self._mark_failed(h, str(exc))
                    continue
                # the shard's live model version lands with its ack — async
                # refit swaps are adopted event-driven, not at a barrier read
                entry.acks[h.index] = (bool(refit), int(version))

    def collect_tick(self) -> FleetTick:
        """Harvest and compose the oldest in-flight tick.

        Rows of a shard under supervised recovery hold the last served
        prediction (``health=3``, RECOVERING); rows of a quarantined
        shard are NaN (``health=2``). A shard that died with this tick
        in flight resolves the same way — every in-flight step it was
        dispatched degrades, none is silently dropped.
        """
        if self._closed:
            raise RuntimeError("ShardedFleetPredictor is closed")
        if not self._inflight:
            raise RuntimeError("no tick in flight — submit_tick() first")
        entry = self._inflight.popleft()
        self._fan_in(entry)

        bank = entry.step % _TICK_BANKS
        predictions, actuals, errors, drift, health, gated = (
            self._block[field][bank].copy() for field in _TICK_OUT_FIELDS
        )
        served_mask = np.zeros(self.n_streams, dtype=bool)
        refit = False
        staleness = 0
        # each shard refits independently, so per-shard versions diverge; the
        # composed tick reports the *minimum* across acked shards — the most
        # conservative "every stream is served by at least this version"
        acked_versions: list[int] = []
        for h in self._handles:
            sl = slice(h.lo, h.hi)
            ack = entry.acks.get(h.index)
            if ack is not None:
                served_mask[sl] = True
                refit = refit or ack[0]
                acked_versions.append(ack[1])
            else:
                # a quarantined shard's rows go NaN; a recovering (down /
                # respawning / freshly-respawned) shard's hold the last prediction
                quarantined = h.state == "quarantined"
                predictions[sl] = np.nan if quarantined else self._last_predictions[sl]
                actuals[sl] = entry.arr[sl, self.target_col]
                errors[sl] = np.abs(predictions[sl] - actuals[sl])
                drift[sl] = False
                health[sl] = _HEALTH_LEVEL[
                    HealthStatus.FALLBACK if quarantined else HealthStatus.RECOVERING
                ]
                gated[sl] = GATE_QUARANTINE
                if not quarantined and h.failed_step is not None:
                    staleness = max(staleness, entry.step - h.failed_step + 1)
        upd = served_mask & np.isfinite(predictions)
        self._last_predictions[upd] = predictions[upd]

        # serving bookkeeping runs unconditionally — only the instrument
        # writes below are gated on obs, so a disabled registry can never
        # skew step, staleness or recovery-tick accounting
        self._step += 1
        now = time.perf_counter()
        elapsed = now - entry.t0
        # pipelined ticks overlap, so per-tick wall clock is the compose-to-
        # compose gap; the submit-to-collect elapsed is the serving latency
        gap = elapsed if self._last_compose_t is None else now - self._last_compose_t
        self._last_compose_t = now
        if is_enabled():
            self._h_latency.observe(elapsed)
            self._c_ticks.inc()
            self._g_staleness.set(float(staleness))
            if gap > 0:
                self._g_throughput.set(self.n_streams / gap)
        return FleetTick(
            step=entry.step,
            predictions=predictions,
            actuals=actuals,
            errors=errors,
            refit=refit,
            drift=drift,
            health=health,
            gated=gated,
            model_version=min(acked_versions) if acked_versions else 0,
        )

    def process_tick(self, tick: np.ndarray) -> FleetTick:
        """One fleet step across every live shard (submit + collect barrier).

        See :meth:`collect_tick` for the degraded-row semantics. Cannot
        be interleaved with an explicitly pipelined submit — collect
        outstanding ticks first.
        """
        self._assert_no_inflight("process_tick")
        self.submit_tick(tick)
        return self.collect_tick()

    def run(self, ticks: np.ndarray) -> list[FleetTick]:
        """Process a ``(T, n_streams[, features])`` tick matrix sequentially.

        One submit/collect loop keeps ``depth`` ticks in flight: 1 is
        the barrier loop; with ``pipeline=True`` it is 2, so tick *t+1*
        is staged and dispatched before tick *t* is harvested,
        overlapping coordinator-side composition with shard compute.
        Outputs are bit-identical either way.
        """
        ticks = np.asarray(ticks, float)
        if ticks.ndim == 2 and self.features == 1:
            ticks = ticks[:, :, None]
        depth = 2 if self.pipeline else 1
        with obs_trace.span("serving.shard_run") as sp:
            self._assert_no_inflight("run")
            out = []
            try:
                for t in ticks:
                    self.submit_tick(t)
                    if len(self._inflight) >= depth:
                        out.append(self.collect_tick())
                while self._inflight:
                    out.append(self.collect_tick())
            except BaseException:
                self._drain_inflight()
                raise
            sp.add("ticks", len(out))
            sp.add("records", len(out) * self.n_streams)
            sp.add("pipeline", self.pipeline)
        return out

    def _drain_inflight(self) -> None:
        """Harvest and discard every outstanding tick ack (error paths + close).

        Each in-flight tick goes through the same fan-in as
        :meth:`collect_tick`, so a worker that misses its tick deadline
        is marked failed; what stays live has an empty pipe, and later
        control traffic (metrics harvest, ``stop``) cannot mistake a
        stale tick ack for its reply.
        """
        while self._inflight:
            self._fan_in(self._inflight.popleft())

    def stream_history(self, stream: int) -> np.ndarray:
        """One stream's buffered records, oldest first (a copy).

        A rare-path control command to the worker that owns the stream,
        not a zero-copy read: like :meth:`stats` and :meth:`save` it
        needs an idle tick pipeline and a live owning shard.
        """
        if self._closed:
            raise RuntimeError("ShardedFleetPredictor is closed")
        if not 0 <= stream < self.n_streams:
            raise IndexError(f"stream must be in [0, {self.n_streams}), got {stream}")
        h = next(h for h in self._handles if stream < h.hi)
        return self._request(h, "history", stream - h.lo)

    # -- introspection -----------------------------------------------------------

    def _request(self, handle: _ShardHandle, command: str, arg: Any = None) -> Any:
        """Run one control command on a live worker and return its payload.

        Every control exchange observes ``control_timeout``: a worker
        that misses the deadline (or whose pipe closed) is classified
        hung/dead, escalated and marked failed exactly like a tick
        timeout — no control path can wedge the coordinator. A command
        the worker reports as failed raises and leaves it live.
        """
        # a control recv while a tick is in flight would swallow the tick
        # ack (both travel the same pipe) — the pipeline must be idle
        self._assert_no_inflight(f"control command {command!r}")
        if handle.state != "live":
            raise RuntimeError(
                f"shard {handle.index} is {handle.state}; "
                f"control command {command!r} needs a live worker"
            )
        try:
            return _exchange(handle, command, arg, timeout=self.control_timeout)
        except _NoReply as exc:
            self._mark_failed(handle, str(exc))
            raise

    def stats(self) -> dict[str, Any]:
        """Fleet-wide serving statistics plus per-shard detail and failures."""
        self._assert_no_inflight("stats")
        per_shard: list[dict[str, Any]] = []
        totals = {"n_predictions": 0, "sum_abs_error": 0.0, "n_refits": 0,
                  "n_refit_failures": 0, "n_drifts": 0, "n_quarantined": 0}
        for h in self._handles:
            payload = None
            if h.state == "live":
                with contextlib.suppress(RuntimeError):
                    payload = self._request(h, "stats")
            if payload is None:
                per_shard.append(
                    {"shard": h.index, "streams": h.hi - h.lo, "ok": False,
                     "state": h.state}
                )
                continue
            per_shard.append({"shard": h.index, "ok": True, "state": "live",
                              "restored_step": h.restored_step, **payload})
            for key in totals:
                totals[key] += payload[key]
        fleet_mae = totals["sum_abs_error"] / max(totals["n_predictions"], 1)
        return {
            "n_streams": self.n_streams,
            "shards": self.shards,
            "step": self._step,
            "worker_failures": self.worker_failures,
            "respawns": self.respawns,
            "failed_shards": list(self.failed_shards),
            "recovering_shards": list(self.recovering_shards),
            "quarantined_shards": list(self.quarantined_shards),
            "errors": list(self.errors),
            "fleet_mae": fleet_mae,
            **totals,
            "per_shard": per_shard,
        }

    # -- checkpoint / restore ----------------------------------------------------

    _CHECKPOINT_KIND = "sharded_fleet_predictor"
    _IDENTITY = ("n_streams", "shards", "boundaries", "features", "window",
                 "buffer_capacity", "forecaster_name")
    #: identity entries derived from the fleet options, not passed to the constructor
    _DERIVED = ("features", "window", "buffer_capacity", "forecaster_name")

    def _config(self) -> dict[str, Any]:
        return {
            "n_streams": self.n_streams,
            "shards": self.shards,
            "boundaries": list(self.boundaries),
            "features": self.features,
            "window": self.window,
            "buffer_capacity": self.buffer_capacity,
            "forecaster_name": self.forecaster_name,
            "tick_timeout": self.tick_timeout,
            "control_timeout": self.control_timeout,
            "respawn": self.respawn,
            "checkpoint_dir": (
                str(self.checkpoint_dir) if self.checkpoint_dir is not None else None
            ),
            "checkpoint_interval": self.checkpoint_interval,
            "pipeline": self.pipeline,
            "fleet_kwargs": dict(self.fleet_kwargs),
        }

    def save(self, path: str | Path) -> None:
        """Compose every shard's state into one crash-safe fleet snapshot.

        Refuses to checkpoint a degraded fleet: a snapshot missing a
        shard could silently restore a smaller fleet.
        """
        self._assert_no_inflight("save")
        if self.failed_shards:
            raise RuntimeError(
                f"cannot checkpoint with failed shards {list(self.failed_shards)}"
            )
        shard_states = [self._request(h, "state") for h in self._live()]
        write_checkpoint(
            path,
            {
                "kind": self._CHECKPOINT_KIND,
                "state": {
                    "config": self._config(),
                    "step": self._step,
                    "shard_states": shard_states,
                },
            },
        )

    def load_state(self, state: dict[str, Any]) -> None:
        """Adopt a composed snapshot; every shard must match its saved config.

        The envelope (config identity, ``step``, ``shard_states``) is read
        first. Then every worker parses its shard state (``check``)
        before any worker adopts one (``load``), so a snapshot that any
        shard refuses raises :class:`CheckpointError` and leaves the
        whole fleet as it was.
        """
        try:
            self._check_identity(state["config"])
            step = parse_fields(state, {"step": self._step}, "sharded checkpoint")["step"]
            shard_states = list(state["shard_states"])
        except Exception as exc:  # noqa: BLE001 — reading writes nothing: any fault refuses
            raise CheckpointError(f"sharded checkpoint refused: {type(exc).__name__}: {exc}") from exc
        if self.failed_shards:
            raise CheckpointError(
                f"cannot load a fleet snapshot with failed shards "
                f"{list(self.failed_shards)}"
            )
        if len(shard_states) != self.shards:
            raise CheckpointError(
                f"snapshot holds {len(shard_states)} shard states, need {self.shards}"
            )
        live_handles = self._live()
        for command in ("check", "load"):
            for h, shard_state in zip(live_handles, shard_states):
                try:
                    self._request(h, command, shard_state)
                except RuntimeError as exc:
                    raise CheckpointError(str(exc)) from exc
        self._step = step
        self._submitted = self._step
        self._last_compose_t = None
        self._last_predictions[:] = np.nan

    @classmethod
    def _options(cls, config: dict[str, Any]) -> dict[str, Any]:
        """The coordinator's options plus the fleet options, each checked.

        The derived identity entries are checked like fleet options and
        then dropped (:meth:`load_state` compares their values).
        """
        fleet = parse_options(FleetPredictor, config.pop("fleet_kwargs", {}))
        parse_options(FleetPredictor, {key: config.pop(key) for key in cls._DERIVED})
        del config["boundaries"]
        return {**fleet, **super()._options(config)}

    _load = load_state

    def _discard(self) -> None:
        self.close(collect_metrics=False)

    # -- observability merge / shutdown ------------------------------------------

    def _harvest_metrics(self, handle: _ShardHandle) -> None:
        """Adopt one worker's metric series and revive its spans (best effort)."""
        timeout = 30.0 if self.control_timeout is None else self.control_timeout
        try:
            series, spans = _exchange(handle, "metrics", timeout=timeout)
        except RuntimeError:
            return
        self._registry.adopt_series(series)
        labeled = []
        for entry in series:
            if entry.get("name") == "serving_fleet_tick_seconds":
                entry = dict(entry)
                entry["labels"] = {
                    **dict(entry.get("labels") or {}),
                    "shard": str(handle.index),
                }
                labeled.append(entry)
        if labeled:
            self._registry.adopt_series(labeled)
        tracer = obs_trace.default_tracer()
        for span_data in spans:
            Span.from_dict(span_data, tracer)

    def close(self, collect_metrics: bool = True) -> None:
        """Stop every worker, merge their metrics, release the shm segment.

        Live workers get a graceful stop (metrics harvest + ``stop``
        handshake + bounded join); anything else — down, respawning,
        quarantined — is escalated terminate → kill so close never
        blocks on a worker that cannot answer.
        """
        if self._closed:
            return
        # absorb outstanding tick acks first — the metrics harvest and the
        # stop handshake share the pipes, and a queued tick ack would be
        # mistaken for their replies
        if getattr(self, "_inflight", None):
            self._drain_inflight()
        self._closed = True
        for h in getattr(self, "_handles", []):
            graceful = h.state == "live"
            if graceful:
                if collect_metrics:
                    self._harvest_metrics(h)
                with contextlib.suppress(RuntimeError):
                    _exchange(h, "stop", timeout=5.0)
            h.state = "closed"
            _stop_process(h, grace=5.0 if graceful else 0.0)
        if getattr(self, "_block", None) is not None:
            self._block.close()
            self._block = None
