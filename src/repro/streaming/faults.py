"""Stream fault injection — the live-path twin of :mod:`repro.traces.corruption`.

``corruption.py`` damages archived traces so the offline cleaning stage
can be exercised; this module damages a *stream in flight* so the online
serving path's resilience can be. It reuses the same fault taxonomy
(missing cells, missing rows, impulse outliers, duplicated records from
at-least-once delivery) and adds the two failure modes only a live
system has: dropped records and refit crashes.

:class:`FaultInjector` wraps any iterable of monitoring records and is
fully deterministic given ``FaultConfig.seed``. Stream faults and refit
faults draw from independent generators, so how often the predictor
refits cannot change which records get corrupted — a property the
checkpoint/restore equivalence tests rely on.

A third fault family lives one level below the records: **process
faults** against the sharded fleet's worker pool.
:class:`ProcessFault` / :class:`ChaosSchedule` describe deterministic
process-level injections keyed off the fleet tick counter — a scheduled
``SIGKILL``, an indefinite hang, a slow tick, or a corrupted protocol
reply — which
:class:`~repro.streaming.shard.ShardedFleetPredictor` forwards to its
workers so the supervision loop (detect → respawn → restore) can be
exercised reproducibly. Because faults are keyed to exact tick indices
and fleet steps never repeat, every fault fires at most once, even
across worker respawns.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "InjectedFault",
    "FaultConfig",
    "FaultInjector",
    "ProcessFault",
    "ChaosSchedule",
]

#: process-fault kinds the shard worker loop understands
PROCESS_FAULT_KINDS = ("kill", "hang", "slow", "corrupt")


class InjectedFault(RuntimeError):
    """Raised by the injector's refit hook to simulate a refit crash."""


@dataclass(frozen=True)
class FaultConfig:
    """Per-record fault probabilities for a live stream.

    Rates mirror :class:`~repro.traces.corruption.CorruptionConfig`
    (``nan_cell_rate`` ↔ ``missing_cell_rate`` and so on); ``drop_rate``
    and ``refit_failure_rate`` are serving-only faults with no archived
    equivalent.
    """

    drop_rate: float = 0.0
    nan_cell_rate: float = 0.0
    nan_row_rate: float = 0.0
    duplicate_rate: float = 0.0
    outlier_rate: float = 0.0
    outlier_scale: float = 4.0
    refit_failure_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name.endswith("_rate"):
                v = getattr(self, f.name)
                if not 0.0 <= v < 1.0:
                    raise ValueError(f"{f.name} must be in [0, 1), got {v}")
        if self.outlier_scale <= 1.0:
            raise ValueError("outlier_scale must exceed 1")

    @classmethod
    def at_level(
        cls, level: float, refit_failure_rate: float = 0.0, seed: int = 0
    ) -> "FaultConfig":
        """A combined fault profile parameterized by one severity knob.

        ``level`` is the NaN-cell rate; the other stream faults scale
        proportionally (half as many drops/rows/outliers, a quarter as
        many duplicates) — the shape used by the degradation-curve
        experiment.
        """
        if not 0.0 <= level < 1.0:
            raise ValueError(f"level must be in [0, 1), got {level}")
        return cls(
            drop_rate=level / 2,
            nan_cell_rate=level,
            nan_row_rate=level / 2,
            duplicate_rate=level / 4,
            outlier_rate=level / 2,
            refit_failure_rate=refit_failure_rate,
            seed=seed,
        )


class FaultInjector:
    """Deterministically fault a record stream and (optionally) refits.

    ``stream()`` yields damaged records while logging, per emitted
    record, the index of the clean source record it came from
    (``emitted_from``) — the alignment the degradation experiments need
    to score predictions against ground truth despite drops and
    duplicates. ``refit_fault`` is a zero-argument hook to pass as
    ``OnlinePredictor(refit_fault_hook=...)``; it raises
    :class:`InjectedFault` with probability ``refit_failure_rate`` per
    refit attempt.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self._stream_rng = np.random.default_rng(config.seed)
        self._refit_rng = np.random.default_rng(config.seed + 0x5EED)
        self.emitted_from: list[int] = []
        self.counts = {
            "dropped": 0,
            "nan_cells": 0,
            "nan_rows": 0,
            "duplicated": 0,
            "outlier_records": 0,
            "refit_faults": 0,
        }

    def stream(self, records: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Yield records with faults applied; drops skip, duplicates repeat."""
        rng = self._stream_rng
        cfg = self.config
        for i, rec in enumerate(records):
            rec = np.atleast_1d(np.asarray(rec, float))
            if rng.random() < cfg.drop_rate:
                self.counts["dropped"] += 1
                continue
            out = rec.copy()
            if cfg.outlier_rate and rng.random() < cfg.outlier_rate:
                out = out * cfg.outlier_scale * rng.uniform(0.5, 1.5)
                self.counts["outlier_records"] += 1
            if cfg.nan_cell_rate:
                cells = rng.random(out.shape) < cfg.nan_cell_rate
                if cells.any():
                    out[cells] = np.nan
                    self.counts["nan_cells"] += int(cells.sum())
            if cfg.nan_row_rate and rng.random() < cfg.nan_row_rate:
                out[:] = np.nan
                self.counts["nan_rows"] += 1
            self.emitted_from.append(i)
            yield out
            if cfg.duplicate_rate and rng.random() < cfg.duplicate_rate:
                self.counts["duplicated"] += 1
                self.emitted_from.append(i)
                yield out.copy()

    def refit_fault(self) -> None:
        """Refit hook: crash this attempt with ``refit_failure_rate``."""
        if self._refit_rng.random() < self.config.refit_failure_rate:
            self.counts["refit_faults"] += 1
            raise InjectedFault("injected refit failure")


@dataclass(frozen=True)
class ProcessFault:
    """One scheduled process-level fault against a shard worker.

    ``tick`` is the fleet step (``ShardedFleetPredictor``'s zero-based
    tick counter) at which the fault fires, inside the worker, *before*
    the tick is processed. Kinds:

    * ``"kill"`` — the worker SIGKILLs itself: an abrupt crash with no
      cleanup, the hardest failure the supervisor must survive;
    * ``"hang"`` — the worker sleeps indefinitely without replying,
      modelling a deadlock/livelock; only a tick deadline detects it;
    * ``"slow"`` — the worker sleeps ``duration`` seconds, then serves
      the tick normally: a straggler, not a failure;
    * ``"corrupt"`` — the worker replies with a malformed protocol
      message instead of the tick ack, modelling memory corruption or a
      version-skewed worker.
    """

    tick: int
    shard: int = 0
    kind: str = "kill"
    #: seconds to stall for ``"slow"`` faults (ignored by other kinds)
    duration: float = 0.25

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ValueError(f"tick must be >= 0, got {self.tick}")
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if self.kind not in PROCESS_FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {PROCESS_FAULT_KINDS}, got {self.kind!r}"
            )
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")


class ChaosSchedule:
    """A deterministic, tick-indexed schedule of :class:`ProcessFault`\\ s.

    The schedule is the whole chaos harness state: no randomness, no
    clocks. Each worker receives only its own slice
    (:meth:`for_shard`) at spawn time, so a respawned worker inherits
    the same schedule and the step counter guarantees already-fired
    faults never re-fire.
    """

    def __init__(self, faults: Iterable[ProcessFault]) -> None:
        faults = tuple(faults)
        seen: set[tuple[int, int]] = set()
        for f in faults:
            key = (f.tick, f.shard)
            if key in seen:
                raise ValueError(
                    f"duplicate fault at tick {f.tick} for shard {f.shard}"
                )
            seen.add(key)
        self._faults = tuple(sorted(faults, key=lambda f: (f.tick, f.shard)))

    @property
    def faults(self) -> tuple[ProcessFault, ...]:
        """All scheduled faults, ordered by ``(tick, shard)``."""
        return self._faults

    def for_shard(self, shard: int) -> dict[int, ProcessFault]:
        """The ``tick -> fault`` map one worker needs; empty dict if none."""
        return {f.tick: f for f in self._faults if f.shard == shard}

    def max_shard(self) -> int:
        """Highest shard index referenced, or ``-1`` for an empty schedule."""
        return max((f.shard for f in self._faults), default=-1)

    @classmethod
    def kill_at(cls, tick: int, shard: int = 0) -> "ChaosSchedule":
        """The canonical single-crash scenario: SIGKILL one shard once."""
        return cls([ProcessFault(tick=tick, shard=shard, kind="kill")])

    @classmethod
    def crash_loop(cls, shard: int, start: int, until: int) -> "ChaosSchedule":
        """Kill ``shard`` at every tick in ``[start, until)`` — the
        crash-loop that must trip the supervisor's breaker."""
        if until <= start:
            raise ValueError(f"empty crash window [{start}, {until})")
        return cls(
            ProcessFault(tick=t, shard=shard, kind="kill")
            for t in range(start, until)
        )

    def __len__(self) -> int:
        return len(self._faults)

    def __repr__(self) -> str:
        return f"ChaosSchedule({list(self._faults)!r})"
