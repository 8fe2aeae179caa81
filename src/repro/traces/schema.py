"""Alibaba trace v2018 schema (the paper's Table I).

The v2018 release has per-machine (``machine_usage``) and per-container
(``container_usage``) monitoring tables. This module pins the indicator
names, their meanings, and the record layouts, and defines the in-memory
containers (:class:`EntityTrace`, :class:`ClusterTrace`) the rest of the
library operates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = [
    "Indicator",
    "INDICATORS",
    "MACHINE_COLUMNS",
    "CONTAINER_COLUMNS",
    "indicator_names",
    "EntityTrace",
    "ClusterTrace",
]


@dataclass(frozen=True)
class Indicator:
    """One monitored performance indicator (a row of the paper's Table I)."""

    name: str
    meaning: str
    unit: str
    lo: float
    hi: float


#: The paper's Table I, in its published order. Bounds are the value ranges
#: the public trace reports (utilizations in percent, normalized rates in
#: [0, 100] after the trace's own normalization).
INDICATORS: tuple[Indicator, ...] = (
    Indicator("cpu_util_percent", "cpu utilization percent", "%", 0.0, 100.0),
    Indicator("mem_util_percent", "memory utilization percent", "%", 0.0, 100.0),
    Indicator("cpi", "cycles per instruction", "cycles/instr", 0.0, 15.0),
    Indicator("mem_gps", "normalized memory gigabyte per second", "norm", 0.0, 100.0),
    Indicator("mpki", "misses per kilo instructions", "misses/kI", 0.0, 100.0),
    Indicator("net_in", "normalized incoming network traffic", "norm", 0.0, 100.0),
    Indicator("net_out", "normalized outgoing network traffic", "norm", 0.0, 100.0),
    Indicator("disk_io_percent", "disk io percent", "%", 0.0, 100.0),
)

_INDICATOR_INDEX = {ind.name: i for i, ind in enumerate(INDICATORS)}


def indicator_names() -> list[str]:
    """All indicator column names, in Table I order."""
    return [ind.name for ind in INDICATORS]


#: CSV layouts of the v2018 tables (identifier columns + indicators).
MACHINE_COLUMNS: tuple[str, ...] = ("machine_id", "time_stamp", *indicator_names())
CONTAINER_COLUMNS: tuple[str, ...] = (
    "container_id",
    "machine_id",
    "time_stamp",
    *indicator_names(),
)


@dataclass
class EntityTrace:
    """Monitoring log of one entity (a machine or a container).

    ``values`` is a ``(T, n_indicators)`` float array whose columns follow
    :data:`INDICATORS` order; missing records are NaN rows (the cleaning
    stage of Algorithm 1 handles them).
    """

    entity_id: str
    kind: str  # "machine" | "container"
    timestamps: np.ndarray  # (T,) int seconds
    values: np.ndarray  # (T, n_indicators) float
    machine_id: str | None = None  # host, for containers
    workload: str = ""  # generating archetype, for provenance

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != len(INDICATORS):
            raise ValueError(
                f"values must be (T, {len(INDICATORS)}), got {self.values.shape}"
            )
        if len(self.timestamps) != len(self.values):
            raise ValueError(
                f"timestamps ({len(self.timestamps)}) and values "
                f"({len(self.values)}) length mismatch"
            )

    def __len__(self) -> int:
        return len(self.timestamps)

    def indicator(self, name: str) -> np.ndarray:
        """Column view for one indicator (no copy)."""
        try:
            return self.values[:, _INDICATOR_INDEX[name]]
        except KeyError:
            raise KeyError(
                f"unknown indicator {name!r}; known: {indicator_names()}"
            ) from None

    @property
    def cpu(self) -> np.ndarray:
        return self.indicator("cpu_util_percent")

    def complete_mask(self) -> np.ndarray:
        """True where the record has no missing (NaN) field."""
        return ~np.isnan(self.values).any(axis=1)

    def to_frame(self) -> dict[str, np.ndarray]:
        """Column-name → array mapping (a minimal dataframe substitute)."""
        out: dict[str, np.ndarray] = {"time_stamp": self.timestamps}
        for i, ind in enumerate(INDICATORS):
            out[ind.name] = self.values[:, i]
        return out


@dataclass
class ClusterTrace:
    """A full synthetic cluster trace: machines plus their containers."""

    machines: list[EntityTrace] = field(default_factory=list)
    containers: list[EntityTrace] = field(default_factory=list)
    interval_seconds: int = 10
    seed: int | None = None

    def __iter__(self) -> Iterator[EntityTrace]:
        yield from self.machines
        yield from self.containers

    def get(self, entity_id: str) -> EntityTrace:
        for e in self:
            if e.entity_id == entity_id:
                return e
        raise KeyError(f"no entity {entity_id!r} in trace")

    @property
    def n_machines(self) -> int:
        return len(self.machines)

    @property
    def n_containers(self) -> int:
        return len(self.containers)

    def machine_cpu_matrix(self) -> np.ndarray:
        """Stack machine CPU columns into ``(n_machines, T)`` (Fig. 2/3 input)."""
        if not self.machines:
            raise ValueError("trace has no machines")
        return np.stack([m.cpu for m in self.machines])
