"""Nestable tracing spans with a deterministic-clock hook.

A :func:`span` context manager times a named region and links it into an
in-memory trace tree: nested spans become children, each span knows its
wall time and *own* time (wall minus children), and a body that raises
closes the span with ``status="error"`` before the exception propagates.
Finished root spans accumulate in a bounded ring on the tracer, so a
long-running server never grows its trace memory without bound.

Spans sit on per-record serving paths, so the hot path is deliberately
lean: a :class:`Span` is its own context manager (no generator frame, no
wrapper object), its counter dict and child list are allocated lazily,
and each span keeps at most :attr:`Tracer.max_children` children — the
rest are still timed (``child_time`` makes :attr:`Span.own_time` exact)
but only counted, so a million-record stream cannot balloon the tree.

Time comes from a swappable module clock (default
``time.perf_counter``); tests install a fake via :func:`set_clock` /
:func:`use_clock` to make durations exact instead of flaky.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "span",
    "default_tracer",
    "set_enabled",
    "set_clock",
    "use_clock",
]

_clock: Callable[[], float] = time.perf_counter


def set_clock(clock: Callable[[], float]) -> Callable[[], float]:
    """Install a replacement time source; returns the previous one."""
    global _clock
    previous = _clock
    _clock = clock
    return previous


@contextmanager
def use_clock(clock: Callable[[], float]) -> Iterator[None]:
    """Temporarily replace the span clock (deterministic tests)."""
    previous = set_clock(clock)
    try:
        yield
    finally:
        set_clock(previous)


_EMPTY_COUNTERS: dict[str, float] = {}
_EMPTY_CHILDREN: list["Span"] = []


class Span:
    """One timed region of the trace tree.

    Acts as its own context manager when created via
    :meth:`Tracer.span`; entering pushes it on the tracer's thread-local
    stack, exiting pops it and attaches it to its parent (or the
    tracer's finished ring for roots). The ``counters`` dict and
    ``children`` list materialize on first use — most per-record spans
    need neither, and skipping two allocations per span is measurable at
    serving rates.
    """

    __slots__ = (
        "name",
        "t_start",
        "t_end",
        "status",
        "error",
        "child_time",
        "dropped_children",
        "_counters",
        "_children",
        "_tracer",
    )

    def __init__(self, name: str, t_start: float = 0.0, tracer: "Tracer | None" = None):
        self.name = name
        self.t_start = t_start
        self.t_end = t_start
        self.status = "ok"
        self.error: str | None = None
        self.child_time = 0.0
        self.dropped_children = 0
        self._counters: dict[str, float] | None = None
        self._children: list[Span] | None = None
        self._tracer = tracer

    # -- context manager (hot path) -----------------------------------------

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            self.t_start = self.t_end = _clock()
            tracer._stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        self.t_end = _clock()
        tracer = self._tracer
        if tracer is None:
            return False
        stack = tracer._stack()
        stack.pop()
        if stack:
            parent = stack[-1]
            parent.child_time += self.t_end - self.t_start
            children = parent._children
            if children is None:
                children = parent._children = []
            if len(children) < tracer.max_children:
                children.append(self)
            else:
                parent.dropped_children += 1
        else:
            tracer.finished.append(self)
        return False

    # -- accessors -----------------------------------------------------------

    @property
    def counters(self) -> dict[str, float]:
        """Per-span counters (empty mapping until :meth:`add` is called)."""
        return self._counters if self._counters is not None else _EMPTY_COUNTERS

    @property
    def children(self) -> list["Span"]:
        """Child spans kept in the tree (see ``dropped_children``)."""
        return self._children if self._children is not None else _EMPTY_CHILDREN

    @property
    def duration(self) -> float:
        """Wall time spent inside the span (including children)."""
        return self.t_end - self.t_start

    @property
    def own_time(self) -> float:
        """Wall time minus the time attributed to child spans.

        Uses the running ``child_time`` accumulator, so it stays exact
        even for children dropped past the ``max_children`` cap.
        """
        return self.duration - self.child_time

    def add(self, key: str, amount: float = 1.0) -> None:
        """Bump a per-span counter (e.g. records processed, batches run)."""
        counters = self._counters
        if counters is None:
            counters = self._counters = {}
        counters[key] = counters.get(key, 0.0) + amount

    def walk(self) -> Iterator["Span"]:
        """Depth-first traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "duration": self.duration,
            "own_time": self.own_time,
            "status": self.status,
            "error": self.error,
            "counters": dict(self.counters),
            "children": [c.to_dict() for c in self.children],
            "dropped_children": self.dropped_children,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any], tracer: "Tracer | None" = None) -> "Span":
        """Rebuild a span tree serialized by :meth:`to_dict` in another process.

        Durations are preserved exactly (``t_start=0``); child spans are
        reattached recursively so ``span.render()`` of a revived tree looks
        the same as an in-process one. With ``tracer``, the root is appended
        to its finished ring.
        """
        span = cls(str(data.get("name", "task")))
        span.t_end = float(data.get("duration", 0.0))
        span.status = data.get("status", "ok")
        span.error = data.get("error")
        span.dropped_children = int(data.get("dropped_children", 0))
        for key, amount in (data.get("counters") or {}).items():
            span.add(key, amount)
        for child_data in data.get("children") or ():
            child = cls.from_dict(child_data)
            span._children = span._children or []
            span._children.append(child)
            span.child_time += child.duration
        if tracer is not None:
            tracer.finished.append(span)
        return span

    def render(self, indent: int = 0) -> str:
        """Human-readable tree: name, wall, own time, counters, status."""
        extra = "".join(f" {k}={v:g}" for k, v in self.counters.items())
        if self.dropped_children:
            extra += f" (+{self.dropped_children} children dropped)"
        flag = "" if self.status == "ok" else f" !{self.status}: {self.error}"
        line = (
            f"{'  ' * indent}{self.name}: {self.duration * 1e3:.3f} ms "
            f"(own {self.own_time * 1e3:.3f} ms){extra}{flag}"
        )
        return "\n".join([line, *(c.render(indent + 1) for c in self.children)])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Span {self.name} {self.duration * 1e3:.3f}ms {self.status}>"


class _NullSpan(Span):
    """Shared no-op span handed out while tracing is disabled."""

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, key: str, amount: float = 1.0) -> None:
        return None


_NULL_SPAN = _NullSpan("disabled")


class Tracer:
    """Thread-local span stack plus a bounded ring of finished root spans."""

    def __init__(self, max_finished: int = 256, enabled: bool = True, max_children: int = 128):
        self.enabled = enabled
        self.finished: deque[Span] = deque(maxlen=max_finished)
        self.max_children = max_children
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def last(self) -> Span | None:
        """Most recently finished root span."""
        return self.finished[-1] if self.finished else None

    def span(self, name: str) -> Span:
        """A context-manager span; a shared no-op span while disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(name, tracer=self)

    def clear(self) -> None:
        self.finished.clear()
        self._local = threading.local()


_default_tracer = Tracer()


def default_tracer() -> Tracer:
    return _default_tracer


def span(name: str) -> Span:
    """Open a span on the process-default tracer."""
    return _default_tracer.span(name)


def set_enabled(flag: bool) -> bool:
    """Toggle the default tracer; returns the previous setting."""
    previous = _default_tracer.enabled
    _default_tracer.enabled = bool(flag)
    return previous
