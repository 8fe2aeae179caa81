"""Concept-drift detection on the prediction-error stream.

When the workload's behaviour changes (a mutation point), a model fitted
on the old regime keeps erring in the same direction; the Page-Hinkley
test (Page 1954) detects that cumulative shift and triggers a refit —
how the paper's "mutation points" become an actionable signal online.
"""

from __future__ import annotations

__all__ = ["PageHinkley"]


class PageHinkley:
    """Page-Hinkley test on a stream of (absolute) errors.

    Maintains the cumulative deviation of the stream from its running
    mean, minus a drift allowance ``delta``; fires when the deviation
    exceeds ``threshold`` after ``min_instances`` observations. Feed one
    score per step with :meth:`update`; ``drift_detected`` latches until
    :meth:`reset`.
    """

    def __init__(
        self,
        delta: float = 0.005,
        threshold: float = 0.5,
        min_instances: int = 30,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if min_instances < 1:
            raise ValueError(f"min_instances must be >= 1, got {min_instances}")
        self.delta = delta
        self.threshold = threshold
        self.min_instances = min_instances
        self.reset()

    def update(self, value: float) -> bool:
        """Consume one observation; return True if drift fired this step."""
        self.n_seen += 1
        # running mean (Welford-style single pass)
        self._mean += (value - self._mean) / self.n_seen
        self._cumulative += value - self._mean - self.delta
        self._minimum = min(self._minimum, self._cumulative)
        fired = (
            self.n_seen >= self.min_instances
            and self._cumulative - self._minimum > self.threshold
        )
        if fired:
            self.drift_detected = True
        return fired

    def reset(self) -> None:
        self.drift_detected = False
        self.n_seen = 0
        self._mean = 0.0
        self._cumulative = 0.0
        self._minimum = 0.0
