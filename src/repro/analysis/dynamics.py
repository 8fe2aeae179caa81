"""Tracking after a mutation point.

The paper's core difficulty claim is that cloud series have *mutation
points*: abrupt, sustained level changes that periodic models miss.
:func:`time_to_track` measures how many steps after such a point a
model's predictions need to re-enter a tolerance band around the truth
(the formal version of Fig. 8's "the predicted values have not been
corrected since then").
"""

from __future__ import annotations

import numpy as np

__all__ = ["time_to_track"]


def time_to_track(
    truth: np.ndarray,
    prediction: np.ndarray,
    changepoint: int,
    tolerance: float = 0.1,
    sustain: int = 3,
) -> int | None:
    """Steps after ``changepoint`` until |pred - truth| stays within
    ``tolerance`` for ``sustain`` consecutive samples.

    Returns ``None`` if the prediction never re-enters the band — the
    paper's "have not been corrected since then" case.
    """
    truth = np.asarray(truth, float)
    prediction = np.asarray(prediction, float)
    if truth.shape != prediction.shape or truth.ndim != 1:
        raise ValueError("truth and prediction must be equal-length 1-D arrays")
    if not 0 <= changepoint < len(truth):
        raise ValueError(f"changepoint {changepoint} outside series of {len(truth)}")
    if tolerance <= 0 or sustain < 1:
        raise ValueError("tolerance > 0 and sustain >= 1 required")

    err = np.abs(truth - prediction)[changepoint:]
    inside = err <= tolerance
    run = 0
    for i, ok in enumerate(inside):
        run = run + 1 if ok else 0
        if run >= sustain:
            return i - sustain + 1
    return None

