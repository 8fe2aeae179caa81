"""Time-to-track tests."""

import numpy as np
import pytest

from repro.analysis.dynamics import time_to_track


def step_series(rng, n=400, cp=200, low=0.2, high=0.7, noise=0.02):
    series = np.concatenate([np.full(cp, low), np.full(n - cp, high)])
    return series + rng.normal(0, noise, n)


class TestTimeToTrack:
    def test_immediate_tracking(self, rng):
        truth = step_series(rng)
        assert time_to_track(truth, truth.copy(), changepoint=200) == 0

    def test_lagged_tracking(self, rng):
        truth = step_series(rng, noise=0.0)
        pred = np.roll(truth, 8)  # tracks with an 8-step lag
        pred[:8] = truth[0]
        t = time_to_track(truth, pred, changepoint=200, tolerance=0.05)
        assert t == pytest.approx(8, abs=1)

    def test_never_corrected_returns_none(self, rng):
        truth = step_series(rng, noise=0.0)
        pred = np.full_like(truth, truth[0])  # stuck at the old level
        assert time_to_track(truth, pred, changepoint=200, tolerance=0.05) is None

    def test_sustain_requirement(self, rng):
        truth = np.full(50, 1.0)
        pred = truth.copy()
        # from the changepoint onward, alternate outside the band; the last
        # bad sample is index 37, so sustained tracking starts at index 38
        pred[5:39:2] = 0.0
        assert time_to_track(truth, pred, 5, tolerance=0.1, sustain=3) == 38 - 5

    def test_validation(self):
        with pytest.raises(ValueError):
            time_to_track(np.zeros(5), np.zeros(4), 0)
        with pytest.raises(ValueError):
            time_to_track(np.zeros(5), np.zeros(5), 9)
        with pytest.raises(ValueError):
            time_to_track(np.zeros(5), np.zeros(5), 0, tolerance=0)
