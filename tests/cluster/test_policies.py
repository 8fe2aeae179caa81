"""Autoscaling policies: sizing rules, fallbacks, and the escape rule."""

import numpy as np
import pytest

from repro.cluster import POLICY_NAMES, PolicyInputs, make_policy


def inputs(**over) -> PolicyInputs:
    """A 4-job PolicyInputs with sensible defaults, overridable per test."""
    n = 4
    base = dict(
        last_observed=np.full(n, 0.3),
        point=np.full(n, 0.4),
        headroom_q=np.full(n, 0.05),
        truth_next=np.full(n, 0.45),
        request=np.full(n, 0.8),
        active=np.ones(n, dtype=bool),
        throttled=np.zeros(n, dtype=bool),
    )
    base.update(over)
    return PolicyInputs(**base)


class TestLadder:
    def test_registry_covers_the_ladder(self):
        assert POLICY_NAMES == ("request", "reactive", "predictive", "quantile", "oracle")
        with pytest.raises(KeyError, match="unknown policy"):
            make_policy("nope")

    def test_request_reserves_the_request(self):
        res = make_policy("request").reservations(inputs())
        np.testing.assert_allclose(res, 0.8)

    def test_reactive_is_last_observed_plus_headroom(self):
        res = make_policy("reactive", headroom=0.1).reservations(inputs())
        np.testing.assert_allclose(res, 0.4)

    def test_predictive_uses_point_forecast(self):
        res = make_policy("predictive", headroom=0.1).reservations(inputs())
        np.testing.assert_allclose(res, 0.5)

    def test_oracle_uses_truth(self):
        res = make_policy("oracle", headroom=0.1).reservations(inputs())
        np.testing.assert_allclose(res, 0.55)

    def test_quantile_is_point_plus_band_plus_safety(self):
        pol = make_policy("quantile", safety=0.02)
        res = pol.reservations(inputs())
        np.testing.assert_allclose(res, 0.4 + 0.05 + 0.02)


class TestFallbacks:
    def test_stale_point_falls_back_to_reactive(self):
        obs = inputs(point=np.full(4, np.nan))
        for name in ("predictive", "quantile"):
            res = make_policy(name, headroom=0.1).reservations(obs)
            np.testing.assert_allclose(res, 0.4)  # last_observed + headroom

    def test_uncalibrated_band_falls_back_to_reactive(self):
        obs = inputs(headroom_q=np.full(4, np.nan))
        res = make_policy("quantile", headroom=0.1).reservations(obs)
        np.testing.assert_allclose(res, 0.4)

    def test_unobserved_job_gets_its_request(self):
        obs = inputs(
            last_observed=np.full(4, np.nan),
            point=np.full(4, np.nan),
            truth_next=np.full(4, np.nan),
        )
        for name in POLICY_NAMES:
            res = make_policy(name).reservations(obs)
            np.testing.assert_allclose(res, 0.8)

    def test_oracle_departing_job_sized_reactively(self):
        obs = inputs(truth_next=np.full(4, np.nan))
        res = make_policy("oracle", headroom=0.1).reservations(obs)
        np.testing.assert_allclose(res, 0.4)


class TestClipAndEscape:
    def test_reservations_clipped_to_floor_and_request(self):
        obs = inputs(point=np.array([0.0, 2.0, 0.4, 0.4]))
        res = make_policy("predictive", headroom=0.0, floor=0.02).reservations(obs)
        assert res[0] == pytest.approx(0.02)
        assert res[1] == pytest.approx(0.8)

    def test_throttled_job_escapes_upward(self):
        """A censored slot must grow past its observation, whatever the model says."""
        throttled = np.array([True, False, False, False])
        obs = inputs(point=np.full(4, 0.1), throttled=throttled,
                     last_observed=np.full(4, 0.3))
        res = make_policy("predictive", headroom=0.1).reservations(obs)
        assert res[0] == pytest.approx(0.4)  # last_observed + headroom, not 0.2
        assert res[1] == pytest.approx(0.2)  # untouched slot follows the forecast

    def test_escape_is_noop_for_reactive(self):
        throttled = np.array([True, True, False, False])
        pol = make_policy("reactive", headroom=0.1)
        with_thr = pol.reservations(inputs(throttled=throttled))
        without = pol.reservations(inputs())
        np.testing.assert_allclose(with_thr, without)


class TestValidation:
    def test_headroom_floor_safety_bounds(self):
        with pytest.raises(ValueError, match="headroom"):
            make_policy("reactive", headroom=-0.1)
        with pytest.raises(ValueError, match="floor"):
            make_policy("reactive", floor=0.0)
        with pytest.raises(ValueError, match="safety"):
            make_policy("quantile", safety=-0.01)
        for tau in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="tau"):
                make_policy("quantile", tau=tau)
        assert make_policy("quantile", tau=0.97).tau == 0.97
