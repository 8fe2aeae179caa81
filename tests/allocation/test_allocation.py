"""Open-loop allocation replay on the cluster autoscaler's policy ladder.

Every window of a test split is one sizing decision: the policy sizes
the next step from a :class:`PolicyInputs` built out of the windows (all
slots active, none throttled), and :func:`excess_stats` scores the
reservations against the realized next step.
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    PolicyInputs,
    excess_stats,
    make_policy,
    make_schedule,
)
from repro.models import PersistenceForecaster


@pytest.fixture
def segment(rng):
    """Windows + next-step truth from a wandering utilization series."""
    from repro.data.windowing import make_windows

    series = np.clip(0.4 + np.cumsum(rng.normal(0, 0.02, 400)), 0.05, 0.95)
    x, y = make_windows(series[:, None], series, window=8)
    return x, y[:, 0]


def replay_inputs(x, y, point=None, request=1.0):
    """One sizing decision per window: last value, forecast, truth."""
    n = len(y)
    return PolicyInputs(
        last_observed=x[:, -1, 0],
        point=np.full(n, np.nan) if point is None else np.asarray(point, float),
        headroom_q=np.zeros(n),
        truth_next=y,
        request=np.full(n, request),
        active=np.ones(n, dtype=bool),
        throttled=np.zeros(n, dtype=bool),
    )


def replay(name, x, y, point=None, **kwargs):
    reservations = make_policy(name, **kwargs).reservations(replay_inputs(x, y, point))
    return excess_stats(y, reservations)


def cost(stats, violation_penalty=10.0):
    """Waste plus penalized violations — the allocation replay's score."""
    return stats.mean_slack + violation_penalty * stats.rate * stats.mean_depth


class TestPolicies:
    def test_static_constant(self, segment):
        x, y = segment
        res = make_policy("request").reservations(replay_inputs(x, y, request=0.9))
        np.testing.assert_array_equal(res, np.full(len(x), 0.9))

    def test_reactive_is_last_plus_headroom(self, segment):
        x, y = segment
        res = make_policy("reactive", headroom=0.1).reservations(replay_inputs(x, y))
        np.testing.assert_allclose(res, np.clip(x[:, -1, 0] + 0.1, 0.02, 1.0))

    def test_oracle_never_violates(self, segment):
        """With the request above demand plus headroom, the oracle is exact."""
        x, y = segment
        stats = replay("oracle", x, y, headroom=0.05)
        assert stats.rate == 0.0
        assert stats.mean_slack == pytest.approx(0.05, abs=1e-9)

    def test_predictive_requires_fitted(self):
        """A forecast-driven policy cannot run the loop without forecasts."""
        schedule = make_schedule(n_jobs=4, ticks=40, seed=0, min_life=20)
        with pytest.raises(ValueError, match="forecast source"):
            ClusterSimulator(schedule, make_policy("predictive"), ClusterConfig(n_machines=2))

    def test_predictive_with_persistence_equals_reactive(self, segment):
        x, y = segment
        f = PersistenceForecaster().fit(x, y[:, None])
        obs = replay_inputs(x, y, point=f.predict(x)[:, 0])
        pred = make_policy("predictive", headroom=0.1).reservations(obs)
        react = make_policy("reactive", headroom=0.1).reservations(obs)
        np.testing.assert_allclose(pred, react)

    def test_headroom_validation(self):
        with pytest.raises(ValueError):
            make_policy("reactive", headroom=-0.1)


class TestQuantileAllocator:
    """The quantile rung sizing from an explicit quantile vector."""

    def test_explicit_vector_path_clips_to_unit_range(self, segment):
        x, y = segment
        point = np.full(len(y), 0.4)
        point[:2] = [-0.1, 1.7]
        res = make_policy("quantile", safety=0.0).reservations(
            replay_inputs(x, y, point=point)
        )
        np.testing.assert_allclose(res[:3], [0.02, 1.0, 0.4])

    def test_vector_path_preserves_nan_staleness(self, segment):
        """A NaN quantile marks a stale slot: it is sized reactively."""
        x, y = segment
        point = np.full(len(y), 0.5)
        point[0] = np.nan
        res = make_policy("quantile", headroom=0.1, safety=0.0).reservations(
            replay_inputs(x, y, point=point)
        )
        assert res[0] == pytest.approx(x[0, -1, 0] + 0.1)
        assert res[1] == pytest.approx(0.5)

    def test_no_forecaster_and_no_vector_rejected(self):
        schedule = make_schedule(n_jobs=4, ticks=40, seed=0, min_life=20)
        with pytest.raises(ValueError, match="forecast source"):
            ClusterSimulator(schedule, make_policy("quantile"), ClusterConfig(n_machines=2))

    def test_tau_validation(self):
        with pytest.raises(ValueError, match="tau"):
            make_policy("quantile", tau=1.0)
        assert make_policy("quantile", tau=0.99).tau == 0.99


class TestSimulator:
    def test_report_accounting_identity(self, segment):
        x, y = segment
        reservations = make_policy("reactive", headroom=0.05).reservations(
            replay_inputs(x, y)
        )
        stats = excess_stats(y, reservations)
        # mean reservation = served demand + unused slack, exactly
        assert reservations.mean() == pytest.approx(
            stats.mean_served + stats.mean_slack, abs=1e-12
        )
        # reservation = demand + over - under (in expectation over intervals)
        rhs = y.mean() + stats.mean_slack - stats.rate * stats.mean_depth
        assert reservations.mean() == pytest.approx(rhs, abs=1e-9)

    def test_zero_headroom_reactive_violates_half_the_time(self, segment):
        """Reserving exactly the last value under-serves whenever demand rises."""
        x, y = segment
        stats = replay("reactive", x, y, headroom=0.0)
        assert 0.25 < stats.rate < 0.75

    def test_more_headroom_fewer_violations_more_waste(self, segment):
        x, y = segment
        lo = replay("reactive", x, y, headroom=0.02)
        hi = replay("reactive", x, y, headroom=0.2)
        assert hi.rate <= lo.rate
        assert hi.mean_slack > lo.mean_slack

    def test_cost_penalizes_violations(self, segment):
        x, y = segment
        stats = replay("reactive", x, y, headroom=0.0)
        assert cost(stats, violation_penalty=100.0) > cost(stats, violation_penalty=1.0)

    def test_oracle_beats_reactive_on_volatile_demand(self, rng):
        """On big-step demand, reactive lag is expensive; the oracle is not.

        (On near-static demand the oracle's constant headroom waste can
        exceed reactive's tiny violation cost, so this bound is a property
        of *volatile* workloads — exactly the paper's setting.)
        """
        from repro.data.windowing import make_windows
        from repro.traces.workloads import regime_switching_load

        series = regime_switching_load(500, rng, dwell_mean=40.0, noise=0.02)
        x, y = make_windows(series[:, None], series, window=8)
        y = y[:, 0]
        oracle = replay("oracle", x, y, headroom=0.05)
        react = replay("reactive", x, y, headroom=0.05)
        assert cost(oracle) < cost(react)
        assert oracle.rate < react.rate

    def test_input_validation(self, segment):
        x, y = segment
        reservations = make_policy("oracle").reservations(replay_inputs(x, y))
        with pytest.raises(ValueError):
            excess_stats(y, reservations[:-1])
        with pytest.raises(ValueError, match="empty"):
            excess_stats(y[:0], reservations[:0])


class TestEndToEnd:
    def test_predictive_beats_static_on_dynamic_workload(self):
        """The paper's motivation: prediction cuts waste vs peak provisioning."""
        from repro.data import PipelineConfig, PredictionPipeline
        from repro.models import create_forecaster
        from repro.traces import ClusterTraceGenerator, TraceConfig

        entity = ClusterTraceGenerator(
            TraceConfig(n_machines=1, containers_per_machine=1, n_steps=600, seed=77,
                        container_mix={"regime_switching": 1.0})
        ).generate().containers[0]
        pipe = PredictionPipeline(PipelineConfig(scenario="uni", window=10))
        prepared = pipe.prepare(entity)
        xt, yt = prepared.dataset.train
        xe, ye = prepared.dataset.test

        f = create_forecaster("xgboost", n_estimators=40,
                              target_col=prepared.target_col)
        f.fit(xt, yt)

        # capacity units: the container's CPU % over 100, request = all of it
        def capacity(values):
            return prepared.denormalize_target(values) / 100.0

        x = capacity(xe[..., prepared.target_col])[..., None]
        y = capacity(ye[:, 0])
        point = capacity(f.predict(xe)[:, 0])
        pred = replay("predictive", x, y, point=point, headroom=0.1)
        static = replay("request", x, y)
        assert pred.mean_slack < static.mean_slack
