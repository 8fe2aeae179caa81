"""Ring buffer, drift detection and online predictor tests."""

import pickle

import numpy as np
import pytest

from repro.streaming import CheckpointError, OnlinePredictor, PageHinkley, RollingBuffer


class TestRollingBuffer:
    def test_append_and_view_order(self):
        buf = RollingBuffer(3, 1)
        for v in (1.0, 2.0):
            buf.append(np.array([v]))
        np.testing.assert_array_equal(buf.view()[:, 0], [1.0, 2.0])
        assert len(buf) == 2 and not buf.full

    def test_wraparound_keeps_newest(self):
        buf = RollingBuffer(3, 1)
        for v in range(5):
            buf.append(np.array([float(v)]))
        np.testing.assert_array_equal(buf.view()[:, 0], [2.0, 3.0, 4.0])
        assert buf.full

    def test_last_n(self):
        buf = RollingBuffer(4, 2)
        buf.extend(np.arange(8.0).reshape(4, 2))
        np.testing.assert_array_equal(buf.last(2), [[4.0, 5.0], [6.0, 7.0]])
        with pytest.raises(ValueError):
            buf.last(5)

    def test_shape_validation(self):
        buf = RollingBuffer(3, 2)
        with pytest.raises(ValueError):
            buf.append(np.zeros(3))

    def test_clear(self):
        buf = RollingBuffer(3, 1)
        buf.append(np.array([1.0]))
        buf.clear()
        assert len(buf) == 0

    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            RollingBuffer(0, 1)


class TestPageHinkley:
    def test_no_drift_on_stationary_errors(self, rng):
        ph = PageHinkley(threshold=2.0)
        fired = [ph.update(abs(e)) for e in rng.normal(0, 0.05, 2000)]
        assert not any(fired)

    def test_detects_sustained_shift(self, rng):
        ph = PageHinkley(threshold=1.0, min_instances=20)
        for e in rng.normal(0.05, 0.01, 200):
            assert not ph.update(e)
        fired = False
        for e in rng.normal(0.5, 0.01, 200):  # errors jump 10x
            fired = fired or ph.update(e)
        assert fired
        assert ph.drift_detected

    def test_reset_clears_state(self, rng):
        ph = PageHinkley(threshold=0.5, min_instances=5)
        for e in np.linspace(0, 1, 100):
            ph.update(e)
        ph.reset()
        assert not ph.drift_detected
        assert ph.n_seen == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PageHinkley(threshold=0.0)
        with pytest.raises(ValueError):
            PageHinkley(min_instances=0)

    def test_equal_by_parameters_and_running_state(self):
        a, b = PageHinkley(threshold=0.5), PageHinkley(threshold=0.5)
        assert a == b and a != PageHinkley(threshold=0.6)
        a.update(0.3)
        assert a != b
        b.update(0.3)
        assert a == b


class TestOnlinePredictor:
    def _stream(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        t = np.arange(n)
        return 0.5 + 0.3 * np.sin(2 * np.pi * t / 50) + rng.normal(0, 0.02, n)

    def test_takes_only_a_page_hinkley_detector(self):
        class Custom(PageHinkley):
            pass

        with pytest.raises(TypeError, match="PageHinkley"):
            OnlinePredictor("holt", detector=Custom())

    def test_a_state_with_another_detector_is_refused(self):
        pred = OnlinePredictor("holt", window=6, buffer_capacity=60, min_fit_size=20)
        pred.run(self._stream(40))
        for detector in (None, object(), {"n_seen": 3}):
            with pytest.raises(CheckpointError, match="PageHinkley"):
                pred.load_state_dict({**pred.state_dict(), "detector": detector})

    def test_a_taken_state_stays_as_it_was_taken(self):
        pred = OnlinePredictor("holt", window=6, buffer_capacity=60, min_fit_size=20)
        stream = self._stream(80)
        pred.run(stream[:40])
        state = pred.state_dict()
        blob = pickle.dumps(state)
        assert state["detector"].n_seen > 0
        pred.run(stream[40:])
        assert pickle.dumps(state) == blob
        assert state["detector"] != pred.detector

    def test_warmup_then_predicts(self):
        pred = OnlinePredictor(
            "holt", window=8, buffer_capacity=200, refit_interval=50, min_fit_size=30
        )
        records = self._stream(100)
        results = pred.run(records)
        warm = [r for r in results if r.prediction is None]
        live = [r for r in results if r.prediction is not None]
        assert len(warm) >= 8
        assert len(live) > 50
        assert all(r.error is not None for r in live)

    def test_prequential_mae_reasonable(self):
        pred = OnlinePredictor(
            "holt", window=8, buffer_capacity=300, refit_interval=60, min_fit_size=40
        )
        pred.run(self._stream(350))
        # smooth sine + tiny noise: online MAE well under the signal amplitude
        assert pred.stats.mae < 0.1
        assert pred.stats.n_predictions > 250

    def test_scheduled_refits_happen(self):
        pred = OnlinePredictor(
            "holt", window=6, buffer_capacity=200, refit_interval=40, min_fit_size=30
        )
        results = pred.run(self._stream(250))
        refits = sum(r.refit for r in results)
        assert refits >= 4  # initial + ~5 scheduled

    def test_drift_triggers_refit(self, rng):
        series = np.concatenate(
            [
                0.2 + rng.normal(0, 0.01, 150),
                0.8 + rng.normal(0, 0.01, 150),  # sustained regime change
            ]
        )
        pred = OnlinePredictor(
            "mean",  # deliberately bad after the jump -> persistent errors
            window=6,
            buffer_capacity=400,
            refit_interval=10_000,  # never scheduled: only drift can refit
            min_fit_size=30,
            detector=PageHinkley(threshold=0.5, min_instances=20),
        )
        results = pred.run(series)
        assert any(r.drift for r in results)
        assert pred.stats.n_drifts >= 1
        # at least the initial fit + one drift-triggered refit
        assert pred.stats.n_refits >= 2

    def test_multivariate_records(self):
        rng = np.random.default_rng(1)
        base = self._stream(200)
        records = np.column_stack([base, base + rng.normal(0, 0.01, 200)])
        pred = OnlinePredictor(
            "xgboost",
            forecaster_kwargs={"n_estimators": 10},
            window=6,
            buffer_capacity=150,
            refit_interval=80,
            min_fit_size=40,
            features=2,
        )
        results = pred.run(records)
        assert pred.stats.n_predictions > 100
        assert results[-1].prediction is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlinePredictor(window=12, buffer_capacity=10)
        with pytest.raises(ValueError):
            OnlinePredictor(refit_interval=0)
