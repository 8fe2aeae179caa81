"""Quantile forecasting, BiLSTM and seq2seq tests."""

import numpy as np
import pytest

from repro.models import (
    BiLSTMForecaster,
    PinballLoss,
    QuantileGBTForecaster,
    QuantileRPTCNForecaster,
    Seq2SeqForecaster,
)
from repro.nn.tensor import Tensor

from .test_deep_models import sine_windows


def noisy_windows(n=600, window=10, seed=3, noise=0.08):
    """Heteroscedastic-free noisy level series: quantiles are analytic."""
    from repro.data.windowing import make_windows

    rng = np.random.default_rng(seed)
    base = 0.5 + 0.2 * np.sin(np.linspace(0, 12, n))
    series = base + rng.normal(0, noise, n)
    return make_windows(series[:, None], series, window=window)


class TestPinballLoss:
    def test_asymmetry(self):
        loss = PinballLoss(0.9, reduction="none")
        under = loss(Tensor([0.0]), Tensor([1.0])).data[0]  # pred below target
        over = loss(Tensor([2.0]), Tensor([1.0])).data[0]  # pred above target
        assert under == pytest.approx(0.9)
        assert over == pytest.approx(0.1)

    def test_median_is_mae_half(self, rng):
        pred, target = Tensor(rng.random(50)), Tensor(rng.random(50))
        pin = PinballLoss(0.5)(pred, target).item()
        mae = float(np.abs(pred.data - target.data).mean())
        assert pin == pytest.approx(0.5 * mae)

    def test_minimizer_is_quantile(self, rng):
        """The constant minimizing pinball loss is the tau-quantile."""
        y = rng.random(20_000)
        tau = 0.8
        candidates = np.linspace(0, 1, 201)
        losses = [
            np.maximum(tau * (y - c), (tau - 1) * (y - c)).mean() for c in candidates
        ]
        best = candidates[int(np.argmin(losses))]
        assert best == pytest.approx(np.quantile(y, tau), abs=0.02)

    def test_backprop(self, rng):
        pred = Tensor(rng.random(10), requires_grad=True)
        PinballLoss(0.7)(pred, Tensor(rng.random(10))).backward()
        assert pred.grad is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            PinballLoss(0.0)
        with pytest.raises(ValueError):
            PinballLoss(1.0)


class TestQuantileGBT:
    def test_quantiles_ordered_and_calibrated(self):
        x, y = noisy_windows()
        # regularized leaves keep per-leaf sample counts high, which is what
        # keeps quantile boosting calibrated out-of-sample
        f = QuantileGBTForecaster(
            taus=(0.1, 0.5, 0.9), n_estimators=100, max_depth=2,
            learning_rate=0.1, min_child_weight=30,
        )
        f.fit(x[:400], y[:400])
        pred = f.predict(x[400:])
        truth = y[400:, 0]
        # columns ordered by tau (on average)
        assert pred[:, 0].mean() < pred[:, 1].mean() < pred[:, 2].mean()
        # empirical coverage near nominal (loose: the test split drifts)
        cov_90 = (truth <= pred[:, 2]).mean()
        cov_10 = (truth <= pred[:, 0]).mean()
        assert 0.70 < cov_90 <= 1.0
        assert 0.0 <= cov_10 < 0.40

    def test_in_sample_calibration_exact(self, rng):
        """On signal-free data the booster hits nominal coverage."""
        from repro.models.quantile import _QuantileGBT

        x = rng.random((1500, 3))
        y = rng.normal(0, 1, 1500)
        for tau in (0.1, 0.9):
            m = _QuantileGBT(tau, n_estimators=80, learning_rate=0.1, max_depth=3)
            m.fit(x, y)
            coverage = (y <= m.predict(x)).mean()
            assert coverage == pytest.approx(tau, abs=0.05)

    def test_colsample_restricts_each_trees_split_features(self, rng):
        """colsample draws each tree's candidate columns, as in squared-loss boosting."""
        from repro.models.quantile import _QuantileGBT

        x = rng.random((400, 4))
        y = x.sum(axis=1) + rng.normal(0, 0.05, 400)

        def used(model):
            return [{f for f in tree.feature if f != -1} for tree in model.trees]

        full = _QuantileGBT(0.9, n_estimators=10, max_depth=3).fit(x, y)
        assert any(len(u) > 1 for u in used(full))
        model = _QuantileGBT(0.9, n_estimators=10, max_depth=3, colsample=0.5, seed=4).fit(x, y)
        draws = np.random.default_rng(4)  # the booster's column draws, tree by tree
        for u in used(model):
            assert u <= set(draws.choice(4, size=2, replace=False).tolist())
        assert len(set().union(*used(model))) > 2

    def test_predict_quantile_lookup(self):
        x, y = noisy_windows(n=300)
        f = QuantileGBTForecaster(taus=(0.5, 0.9), n_estimators=20)
        f.fit(x[:200], y[:200])
        q = f.predict_quantile(x[200:210], 0.9)
        assert q.shape == (10,)
        with pytest.raises(KeyError):
            f.predict_quantile(x[:1], 0.77)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileGBTForecaster(taus=())
        with pytest.raises(ValueError):
            QuantileGBTForecaster(taus=(1.2,))


class TestQuantileRPTCN:
    def test_coverage(self):
        x, y = noisy_windows()
        f = QuantileRPTCNForecaster(
            taus=(0.5, 0.9), channels=(8, 8), epochs=25, seed=1
        )
        f.fit(x[:400], y[:400])
        pred = f.predict(x[400:])
        truth = y[400:, 0]
        cov_90 = (truth <= pred[:, 1]).mean()
        assert 0.7 < cov_90 <= 1.0
        assert pred[:, 0].mean() < pred[:, 1].mean()

    def test_rejects_multistep_targets(self):
        x, y = noisy_windows(n=200)
        y2 = np.repeat(y, 2, axis=1)
        with pytest.raises(ValueError, match="1-step"):
            QuantileRPTCNForecaster(epochs=1).fit(x, y2)


class TestBiLSTMSeq2Seq:
    def test_bilstm_learns(self):
        x, y = sine_windows()
        m = BiLSTMForecaster(hidden=12, epochs=20, seed=2)
        m.fit(x[:250], y[:250], x[250:320], y[250:320])
        pred = m.predict(x[320:])
        mse = np.mean((pred - y[320:]) ** 2)
        const = np.mean((y[320:] - y[:250].mean()) ** 2)
        assert mse < 0.5 * const

    def test_seq2seq_multistep(self):
        x, y = sine_windows(horizon=4)
        m = Seq2SeqForecaster(horizon=4, hidden=16, epochs=20, seed=2)
        m.fit(x[:250], y[:250])
        pred = m.predict(x[250:300])
        assert pred.shape == (50, 4)
        mse = np.mean((pred - y[250:300]) ** 2)
        const = np.mean((y[250:300] - y[:250].mean()) ** 2)
        assert mse < 0.6 * const

    def test_registered(self):
        from repro.models import FORECASTER_REGISTRY

        assert {"bilstm", "seq2seq", "quantile_xgboost", "quantile_rptcn"} <= set(
            FORECASTER_REGISTRY
        )


class TestQuantileAllocation:
    def test_quantile_allocator_calibrates_violations(self):
        """The q95 forecast, sized by the quantile policy, violates ~5 %."""
        from repro.cluster import PolicyInputs, excess_stats, make_policy

        x, y = noisy_windows(n=800)
        f = QuantileGBTForecaster(taus=(0.5, 0.95), n_estimators=60, max_depth=3)
        f.fit(x[:500], y[:500])
        xe, ye = x[500:], y[500:, 0]
        n = len(ye)
        obs = PolicyInputs(
            last_observed=xe[:, -1, 0],
            point=f.predict_quantile(xe, 0.95),
            headroom_q=np.zeros(n),
            truth_next=ye,
            request=np.ones(n),
            active=np.ones(n, dtype=bool),
            throttled=np.zeros(n, dtype=bool),
        )
        policy = make_policy("quantile", tau=0.95, safety=0.0)
        stats = excess_stats(ye, policy.reservations(obs))
        # violation probability should track 1 - tau (loosely, small sample)
        assert stats.rate < 0.25
