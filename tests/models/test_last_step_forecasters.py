"""The forecasters that fit and serve through ``TCN.last_step``.

``rptcn``, ``quantile_rptcn``, ``hybrid_arima_nn`` (RPTCN on the ARIMA
residuals) and ``tcn`` read only the last backbone step, so both their
``fit`` and their ``predict`` run the pruned last-step backbone (``predict``
through the frozen plan of those rows). These tests compare it with the
full-sequence backbone batched the same way,
check the empty batch, pin the full backbone's training numerics (the
oracle the pruned fit is held to), and check that the ``temporal``
attention, which reads every step, never reaches the pruned rows.
"""

import hashlib

import numpy as np
import pytest

from repro.data.windowing import make_windows
from repro.models import create_forecaster
from repro.models.ensemble import HybridARIMANNForecaster
from repro.models.rptcn import RPTCNForecaster
from repro.models.tcn import TCN, TemporalBlock
from repro.nn.layers.attention import FeatureAttention
from repro.nn.tensor import Tensor, is_grad_enabled

SMALL = {"epochs": 1, "channels": (8, 8), "seed": 0}
FORECASTERS = {
    "rptcn": SMALL,
    "quantile_rptcn": SMALL,
    "tcn": SMALL,
    "hybrid_arima_nn": {"order": (1, 0, 0), "nn_kwargs": SMALL},
}


def _series(n=420, features=2, seed=5):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    target = 0.5 + 0.2 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.02, n)
    feats = np.column_stack([target] + [
        np.roll(target, k + 1) + rng.normal(0, 0.02, n) for k in range(features - 1)
    ])
    return make_windows(feats, target, 12, horizon=1)


def _full_backbone(self, x):
    """The pre-pruning read of the last step: the whole backbone, then slice."""
    return self(x)[:, :, -1]


def _module_predict(model, x):
    """The Module forward's predictions (``Trainer.predict``), not the frozen plan's."""
    if isinstance(model, HybridARIMANNForecaster):
        return model._arima_part(x) + model.nn.trainer.predict(x)
    return model.trainer.predict(x)


@pytest.fixture(scope="module")
def fitted():
    x, y = _series()
    return {
        name: create_forecaster(name, **kwargs).fit(x[:100], y[:100])
        for name, kwargs in FORECASTERS.items()
    }


@pytest.mark.parametrize("name", sorted(FORECASTERS))
def test_predict_matches_the_full_backbone(name, fitted, monkeypatch):
    x, _ = _series()
    x = x[:300]  # two Trainer.predict batches: 256 rows, then 44
    model = fitted[name]
    got = model.predict(x)
    monkeypatch.setattr(TCN, "last_step", _full_backbone)
    want = _module_predict(model, x)
    assert got.shape == want.shape == (300, want.shape[1])
    # same taps, same ops: only the GEMM row count differs, which BLAS may
    # round differently in the last ulp
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("name", sorted(FORECASTERS))
def test_empty_batch_keeps_the_output_width(name, fitted):
    x, _ = _series()
    model = fitted[name]
    width = model.predict(x[:1]).shape[1]
    assert model.predict(x[:0]).shape == (0, width)


def test_predict_runs_the_pruned_backbone(fitted, monkeypatch):
    x, _ = _series()

    def full_forward(*_):
        raise AssertionError("the full backbone ran")

    monkeypatch.setattr(TemporalBlock, "forward", full_forward)
    for name in FORECASTERS:
        assert np.isfinite(fitted[name].predict(x[:7])).all()


def _pool():
    rng = np.random.default_rng(2020)
    x = rng.random((160, 12, 2))
    y = x[:, -1, :1] + 0.1 * rng.random((160, 1))
    return x, y


def _state_digest(model: RPTCNForecaster) -> str:
    h = hashlib.sha256()
    for name, arr in model.model.state_dict().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


#: ``_state_digest`` of ``RPTCNForecaster(epochs=2, seed=0).fit(*_pool())``
#: through the full backbone, recorded before last-step inference existed
#: (float64, OpenBLAS on x86-64)
FIT_DIGEST = "965ba5fdb3939dbaa9be224236bc5660ccc40f3caecca594027a0c669506a8d3"

#: how far the pruned fit's weights may sit from the full fit's: relative,
#: and absolute for weights near zero. The two fits compute the same sums
#: over different row counts (the dropped rows carry an exactly-zero
#: gradient), so only BLAS's and pairwise summation's rounding differs;
#: two epochs of Adam keep that at a few ulps (on x86-64 OpenBLAS: 0 for
#: the fits below, <= 7e-16 at the fleet's 907-window refit)
FIT_RTOL, FIT_ATOL = 1e-9, 1e-12


def _weights(forecaster) -> np.ndarray:
    """Every weight of a fitted forecaster's network, flat (the hybrid's NN part)."""
    if isinstance(forecaster, HybridARIMANNForecaster):
        forecaster = forecaster.nn
    return np.concatenate([arr.ravel() for arr in forecaster.model.state_dict().values()])


def test_training_is_untouched(monkeypatch):
    """The full-backbone training path, the oracle the pruned fit is held
    to, keeps its numerics bit for bit."""
    monkeypatch.setattr(TCN, "last_step", _full_backbone)
    model = RPTCNForecaster(epochs=2, seed=0).fit(*_pool())
    assert _state_digest(model) == FIT_DIGEST


@pytest.mark.parametrize("name", sorted(FORECASTERS))
def test_pruned_fit_matches_the_full_backbone_fit(name, monkeypatch):
    x, y = _series()
    kwargs = {**FORECASTERS[name]}
    if name == "hybrid_arima_nn":
        kwargs["nn_kwargs"] = {**kwargs["nn_kwargs"], "epochs": 2}
    else:
        kwargs["epochs"] = 2
    pruned = create_forecaster(name, **kwargs).fit(x[:160], y[:160])
    monkeypatch.setattr(TCN, "last_step", _full_backbone)
    full = create_forecaster(name, **kwargs).fit(x[:160], y[:160])
    np.testing.assert_allclose(_weights(pruned), _weights(full), rtol=FIT_RTOL, atol=FIT_ATOL)


def test_pruned_rptcn_fit_matches_the_full_backbone_fit(monkeypatch):
    """The pinned configuration: the paper's (16, 16, 16) stack, 2 epochs."""
    pruned = RPTCNForecaster(epochs=2, seed=0).fit(*_pool())
    monkeypatch.setattr(TCN, "last_step", _full_backbone)
    full = RPTCNForecaster(epochs=2, seed=0).fit(*_pool())
    np.testing.assert_allclose(_weights(pruned), _weights(full), rtol=FIT_RTOL, atol=FIT_ATOL)


def test_training_runs_the_pruned_backbone(monkeypatch):
    monkeypatch.setattr(TemporalBlock, "forward", lambda *_: pytest.fail("full backbone ran"))
    model = RPTCNForecaster(epochs=1, channels=(8, 8), seed=0).fit(*_pool())
    assert np.isfinite(_weights(model)).all()


def test_temporal_attention_never_reaches_the_row_path(monkeypatch):
    """It reads every backbone step, so fit and predict run the full backbone."""
    monkeypatch.setattr(
        TemporalBlock, "forward_rows", lambda *_: pytest.fail("pruned rows ran")
    )
    x, y = _pool()
    model = RPTCNForecaster(epochs=1, channels=(8, 8), attention="temporal", seed=0)
    model.fit(x, y)
    assert np.isfinite(model.predict(x[:5])).all()


def test_attention_weights_use_the_last_step_path_without_a_graph(fitted, monkeypatch):
    x, _ = _series()
    net = fitted["rptcn"].model
    xt = Tensor(x[:9])
    grad_modes = []
    probe = FeatureAttention.attention_weights

    def spy(self, z):
        grad_modes.append(is_grad_enabled())
        return probe(self, z)

    monkeypatch.setattr(FeatureAttention, "attention_weights", spy)
    monkeypatch.setattr(TCN, "last_step", _full_backbone)
    want = net.attention_weights(xt)
    monkeypatch.undo()
    monkeypatch.setattr(FeatureAttention, "attention_weights", spy)
    monkeypatch.setattr(TemporalBlock, "forward", lambda *_: pytest.fail("full backbone ran"))
    got = net.attention_weights(xt)
    assert grad_modes == [False, False]
    assert got.shape == want.shape == (9, net.fc.out_features)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
