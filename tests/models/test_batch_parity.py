"""Batch-independence contract: stacked predict == row-wise predict.

Micro-batched serving (``repro.streaming.fleet``) stacks the due windows
of many streams into one ``(B, window, features)`` batch and makes a
single ``model.predict`` call, scattering the rows back to their
streams. That is only sound if every forecaster treats batch rows as
independent — see the batch contract on
:meth:`repro.models.base.Forecaster.predict`. This module asserts it,
bit-for-bit, for every forecaster in the registry.
"""

from __future__ import annotations

import inspect
from functools import lru_cache

import numpy as np
import pytest

from repro.data.windowing import make_windows
from repro.models import FORECASTER_REGISTRY, create_forecaster
from repro.models.base import NeuralForecaster

#: keep fits fast; inspect filters these down to what each ctor accepts
_FAST_CANDIDATES = {"epochs": 1, "seed": 0, "n_estimators": 10, "channels": (4, 4)}
#: explicit per-forecaster overrides where the generic candidates don't fit
_OVERRIDES = {
    "arima": {"order": (1, 0, 0)},
    "ensemble": {"members": [("mean", {}), ("persistence", {})]},
    "hybrid_arima_nn": {
        "order": (1, 0, 0),
        "nn_kwargs": {"epochs": 1, "channels": (4, 4), "seed": 0},
    },
}


def _fast_kwargs(name: str) -> dict:
    if name in _OVERRIDES:
        return dict(_OVERRIDES[name])
    params = inspect.signature(FORECASTER_REGISTRY[name].__init__).parameters
    return {k: v for k, v in _FAST_CANDIDATES.items() if k in params}


def _windowed_data(window: int = 12, features: int = 2):
    rng = np.random.default_rng(99)
    n = 120
    t = np.arange(n, dtype=float)
    target = 0.5 + 0.2 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.02, n)
    feats = np.column_stack([target] + [
        np.roll(target, k + 1) + rng.normal(0, 0.02, n) for k in range(features - 1)
    ])
    return make_windows(feats, target, window, horizon=1)


@lru_cache(maxsize=None)
def _fitted(name: str):
    """One fitted instance per forecaster, shared by the tests below."""
    x, y = _windowed_data()
    model = create_forecaster(name, **_fast_kwargs(name))
    model.fit(x[:-7], y[:-7])
    return model


@pytest.mark.parametrize("name", sorted(FORECASTER_REGISTRY))
def test_stacked_predict_equals_rowwise(name):
    x, _ = _windowed_data()
    model = _fitted(name)
    batch = x[-7:]
    stacked = np.asarray(model.predict(batch))
    rowwise = np.concatenate(
        [np.asarray(model.predict(batch[i : i + 1])) for i in range(len(batch))]
    )
    assert stacked.shape == rowwise.shape
    err = f"{name}: predict is not row-independent — micro-batching unsound"
    if isinstance(model, NeuralForecaster) or name == "hybrid_arima_nn":
        # GEMM-backed forwards reduce in a batch-size-dependent order, so
        # rows agree to within a few ulps rather than bit-for-bit; any
        # genuine cross-row dependence would show up orders of magnitude
        # above this tolerance
        np.testing.assert_allclose(stacked, rowwise, rtol=1e-9, atol=1e-12, err_msg=err)
    else:
        np.testing.assert_array_equal(stacked, rowwise, err_msg=err)


@pytest.mark.parametrize("name", sorted(FORECASTER_REGISTRY))
def test_empty_batch_keeps_the_output_width(name):
    """``predict(x[:0])`` is ``(0, out_dim)``: a fleet tick with no due rows."""
    x, _ = _windowed_data()
    model = _fitted(name)
    one = np.asarray(model.predict(x[:1]))
    empty = np.asarray(model.predict(x[:0]))
    assert one.ndim == 2
    assert empty.shape == (0, one.shape[1])
