"""Holt's predict filter: the tolerance contract against the recursion.

``HoltForecaster.predict`` multiplies each window by a cached
``(window, horizon)`` filter instead of running the level/trend
recursion. These properties pin down what that may and may not change:

* every forecast is within ``1e-12 * max|window|`` of smoothing the
  window with :func:`holt_linear` (the oracle) and extrapolating;
* a row's forecast is bit-identical alone and inside any batch, for one
  and several horizons, with the target read as a strided column of a
  multi-feature window;
* a forecast depends on the window's values only, not on the caller's
  memory layout (strided, Fortran-order and sliced batches);
* a NaN anywhere in a window gives NaN in every horizon of that row;
* a fitted model gains no state: ``predict`` leaves ``__dict__`` and the
  pickle bytes as they were.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models import HoltForecaster
from repro.models.exponential import _holt_filter, holt_linear

#: the stated bound, relative to the window's largest magnitude
TOLERANCE = 1e-12


def _fitted(alpha: float, beta: float, horizon: int, target_col: int = 0) -> HoltForecaster:
    """A Holt model whose one-cell grid fixes (alpha, beta)."""
    f = HoltForecaster(horizon=horizon, target_col=target_col, alphas=(alpha,), betas=(beta,))
    f.fit(np.zeros((2, 3, target_col + 1)), np.zeros((2, horizon)))
    assert (f.alpha_, f.beta_) == (alpha, beta)
    return f


def _oracle(row: np.ndarray, alpha: float, beta: float, horizon: int) -> np.ndarray:
    levels, trends = holt_linear(row, alpha, beta)
    return levels[-1] + np.arange(1, horizon + 1) * trends[-1]


@st.composite
def _windows(draw, max_rows: int = 4):
    window = draw(st.integers(2, 64))
    rows = draw(st.integers(1, max_rows))
    scale = 10.0 ** draw(st.floats(-6, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(rows, window))
    if draw(st.booleans()):
        x = x.cumsum(axis=1)
    return x * scale


_alphas = st.floats(1e-3, 1.0)
_betas = st.floats(0.0, 1.0)


class TestHoltFilter:
    @settings(max_examples=300, deadline=None)
    @given(x=_windows(), horizon=st.integers(1, 8), alpha=_alphas, beta=_betas)
    @example(x=np.array([[1.0, 2.0]]), horizon=1, alpha=1.0, beta=0.0)
    @example(x=np.full((1, 64), -3e5), horizon=8, alpha=1e-3, beta=1.0)
    def test_within_tolerance_of_recursion(self, x, horizon, alpha, beta):
        got = _fitted(alpha, beta, horizon).predict(x[:, :, None])
        assert got.shape == (len(x), horizon)
        for row, pred in zip(x, got):
            bound = TOLERANCE * np.abs(row).max()
            np.testing.assert_allclose(
                pred, _oracle(row, alpha, beta, horizon), rtol=0, atol=bound
            )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 600),
        features=st.integers(1, 4),
        col=st.integers(0, 3),
        window=st.integers(2, 24),
        horizon=st.sampled_from([1, 3]),
    )
    @example(n=4096, features=2, col=0, window=12, horizon=1)
    @example(n=4096, features=4, col=3, window=12, horizon=3)
    def test_row_is_bit_identical_alone_and_in_any_batch(
        self, n, features, col, window, horizon
    ):
        col %= features  # the target is a strided column when features > 1
        rng = np.random.default_rng(n * 31 + window)
        x = rng.normal(size=(n, window, features)).cumsum(axis=1)
        model = _fitted(0.3, 0.7, horizon, target_col=col)
        full = model.predict(x)
        for i in {0, n // 2, n - 1}:
            alone = model.predict(x[i : i + 1])
            assert alone.tobytes() == full[i : i + 1].tobytes()
            lo = max(0, i - 5)
            inside = model.predict(x[lo : i + 3])[i - lo]
            assert inside.tobytes() == full[i].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 40),
        features=st.integers(1, 4),
        col=st.integers(0, 3),
        window=st.integers(2, 24),
        horizon=st.sampled_from([1, 3]),
        layout=st.sampled_from(["strided", "fortran", "sliced"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=30, features=3, col=1, window=12, horizon=1, layout="strided", seed=0)
    def test_forecast_does_not_depend_on_the_memory_layout(
        self, n, features, col, window, horizon, layout, seed
    ):
        col %= features
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(2 * n, window + 3, features + 2)).cumsum(axis=1)
        if layout == "strided":  # every other row, a window of a longer series
            x = base[::2, 1 : window + 1, 1 : features + 1]
        elif layout == "fortran":
            x = np.asfortranarray(base[:n, :window, :features])
        else:  # a trailing slice of the feature axis, rows offset
            x = base[n:, 3:, 2:]
        model = _fitted(0.3, 0.7, horizon, target_col=col)
        want = model.predict(np.ascontiguousarray(x))
        assert model.predict(x).tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        x=_windows(max_rows=6),
        horizon=st.integers(1, 8),
        alpha=_alphas,
        beta=_betas,
        data=st.data(),
    )
    def test_nan_anywhere_in_a_window_gives_nan(self, x, horizon, alpha, beta, data):
        model = _fitted(alpha, beta, horizon)
        clean = model.predict(x[:, :, None])
        row = data.draw(st.integers(0, len(x) - 1))
        x = x.copy()
        x[row, data.draw(st.integers(0, x.shape[1] - 1))] = np.nan
        got = model.predict(x[:, :, None])
        assert np.isnan(got[row]).all()
        others = np.arange(len(x)) != row
        assert got[others].tobytes() == clean[others].tobytes()

    def test_predict_adds_no_model_state(self):
        model = _fitted(0.4, 0.1, 3)
        before = dict(vars(model))
        blob = pickle.dumps(model)
        rng = np.random.default_rng(0)
        for window in (2, 12, 12, 40):
            model.predict(rng.normal(size=(5, window, 1)))
        assert vars(model) == before
        assert pickle.dumps(model) == blob

    def test_filter_is_cached_and_read_only(self):
        w = _holt_filter(0.4, 0.1, 12, 3)
        assert w.shape == (12, 3) and not w.flags.writeable
        assert _holt_filter(0.4, 0.1, 12, 3) is w
