"""GRU / MLP / Holt forecaster tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models import GRUForecaster, HoltForecaster, MLPForecaster
from repro.models.exponential import holt_linear

from .test_deep_models import sine_windows


def _oracle_grid(series, alphas, betas):
    """Scalar grid search over ``holt_linear``: per-cell SSE + chosen cell."""
    sses = []
    best = (np.inf, alphas[0], betas[0])
    for a in alphas:
        for b in betas:
            levels, trends = holt_linear(series, a, b)
            one_step = levels[:-1] + trends[:-1]
            sse = float(((series[1:] - one_step) ** 2).sum())
            sses.append(sse)
            if sse < best[0]:
                best = (sse, a, b)
    return np.array(sses), best[1], best[2]


def _fit_series(series, alphas, betas):
    """Fit on windows of one point, so fit reads exactly ``series``."""
    f = HoltForecaster(alphas=alphas, betas=betas)
    return f.fit(series[:-1, None, None], series[1:, None])


_ALPHA_POOL = (0.05, 0.2, 0.2, 0.5, 0.75, 1.0, 1.0)
_BETA_POOL = (0.0, 0.0, 0.1, 0.3, 0.5, 0.9, 1.0)
_grids = st.tuples(
    st.lists(st.sampled_from(_ALPHA_POOL), min_size=1, max_size=5).map(tuple),
    st.lists(st.sampled_from(_BETA_POOL), min_size=1, max_size=4).map(tuple),
)


@st.composite
def _series(draw):
    n = draw(st.integers(2, 400))
    if draw(st.booleans()):
        return np.full(n, draw(st.floats(-1e6, 1e6, allow_nan=False)))
    scale = draw(st.sampled_from([1e-300, 1e-12, 1.0, 1e12, 1e150, 1e300]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    walk = rng.normal(size=n) if draw(st.booleans()) else rng.normal(size=n).cumsum()
    return walk * scale


class TestHolt:
    def test_tracks_linear_trend_exactly(self):
        series = 1.0 + 0.5 * np.arange(50)
        levels, trends = holt_linear(series, alpha=0.5, beta=0.5)
        assert levels[-1] == pytest.approx(series[-1], abs=1e-6)
        assert trends[-1] == pytest.approx(0.5, abs=1e-6)

    def test_forecaster_extrapolates_trend(self):
        t = np.arange(200.0)
        series = 0.002 * t + 0.1
        from repro.data.windowing import make_windows

        x, y = make_windows(series[:, None], series, window=10, horizon=3)
        f = HoltForecaster(horizon=3).fit(x[:100], y[:100])
        pred = f.predict(x[100:110])
        np.testing.assert_allclose(pred, y[100:110], atol=1e-6)

    def test_grid_selects_high_alpha_for_noiseless(self):
        series = np.sin(np.arange(300) / 10.0)
        from repro.data.windowing import make_windows

        x, y = make_windows(series[:, None], series, window=10)
        f = HoltForecaster().fit(x, y)
        assert f.alpha_ is not None and f.alpha_ >= 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            holt_linear(np.array([1.0]), 0.5, 0.5)
        with pytest.raises(ValueError):
            holt_linear(np.arange(10.0), 0.5, 1.5)

    @pytest.mark.parametrize(
        "grid",
        [
            dict(alphas=()),
            dict(betas=()),
            dict(alphas=(0.0, 0.5)),
            dict(alphas=(0.5, 1.5)),
            dict(alphas=(float("nan"),)),
            dict(betas=(-0.1, 0.3)),
            dict(betas=(0.3, 1.1)),
        ],
        ids=["empty-alphas", "empty-betas", "alpha-zero", "alpha-above-one",
             "alpha-nan", "beta-negative", "beta-above-one"],
    )
    def test_grid_validated_at_construction(self, grid):
        with pytest.raises(ValueError):
            HoltForecaster(**grid)

    def test_grid_bounds_are_inclusive_where_documented(self):
        f = HoltForecaster(alphas=(1.0,), betas=(0.0, 1.0))
        assert f.alphas == (1.0,) and f.betas == (0.0, 1.0)


    @settings(max_examples=120, deadline=None)
    @given(series=_series(), grid=_grids)
    @example(series=np.array([1.0, 2.0]), grid=((0.5,), (0.5,)))
    @example(series=np.full(7, 3.0), grid=((0.2, 0.2, 1.0), (0.0, 0.0)))
    def test_matches_scalar_oracle(self, series, grid):
        alphas, betas = grid
        with np.errstate(all="ignore"):
            sses, a, b = _oracle_grid(series, alphas, betas)
            f = _fit_series(series, alphas, betas)
            got = HoltForecaster(alphas=alphas, betas=betas)._grid_sse(series)
        np.testing.assert_array_equal(got, sses)
        assert (f.alpha_, f.beta_) == (a, b)

    @settings(max_examples=80, deadline=None)
    @given(
        series=_series(),
        grid=_grids,
        holes=st.lists(
            st.tuples(st.integers(0, 399),
                      st.sampled_from([np.nan, np.inf, -np.inf])),
            min_size=1, max_size=4,
        ),
    )
    def test_nonfinite_series_keep_tie_and_nan_rule(self, series, grid, holes):
        alphas, betas = grid
        series = series.copy()
        for i, v in holes:
            series[i % len(series)] = v
        with np.errstate(all="ignore"):
            sses, a, b = _oracle_grid(series, alphas, betas)
            f = _fit_series(series, alphas, betas)
            got = HoltForecaster(alphas=alphas, betas=betas)._grid_sse(series)
        np.testing.assert_array_equal(got, sses)
        assert (f.alpha_, f.beta_) == (a, b)
        if not np.isfinite(sses).any():
            assert (f.alpha_, f.beta_) == (alphas[0], betas[0])

    def test_all_nan_grid_keeps_first_cell(self):
        series = np.array([1.0, np.nan, 2.0, 3.0])
        with np.errstate(all="ignore"):
            f = _fit_series(series, (0.6, 0.2), (0.5, 0.1))
        assert (f.alpha_, f.beta_) == (0.6, 0.5)

    def test_nan_cell_never_beats_an_earlier_inf_cell(self):
        # overflow leaves one late cell NaN and every other cell inf
        series = np.array([-1.0, 1.0, -1e308, 1e308, 0.0])
        f = HoltForecaster()
        with np.errstate(all="ignore"):
            sse = f._grid_sse(series)
            f.fit(series[:-1, None, None], series[1:, None])
        assert np.isnan(sse).any() and np.isinf(sse[0])
        assert (f.alpha_, f.beta_) == (f.alphas[0], f.betas[0])

    def test_ties_keep_first_row_major_cell(self):
        f = _fit_series(np.full(10, 2.5), (0.8, 0.4), (0.3, 0.0))
        assert (f.alpha_, f.beta_) == (0.8, 0.3)


class TestGRUAndMLP:
    @pytest.mark.parametrize(
        "cls,kwargs",
        [
            (GRUForecaster, {"hidden": 12, "epochs": 25}),
            (MLPForecaster, {"hidden": (32,), "epochs": 30}),
        ],
    )
    def test_learns_sine(self, cls, kwargs):
        x, y = sine_windows()
        m = cls(seed=9, **kwargs)
        m.fit(x[:250], y[:250], x[250:320], y[250:320])
        pred = m.predict(x[320:])
        truth = y[320:]
        mse_model = np.mean((pred - truth) ** 2)
        mse_const = np.mean((truth - y[:250].mean()) ** 2)
        assert mse_model < 0.5 * mse_const

    def test_registered(self):
        from repro.models import FORECASTER_REGISTRY

        assert {"gru", "mlp", "holt"} <= set(FORECASTER_REGISTRY)

    def test_mlp_validation(self):
        with pytest.raises(ValueError):
            MLPForecaster(hidden=())
