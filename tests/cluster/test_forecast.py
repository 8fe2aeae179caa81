"""FleetForecastSource: staleness, residual calibration, censor handling."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FleetForecastSource
from repro.cluster.forecast import nan_quantile_rows

#: cheap deterministic fleet settings used throughout (no GBT fitting)
FLEET = dict(forecaster_name="holt", window=4, refit_interval=6, refit_streams=4)


def source(n_jobs=3, **over):
    kwargs = dict(min_errors=4, headroom_every=1, **FLEET)
    kwargs.update(over)
    return FleetForecastSource(n_jobs=n_jobs, **kwargs)


class TestStaleness:
    def test_everything_nan_before_any_data(self):
        src = source()
        fc = src.forecast(need_headroom=True)
        assert np.isnan(fc.point).all()
        assert np.isnan(fc.headroom).all()
        assert fc.coverage == 0.0

    def test_point_appears_once_windows_fill_and_model_fits(self):
        src = source()
        for t in range(40):
            src.observe(np.full(3, 0.4 + 0.01 * (t % 3)))
        fc = src.forecast()
        assert np.isfinite(fc.point).all()
        assert fc.coverage == 1.0

    def test_absent_jobs_stay_nan(self):
        src = source()
        row = np.array([0.4, np.nan, 0.5])
        for _ in range(40):
            src.observe(row)
        fc = src.forecast()
        assert np.isfinite(fc.point[0]) and np.isfinite(fc.point[2])
        assert np.isnan(fc.point[1])

    def test_observe_shape_validated(self):
        with pytest.raises(ValueError, match="observed"):
            source(n_jobs=3).observe(np.zeros(2))


class TestResidualBand:
    def test_headroom_nan_below_min_errors_then_finite(self):
        src = source(min_errors=6)
        vals = 0.4 + 0.05 * np.sin(np.arange(60.0))
        for t in range(8):
            src.observe(np.full(3, vals[t]))
        fc = src.forecast(need_headroom=True)  # few scored forecasts yet
        assert np.isnan(fc.headroom).all()
        for t in range(8, 40):
            src.observe(np.full(3, vals[t]))
            fc = src.forecast(need_headroom=True)
        assert np.isfinite(fc.headroom).all()
        assert (fc.headroom >= 0.0).all()  # one-sided band, floored at zero

    def test_band_tracks_sizing_residuals(self):
        """A volatile stream earns a wider band than a constant one."""
        src = source(n_jobs=2, min_errors=4, tau=0.9)
        rng = np.random.default_rng(0)
        fc = None
        for _ in range(60):
            row = np.array([0.5, float(np.clip(0.5 + rng.normal(0, 0.2), 0, 1))])
            src.observe(row)
            fc = src.forecast(need_headroom=True)
        assert fc.headroom[1] > fc.headroom[0]

    def test_tau_and_cadence_validated(self):
        with pytest.raises(ValueError, match="tau"):
            source(tau=1.0)
        with pytest.raises(ValueError, match="headroom_every"):
            source(headroom_every=0)
        with pytest.raises(ValueError, match="censor"):
            source(censor_growth=0.5)


class TestCensorMultiplier:
    def test_censored_ticks_inflate_the_band(self):
        src = source()
        vals = 0.4 + 0.05 * np.sin(np.arange(60.0))
        for t in range(40):
            src.observe(np.full(3, vals[t]))
            src.forecast(need_headroom=True)
        base = src.forecast(need_headroom=True).headroom.copy()
        censored = np.array([True, False, False])
        src.observe(np.full(3, vals[40]), censored=censored)
        fc = src.forecast(need_headroom=True)
        assert fc.headroom[0] > base[0] * 1.2  # grown by censor_growth
        assert src._censor_mult[0] == pytest.approx(src.censor_growth)

    def test_multiplier_caps_and_decays(self):
        src = source(censor_growth=2.0, censor_cap=3.0, censor_decay=0.5)
        row = np.full(3, 0.5)
        hot = np.array([True, False, False])
        for _ in range(5):
            src.observe(row, censored=hot)
        assert src._censor_mult[0] == pytest.approx(3.0)  # capped
        for _ in range(10):
            src.observe(row, censored=np.zeros(3, bool))
        assert src._censor_mult[0] == pytest.approx(1.0)  # decayed to identity


def _nanquantile(a, tau):
    """NumPy's row quantiles, the oracle (an all-NaN row warns and reads NaN)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanquantile(a, tau, axis=1)


@st.composite
def _residuals(draw, max_rows=8, max_cols=40):
    """A residual matrix: NaN holes, heavy ties, signed zeros, all-NaN rows."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.sampled_from(["normal", "ties", "zeros"]))
    if values == "normal":
        a = rng.standard_normal((rows, cols))
    elif values == "ties":
        a = rng.integers(-2, 3, (rows, cols)) / 4.0
    else:
        a = rng.choice([0.0, -0.0, 0.5, -0.5], (rows, cols))
    a[rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = np.nan
    if draw(st.booleans()):
        a[rng.integers(rows)] = np.nan
    return a


TAUS = st.one_of(st.sampled_from([0.5, 0.9, 0.99]), st.floats(0.001, 0.999))


class TestResidualQuantiles:
    """The one-sort row quantile against ``np.nanquantile``."""

    @settings(max_examples=300, deadline=None)
    @given(a=_residuals(), tau=TAUS)
    def test_matches_nanquantile(self, a, tau):
        got, want = nan_quantile_rows(a, tau), _nanquantile(a, tau)
        # NumPy's partition may order tied -0.0/0.0 unlike a sort: the sign
        # of a zero may differ, never a value
        assert np.array_equal(got, want, equal_nan=True)
        assert np.maximum(got, 0.0).tobytes() == np.maximum(want, 0.0).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        a=_residuals(max_rows=6, max_cols=24),
        min_errors=st.integers(1, 30),
        tau=TAUS,
    )
    def test_source_band_matches_nanquantile(self, a, min_errors, tau):
        """Rows below ``min_errors`` read NaN; the rest are the floored quantile."""
        rows, cols = a.shape
        src = source(n_jobs=rows, min_errors=min_errors, tau=tau, residual_history=cols)
        for col in a.T:
            have = ~np.isnan(col)
            if have.any():
                src.residuals.append_tick(col[:, None], mask=have)
        retained = src.residuals.filled_matrix()[:, :, 0]
        want = np.where(src.residuals.sizes >= min_errors, _nanquantile(retained, tau), np.nan)
        assert src._residual_quantiles().tobytes() == np.maximum(want, 0.0).tobytes()
