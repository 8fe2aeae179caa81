"""Metric tests with hypothesis invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.training.metrics import mae, mse, rmse

pair = st.integers(2, 40).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, n, elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)),
        arrays(np.float64, n, elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)),
    )
)


class TestValues:
    def test_mse_paper_eq9(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]) == pytest.approx((0 + 1 + 4) / 3)

    def test_mae_paper_eq10(self):
        assert mae([1.0, -2.0], [0.0, 0.0]) == pytest.approx(1.5)

    def test_rmse_is_sqrt_mse(self):
        y, p = [1.0, 5.0], [0.0, 0.0]
        assert rmse(y, p) == pytest.approx(np.sqrt(mse(y, p)))


class TestProperties:
    @given(pair)
    @settings(max_examples=80, deadline=None)
    def test_nonnegative_and_zero_iff_equal(self, data):
        y, p = data
        assert mse(y, p) >= 0.0
        assert mae(y, p) >= 0.0
        assert mse(y, y) == 0.0
        assert mae(y, y) == 0.0

    @given(pair)
    @settings(max_examples=80, deadline=None)
    def test_mae_bounds_rmse(self, data):
        """Cauchy-Schwarz: MAE <= RMSE always."""
        y, p = data
        assert mae(y, p) <= rmse(y, p) + 1e-9

    @given(pair)
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, data):
        y, p = data
        assert mse(y, p) == pytest.approx(mse(p, y))
        assert mae(y, p) == pytest.approx(mae(p, y))

    @given(pair, st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_translation_invariance(self, data, shift):
        y, p = data
        assert mse(y + shift, p + shift) == pytest.approx(mse(y, p), rel=1e-6, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            mae(np.zeros(0), np.zeros(0))
