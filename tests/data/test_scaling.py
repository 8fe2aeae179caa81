"""Scaler tests, including hypothesis round-trip properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.scaling import MinMaxScaler

finite_matrix = arrays(
    np.float64,
    st.tuples(st.integers(2, 30), st.integers(1, 6)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
)


class TestMinMax:
    def test_range_is_unit_interval(self, rng):
        x = rng.normal(50, 20, size=(100, 3))
        out = MinMaxScaler().fit_transform(x)
        np.testing.assert_allclose(out.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.max(axis=0), 1.0, atol=1e-12)

    def test_matches_paper_formula(self, rng):
        x = rng.random((50, 2)) * 100
        sc = MinMaxScaler().fit(x)
        expected = (x - x.min(axis=0)) / (x.max(axis=0) - x.min(axis=0))
        np.testing.assert_allclose(sc.transform(x), expected)

    @given(finite_matrix)
    @settings(max_examples=60, deadline=None)
    def test_inverse_roundtrip_property(self, x):
        sc = MinMaxScaler().fit(x)
        back = sc.inverse_transform(sc.transform(x))
        np.testing.assert_allclose(back, x, atol=1e-6 * (1 + np.abs(x).max()))

    @given(finite_matrix)
    @settings(max_examples=60, deadline=None)
    def test_transform_bounded_on_training_data(self, x):
        out = MinMaxScaler().fit_transform(x)
        assert (out >= -1e-9).all() and (out <= 1 + 1e-9).all()

    def test_constant_column_maps_to_zero(self):
        x = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        out = MinMaxScaler().fit_transform(x)
        np.testing.assert_array_equal(out[:, 0], np.zeros(10))

    def test_1d_convenience(self, rng):
        x = rng.random(20)
        sc = MinMaxScaler().fit(x)
        out = sc.transform(x)
        assert out.ndim == 1
        np.testing.assert_allclose(sc.inverse_transform(out), x)

    def test_column_inverse(self, rng):
        x = rng.random((30, 4)) * np.array([1, 10, 100, 1000])
        sc = MinMaxScaler().fit(x)
        norm = sc.transform(x)
        np.testing.assert_allclose(sc.inverse_transform_column(norm[:, 2], 2), x[:, 2])

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="fitted"):
            MinMaxScaler().transform(np.zeros((2, 2)))

    def test_nan_rejected(self):
        x = np.array([[1.0], [np.nan]])
        with pytest.raises(ValueError, match="NaN"):
            MinMaxScaler().fit(x)
