"""Additional scaler edge cases: out-of-range data, dtype handling."""

import numpy as np
import pytest

from repro.data.scaling import MinMaxScaler


class TestOutOfTrainingRange:
    """With train-only fitting (the pipeline's protocol), evaluation data
    can exceed [0, 1]; the scaler must pass it through linearly."""

    def test_minmax_extrapolates_linearly(self):
        sc = MinMaxScaler().fit(np.array([[0.0], [10.0]]))
        out = sc.transform(np.array([[20.0], [-10.0]]))
        np.testing.assert_allclose(out[:, 0], [2.0, -1.0])
        back = sc.inverse_transform(out)
        np.testing.assert_allclose(back[:, 0], [20.0, -10.0])


class TestDtypes:
    def test_integer_input_accepted(self):
        sc = MinMaxScaler().fit(np.array([[1], [2], [3]], dtype=np.int64))
        out = sc.transform(np.array([[2]], dtype=np.int32))
        assert out.dtype == np.float64
        assert out[0, 0] == pytest.approx(0.5)

    def test_fit_transform_shortcut(self):
        x = np.arange(10.0)[:, None]
        a = MinMaxScaler().fit_transform(x)
        sc = MinMaxScaler().fit(x)
        np.testing.assert_array_equal(a, sc.transform(x))


class TestColumnIndependence:
    def test_columns_scaled_independently(self, rng):
        x = np.column_stack([rng.random(50), rng.random(50) * 1000])
        out = MinMaxScaler().fit_transform(x)
        # both columns span [0, 1] despite the 1000x scale difference
        np.testing.assert_allclose(out.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.max(axis=0), 1.0, atol=1e-12)

    def test_single_column_equivalence(self, rng):
        x = rng.random((40, 3))
        full = MinMaxScaler().fit(x)
        solo = MinMaxScaler().fit(x[:, 1][:, None])
        np.testing.assert_allclose(
            full.transform(x)[:, 1], solo.transform(x[:, 1][:, None])[:, 0]
        )
