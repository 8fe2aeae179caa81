"""Feature-expansion tests (paper Fig. 4 and §V-C extensions)."""

import numpy as np
import pytest

from repro.data.expansion import (
    difference_expand,
    horizontal_expand,
    weighted_horizontal_expand,
)


@pytest.fixture
def matrix(rng):
    return rng.random((20, 3))


class TestHorizontal:
    def test_paper_default_shape(self, matrix):
        out, names = horizontal_expand(matrix, ["a", "b", "c"])
        assert out.shape == (18, 9)  # T - maxlag, k * 3
        assert names[:3] == ["a_lag2", "a_lag1", "a_lag0"]

    def test_lag_alignment(self, matrix):
        """Row t of the expansion must hold x[t+2], x[t+1], x[t] per column."""
        out, _ = horizontal_expand(matrix, ["a", "b", "c"], lags=(2, 1, 0))
        t = 5
        np.testing.assert_array_equal(out[t, 0], matrix[t, 0])        # a_lag2 = value at t
        np.testing.assert_array_equal(out[t, 1], matrix[t + 1, 0])    # a_lag1
        np.testing.assert_array_equal(out[t, 2], matrix[t + 2, 0])    # a_lag0 (current)

    def test_lag0_only_is_identity(self, matrix):
        out, names = horizontal_expand(matrix, ["a", "b", "c"], lags=(0,))
        np.testing.assert_array_equal(out, matrix)
        assert names == ["a_lag0", "b_lag0", "c_lag0"]

    def test_eq11_structure(self, matrix):
        """Eq. 11: each indicator contributes exactly len(lags) columns, grouped."""
        out, names = horizontal_expand(matrix, ["cpu", "mpki", "cpi"])
        assert [n.rsplit("_", 1)[0] for n in names] == (
            ["cpu"] * 3 + ["mpki"] * 3 + ["cpi"] * 3
        )

    def test_validation(self, matrix):
        with pytest.raises(ValueError):
            horizontal_expand(matrix[:, 0])
        with pytest.raises(ValueError):
            horizontal_expand(matrix, lags=())
        with pytest.raises(ValueError):
            horizontal_expand(matrix, lags=(-1, 0))
        with pytest.raises(ValueError):
            horizontal_expand(matrix[:2], lags=(5, 0))
        with pytest.raises(ValueError):
            horizontal_expand(matrix, ["only_one"])


class TestDifference:
    def test_shape_and_names(self, matrix):
        out, names = difference_expand(matrix, ["a", "b", "c"])
        assert out.shape == (19, 6)
        assert names == ["a", "b", "c", "a_diff1", "b_diff1", "c_diff1"]

    def test_difference_values(self):
        x = np.array([[1.0], [3.0], [6.0]])
        out, _ = difference_expand(x, ["a"])
        np.testing.assert_array_equal(out[:, 0], [3.0, 6.0])
        np.testing.assert_array_equal(out[:, 1], [2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            difference_expand(np.zeros((1, 2)))


class TestWeighted:
    def test_lag_counts_proportional_to_correlation(self, matrix):
        corr = np.array([1.0, 0.5, 0.1])
        out, names = weighted_horizontal_expand(matrix, corr, ["a", "b", "c"], max_lags=4)
        a_cols = [n for n in names if n.startswith("a_")]
        b_cols = [n for n in names if n.startswith("b_")]
        c_cols = [n for n in names if n.startswith("c_")]
        assert len(a_cols) == 4  # strongest gets max_lags copies
        assert len(b_cols) == 2
        assert len(c_cols) == 1  # weakest gets only the current value

    def test_every_indicator_keeps_current_value(self, matrix):
        corr = np.array([1.0, 0.01, 0.01])
        _, names = weighted_horizontal_expand(matrix, corr, ["a", "b", "c"])
        for prefix in ("a", "b", "c"):
            assert f"{prefix}_lag0" in names

    def test_negative_correlations_use_magnitude(self, matrix):
        out_pos, _ = weighted_horizontal_expand(matrix, np.array([1.0, 0.5, 0.1]))
        out_neg, _ = weighted_horizontal_expand(matrix, np.array([-1.0, -0.5, -0.1]))
        assert out_pos.shape == out_neg.shape

    def test_validation(self, matrix):
        with pytest.raises(ValueError):
            weighted_horizontal_expand(matrix, np.array([1.0]))  # wrong corr length
        with pytest.raises(ValueError):
            weighted_horizontal_expand(matrix, np.array([1.0, 1.0, 1.0]), max_lags=0)
