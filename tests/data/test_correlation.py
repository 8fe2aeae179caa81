"""PCC and screening tests, with hypothesis invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.correlation import (
    correlation_matrix,
    pearson,
    rank_by_correlation,
    select_top_half,
)

series = arrays(
    np.float64,
    st.integers(3, 50),
    elements=st.floats(-100, 100, allow_nan=False, width=64),
)


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 5) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_independent_near_zero(self, rng):
        x, y = rng.random(50_000), rng.random(50_000)
        assert abs(pearson(x, y)) < 0.02

    def test_matches_numpy(self, rng):
        x, y = rng.random(100), rng.random(100)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_constant_series_returns_zero(self):
        assert pearson(np.full(10, 3.0), np.arange(10.0)) == 0.0

    @given(series, series)
    @settings(max_examples=80, deadline=None)
    def test_bounded_property(self, x, y):
        n = min(len(x), len(y))
        assert -1.0 <= pearson(x[:n], y[:n]) <= 1.0

    @given(series)
    @settings(max_examples=50, deadline=None)
    @example(np.array([1.36e-81, 0, 0, 0, 0, 0, 0]))  # sums of squares underflowed
    @example(np.array([1e-170, 0, 0, 0, 0, 0, 0]))
    def test_self_correlation_property(self, x):
        r = pearson(x, x)
        assert r == pytest.approx(1.0) or r == 0.0  # 0 iff constant

    @given(series, series)
    @settings(max_examples=50, deadline=None)
    def test_symmetry_property(self, x, y):
        n = min(len(x), len(y))
        assert pearson(x[:n], y[:n]) == pytest.approx(pearson(y[:n], x[:n]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pearson(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            pearson(np.zeros(1), np.zeros(1))


class TestCorrelationMatrix:
    def test_symmetric_unit_diagonal(self, rng):
        m = correlation_matrix(rng.random((100, 5)))
        np.testing.assert_allclose(m, m.T)
        np.testing.assert_allclose(np.diag(m), np.ones(5))

    def test_matches_pairwise_pearson(self, rng):
        x = rng.random((60, 4))
        m = correlation_matrix(x)
        for i in range(4):
            for j in range(4):
                assert m[i, j] == pytest.approx(pearson(x[:, i], x[:, j]), abs=1e-10)

    def test_constant_column_zero_row(self, rng):
        x = rng.random((30, 3))
        x[:, 1] = 5.0
        m = correlation_matrix(x)
        np.testing.assert_array_equal(m[1, [0, 2]], [0.0, 0.0])
        assert m[1, 1] == 1.0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            correlation_matrix(np.zeros(5))

    def test_tiny_column_is_not_read_as_constant(self):
        """Centered sums of squares below ~1e-308 must not zero a column's row."""
        x = np.zeros((7, 2))
        x[0] = [1e-170, 1.0]
        m = correlation_matrix(x)
        assert pearson(x[:, 0], x[:, 1]) == 1.0
        np.testing.assert_allclose([m[0, 1], m[1, 0]], 1.0, rtol=0, atol=1e-12)


class TestScreening:
    def _data(self, rng, t=400):
        base = rng.random(t)
        cols = {
            "target": base,
            "strong": base + rng.normal(0, 0.05, t),
            "medium": base + rng.normal(0, 0.5, t),
            "weak": rng.random(t),
        }
        names = list(cols)
        return np.column_stack(list(cols.values())), names

    def test_ranking_order(self, rng):
        values, names = self._data(rng)
        ranking = rank_by_correlation(values, names, "target")
        assert [n for n, _ in ranking[:3]] == ["target", "strong", "medium"]

    def test_target_always_first(self, rng):
        values, names = self._data(rng)
        ranking = rank_by_correlation(values, names, "target")
        assert ranking[0] == ("target", pytest.approx(1.0))

    def test_top_half_size(self, rng):
        values, names = self._data(rng)
        selected, ranking = select_top_half(values, names, "target")
        assert len(selected) == 2  # ceil(4/2)
        assert selected == ["target", "strong"]
        assert len(ranking) == 4

    def test_top_half_minimum_two(self, rng):
        values = np.column_stack([rng.random(50), rng.random(50)])
        selected, _ = select_top_half(values, ["a", "b"], "a")
        assert len(selected) == 2

    def test_unknown_target(self, rng):
        with pytest.raises(KeyError):
            rank_by_correlation(rng.random((10, 2)), ["a", "b"], "c")

    def test_uses_absolute_correlation(self, rng):
        t = 300
        base = rng.random(t)
        values = np.column_stack([base, -base + rng.normal(0, 0.01, t), rng.random(t)])
        ranking = rank_by_correlation(values, ["t", "anti", "noise"], "t")
        assert ranking[1][0] == "anti"  # strong negative ranks above noise
        assert ranking[1][1] < 0
