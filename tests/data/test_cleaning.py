"""DataClean stage tests."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data.cleaning import clean_matrix
from repro.traces.corruption import CorruptionConfig, corrupt_entity
from repro.traces.generator import ClusterTraceGenerator, TraceConfig


def dirty_matrix(rng, t=50, k=4):
    values = rng.random((t, k))
    ts = np.arange(t) * 10
    values[3, 1] = np.nan  # missing cell
    values[10, :] = np.nan  # missing row
    return ts, values


class TestDropPolicy:
    def test_drops_incomplete_rows(self, rng):
        ts, values = dirty_matrix(rng)
        out_ts, out_vals, report = clean_matrix(ts, values, policy="drop")
        assert not np.isnan(out_vals).any()
        assert report.n_dropped_incomplete == 2
        assert len(out_ts) == len(out_vals) == 48

    def test_clean_input_untouched(self, rng):
        ts = np.arange(20)
        values = rng.random((20, 3))
        out_ts, out_vals, report = clean_matrix(ts, values)
        np.testing.assert_array_equal(out_vals, values)
        assert report.drop_fraction == 0.0


class TestInterpolatePolicy:
    def test_fills_all_nans(self, rng):
        ts, values = dirty_matrix(rng)
        _, out_vals, report = clean_matrix(ts, values, policy="interpolate")
        assert not np.isnan(out_vals).any()
        assert len(out_vals) == 50
        assert report.n_interpolated_cells == 1 + 4

    def test_interpolation_is_linear(self):
        ts = np.arange(5)
        values = np.array([[0.0], [np.nan], [2.0], [np.nan], [4.0]])
        _, out, _ = clean_matrix(ts, values, policy="interpolate")
        np.testing.assert_allclose(out[:, 0], [0, 1, 2, 3, 4])

    def test_all_missing_column_raises(self):
        values = np.full((10, 2), np.nan)
        values[:, 0] = 1.0
        with pytest.raises(ValueError, match="entirely missing"):
            clean_matrix(np.arange(10), values, policy="interpolate")


class TestDedupe:
    def test_duplicate_timestamps_removed(self, rng):
        ts = np.array([0, 10, 10, 20])
        values = rng.random((4, 2))
        out_ts, out_vals, report = clean_matrix(ts, values)
        assert report.n_deduplicated == 1
        np.testing.assert_array_equal(out_ts, [0, 10, 20])
        # the first occurrence is the one kept
        np.testing.assert_array_equal(out_vals[1], values[1])


class TestWinsorize:
    def test_outliers_clamped(self, rng):
        values = rng.normal(0.5, 0.01, size=(200, 1))
        values[7, 0] = 100.0
        _, out, report = clean_matrix(np.arange(200), values, winsorize_z=5.0)
        assert out[7, 0] < 1.0
        assert report.n_winsorized_cells >= 1

    def test_inliers_untouched(self, rng):
        values = rng.normal(0.5, 0.1, size=(300, 2))
        _, out, _ = clean_matrix(np.arange(300), values, winsorize_z=50.0)
        np.testing.assert_array_equal(out, values)


class TestEntityIntegration:
    def test_corrupted_entity_cleans_end_to_end(self):
        gen = ClusterTraceGenerator(TraceConfig(n_machines=1, containers_per_machine=1,
                                                n_steps=500, seed=3))
        entity = gen.generate().containers[0]
        rng = np.random.default_rng(0)
        dirty = corrupt_entity(entity, CorruptionConfig(seed=0), rng)
        ts, vals, report = clean_matrix(dirty.timestamps, dirty.values, policy="drop")
        cleaned = replace(dirty, timestamps=ts, values=vals)
        assert not np.isnan(cleaned.values).any()
        assert cleaned.complete_mask().all()
        assert report.n_output <= report.n_input
        assert cleaned.entity_id == entity.entity_id

    def test_invalid_policy(self, rng):
        with pytest.raises(ValueError, match="policy"):
            clean_matrix(np.arange(5), rng.random((5, 2)), policy="magic")
