"""Convergence summaries and text reporting tests."""

import numpy as np
import pytest

from repro.analysis.convergence import compare_convergence, epochs_to_threshold
from repro.analysis.reporting import format_table, format_table2, render_ascii_series


class TestEpochsToThreshold:
    def test_immediate_convergence(self):
        assert epochs_to_threshold([1.0, 1.0, 1.0]) == 1

    def test_gradual(self):
        # drop 1.0 -> 0.0; 90% of drop reached at value 0.1
        curve = [1.0, 0.5, 0.2, 0.05, 0.0]
        assert epochs_to_threshold(curve, 0.9) == 4

    def test_full_fraction(self):
        curve = [1.0, 0.5, 0.0]
        assert epochs_to_threshold(curve, 1.0) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            epochs_to_threshold([])
        with pytest.raises(ValueError):
            epochs_to_threshold([1.0], fraction=0.0)


class TestCompare:
    def test_sorted_by_final(self):
        records = compare_convergence(
            {"slow": [1.0, 0.9, 0.8], "fast": [1.0, 0.2, 0.1]}
        )
        assert [r.model for r in records] == ["fast", "slow"]

    def test_record_fields(self):
        rec = compare_convergence({"m": [2.0, 1.0, 0.5]})[0]
        assert rec.initial_loss == 2.0
        assert rec.final_loss == 0.5
        assert rec.best_loss == 0.5
        assert rec.epochs == 3
        assert rec.converged

    def test_diverged_model_flagged(self):
        rec = compare_convergence({"m": [1.0, 0.1, 0.9]})[0]
        assert not rec.converged

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            compare_convergence({"m": []})


class TestTables:
    def test_alignment_and_content(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["xyz", 3.25]])
        lines = out.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "2.5000" in out and "xyz" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_table2_scaling_and_missing_cells(self):
        metrics = {
            ("uni", "arima", "containers"): {"mse": 0.004, "mae": 0.05},
            ("mul_exp", "rptcn", "machines"): {"mse": 0.005, "mae": 0.05},
        }
        out = format_table2(metrics)
        assert "0.4000" in out  # 0.004 x 100
        assert "-" in out  # missing machine cell for arima


class TestAscii:
    def test_sparkline_length_capped(self, rng):
        out = render_ascii_series(rng.random(1000), width=40)
        chart = out.split("] ")[-1]
        assert len(chart) <= 40

    def test_monotone_series_renders_monotone(self):
        out = render_ascii_series(np.linspace(0, 1, 8), width=8)
        chart = out.split("] ")[-1]
        assert chart == "".join(sorted(chart))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_ascii_series(np.array([]))

