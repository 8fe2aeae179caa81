"""Smoke/integration tests for every experiment harness at tiny scale."""

import numpy as np
import pytest

from repro.experiments.accuracy import SCENARIO_MODELS, run_table2
from repro.experiments.characterization import (
    build_cluster,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig7,
)
from repro.experiments.config import ExperimentProfile, get_profile
from repro.experiments.convergence import run_fig9, run_fig10
from repro.experiments.curves import run_fig8

#: miniature profile so the full-matrix harnesses stay fast in CI
TINY = ExperimentProfile(
    name="tiny",
    n_steps=450,
    n_machines=2,
    containers_per_machine=1,
    n_entities=1,
    epochs=3,
    gbt_estimators=15,
)


class TestProfiles:
    def test_known_profiles(self):
        for name in ("quick", "default", "paper"):
            assert get_profile(name).name == name

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            get_profile("nope")


class TestCharacterizationHarnesses:
    @pytest.fixture(scope="class")
    def cluster(self):
        return build_cluster(TINY)

    def test_fig1(self, cluster):
        res = run_fig1(TINY, trace=cluster)
        assert set(res.series) == {"cpu_util_percent", "mem_util_percent", "disk_io_percent"}
        assert res.dynamism() > 0.0

    def test_fig2(self, cluster):
        res = run_fig2(TINY, trace=cluster, n_windows=5)
        assert 4 <= len(res.stats) <= 6
        assert len(res.mean_line) == len(res.stats)
        for s in res.stats:
            assert s.q1 <= s.median <= s.q3

    def test_fig3(self, cluster):
        res = run_fig3(TINY, trace=cluster)
        assert (res.fractions >= 0).all() and (res.fractions <= 1).all()
        assert 0.0 <= res.overall_fraction <= 1.0

    def test_fig7_top4_matches_paper(self, cluster):
        res = run_fig7(TINY, trace=cluster)
        assert res.matrix.shape == (8, 8)
        # the paper's Fig. 7 finding on container c_18104
        assert set(res.top_correlated(4)) == {"cpu_util_percent", "mpki", "cpi", "mem_gps"}

    def test_fig7_specific_entity(self, cluster):
        eid = cluster.containers[-1].entity_id
        res = run_fig7(TINY, trace=cluster, entity_id=eid)
        assert res.entity_id == eid


class TestTable2Harness:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2(TINY)

    def test_full_matrix_populated(self, result):
        for scenario, models in SCENARIO_MODELS.items():
            for model in models:
                for level in ("containers", "machines"):
                    assert (scenario, model, level) in result.metrics

    def test_arima_only_in_uni(self, result):
        arima_cells = [k for k in result.metrics if k[1] == "arima"]
        assert all(k[0] == "uni" for k in arima_cells)

    def test_metrics_positive(self, result):
        for vals in result.metrics.values():
            assert vals["mse"] > 0 and vals["mae"] > 0
            assert vals["mae"] <= 1.0  # normalized scale

    def test_best_model_and_improvements(self, result):
        best = result.best_model("mul_exp", "containers")
        assert best in SCENARIO_MODELS["mul_exp"]
        lo, hi = result.improvement_range("mae")
        assert lo <= hi

    def test_unknown_cell(self, result):
        with pytest.raises(KeyError):
            result.best_model("bogus", "containers")


class TestFig8Harness:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig8(TINY, models=("lstm", "rptcn"))

    def test_truth_has_jump(self, result):
        """The mutation must land inside the test segment."""
        t = result.truth
        assert 0 < result.jump_index < len(t) - 1
        pre, post = t[: result.jump_index], t[result.jump_index + 1 :]
        assert post.mean() > pre.mean() + 0.2

    def test_predictions_aligned(self, result):
        for pred in result.predictions.values():
            assert pred.shape == result.truth.shape

    def test_mae_diagnostics(self, result):
        for m in result.predictions:
            assert result.pre_jump_mae[m] >= 0
            assert result.post_jump_mae[m] >= 0
            assert result.tracking_error(m) >= 0
        assert result.best_post_jump() in result.predictions


class TestConvergenceHarnesses:
    def test_fig9_curves(self):
        res = run_fig9(TINY)
        assert set(res.curves) == {"lstm", "cnn_lstm", "rptcn", "xgboost"}
        for model in ("lstm", "cnn_lstm", "rptcn"):
            assert len(res.curves[model]) == TINY.epochs  # no early stop
        assert res.level == "containers"
        assert [r.model for r in res.records] == sorted(
            res.curves, key=lambda m: res.curves[m][-1]
        )

    def test_fig10_uses_validation_loss(self):
        res = run_fig10(TINY)
        assert res.monitor == "val_loss"
        assert res.level == "machines"
        assert all(len(c) > 0 for c in res.curves.values())


class TestResilienceHarness:
    def test_degradation_curve_structure(self):
        from repro.experiments import run_resilience

        res = run_resilience(TINY, levels=(0.0, 0.1))
        assert [r.level for r in res.per_level] == [0.0, 0.1]
        assert res.baseline_mae == res.per_level[0].mae_vs_clean
        assert res.degradation(0.0) == pytest.approx(1.0)
        clean, faulted = res.per_level
        # the clean level injects nothing; the faulted one injects everything
        assert all(v == 0 for v in clean.injected.values())
        assert sum(faulted.injected.values()) > 0
        assert faulted.n_quarantined > 0
        for r in res.per_level:
            assert np.isfinite(r.mae_vs_clean)
            assert 0.0 < r.availability <= 1.0
            assert r.n_served <= r.n_emitted

    def test_is_bounded_threshold(self):
        from repro.experiments import run_resilience

        res = run_resilience(TINY, levels=(0.0, 0.05))
        worst = max(res.degradation(r.level) for r in res.per_level)
        assert res.is_bounded(worst + 0.01)
        assert not res.is_bounded(worst - 0.01)


class TestRunnerCLI:
    def test_main_single_experiment(self, capsys):
        from repro.experiments import runner

        # fig7 is the cheapest harness
        assert runner.main(["-e", "fig7", "-p", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out
        assert "top-4" in out

    def test_main_rejects_unknown(self):
        from repro.experiments import runner

        with pytest.raises(SystemExit):
            runner.main(["-e", "bogus"])
