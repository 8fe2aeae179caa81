"""Robustness harness and JSON conversion tests."""

import numpy as np
import pytest

from repro.experiments.persistence import to_jsonable
from repro.experiments.robustness import RobustnessResult, run_robustness
from .test_harnesses import TINY


class TestRobustnessResult:
    def _result(self):
        res = RobustnessResult(scenario="mul_exp", level="machines", seeds=(1, 2, 3))
        res.mse = {"a": [1.0, 2.0, 3.0], "b": [2.0, 1.0, 4.0]}
        res.mae = {"a": [0.1, 0.2, 0.3], "b": [0.2, 0.1, 0.4]}
        return res

    def test_summary(self):
        s = self._result().summary("mse")
        assert s["a"] == (pytest.approx(2.0), pytest.approx(np.std([1, 2, 3])))

    def test_win_counts(self):
        wins = self._result().win_counts("mse")
        assert wins == {"a": 2, "b": 1}

    def test_mean_rank(self):
        ranks = self._result().mean_rank("mse")
        assert ranks["a"] < ranks["b"]
        assert ranks["a"] + ranks["b"] == pytest.approx(3.0)


class TestRunRobustness:
    def test_multi_seed_run(self):
        res = run_robustness(
            TINY, models=("persistence", "mean"), seeds=(1, 2)
        )
        assert res.seeds == (1, 2)
        for model in ("persistence", "mean"):
            assert len(res.mse[model]) == 2
            assert all(v > 0 for v in res.mse[model])
        # wins across seeds total the seed count
        assert sum(res.win_counts().values()) == 2

    def test_seed_variation_exists(self):
        res = run_robustness(TINY, models=("persistence",), seeds=(1, 2))
        assert res.mse["persistence"][0] != res.mse["persistence"][1]


class TestPersistence:
    def test_jsonable_conversions(self):
        out = to_jsonable(
            {
                ("a", "b"): np.float64(1.5),
                "arr": np.arange(3),
                "nested": [np.int32(2), (1, 2)],
                "s": slice(0, 5),
            }
        )
        assert out["a|b"] == 1.5
        assert out["arr"] == [0, 1, 2]
        assert out["nested"] == [2, [1, 2]]
        assert out["s"] == {"__slice__": [0, 5, None]}

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestFeatureImportances:
    def test_importances_identify_informative_feature(self, rng):
        from repro.models.gbt import GradientBoostedTrees

        x = rng.random((400, 5))
        y = 3.0 * x[:, 2] + rng.normal(0, 0.05, 400)  # only feature 2 matters
        model = GradientBoostedTrees(n_estimators=30, max_depth=3).fit(x, y)
        imp = model.feature_importances(5)
        assert imp.sum() == pytest.approx(1.0)
        assert imp[2] > 0.8

    def test_requires_fit(self):
        from repro.models.gbt import GradientBoostedTrees

        with pytest.raises(RuntimeError):
            GradientBoostedTrees().feature_importances(3)
