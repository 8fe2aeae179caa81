"""The warm-start contract: resume when possible, cold-fit otherwise.

``Forecaster.warm_fit`` feeds the async refit engine's warm path
(ISSUE 9): callers treat it as "give me an updated model", so a model
that cannot resume must fall back to a full fit rather than raise.
Neural models resume the live Trainer (Adam moments and all) and splice
the resumed epochs into their lifetime history; the pruned GRU
additionally re-clamps its magnitude masks so a warm refit never
silently densifies the network.
"""

import numpy as np
import pytest

from repro.data.windowing import make_windows
from repro.models import create_forecaster
from repro.nn.tensor import Tensor


def _data(n=80, seed=0, features=1, window=8):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    series = 0.5 + 0.2 * np.sin(2 * np.pi * t / 16) + rng.normal(0, 0.02, n)
    feats = np.repeat(series[:, None], features, axis=1)
    return make_windows(feats, series, window=window)


class TestClassicalDefault:
    @pytest.mark.parametrize("name", ["mean", "holt", "persistence"])
    def test_warm_fit_is_exactly_the_cold_path(self, name):
        x, y = _data()
        x2, y2 = _data(seed=1)
        warm = create_forecaster(name).fit(x, y).warm_fit(x2, y2, epochs=3)
        cold = create_forecaster(name).fit(x2, y2)
        assert not warm.supports_warm_fit
        np.testing.assert_array_equal(warm.predict(x2[:5]), cold.predict(x2[:5]))

    def test_unfitted_warm_fit_just_fits(self):
        x, y = _data()
        model = create_forecaster("mean").warm_fit(x, y)
        assert model.fitted


class TestNeuralResume:
    def test_resume_reuses_network_and_splices_history(self):
        x, y = _data(seed=0)
        x2, y2 = _data(seed=1)
        model = create_forecaster("mlp", epochs=4, seed=0).fit(x, y)
        net, trainer = model.model, model.trainer
        before = model.history.epochs_run
        assert model.supports_warm_fit
        model.warm_fit(x2, y2, epochs=2)
        # genuine continuation: same network object, same Trainer (and
        # therefore the same Adam instance with its moments)
        assert model.model is net and model.trainer is trainer
        assert model.history.epochs_run == before + 2
        assert len(model.history.train_loss) == before + 2

    def test_default_budget_is_quarter_of_cold_epochs(self):
        x, y = _data()
        model = create_forecaster("mlp", epochs=8, seed=0).fit(x, y)
        before = model.history.epochs_run
        model.warm_fit(x, y)
        assert model.history.epochs_run == before + 2  # 8 // 4

    def test_shape_mismatch_falls_back_to_cold_fit(self):
        x, y = _data(window=8)
        model = create_forecaster("mlp", epochs=2, seed=0).fit(x, y)
        net = model.model
        x2, y2 = _data(window=12)  # different window: the net cannot resume
        model.warm_fit(x2, y2)
        assert model.model is not net  # rebuilt, not resumed
        assert model._fit_shape == (12, 1)
        assert np.isfinite(model.predict(x2[:3])).all()

    def test_warm_fit_rejects_nonpositive_budget(self):
        x, y = _data()
        model = create_forecaster("mlp", epochs=2, seed=0).fit(x, y)
        with pytest.raises(ValueError, match="epochs"):
            model.warm_fit(x, y, epochs=0)


class TestPredictKeepsEvalMode:
    """Predicting must not leave dropout live on the forecaster's shared rng."""

    KW = dict(epochs=2, channels=(4, 4), seed=0)

    def test_network_stays_in_eval_mode_after_predict(self):
        x, y = _data(features=2)
        model = create_forecaster("rptcn", **self.KW).fit(x, y)
        model.predict(x[:5])
        assert not any(m.training for m in model.model.modules())
        xt = Tensor(x[:5])
        first = model.model.attention_weights(xt)
        np.testing.assert_array_equal(model.model.attention_weights(xt), first)

    def test_evaluate_restores_training_mode(self):
        x, y = _data(features=2)
        model = create_forecaster("rptcn", **self.KW).fit(x, y)
        model.model.train()
        model.trainer.evaluate(x, y)
        model.trainer.predict(x[:3])
        assert all(m.training for m in model.model.modules())

    def test_attention_probe_does_not_shift_the_next_warm_fit(self):
        x, y = _data(features=2)
        x2, y2 = _data(seed=1, features=2)

        def warm(probe: bool) -> np.ndarray:
            model = create_forecaster("rptcn", **self.KW).fit(x, y)
            model.predict(x[:5])
            if probe:
                model.model.attention_weights(Tensor(x[:5]))
            model.warm_fit(x2, y2, epochs=1)
            return model.predict(x2[:5])

        np.testing.assert_array_equal(warm(probe=True), warm(probe=False))


class TestPrunedGRU:
    KW = dict(hidden=8, epochs=2, finetune_epochs=1, seed=0)

    def test_fit_reaches_requested_sparsity(self):
        x, y = _data(n=60)
        model = create_forecaster("gru_pruned", sparsity=0.5, **self.KW).fit(x, y)
        assert model.sparsity_achieved == pytest.approx(0.5, abs=0.05)
        for name, param in model.model.named_parameters():
            mask = model._masks.get(name)
            if mask is not None:
                assert (param.data[~mask] == 0.0).all()

    def test_warm_fit_preserves_masks_and_sparsity(self):
        x, y = _data(n=60, seed=0)
        x2, y2 = _data(n=60, seed=1)
        model = create_forecaster("gru_pruned", sparsity=0.5, **self.KW).fit(x, y)
        masks_before = {k: v.copy() for k, v in model._masks.items()}
        sparsity_before = model.sparsity_achieved
        model.warm_fit(x2, y2, epochs=2)
        # the masks are part of the model: identical after the resume,
        # and every pruned weight is still exactly zero
        assert set(model._masks) == set(masks_before)
        for name, mask in masks_before.items():
            np.testing.assert_array_equal(model._masks[name], mask)
        assert model.sparsity_achieved == sparsity_before
        for name, param in model.model.named_parameters():
            mask = model._masks.get(name)
            if mask is not None:
                assert (param.data[~mask] == 0.0).all()

    def test_zero_sparsity_disables_pruning(self):
        x, y = _data(n=60)
        model = create_forecaster("gru_pruned", sparsity=0.0, **self.KW).fit(x, y)
        assert model.sparsity_achieved == 0.0
        assert model._masks == {}

    def test_validation(self):
        with pytest.raises(ValueError, match="sparsity"):
            create_forecaster("gru_pruned", sparsity=1.0)
        with pytest.raises(ValueError, match="finetune_epochs"):
            create_forecaster("gru_pruned", finetune_epochs=-1)

    def test_serialization_roundtrip_keeps_masks(self):
        from repro.models.base import Forecaster

        x, y = _data(n=60)
        model = create_forecaster("gru_pruned", sparsity=0.5, **self.KW).fit(x, y)
        clone = Forecaster.from_bytes(model.to_bytes())
        assert clone.sparsity_achieved == model.sparsity_achieved
        np.testing.assert_array_equal(clone.predict(x[:4]), model.predict(x[:4]))
