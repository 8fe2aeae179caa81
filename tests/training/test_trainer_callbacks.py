"""Trainer loop and callback tests."""

import numpy as np
import pytest

from repro.nn.layers import Linear, Sequential, Tanh
from repro.nn.losses import MSELoss
from repro.nn.optim import Adam
from repro.training.callbacks import EarlyStopping
from repro.training.trainer import Trainer


@pytest.fixture
def problem(rng):
    """A learnable regression problem: y = 0.5 x0 - 0.3 x1."""
    x = rng.random((200, 2))
    y = (x @ np.array([0.5, -0.3]))[:, None]
    return x[:140], y[:140], x[140:], y[140:]


def make_trainer(rng, lr=0.05):
    model = Sequential(Linear(2, 8, rng=rng), Tanh(), Linear(8, 1, rng=rng))
    return Trainer(model, Adam(model.parameters(), lr=lr), MSELoss(), rng=rng)


class TestTrainer:
    def test_loss_decreases(self, rng, problem):
        xt, yt, xv, yv = problem
        trainer = make_trainer(rng)
        hist = trainer.fit(xt, yt, xv, yv, epochs=30, batch_size=16)
        assert hist.train_loss[-1] < 0.2 * hist.train_loss[0]
        assert len(hist.val_loss) == hist.epochs_run

    def test_evaluate_matches_manual(self, rng, problem):
        xt, yt, _, _ = problem
        trainer = make_trainer(rng)
        loss = trainer.evaluate(xt, yt)
        from repro.nn.tensor import Tensor

        trainer.model.eval()
        manual = MSELoss()(trainer.model(Tensor(xt)), Tensor(yt)).item()
        assert loss == pytest.approx(manual, rel=1e-9)

    def test_predict_shape_and_eval_mode(self, rng, problem):
        xt, yt, xv, _ = problem
        trainer = make_trainer(rng)
        trainer.fit(xt, yt, epochs=2)
        pred = trainer.predict(xv)
        assert pred.shape == (len(xv), 1)

    def test_predict_and_evaluate_walk_the_tree_only_to_change_the_mode(
        self, rng, problem, monkeypatch
    ):
        from repro.nn.module import Module

        xt, yt, xv, _ = problem
        trainer = make_trainer(rng)
        trainer.fit(xt, yt, epochs=1)  # leaves the model in eval mode
        calls = []
        walk = Module.train

        def spy(self, mode=True):
            calls.append(mode)
            return walk(self, mode)

        monkeypatch.setattr(Module, "train", spy)
        trainer.predict(xv)
        trainer.evaluate(xv, xv[:, :1])
        assert calls == []
        trainer.model.train()
        calls.clear()
        trainer.predict(xv)
        trainer.evaluate(xv, xv[:, :1])
        assert calls == [False, True, False, True]
        assert all(m.training for m in trainer.model.modules())

    def test_grad_clipping_runs(self, rng, problem):
        xt, yt, _, _ = problem
        model = Sequential(Linear(2, 4, rng=rng), Linear(4, 1, rng=rng))
        trainer = Trainer(
            model, Adam(model.parameters(), lr=0.01), MSELoss(), grad_clip_norm=0.1, rng=rng
        )
        hist = trainer.fit(xt, yt, epochs=3)
        assert hist.epochs_run == 3

    def test_reproducible_given_seed(self, problem):
        xt, yt, _, _ = problem
        losses = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            trainer = make_trainer(rng)
            hist = trainer.fit(xt, yt, epochs=3, batch_size=16)
            losses.append(hist.train_loss)
        assert losses[0] == losses[1]


class TestEarlyStopping:
    def test_stops_and_restores_best(self, rng, problem):
        xt, yt, xv, yv = problem
        trainer = make_trainer(rng, lr=0.3)  # aggressive lr to force val bounce
        es = EarlyStopping(patience=2, restore_best_weights=True)
        hist = trainer.fit(xt, yt, xv, yv, epochs=200, callbacks=[es])
        if hist.stopped_early:
            assert hist.epochs_run < 200
            # restored weights reproduce the best validation loss
            assert trainer.evaluate(xv, yv) == pytest.approx(es.best, rel=1e-6)

    def test_monitor_missing_raises(self, rng, problem):
        xt, yt, _, _ = problem
        trainer = make_trainer(rng)
        with pytest.raises(KeyError, match="val_loss"):
            trainer.fit(xt, yt, epochs=2, callbacks=[EarlyStopping()])

    def test_patience_zero_stops_on_first_non_improvement(self, rng):
        from repro.nn.module import Module

        es = EarlyStopping(patience=0, restore_best_weights=False)

        class M(Module):
            def forward(self, x):  # pragma: no cover
                return x

        m = M()
        es.on_train_begin(m)
        es.on_epoch_end(0, {"val_loss": 1.0}, m)
        assert not es.stop_training
        es.on_epoch_end(1, {"val_loss": 1.5}, m)
        assert es.stop_training

