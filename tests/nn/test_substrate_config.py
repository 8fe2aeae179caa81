"""Substrate configuration hooks: default-seed weight init and dtype policy."""

import numpy as np
import pytest

from repro.nn import (
    Linear,
    Tensor,
    default_rng,
    dtype_policy,
    get_default_dtype,
    set_default_dtype,
    set_default_seed,
)
from repro.nn.layers import LSTM, Conv1d


@pytest.fixture(autouse=True)
def _restore_global_config():
    yield
    set_default_seed(0)
    set_default_dtype(np.float64)


class TestDefaultSeedHook:
    def test_layers_without_rng_are_reproducible(self):
        set_default_seed(123)
        a = Conv1d(2, 3, kernel_size=3)
        set_default_seed(123)
        b = Conv1d(2, 3, kernel_size=3)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_applies_across_layer_families(self):
        set_default_seed(7)
        models_a = (Linear(4, 2), LSTM(3, 5), Conv1d(1, 1, 3))
        set_default_seed(7)
        models_b = (Linear(4, 2), LSTM(3, 5), Conv1d(1, 1, 3))
        for ma, mb in zip(models_a, models_b):
            for pa, pb in zip(ma.parameters(), mb.parameters()):
                np.testing.assert_array_equal(pa.data, pb.data)

    def test_stream_advances_between_constructions(self):
        set_default_seed(0)
        a = Linear(4, 4)
        b = Linear(4, 4)
        assert not np.array_equal(a.weight.data, b.weight.data)

    def test_default_rng_is_seeded_generator(self):
        set_default_seed(42)
        assert default_rng().uniform() == np.random.default_rng(42).uniform()


class TestDtypePolicy:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.dtype(np.float64)
        assert Tensor([1.0, 2.0]).dtype == np.float64

    def test_float32_policy_materializes_single_precision(self):
        with dtype_policy(np.float32):
            t = Tensor(np.arange(4.0))
            assert t.dtype == np.float32
            assert (t * t).dtype == np.float32
        assert Tensor([0.0]).dtype == np.float64

    def test_rejects_non_float_dtypes(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)

    def test_module_to_dtype_casts_parameters(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        layer.to_dtype(np.float32)
        assert all(p.dtype == np.float32 for p in layer.parameters())
        with dtype_policy(np.float32):
            layer.eval()
            from repro.nn.tensor import no_grad

            with no_grad():
                out = layer(Tensor(np.ones((2, 3))))
        assert out.dtype == np.float32

    def test_float32_inference_close_to_float64(self):
        rng = np.random.default_rng(1)
        layer = LSTM(3, 8, rng=rng)
        x = rng.standard_normal((4, 6, 3))
        from repro.nn.tensor import no_grad

        layer.eval()
        with no_grad():
            ref = layer(Tensor(x)).data
        layer.to_dtype(np.float32)
        with dtype_policy(np.float32), no_grad():
            got = layer(Tensor(x)).data
        layer.to_dtype(np.float64)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, ref, atol=1e-5)


class TestTrainerPredictPreallocation:
    def test_predict_matches_batched_concat(self):
        from repro.nn import MSELoss
        from repro.nn.optim import Adam
        from repro.training.trainer import Trainer

        rng = np.random.default_rng(2)
        model = Linear(5, 2, rng=rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.1), MSELoss(), rng=rng)
        x = rng.standard_normal((23, 5))
        got = trainer.predict(x, batch_size=7)
        from repro.nn.tensor import no_grad

        model.eval()
        with no_grad():
            ref = model(Tensor(x)).data
        np.testing.assert_allclose(got, ref, atol=1e-12)
        assert got.shape == (23, 2)

    def test_predict_empty_input(self):
        from repro.nn import MSELoss
        from repro.nn.optim import Adam
        from repro.training.trainer import Trainer

        rng = np.random.default_rng(3)
        model = Linear(4, 1, rng=rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.1), MSELoss(), rng=rng)
        out = trainer.predict(np.empty((0, 4)))
        assert out.shape[0] == 0
