"""Behavioural tests for layers: shapes, modes, invariants."""

import numpy as np
import pytest

from repro.nn.layers import (
    Conv1d,
    Dropout,
    Linear,
    ModuleList,
    Sequential,
    SpatialDropout1d,
    Tanh,
    WeightNormConv1d,
)
from repro.nn.tensor import Tensor


class TestLinear:
    def test_shape(self, rng):
        layer = Linear(4, 7, rng=rng)
        assert layer(Tensor(rng.random((5, 4)))).shape == (5, 7)

    def test_batched_3d_input(self, rng):
        layer = Linear(4, 2, rng=rng)
        assert layer(Tensor(rng.random((3, 6, 4)))).shape == (3, 6, 2)

    def test_wrong_width_raises(self, rng):
        layer = Linear(4, 2, rng=rng)
        with pytest.raises(ValueError, match="last dim"):
            layer(Tensor(rng.random((5, 3))))

    def test_no_bias(self, rng):
        layer = Linear(3, 2, bias=False, rng=rng)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((1, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 2)))

    def test_matches_manual_affine(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.random((4, 3))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)


class TestConv:
    def test_receptive_field_formula(self, rng):
        layer = Conv1d(1, 1, kernel_size=3, dilation=4, rng=rng)
        assert layer.receptive_field == (3 - 1) * 4 + 1

    def test_channel_mismatch_raises(self, rng):
        layer = Conv1d(3, 4, 3, rng=rng)
        with pytest.raises(ValueError, match="channel mismatch"):
            layer(Tensor(rng.random((1, 2, 10))))

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            Conv1d(1, 1, 0)
        with pytest.raises(ValueError):
            Conv1d(1, 1, 3, dilation=0)

    def test_too_short_input_raises(self, rng):
        layer = Conv1d(1, 1, kernel_size=5, rng=rng)
        with pytest.raises(ValueError, match="empty output"):
            layer(Tensor(rng.random((1, 1, 3))))


class TestWeightNorm:
    def test_matches_unnormalized_at_init(self, rng):
        """g is initialized to ||v||, so w == v initially."""
        layer = WeightNormConv1d(2, 3, 3, rng=rng)
        w = layer._weight().data
        np.testing.assert_allclose(w, layer.v.data, rtol=1e-6)

    def test_norm_equals_g(self, rng):
        layer = WeightNormConv1d(2, 3, 3, rng=rng)
        layer.g.data[...] = 2.5
        w = layer._weight().data
        norms = np.sqrt((w**2).sum(axis=(1, 2)))
        np.testing.assert_allclose(norms, 2.5, rtol=1e-6)

    def test_scale_invariance_of_direction(self, rng):
        """Scaling v leaves the effective weight unchanged."""
        layer = WeightNormConv1d(2, 3, 3, rng=rng)
        w1 = layer._weight().data.copy()
        layer.v.data *= 7.0
        np.testing.assert_allclose(layer._weight().data, w1, rtol=1e-6)


class TestActivations:
    def test_relu_tanh_sigmoid_shapes(self, rng):
        x = Tensor(rng.standard_normal((3, 4)))
        for layer in (Tanh(),):
            assert layer(x).shape == (3, 4)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        for layer in (Dropout(0.5, rng=rng), SpatialDropout1d(0.5, rng=rng)):
            layer.eval()
            x = Tensor(rng.random((4, 3, 5)))
            np.testing.assert_array_equal(layer(x).data, x.data)

    def test_train_mode_zeroes_and_scales(self, rng):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100, 100)))
        out = layer(x).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted scaling 1/(1-p)
        assert 0.3 < (out == 0).mean() < 0.7

    def test_spatial_dropout_drops_whole_channels(self):
        layer = SpatialDropout1d(0.5, rng=np.random.default_rng(3))
        x = Tensor(np.ones((8, 16, 10)))
        out = layer(x).data
        # each (sample, channel) row is all-zero or all-scaled
        per_channel = out.reshape(8 * 16, 10)
        for row in per_channel:
            assert (row == 0).all() or (row == 2.0).all()

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            SpatialDropout1d(-0.1)

    def test_expected_magnitude_preserved(self):
        layer = Dropout(0.3, rng=np.random.default_rng(1))
        x = Tensor(np.ones((200, 200)))
        assert layer(x).data.mean() == pytest.approx(1.0, abs=0.02)


class TestContainers:
    def test_sequential_applies_in_order(self, rng):
        model = Sequential(Linear(3, 5, rng=rng), Tanh(), Linear(5, 2, rng=rng))
        assert model(Tensor(rng.random((4, 3)))).shape == (4, 2)
        assert len(model) == 3

    def test_sequential_parameters_collected(self, rng):
        model = Sequential(Linear(3, 5, rng=rng), Linear(5, 2, rng=rng))
        assert model.num_parameters() == (3 * 5 + 5) + (5 * 2 + 2)

    def test_sequential_append_and_index(self, rng):
        model = Sequential(Linear(2, 2, rng=rng))
        model.append(Tanh())
        assert isinstance(model[1], Tanh)

    def test_module_list_registers(self, rng):
        ml = ModuleList([Linear(2, 2, rng=rng), Linear(2, 2, rng=rng)])
        assert len(list(ml.parameters())) == 4
        with pytest.raises(RuntimeError):
            ml(Tensor(np.zeros((1, 2))))

    def test_train_eval_propagates(self, rng):
        model = Sequential(Linear(2, 2, rng=rng), Dropout(0.5, rng=rng))
        model.eval()
        assert not model[1].training
        model.train()
        assert model[1].training
