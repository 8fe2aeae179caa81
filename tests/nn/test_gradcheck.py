"""Finite-difference gradient checks for every differentiable op and layer.

These are the load-bearing tests of the nn substrate: if backward rules
are right, training correctness reduces to optimizer arithmetic.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import (
    GRU,
    LSTM,
    BahdanauAttention,
    FeatureAttention,
    LayerNorm,
    TemporalAttention,
    WeightNormConv1d,
)
from repro.models.tcn import TCN, TemporalBlock
from repro.nn.tensor import Tensor

from ..conftest import check_gradients


def leaf(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestElementwiseGrads:
    @pytest.mark.parametrize(
        "op",
        [
            lambda x: x.tanh(),
            lambda x: x.sigmoid(),
            lambda x: x.relu(),
            lambda x: x.sqrt(),  # positive domain
            lambda x: x**3,
            lambda x: 1.0 / x,  # reflected division, positive domain
            lambda x: 2.0 - (-x),  # reflected subtraction and negation
        ],
    )
    def test_unary(self, rng, op):
        x = Tensor(rng.random((3, 4)) + 0.5, requires_grad=True)  # keep positive
        check_gradients(lambda: op(Tensor.ensure(x)).sum(), [x])

    def test_binary_broadcast(self, rng):
        a = leaf(rng, 2, 3)
        b = leaf(rng, 3)
        check_gradients(lambda: (a * b + a / (b * b + 2.0) - b).sum(), [a, b])

    def test_where(self, rng):
        a = leaf(rng, 4)
        b = leaf(rng, 4)
        cond = np.array([True, False, True, False])
        check_gradients(lambda: (Tensor.where(cond, a * 2.0, b * 3.0) ** 2).sum(), [a, b])


class TestMatmulGrads:
    def test_2d_2d(self, rng):
        a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
        check_gradients(lambda: ((a @ b) ** 2).sum(), [a, b])

    def test_batched(self, rng):
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 2, 4, 2)
        check_gradients(lambda: ((a @ b) ** 2).sum(), [a, b])

    def test_batched_broadcast(self, rng):
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 2)
        check_gradients(lambda: ((a @ b) ** 2).sum(), [a, b])

    def test_1d_1d(self, rng):
        a, b = leaf(rng, 5), leaf(rng, 5)
        check_gradients(lambda: (a @ b) * 2.0, [a, b])

    def test_1d_2d(self, rng):
        a, b = leaf(rng, 3), leaf(rng, 3, 4)
        check_gradients(lambda: ((a @ b) ** 2).sum(), [a, b])

    def test_2d_1d(self, rng):
        a, b = leaf(rng, 3, 4), leaf(rng, 4)
        check_gradients(lambda: ((a @ b) ** 2).sum(), [a, b])


class TestReductionGrads:
    @pytest.mark.parametrize("axis", [None, 0, 1, (0, 1)])
    def test_sum(self, rng, axis):
        x = leaf(rng, 3, 4)
        check_gradients(lambda: (x.sum(axis=axis) ** 2).sum(), [x])

    @pytest.mark.parametrize("keepdims", [True, False])
    def test_mean(self, rng, keepdims):
        x = leaf(rng, 2, 5)
        check_gradients(lambda: (x.mean(axis=1, keepdims=keepdims) ** 2).sum(), [x])

    def test_var(self, rng):
        x = leaf(rng, 4, 3)
        check_gradients(lambda: x.var(axis=0).sum(), [x])


class TestFunctionalGrads:
    def test_softmax(self, rng):
        x = leaf(rng, 3, 5)
        w = rng.standard_normal((3, 5))
        check_gradients(lambda: (F.softmax(Tensor.ensure(x), axis=-1) * w).sum(), [x])

    @pytest.mark.parametrize("dilation,padding", [(1, 0), (2, (4, 0)), (1, 1), (3, (6, 0))])
    def test_conv1d(self, rng, dilation, padding):
        x = leaf(rng, 2, 3, 12)
        w = leaf(rng, 4, 3, 3)
        b = leaf(rng, 4)
        check_gradients(
            lambda: (F.conv1d(x, w, b, padding=padding, dilation=dilation) ** 2).sum(),
            [x, w, b],
        )

    def test_conv1d_stride(self, rng):
        x = leaf(rng, 1, 2, 10)
        w = leaf(rng, 3, 2, 3)
        check_gradients(lambda: (F.conv1d(x, w, stride=2) ** 2).sum(), [x, w])


def _kink_free_biases(block, rng) -> None:
    """Give the block's convs positive random biases.

    With the zero bias init, a step whose causal window holds only zeros
    has a pre-activation of exactly 0, the ReLU kink, where central
    differences and the subgradient disagree.
    """
    for conv in (block.conv1, block.conv2):
        conv.bias.data[...] = rng.uniform(0.1, 0.5, conv.bias.shape)


def _zero_filter(conv) -> None:
    """Zero one filter's direction ``v`` and its gain.

    With the gain 0 as well, the loss is smooth in every coordinate of
    that filter, so finite differences stay the oracle; under a nonzero
    gain the normalized filter jumps from 0 to ``g * v / ||v||`` as soon
    as ``v`` moves.
    """
    conv.v.data[0] = 0.0
    conv.g.data[0] = 0.0


class TestLayerGrads:
    def test_weight_norm_conv(self, rng):
        layer = WeightNormConv1d(2, 3, 3, dilation=2, rng=rng)
        x = leaf(rng, 2, 2, 9)
        params = [layer.v, layer.g, layer.bias, x]
        check_gradients(lambda: (layer(x) ** 2).sum(), params)

    @pytest.mark.parametrize("c_in", [2, 3])
    def test_fused_temporal_block(self, rng, c_in):
        # c_in 2 -> 1x1 downsample shortcut, c_in 3 -> identity shortcut
        block = TemporalBlock(c_in, 3, 2, dilation=2, dropout=0.0, rng=rng)
        _kink_free_biases(block, rng)
        x = leaf(rng, 2, c_in, 7)
        check_gradients(lambda: (block(x) ** 2).sum(), [x] + list(block.parameters()))

    def test_fused_temporal_block_with_dropout_masks(self, rng):
        block = TemporalBlock(2, 3, 3, dilation=1, dropout=0.3, rng=rng)
        _kink_free_biases(block, rng)
        x = leaf(rng, 3, 2, 6)

        def loss():
            # every probe redraws the same masks
            block.drop1.rng = block.drop2.rng = np.random.default_rng(4)
            return (block(x) ** 2).sum()

        check_gradients(loss, [x] + list(block.parameters()))

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_tcn_last_step(self, rng, dropout):
        """Through the pruned rows: a downsample block, then an identity
        block, dilations (1, 2), window 7, kept-row dropout masks."""
        net = TCN(2, (3, 3), kernel_size=3, dropout=dropout, rng=rng)
        for block in net.blocks:
            _kink_free_biases(block, rng)
        x = leaf(rng, 3, 2, 7)

        def loss():
            for block in net.blocks:  # every probe redraws the same masks
                block.drop1.rng = block.drop2.rng = np.random.default_rng(4)
            return (net.last_step(x) ** 2).sum()

        check_gradients(loss, [x] + list(net.parameters()))

    def test_fused_temporal_block_zero_filter(self, rng):
        block = TemporalBlock(2, 3, 3, dilation=1, dropout=0.0, rng=rng)
        _kink_free_biases(block, rng)
        _zero_filter(block.conv1)
        x = leaf(rng, 2, 2, 6)
        check_gradients(lambda: (block(x) ** 2).sum(), [x] + list(block.parameters()))

    def test_tcn_last_step_zero_filter(self, rng):
        net = TCN(2, (3, 3), kernel_size=3, dropout=0.0, rng=rng)
        for block in net.blocks:
            _kink_free_biases(block, rng)
            _zero_filter(block.conv2)
        x = leaf(rng, 3, 2, 7)
        check_gradients(lambda: (net.last_step(x) ** 2).sum(), [x] + list(net.parameters()))

    def test_zero_direction_with_gain_has_finite_gradients(self, rng):
        """``v = 0`` under a nonzero gain: every gradient is finite, and all
        but ``v``'s (where the filter jumps to ``g * v / ||v||`` under any
        perturbation) match finite differences."""
        block = TemporalBlock(2, 3, 3, dilation=1, dropout=0.0, rng=rng)
        _kink_free_biases(block, rng)
        block.conv1.v.data[0] = 0.0
        x = leaf(rng, 2, 2, 6)
        smooth = [x] + [p for p in block.parameters() if p is not block.conv1.v]
        check_gradients(lambda: (block(x) ** 2).sum(), smooth)
        (block(x) ** 2).sum().backward()
        assert np.isfinite(block.conv1.v.grad).all()

    def test_layer_norm(self, rng):
        layer = LayerNorm(6)
        x = leaf(rng, 3, 6)
        check_gradients(lambda: (layer(x) ** 2).sum(), [x, layer.gamma, layer.beta])

    def test_feature_attention(self, rng):
        layer = FeatureAttention(5, rng=rng)
        x = leaf(rng, 3, 5)
        check_gradients(
            lambda: (layer(x) ** 2).sum(), [x, layer.score.weight, layer.score.bias]
        )

    def test_temporal_attention(self, rng):
        layer = TemporalAttention(4, hidden=3, rng=rng)
        x = leaf(rng, 2, 6, 4)
        check_gradients(lambda: (layer(x) ** 2).sum(), [x, layer.proj.weight])

    def test_bahdanau_attention(self, rng):
        layer = BahdanauAttention(4, 3, hidden=5, rng=rng)
        keys = leaf(rng, 2, 6, 4)
        query = leaf(rng, 2, 3)
        check_gradients(lambda: (layer(keys, query) ** 2).sum(), [keys, query])

    def test_lstm_through_time(self, rng):
        layer = LSTM(2, 3, rng=rng)
        x = leaf(rng, 2, 4, 2)
        params = [x] + list(layer.parameters())
        check_gradients(lambda: (layer(x) ** 2).sum(), params, atol=1e-4)

    def test_gru_through_time(self, rng):
        layer = GRU(2, 3, rng=rng)
        x = leaf(rng, 2, 4, 2)
        params = [x] + list(layer.parameters())
        check_gradients(lambda: (layer(x) ** 2).sum(), params, atol=1e-4)
