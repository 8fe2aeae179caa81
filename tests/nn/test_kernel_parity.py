"""Parity suite for the substrate's fast kernels.

The conv1d GEMM/fold kernels, the fused LSTM sequence kernel and the
fused TCN residual block replace slower but transparently correct
implementations (per-call einsum with ``optimize=True``, ``np.add.at``
scatter, stepwise autograd cells, the conv → ReLU → dropout autograd
composition). These tests pin the fast paths to naive references across a
grid of stride/dilation/padding/kernel-size combinations, check the fused
LSTM's hand-written BPTT against the stepwise autograd chain, and check
the fused block's forward, every gradient and its dropout draws against
the unfused composition.
"""

import itertools
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import _plans
from repro.nn import functional as F
from repro.models.tcn import TCN, TemporalBlock
from repro.nn.layers import LSTM, LSTMCell
from repro.nn.tensor import Tensor, dtype_policy, no_grad

DATA = Path(__file__).resolve().parent / "data"

# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def naive_conv1d(x, w, b, stride, padding, dilation):
    """Loop-nest reference for 1-D cross-correlation (no vectorization)."""
    pad_l, pad_r = padding if isinstance(padding, tuple) else (padding, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (pad_l, pad_r)))
    n, c_in, length = xp.shape
    c_out, _, k = w.shape
    l_out = (length - (k - 1) * dilation - 1) // stride + 1
    out = np.zeros((n, c_out, l_out))
    for ni in range(n):
        for oi in range(c_out):
            for ti in range(l_out):
                acc = 0.0 if b is None else b[oi]
                for ci in range(c_in):
                    for ki in range(k):
                        acc += w[oi, ci, ki] * xp[ni, ci, ti * stride + ki * dilation]
                out[ni, oi, ti] = acc
    return out


def einsum_conv1d_with_grads(x, w, b, grad_out, stride, padding, dilation):
    """The pre-change conv1d path: einsum(optimize=True) + np.add.at scatter."""
    pad_l, pad_r = padding if isinstance(padding, tuple) else (padding, padding)
    n, c_in, length = x.shape
    c_out, _, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad_l, pad_r)))
    idx = np.asarray(_plans.gather_indices(xp.shape[-1], k, dilation, stride))
    cols = xp[:, :, idx]
    out = np.einsum("oik,nikt->not", w, cols, optimize=True)
    if b is not None:
        out = out + b[None, :, None]
    gw = np.einsum("not,nikt->oik", grad_out, cols, optimize=True)
    gb = grad_out.sum(axis=(0, 2))
    gcols = np.einsum("oik,not->nikt", w, grad_out, optimize=True)
    gxp = np.zeros((n, c_in, length + pad_l + pad_r))
    np.add.at(gxp, (slice(None), slice(None), idx), gcols)
    gx = gxp[:, :, pad_l : pad_l + length]
    return out, gx, gw, gb


CONV_GRID = [
    (k, stride, dilation, padding)
    for k, stride, dilation, padding in itertools.product(
        [1, 2, 3, 5], [1, 2, 3], [1, 2, 3], [0, 2, (3, 0), (1, 2)]
    )
]


@pytest.mark.parametrize("k,stride,dilation,padding", CONV_GRID)
def test_conv1d_forward_matches_naive_reference(k, stride, dilation, padding):
    rng = np.random.default_rng(k * 100 + stride * 10 + dilation)
    x = rng.standard_normal((2, 3, 20))
    w = rng.standard_normal((4, 3, k))
    b = rng.standard_normal(4)
    out = F.conv1d(
        Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding, dilation=dilation
    )
    ref = naive_conv1d(x, w, b, stride, padding, dilation)
    np.testing.assert_allclose(out.data, ref, atol=1e-10)


@pytest.mark.parametrize("k,stride,dilation,padding", CONV_GRID)
def test_conv1d_backward_matches_prechange_einsum_path(k, stride, dilation, padding):
    rng = np.random.default_rng(k * 1000 + stride * 10 + dilation)
    x = rng.standard_normal((2, 3, 20))
    w = rng.standard_normal((4, 3, k))
    b = rng.standard_normal(4)

    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True)
    out = F.conv1d(xt, wt, bt, stride=stride, padding=padding, dilation=dilation)
    grad_out = np.asarray(
        np.random.default_rng(7).standard_normal(out.shape), dtype=np.float64
    )
    out.backward(grad_out)

    ref_out, gx, gw, gb = einsum_conv1d_with_grads(
        x, w, b, grad_out, stride, padding, dilation
    )
    np.testing.assert_allclose(out.data, ref_out, atol=1e-10)
    np.testing.assert_allclose(xt.grad, gx, atol=1e-10)
    np.testing.assert_allclose(wt.grad, gw, atol=1e-10)
    np.testing.assert_allclose(bt.grad, gb, atol=1e-10)


def test_fold_cols_is_bit_exact_against_add_at():
    """The strided-slice fold must reproduce np.add.at exactly, not approximately."""
    rng = np.random.default_rng(0)
    for k, stride, dilation in itertools.product([1, 3, 5], [1, 2], [1, 2, 4]):
        length = 30
        idx = np.asarray(_plans.gather_indices(length, k, dilation, stride))
        gcols = rng.standard_normal((2, 3, k, idx.shape[1]))
        ref = np.zeros((2, 3, length))
        np.add.at(ref, (slice(None), slice(None), idx), gcols)
        fold = _plans.fold_cols(gcols, length, stride, dilation)
        np.testing.assert_array_equal(fold, ref)


def test_planned_einsum_matches_einsum():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 5, 6))
    b = rng.standard_normal((6, 3))
    got = _plans.planned_einsum("ijk,kl->ijl", a, b)
    np.testing.assert_allclose(got, np.einsum("ijk,kl->ijl", a, b), atol=0)
    # plan cache is keyed on the shape signature, so a second shape works too
    c = rng.standard_normal((2, 2, 6))
    np.testing.assert_allclose(
        _plans.planned_einsum("ijk,kl->ijl", c, b), np.einsum("ijk,kl->ijl", c, b), atol=0
    )


# ---------------------------------------------------------------------------
# fused LSTM vs stepwise reference
# ---------------------------------------------------------------------------


def stepwise_lstm_forward(cell: LSTMCell, x: Tensor) -> Tensor:
    """The pre-change LSTM layer loop: one autograd cell call per step."""
    n, t, _ = x.shape
    st = None
    outputs = []
    for step in range(t):
        h, c = cell(x[:, step, :], st)
        st = (h, c)
        outputs.append(h)
    return Tensor.stack(outputs, axis=1)


def test_fused_lstm_forward_matches_stepwise():
    rng = np.random.default_rng(3)
    cell = LSTMCell(4, 6, rng=rng)
    x = rng.standard_normal((5, 9, 4))
    fused = F.lstm(Tensor(x), cell.w_ih, cell.w_hh, cell.bias)
    stepwise = stepwise_lstm_forward(cell, Tensor(x))
    np.testing.assert_allclose(fused.data, stepwise.data, atol=1e-10)


def test_fused_lstm_gradients_match_stepwise():
    rng = np.random.default_rng(4)
    cell = LSTMCell(3, 5, rng=rng)
    x = rng.standard_normal((4, 7, 3))

    xt = Tensor(x, requires_grad=True)
    out = F.lstm(xt, cell.w_ih, cell.w_hh, cell.bias)
    (out * out).sum().backward()
    fused_grads = {
        "x": xt.grad.copy(),
        "w_ih": cell.w_ih.grad.copy(),
        "w_hh": cell.w_hh.grad.copy(),
        "bias": cell.bias.grad.copy(),
    }

    cell.zero_grad()
    xt2 = Tensor(x, requires_grad=True)
    out2 = stepwise_lstm_forward(cell, xt2)
    (out2 * out2).sum().backward()

    np.testing.assert_allclose(fused_grads["x"], xt2.grad, atol=1e-9)
    np.testing.assert_allclose(fused_grads["w_ih"], cell.w_ih.grad, atol=1e-9)
    np.testing.assert_allclose(fused_grads["w_hh"], cell.w_hh.grad, atol=1e-9)
    np.testing.assert_allclose(fused_grads["bias"], cell.bias.grad, atol=1e-9)


def test_fused_lstm_initial_state_gradients():
    rng = np.random.default_rng(5)
    cell = LSTMCell(3, 4, rng=rng)
    x = rng.standard_normal((2, 6, 3))
    h0 = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    c0 = Tensor(rng.standard_normal((2, 4)), requires_grad=True)

    out = F.lstm(Tensor(x), cell.w_ih, cell.w_hh, cell.bias, state=(h0, c0))
    (out * out).sum().backward()
    fused_h0, fused_c0 = h0.grad.copy(), c0.grad.copy()

    cell.zero_grad()
    h0b = Tensor(h0.data.copy(), requires_grad=True)
    c0b = Tensor(c0.data.copy(), requires_grad=True)
    st = (h0b, c0b)
    outputs = []
    for step in range(x.shape[1]):
        h, c = cell(Tensor(x[:, step, :]), st)
        st = (h, c)
        outputs.append(h)
    out2 = Tensor.stack(outputs, axis=1)
    (out2 * out2).sum().backward()

    np.testing.assert_allclose(fused_h0, h0b.grad, atol=1e-9)
    np.testing.assert_allclose(fused_c0, c0b.grad, atol=1e-9)


def test_fused_lstm_finite_difference_gradcheck():
    """Direct finite-difference check on the fused kernel's input gradient."""
    rng = np.random.default_rng(6)
    cell = LSTMCell(2, 3, rng=rng)
    x = rng.standard_normal((2, 4, 2))

    xt = Tensor(x, requires_grad=True)
    (F.lstm(xt, cell.w_ih, cell.w_hh, cell.bias).sum()).backward()
    analytic = xt.grad.copy()

    eps = 1e-6
    numeric = np.zeros_like(x)
    with no_grad():
        for pos in np.ndindex(x.shape):
            xp = x.copy()
            xp[pos] += eps
            up = F.lstm(Tensor(xp), cell.w_ih, cell.w_hh, cell.bias).data.sum()
            xp[pos] -= 2 * eps
            down = F.lstm(Tensor(xp), cell.w_ih, cell.w_hh, cell.bias).data.sum()
            numeric[pos] = (up - down) / (2 * eps)
    np.testing.assert_allclose(analytic, numeric, atol=1e-6)


def test_lstm_layer_inference_builds_no_graph():
    rng = np.random.default_rng(8)
    layer = LSTM(3, 4, num_layers=2, rng=rng)
    x = Tensor(rng.standard_normal((2, 5, 3)))
    with no_grad():
        out = layer(x)
    assert out._backward is None
    assert out._parents == ()
    assert not out.requires_grad
    # and matches the grad-mode forward exactly
    out_grad_mode = layer(x)
    np.testing.assert_array_equal(out.data, out_grad_mode.data)


def test_conv1d_inference_builds_no_graph():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((2, 3, 12)))
    w = Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
    with no_grad():
        out = F.conv1d(x, w, padding=(2, 0), dilation=1)
    assert out._backward is None and out._parents == ()
    out2 = F.conv1d(x, w, padding=(2, 0), dilation=1)
    np.testing.assert_array_equal(out.data, out2.data)


# ---------------------------------------------------------------------------
# fused TCN residual block vs the unfused autograd composition
# ---------------------------------------------------------------------------


def unfused_block(block: TemporalBlock, x: Tensor) -> Tensor:
    """The pre-fusion ``TemporalBlock.forward``: one autograd op at a time."""
    out = block.drop1(block.conv1(x).relu())
    out = block.drop2(block.conv2(out).relu())
    res = block.downsample(x) if block.downsample is not None else x
    return (out + res).relu()


def _run_block(block, forward, x, grad_out, x_grad, seed):
    """Output, x grad, parameter grads and final rng state of one fwd+bwd."""
    block.zero_grad()
    rng = np.random.default_rng(seed)
    block.drop1.rng = block.drop2.rng = rng
    xt = Tensor(x.copy(), requires_grad=x_grad)
    out = forward(xt)
    out.backward(grad_out)
    grads = {name: p.grad for name, p in block.named_parameters()}
    return out.data.copy(), xt.grad, grads, rng.bit_generator.state


def _assert_close(got, want, what):
    # the GEMM reduction order differs from the per-op composition, so
    # agreement is to a relative 1e-12 of the array's scale, not bit-exact
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale, err_msg=what)


@given(
    n=st.integers(1, 64),
    c_in=st.sampled_from([1, 3, 16]),
    c_out=st.sampled_from([4, 16]),
    k=st.integers(1, 4),
    dilation=st.integers(1, 8),
    length=st.integers(1, 30),
    p=st.sampled_from([0.0, 0.1]),
    training=st.booleans(),
    x_grad=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_fused_block_matches_unfused_composition(
    n, c_in, c_out, k, dilation, length, p, training, x_grad, seed
):
    rng = np.random.default_rng(seed)
    block = TemporalBlock(c_in, c_out, k, dilation, dropout=p, rng=rng)
    block.train(training)
    x = rng.standard_normal((n, c_in, length))
    grad_out = rng.standard_normal((n, c_out, length))

    got = _run_block(block, block, x, grad_out, x_grad, seed)
    want = _run_block(block, lambda xt: unfused_block(block, xt), x, grad_out, x_grad, seed)

    _assert_close(got[0], want[0], "output")
    if x_grad:
        _assert_close(got[1], want[1], "x grad")
    else:
        assert got[1] is None and want[1] is None
    for name, g in want[2].items():
        _assert_close(got[2][name], g, f"{name} grad")
    # same number of dropout draws, in the same order, from the shared rng
    assert got[3] == want[3]


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("c_in", [1, 8])
def test_fused_block_no_grad_equals_grad_mode_bitwise(training, c_in):
    rng = np.random.default_rng(21)
    block = TemporalBlock(c_in, 8, 3, 4, dropout=0.2, rng=rng)
    block.train(training)
    x = rng.standard_normal((17, c_in, 12))
    block.drop1.rng = block.drop2.rng = np.random.default_rng(3)
    grad_mode = block(Tensor(x, requires_grad=True))
    assert grad_mode.requires_grad
    block.drop1.rng = block.drop2.rng = np.random.default_rng(3)
    with no_grad():
        inference = block(Tensor(x))
    assert inference._backward is None and inference._parents == ()
    np.testing.assert_array_equal(inference.data, grad_mode.data)


def test_fused_block_train_mode_advances_rng_like_the_oracle():
    rng = np.random.default_rng(22)
    block = TemporalBlock(3, 8, 3, 2, dropout=0.1, rng=rng)
    x = Tensor(rng.standard_normal((5, 3, 10)))
    states = []
    for forward in (block, lambda xt: unfused_block(block, xt)):
        block.drop1.rng = block.drop2.rng = np.random.default_rng(9)
        with no_grad():  # masks apply in training mode even without autograd
            out = forward(x).data
        states.append((out, block.drop1.rng.bit_generator.state))
    _assert_close(states[0][0], states[1][0], "output")
    assert states[0][1] == states[1][1]
    assert states[0][1] != np.random.default_rng(9).bit_generator.state


def test_fused_block_follows_float32_input():
    rng = np.random.default_rng(23)
    net = TCN(2, (8, 8), kernel_size=3, rng=rng)
    net.eval()
    x = rng.standard_normal((4, 2, 12))
    with no_grad():
        want = net(Tensor(x)).data
    net.to_dtype(np.float32)
    with dtype_policy(np.float32), no_grad():
        got = net(Tensor(x)).data
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)


def test_pickled_unfused_rptcn_forecaster_loads_and_predicts():
    """A forecaster pickled before the block was fused serves unchanged.

    ``data/rptcn_unfused_block.pkl`` holds a fitted ``RPTCNForecaster``
    (channels (4, 4), fc_units 8), a query batch and the predictions that
    the conv → ReLU → dropout composition made for it.
    """
    with open(DATA / "rptcn_unfused_block.pkl", "rb") as fh:
        saved = pickle.load(fh)
    model = saved["forecaster"]
    block = model.model.backbone.blocks[0]
    assert sorted(n for n, _ in block.named_parameters()) == [
        "conv1.bias", "conv1.g", "conv1.v", "conv2.bias", "conv2.g", "conv2.v",
        "downsample.bias", "downsample.weight",
    ]
    np.testing.assert_allclose(model.predict(saved["x"]), saved["pred"], rtol=1e-12, atol=1e-14)
