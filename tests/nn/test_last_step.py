"""Last-step TCN: ``TCN.last_step`` against the full backbone.

``TCN.last_step`` computes only the conv positions that can reach the
last window step, from the row plan of
:func:`repro.nn._plans.last_step_plan`, in inference and in training.
Each kept row gathers the taps the full forward's causal im2col reads and
runs through the same ops; with autograd on, each block's hand-written
backward runs over the same kept rows, and in training mode the blocks
draw the full forward's dropout masks in its order.

Bit-for-bit agreement (outputs, and with autograd every gradient) is
checked on integer-valued networks, inputs and output gradients: every
product and partial sum is then an exactly representable integer, so a
GEMM's or a sum's result cannot depend on its summation order, and any
wrong or missing tap changes the result. Dropout there runs at ``p=0.5``,
whose inverted masks are 0 or 2. With arbitrary float weights, BLAS may
round a row differently depending on how many rows share the GEMM (the
batch-size caveat of ``tests/models/test_batch_parity.py``), so those
checks allow a few ulps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.tcn import TCN
from repro.nn import _plans
from repro.nn import functional as F
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, dtype_policy, no_grad

#: channel stacks: equal widths keep the identity shortcut, unequal ones
#: (and a feature count that differs from the first width) add the 1x1
#: downsample
STACKS = [(4,), (8, 8), (4, 8), (8, 4, 8), (16, 16, 16), (24, 16)]
#: dilation schedules: ``None`` is the default doubling ``(1, 2, 4, ...)``
DILATIONS = [None, (1, 3, 5), (2, 2), (3,), (1, 1, 1)]


def _build(features, channels, kernel, dilations, seed):
    if dilations is not None:
        dilations = (tuple(dilations) * len(channels))[: len(channels)]
    net = TCN(
        features, channels, kernel_size=kernel, dilations=dilations,
        rng=np.random.default_rng(seed),
    )
    net.eval()
    return net


def _integer_valued(net: TCN, rng: np.random.Generator) -> None:
    """Give ``net`` weights in {-1, 0, 1} and biases in {-1, 0, 1}.

    The weight-norm gain is set to ``||v|| + eps`` as the forward computes
    it, so the normalized filter ``v * (g / (||v|| + eps))`` equals ``v``
    exactly.
    """
    for block in net.blocks:
        for conv in (block.conv1, block.conv2):
            conv.v.data[...] = rng.integers(-1, 2, conv.v.shape)
            _, r = F._weight_norm(conv.v.data, conv.g.data)
            conv.g.data[...] = r + F.WEIGHT_NORM_EPS
            conv.bias.data[...] = rng.integers(-1, 2, conv.bias.shape)
        if block.downsample is not None:
            block.downsample.weight.data[...] = rng.integers(-1, 2, block.downsample.weight.shape)
            block.downsample.bias.data[...] = rng.integers(-1, 2, block.downsample.bias.shape)


def _both(net, x, dtype):
    with dtype_policy(dtype), no_grad():
        full = net(Tensor(x)).data[:, :, -1]
        last = net.last_step(Tensor(x)).data
    return full, last


@given(
    kernel=st.integers(2, 5),
    stack=st.sampled_from(STACKS),
    dilations=st.sampled_from(DILATIONS),
    features=st.integers(1, 4),
    window=st.integers(1, 40),
    batch=st.sampled_from([0, 1, 2, 3, 17, 256, 300]),
    float32=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_last_step_is_bit_identical_on_integer_networks(
    kernel, stack, dilations, features, window, batch, float32, seed
):
    # float32 holds integers exactly only up to 2**24: keep its stacks
    # narrow and shallow enough that no activation can exceed that
    if float32:
        stack = tuple(min(c, 8) for c in stack[:2])
    dtype = np.float32 if float32 else np.float64
    rng = np.random.default_rng(seed)
    net = _build(features, stack, kernel, dilations, seed)
    _integer_valued(net, rng)
    net.to_dtype(dtype)
    x = rng.integers(-1, 2, (batch, features, window)).astype(dtype)
    full, last = _both(net, x, dtype)
    assert last.shape == (batch, stack[-1])
    assert last.dtype == full.dtype == dtype
    assert np.array_equal(last, full)


@given(
    kernel=st.integers(2, 5),
    stack=st.sampled_from(STACKS),
    dilations=st.sampled_from(DILATIONS),
    features=st.integers(1, 4),
    window=st.integers(1, 40),
    batch=st.sampled_from([0, 1, 2, 5, 64, 300]),
    float32=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_last_step_matches_full_forward_on_float_networks(
    kernel, stack, dilations, features, window, batch, float32, seed
):
    dtype = np.float32 if float32 else np.float64
    rng = np.random.default_rng(seed)
    net = _build(features, stack, kernel, dilations, seed)
    net.to_dtype(dtype)
    x = rng.standard_normal((batch, features, window)).astype(dtype)
    full, last = _both(net, x, dtype)
    assert last.shape == full.shape and last.dtype == full.dtype == dtype
    scale = max(1.0, float(np.abs(full).max(initial=0.0)))
    tol = 1e-5 if float32 else 1e-12
    np.testing.assert_allclose(last, full, rtol=tol, atol=tol * scale)


def test_block_outputs_are_rounded_to_the_dtype_policy_like_the_full_forward():
    """float32 policy over float64 weights: each block computes in float64
    and its output Tensor rounds to float32, so the pruned path must round
    after every block too. Rounding float64 results that agree to an ulp
    onto the far coarser float32 grid gives equal values."""
    rng = np.random.default_rng(4)
    net = _build(3, (8, 4, 8), 3, None, 4)
    x = rng.standard_normal((9, 3, 14)).astype(np.float32)
    full, last = _both(net, x, np.float32)
    assert last.dtype == full.dtype == np.float32
    np.testing.assert_array_equal(last, full)


def test_paper_config_computes_31_of_72_conv_rows():
    """Kernel 3, dilations (1, 2, 4), window 12: the paper's serving configuration."""
    plan = _plans.last_step_plan(3, (1, 2, 4), 12)
    rows = [(len(b.conv1), len(b.conv2)) for b in plan]
    assert rows == [(12, 6), (6, 3), (3, 1)]
    assert sum(a + b for a, b in rows) == 31  # of 6 convs x 12 positions = 72
    assert [b.rows_in for b in plan] == [12, 6, 3]
    with pytest.raises(ValueError):
        plan[0].conv1[0, 0] = 0  # plans are shared: read-only


def test_plan_keeps_exactly_the_steps_that_reach_the_last_one():
    """Brute-force dependency tracking over the full grid of conv positions."""
    kernel, dilations, window = 3, (1, 3, 5), 20
    plan = _plans.last_step_plan(kernel, dilations, window)

    def reach(steps, d):
        return {t - j * d for t in steps for j in range(kernel)} & set(range(window))

    needed = {window - 1}  # output steps of the current block
    for level in range(len(dilations) - 1, -1, -1):
        mid = reach(needed, dilations[level])
        assert len(plan[level].conv1) == len(mid)
        assert len(plan[level].conv2) == len(needed)
        needed = reach(mid, dilations[level]) if level else set(range(window))
        assert plan[level].rows_in == len(needed)


@pytest.mark.parametrize("n", [0, 1, 3, 5])
@pytest.mark.parametrize("kernel, dilations, window", [(3, (1, 2, 4), 12), (2, (1, 3, 5), 20)])
def test_readers_invert_the_tap_rows(n, kernel, dilations, window):
    """Every im2col entry that reads a real row is that row's reader for its
    tap, exactly once; causal-zero taps have no reader."""
    for conv1, conv2, _, readers1, readers2 in _plans.last_step_rows(
        kernel, dilations, window, n
    ):
        for taps, readers in ((conv1, readers1), (conv2, readers2)):
            readers = readers.reshape(-1, kernel)
            seen = []
            for row, tap in zip(*np.nonzero(readers >= 0)):
                entry = readers[row, tap]
                assert entry % kernel == tap and taps[entry] == 1 + row
                seen.append(entry)
            assert sorted(seen) == np.flatnonzero(taps > 0).tolist()


def _dropout_rng(net: TCN, seed: int) -> np.random.Generator:
    """One fresh generator shared by every block's dropout, as the constructor shares one."""
    rng = np.random.default_rng(seed)
    for b in net.blocks:
        b.drop1.rng = b.drop2.rng = rng
    return rng


def _step(net: TCN, x: np.ndarray, gout: np.ndarray, full: bool, seed: int = 3):
    """Forward + backward of ``gout`` through the pruned or the full last step.

    Returns the output, every parameter's and the input's gradient, and
    the dropout generator's state afterwards.
    """
    rng = _dropout_rng(net, seed)
    net.zero_grad()
    xt = Tensor(x, requires_grad=True)
    out = net(xt)[:, :, -1] if full else net.last_step(xt)
    out.backward(gout)
    grads = {name: p.grad for name, p in net.named_parameters()}
    grads["input"] = xt.grad
    return out, grads, rng.bit_generator.state


#: float stacks of the grad-mode comparison: ``(features, channels, dilations)``
GRAD_STACKS = [
    (2, (8, 8), None),
    (3, (4, 8), None),
    (1, (16, 16, 16), None),
    (2, (8, 4, 8), (1, 3, 5)),
]


@pytest.mark.parametrize("training", [False, True])
def test_grad_mode_is_the_full_forward(training):
    """Outputs and every parameter and input gradient, at rtol 1e-12 (with
    an absolute floor of 1e-12 of each gradient's largest entry, for
    entries that cancel to near zero)."""
    for features, stack, dilations in GRAD_STACKS:
        net = _build(features, stack, 3, dilations, 0)
        net.train(training)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, features, 12))
        gout = rng.standard_normal((5, stack[-1]))
        got, got_grads, got_state = _step(net, x, gout, full=False)
        want, want_grads, want_state = _step(net, x, gout, full=True)
        assert got.requires_grad and got._parents  # a graph was recorded
        assert got_state == want_state
        np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=0)
        assert got_grads.keys() == want_grads.keys()
        for name, want_grad in want_grads.items():
            scale = float(np.abs(want_grad).max())
            np.testing.assert_allclose(
                got_grads[name], want_grad, rtol=1e-12, atol=1e-12 * scale,
                err_msg=f"{stack}: {name}",
            )


@given(
    kernel=st.integers(2, 5),
    stack=st.sampled_from(STACKS),
    dilations=st.sampled_from(DILATIONS),
    features=st.integers(1, 4),
    window=st.integers(1, 30),
    batch=st.sampled_from([0, 1, 2, 3, 17, 40]),
    training=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_grad_mode_is_bit_identical_on_integer_networks(
    kernel, stack, dilations, features, window, batch, training, seed
):
    rng = np.random.default_rng(seed)
    net = _build(features, stack, kernel, dilations, seed)
    _integer_valued(net, rng)
    net.train(training)
    for b in net.blocks:
        b.drop1.p = 0.5
    x = rng.integers(-1, 2, (batch, features, window)).astype(float)
    gout = rng.integers(-2, 3, (batch, stack[-1])).astype(float)
    got, got_grads, got_state = _step(net, x, gout, full=False, seed=seed)
    want, want_grads, want_state = _step(net, x, gout, full=True, seed=seed)
    assert got_state == want_state
    assert got.shape == (batch, stack[-1])
    assert np.array_equal(got.data, want.data)
    for name, want_grad in want_grads.items():
        assert np.array_equal(got_grads[name], want_grad), name


def test_a_training_step_advances_the_dropout_rng_like_the_full_forward():
    """A fit step through the pruned rows draws the full forward's masks:
    same generator state after it, and the same weights after the update."""
    states, weights = [], []
    for full in (False, True):
        net = _build(2, (8, 8, 8), 3, None, 0)
        net.train()
        opt = Adam(list(net.parameters()), lr=1e-2)
        rng = _dropout_rng(net, 11)
        x = np.random.default_rng(2).standard_normal((7, 2, 12))
        opt.zero_grad()
        out = net(Tensor(x))[:, :, -1] if full else net.last_step(Tensor(x))
        (out * out).sum().backward()
        opt.step()
        states.append(rng.bit_generator.state)
        weights.append(np.concatenate([p.data.ravel() for p in net.parameters()]))
    assert states[0] == states[1]
    assert states[0] != np.random.default_rng(11).bit_generator.state
    np.testing.assert_allclose(weights[0], weights[1], rtol=1e-12, atol=1e-15)


def test_training_mode_draws_the_same_dropout_masks_as_the_full_forward():
    """Train mode without autograd applies dropout to the pruned rows."""
    net = _build(3, (8, 8), 3, None, 0)
    net.train()
    x = Tensor(np.random.default_rng(2).standard_normal((6, 3, 12)))
    runs = []
    for forward in (net.last_step, lambda xt: net(xt)[:, :, -1]):
        rng = _dropout_rng(net, 9)
        with no_grad():
            out = forward(x).data
        runs.append((out, rng.bit_generator.state))
    np.testing.assert_allclose(runs[0][0], runs[1][0], rtol=1e-12, atol=0)
    assert runs[0][1] == runs[1][1]
    assert runs[0][1] != np.random.default_rng(9).bit_generator.state


def test_eval_mode_inference_skips_the_full_forward(monkeypatch):
    net = _build(1, (16, 16, 16), 3, None, 0)
    x = Tensor(np.random.default_rng(3).standard_normal((4, 1, 12)))

    def full_forward(*_):
        raise AssertionError("the full backbone ran")

    monkeypatch.setattr(type(net.blocks[0]), "forward", full_forward)
    with no_grad():
        out = net.last_step(x)
    assert out.shape == (4, 16) and out._parents == ()


def test_a_training_step_skips_the_full_forward(monkeypatch):
    net = _build(1, (16, 16, 16), 3, None, 0)
    net.train()
    x = Tensor(np.random.default_rng(3).standard_normal((4, 1, 12)))

    def full_forward(*_):
        raise AssertionError("the full backbone ran")

    monkeypatch.setattr(type(net.blocks[0]), "forward", full_forward)
    out = net.last_step(x)
    out.sum().backward()
    assert out.shape == (4, 16)
    assert all(p.grad is not None for p in net.parameters())
