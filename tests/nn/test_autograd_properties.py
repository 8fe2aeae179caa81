"""Hypothesis property tests on autograd algebraic identities."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import functional as F
from repro.nn.tensor import Tensor

small = arrays(
    np.float64,
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.floats(-5, 5, allow_nan=False, width=64),
)


def grad_of(expr_fn, x_data):
    x = Tensor(x_data, requires_grad=True)
    expr_fn(x).backward()
    return x.grad


class TestLinearity:
    @given(small, st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_backward_scales_with_constant(self, data, c):
        """d/dx [c * f(x)] = c * d/dx f(x)."""
        g1 = grad_of(lambda x: (x * x).sum(), data.copy())
        g2 = grad_of(lambda x: (x * x).sum() * c, data.copy())
        np.testing.assert_allclose(g2, c * g1, atol=1e-9)

    @given(small)
    @settings(max_examples=60, deadline=None)
    def test_sum_of_grads_is_grad_of_sum(self, data):
        ga = grad_of(lambda x: (x * 2.0).sum(), data.copy())
        gb = grad_of(lambda x: (x * x).sum(), data.copy())
        gab = grad_of(lambda x: (x * 2.0).sum() + (x * x).sum(), data.copy())
        np.testing.assert_allclose(gab, ga + gb, atol=1e-9)


class TestIdentities:
    @given(small)
    @settings(max_examples=40, deadline=None)
    def test_sigmoid_tanh_identity(self, data):
        """sigmoid(x) = (tanh(x/2) + 1) / 2, values and gradients."""
        a = Tensor(data.copy(), requires_grad=True)
        b = Tensor(data.copy(), requires_grad=True)
        sa = a.sigmoid()
        sb = (b * 0.5).tanh() * 0.5 + 0.5
        np.testing.assert_allclose(sa.data, sb.data, atol=1e-12)
        sa.sum().backward()
        sb.sum().backward()
        np.testing.assert_allclose(a.grad, b.grad, atol=1e-10)

    @given(small)
    @settings(max_examples=40, deadline=None)
    def test_softmax_shift_invariance(self, data):
        s1 = F.softmax(Tensor(data), axis=-1)
        s2 = F.softmax(Tensor(data + 1000.0), axis=-1)
        np.testing.assert_allclose(s1.data, s2.data, atol=1e-9)

    @given(small)
    @settings(max_examples=40, deadline=None)
    def test_mean_equals_sum_over_n(self, data):
        g_mean = grad_of(lambda x: x.mean(), data.copy())
        g_sum = grad_of(lambda x: x.sum(), data.copy())
        np.testing.assert_allclose(g_mean, g_sum / data.size, atol=1e-12)


class TestConvLinearity:
    @given(
        arrays(np.float64, (1, 2, 8), elements=st.floats(-2, 2, allow_nan=False, width=64)),
        arrays(np.float64, (3, 2, 3), elements=st.floats(-2, 2, allow_nan=False, width=64)),
        arrays(np.float64, (3, 2, 3), elements=st.floats(-2, 2, allow_nan=False, width=64)),
    )
    @settings(max_examples=30, deadline=None)
    def test_conv_linear_in_weights(self, x, w1, w2):
        """conv(x, w1 + w2) = conv(x, w1) + conv(x, w2)."""
        xt = Tensor(x)
        out_sum = F.conv1d(xt, Tensor(w1 + w2))
        out_parts = F.conv1d(xt, Tensor(w1)).data + F.conv1d(xt, Tensor(w2)).data
        np.testing.assert_allclose(out_sum.data, out_parts, atol=1e-9)

    @given(
        arrays(np.float64, (2, 1, 10), elements=st.floats(-2, 2, allow_nan=False, width=64))
    )
    @settings(max_examples=30, deadline=None)
    def test_identity_kernel(self, x):
        """A [1] kernel with no padding reproduces the input."""
        w = Tensor(np.ones((1, 1, 1)))
        out = F.conv1d(Tensor(x), w)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    @given(
        arrays(np.float64, (1, 1, 12), elements=st.floats(-2, 2, allow_nan=False, width=64))
    )
    @settings(max_examples=30, deadline=None)
    def test_shift_kernel_delays(self, x):
        """Causal [1, 0] kernel (weight on the oldest tap) delays by d."""
        w = np.zeros((1, 1, 2))
        w[0, 0, 0] = 1.0  # oldest tap
        d = 2
        out = F.conv1d(Tensor(x), Tensor(w), padding=(d, 0), dilation=d)
        np.testing.assert_allclose(out.data[0, 0, d:], x[0, 0, :-d], atol=1e-12)
        np.testing.assert_allclose(out.data[0, 0, :d], 0.0, atol=1e-12)
