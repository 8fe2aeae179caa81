"""Unit tests for the autograd Tensor: forward values and graph mechanics."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, is_grad_enabled, no_grad


class TestConstruction:
    def test_wraps_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_ensure_passthrough(self):
        t = Tensor([1.0])
        assert Tensor.ensure(t) is t
        assert isinstance(Tensor.ensure(2.0), Tensor)

    def test_item_and_len(self):
        assert Tensor([[3.5]]).item() == 3.5
        assert len(Tensor([1, 2, 3])) == 3


class TestArithmeticForward:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3.0))
        np.testing.assert_array_equal(
            (a + b).data, np.broadcast_to(1.0 + np.arange(3.0), (2, 3))
        )

    def test_scalar_radd_rmul(self):
        t = Tensor([2.0])
        assert (3.0 + t).data[0] == 5.0
        assert (3.0 * t).data[0] == 6.0

    def test_sub_rsub(self):
        t = Tensor([2.0])
        assert (t - 1.0).data[0] == 1.0
        assert (1.0 - t).data[0] == -1.0

    def test_div_rdiv(self):
        t = Tensor([4.0])
        assert (t / 2.0).data[0] == 2.0
        assert (2.0 / t).data[0] == 0.5

    def test_pow(self):
        np.testing.assert_allclose((Tensor([3.0]) ** 2).data, [9.0])

    def test_pow_tensor_exponent_rejected(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([3.0])

    def test_matmul_2d(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_neg(self):
        np.testing.assert_array_equal((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])


class TestBackwardBasics:
    def test_scalar_chain(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x + 2.0 * x + 1.0
        y.backward()
        assert x.grad == pytest.approx(2 * 3.0 + 2.0)

    def test_non_scalar_backward_requires_grad_arg(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError):
            y.backward()

    def test_backward_on_constant_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor(2.0, requires_grad=True)
        y = x + x  # dy/dx = 2
        y.backward()
        assert x.grad == pytest.approx(2.0)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(2.0, requires_grad=True)
        (x * 3.0).backward()
        (x * 3.0).backward()
        assert x.grad == pytest.approx(6.0)

    def test_zero_grad(self):
        x = Tensor(2.0, requires_grad=True)
        (x * 3.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_broadcast_add_unbroadcasts_grad(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((4, 3)))
        np.testing.assert_array_equal(b.grad, 4.0 * np.ones(3))

    def test_broadcast_keepdim_axis(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.ones((4, 1)), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_array_equal(b.grad, 3.0 * np.ones((4, 1)))

    def test_deep_chain_no_recursion_error(self):
        # iterative topo sort must survive chains far beyond Python's
        # default recursion limit (long BPTT)
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 0.0
        y.backward()
        assert x.grad == pytest.approx(1.0)

    def test_diamond_graph(self):
        x = Tensor(3.0, requires_grad=True)
        a = x * 2.0
        b = x * 5.0
        (a * b).backward()  # d/dx (10 x^2) = 20x
        assert x.grad == pytest.approx(60.0)


class TestNoGrad:
    def test_disables_graph(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._parents == ()

    def test_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestReductions:
    def test_sum_axis_values(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(x.sum(axis=0).data, [3.0, 5.0, 7.0])

    def test_mean_matches_numpy(self):
        x = np.random.default_rng(0).random((3, 4))
        np.testing.assert_allclose(Tensor(x).mean(axis=1).data, x.mean(axis=1))

    def test_var(self):
        x = np.random.default_rng(0).random((5, 3))
        np.testing.assert_allclose(Tensor(x).var(axis=0).data, x.var(axis=0))


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones(6))

    def test_transpose_default_reverses(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.transpose().shape == (4, 3, 2)

    def test_swapaxes(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.swapaxes(1, 2).shape == (2, 4, 3)

    def test_getitem_grad_scatter(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x[1:3].sum().backward()
        np.testing.assert_array_equal(x.grad, [0, 1, 1, 0, 0])

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        x[np.array([0, 0, 1])].sum().backward()
        np.testing.assert_array_equal(x.grad, [2, 1, 0])

    def test_flatten_from(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.flatten_from(1).shape == (2, 12)


class TestCombinators:
    def test_concatenate_grads(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        c = Tensor.concatenate([a, b])
        assert c.shape == (5,)
        (c * np.arange(5.0)).sum().backward()
        np.testing.assert_array_equal(a.grad, [0, 1])
        np.testing.assert_array_equal(b.grad, [2, 3, 4])

    def test_stack(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        s = Tensor.stack([a, b], axis=0)
        assert s.shape == (2, 3)
        s.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones(3))

    def test_where(self):
        cond = np.array([True, False, True])
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        w = Tensor.where(cond, a, b)
        np.testing.assert_array_equal(w.data, [1, 0, 1])
        w.sum().backward()
        np.testing.assert_array_equal(a.grad, [1, 0, 1])
        np.testing.assert_array_equal(b.grad, [0, 1, 0])


class TestElementwise:
    def test_sigmoid_stable_at_extremes(self):
        t = Tensor([-1000.0, 0.0, 1000.0]).sigmoid()
        np.testing.assert_allclose(t.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_relu(self):
        np.testing.assert_array_equal(
            Tensor([-1.0, 0.0, 2.0]).relu().data, [0.0, 0.0, 2.0]
        )

    def test_comparisons_return_bool_arrays(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert (x > 1.5).tolist() == [False, True, True]
        assert (x <= 2.0).tolist() == [True, True, False]
