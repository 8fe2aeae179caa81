"""Module registration, traversal, mode switching and state dicts."""

import numpy as np
import pytest

from repro.nn.layers import Dropout, Linear, Sequential
from repro.nn.losses import MSELoss
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class Tiny(Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(3, 4, rng=rng)
        self.fc2 = Linear(4, 2, rng=rng)
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.fc2(self.fc1(x).relu()) * self.scale


class TestRegistration:
    def test_named_parameters_dotted(self, rng):
        m = Tiny(rng)
        names = dict(m.named_parameters())
        assert "fc1.weight" in names and "fc2.bias" in names and "scale" in names

    def test_num_parameters(self, rng):
        m = Tiny(rng)
        assert m.num_parameters() == (3 * 4 + 4) + (4 * 2 + 2) + 1

    def test_modules_walk(self, rng):
        m = Tiny(rng)
        kinds = [type(x).__name__ for x in m.modules()]
        assert kinds == ["Tiny", "Linear", "Linear"]

    def test_reassignment_replaces(self, rng):
        m = Tiny(rng)
        m.fc1 = Linear(3, 4, rng=rng)
        assert len(list(m.parameters())) == 5  # not duplicated


class TestModes:
    def test_eval_train_deep(self, rng):
        m = Sequential(Linear(2, 2, rng=rng), Sequential(Dropout(0.5, rng=rng)))
        m.eval()
        assert all(not x.training for x in m.modules())
        m.train()
        assert all(x.training for x in m.modules())

    def test_zero_grad(self, rng):
        m = Tiny(rng)
        out = m(Tensor(rng.random((2, 3))))
        out.sum().backward()
        assert any(p.grad is not None for p in m.parameters())
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())


class TestSerialization:
    def test_state_dict_roundtrip(self, rng):
        m1, m2 = Tiny(rng), Tiny(np.random.default_rng(999))
        x = rng.random((2, 3))
        assert not np.allclose(m1(Tensor(x)).data, m2(Tensor(x)).data)
        m2.load_state_dict(m1.state_dict())
        np.testing.assert_array_equal(m1(Tensor(x)).data, m2(Tensor(x)).data)

    def test_state_dict_is_a_copy(self, rng):
        m = Tiny(rng)
        state = m.state_dict()
        state["scale"][...] = 42.0
        assert m.scale.data[0] == 1.0

    def test_mismatched_keys_raise(self, rng):
        m = Tiny(rng)
        state = m.state_dict()
        del state["scale"]
        with pytest.raises(KeyError, match="missing"):
            m.load_state_dict(state)

    def test_mismatched_shape_raises(self, rng):
        m = Tiny(rng)
        state = m.state_dict()
        state["scale"] = np.ones(3)
        with pytest.raises(ValueError, match="shape mismatch"):
            m.load_state_dict(state)

    def test_state_dict_roundtrip_keeps_float32(self, rng):
        from repro.nn.tensor import dtype_policy

        with dtype_policy(np.float32):
            m1 = Tiny(np.random.default_rng(7)).to_dtype(np.float32)
            m2 = Tiny(np.random.default_rng(999)).to_dtype(np.float32)
            m2.load_state_dict(m1.state_dict())
            for (_, a), (__, b) in zip(m1.named_parameters(), m2.named_parameters()):
                assert b.data.dtype == np.float32
                np.testing.assert_array_equal(a.data, b.data)
            x = rng.random((2, 3)).astype(np.float32)
            out = m2(Tensor(x))
            assert out.data.dtype == np.float32
            np.testing.assert_array_equal(m1(Tensor(x)).data, out.data)


class TestLosses:
    def test_mse_value(self):
        loss = MSELoss()(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        assert loss.item() == pytest.approx((1 + 4) / 2)

    def test_reductions(self):
        pred, target = Tensor([1.0, 3.0]), Tensor([0.0, 0.0])
        assert MSELoss(reduction="sum")(pred, target).item() == pytest.approx(10.0)
        per = MSELoss(reduction="none")(pred, target)
        np.testing.assert_array_equal(per.data, [1.0, 9.0])

    def test_invalid_reduction(self):
        with pytest.raises(ValueError):
            MSELoss(reduction="bogus")

    def test_losses_backprop(self, rng):
        for loss_cls in (MSELoss,):
            pred = Tensor(rng.random(5), requires_grad=True)
            loss_cls()(pred, Tensor(rng.random(5))).backward()
            assert pred.grad is not None
