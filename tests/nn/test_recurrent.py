"""LSTM / GRU behavioural tests."""

import numpy as np

from repro.nn.layers import GRU, LSTM, GRUCell, LSTMCell
from repro.nn.tensor import Tensor


class TestLSTMCell:
    def test_output_shapes(self, rng):
        cell = LSTMCell(3, 5, rng=rng)
        h, c = cell(Tensor(rng.random((4, 3))))
        assert h.shape == (4, 5)
        assert c.shape == (4, 5)

    def test_forget_bias_initialized_to_one(self, rng):
        cell = LSTMCell(3, 5, rng=rng)
        np.testing.assert_array_equal(cell.bias.data[5:10], np.ones(5))
        np.testing.assert_array_equal(cell.bias.data[:5], np.zeros(5))

    def test_state_threading(self, rng):
        cell = LSTMCell(2, 3, rng=rng)
        x = Tensor(rng.random((1, 2)))
        h1, c1 = cell(x)
        h2, c2 = cell(x, (h1, c1))
        assert not np.allclose(h1.data, h2.data)

    def test_hidden_bounded_by_tanh(self, rng):
        cell = LSTMCell(2, 4, rng=rng)
        h, _ = cell(Tensor(100.0 * rng.random((8, 2))))
        assert (np.abs(h.data) <= 1.0).all()


class TestLSTM:
    def test_sequence_shape(self, rng):
        layer = LSTM(3, 6, num_layers=2, rng=rng)
        out = layer(Tensor(rng.random((4, 9, 3))))
        assert out.shape == (4, 9, 6)

    def test_parameters_per_layer(self, rng):
        layer = LSTM(3, 4, num_layers=2, rng=rng)
        # 3 parameter tensors per cell (w_ih, w_hh, bias)
        assert len(list(layer.parameters())) == 6

    def test_causality(self, rng):
        """Output at step t must not depend on inputs after t."""
        layer = LSTM(2, 3, rng=rng)
        x = rng.random((1, 8, 2))
        base = layer(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[0, 5, :] += 10.0
        out = layer(Tensor(x2)).data
        np.testing.assert_allclose(out[0, :5], base[0, :5])
        assert not np.allclose(out[0, 5:], base[0, 5:])

    def test_deterministic_given_rng_seed(self):
        a = LSTM(2, 3, rng=np.random.default_rng(7))
        b = LSTM(2, 3, rng=np.random.default_rng(7))
        x = np.random.default_rng(0).random((2, 5, 2))
        np.testing.assert_array_equal(a(Tensor(x)).data, b(Tensor(x)).data)

    def test_batch_independence(self, rng):
        """Each batch row is processed independently."""
        layer = LSTM(2, 3, rng=rng)
        x = rng.random((3, 6, 2))
        full = layer(Tensor(x)).data
        single = layer(Tensor(x[1:2])).data
        np.testing.assert_allclose(full[1:2], single, atol=1e-12)


class TestGRU:
    def test_sequence_shape(self, rng):
        layer = GRU(3, 5, num_layers=2, rng=rng)
        assert layer(Tensor(rng.random((2, 7, 3)))).shape == (2, 7, 5)

    def test_cell_interpolation_property(self, rng):
        """With update gate z -> 1, the GRU keeps its previous state."""
        cell = GRUCell(2, 3, rng=rng)
        # force z ~ 1 via a huge update-gate bias
        cell.b_ih.data[3:6] = 50.0
        h0 = Tensor(rng.random((1, 3)))
        h1 = cell(Tensor(rng.random((1, 2))), h0)
        np.testing.assert_allclose(h1.data, h0.data, atol=1e-6)

    def test_gru_causality(self, rng):
        layer = GRU(2, 3, rng=rng)
        x = rng.random((1, 6, 2))
        base = layer(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[0, 4, :] += 5.0
        out = layer(Tensor(x2)).data
        np.testing.assert_allclose(out[0, :4], base[0, :4])


class TestTraining:
    def test_lstm_learns_identity_task(self, rng):
        """A small LSTM should learn to output the last input in a few steps."""
        from repro.nn.layers import Linear
        from repro.nn.losses import MSELoss
        from repro.nn.module import Module
        from repro.nn.optim import Adam

        class Net(Module):
            def __init__(self):
                super().__init__()
                self.lstm = LSTM(1, 8, rng=rng)
                self.head = Linear(8, 1, rng=rng)

            def forward(self, x):
                return self.head(self.lstm(x)[:, -1, :])

        net = Net()
        opt = Adam(net.parameters(), lr=1e-2)
        loss_fn = MSELoss()
        x = rng.random((64, 5, 1))
        y = x[:, -1, :]
        first = None
        for _ in range(60):
            opt.zero_grad()
            loss = loss_fn(net(Tensor(x)), Tensor(y))
            loss.backward()
            opt.step()
            first = first if first is not None else loss.item()
        assert loss.item() < 0.25 * first
