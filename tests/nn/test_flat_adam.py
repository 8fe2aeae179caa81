"""Adam over flat vectors: weights, moments and gathered grads.

Adam keeps the weights in one flat vector of which each ``p.data`` is a
view, and its moments in two flat vectors laid out like it, so a step is
a handful of whole-vector ops. The tests hold it to the per-parameter
optimizer it replaced (``optim_reference``) bit for bit, and cover the
ways a parameter could fall out of the flat vector: a second optimizer,
``to_dtype``, a rebound ``p.data``, a pickle round trip.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import dtype_policy

from .optim_reference import ReferenceAdam


@st.composite
def _runs(draw):
    """Parameter shapes, then per step: who gets a grad, its layout, and the clip limit."""
    shapes = draw(
        st.lists(st.lists(st.integers(1, 5), max_size=3).map(tuple), min_size=1, max_size=8)
    )
    n = len(shapes)
    steps = draw(
        st.lists(
            st.tuples(
                st.lists(st.booleans(), min_size=n, max_size=n),  # holds a grad
                st.lists(st.booleans(), min_size=n, max_size=n),  # non-contiguous grad
                # clip limit as a fraction of the step's norm: None = no clipping
                st.sampled_from([None, 0.25, 0.9, 1.1, 4.0]),
            ),
            min_size=1,
            max_size=5,
        )
    )
    scale = draw(st.sampled_from([1e-6, 1.0, 1e4]))
    lr = draw(st.sampled_from([1e-3, 0.1]))
    return shapes, steps, scale, lr, draw(st.integers(0, 2**32 - 1))


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(run=_runs())
def test_adam_matches_the_per_parameter_oracle(run):
    shapes, steps, scale, lr, seed = run
    rng = np.random.default_rng(seed)
    init = [rng.standard_normal(s) for s in shapes]
    params = [Parameter(a.copy()) for a in init]
    ref = [Parameter(a.copy()) for a in init]
    opt, ref_opt = Adam(params, lr=lr), ReferenceAdam(ref, lr=lr)
    for holds, transposed, clip in steps:
        opt.zero_grad()
        ref_opt.zero_grad()
        for p, q, has, t in zip(params, ref, holds, transposed):
            if has:
                shape = p.data.shape
                # np.array: a 0-d draw is a NumPy scalar, which clipping cannot scale in place
                g = np.array(scale * rng.standard_normal(shape[::-1] if t else shape))
                p.grad = g.T if t else g
                q.grad = p.grad.copy(order="K")  # same layout: same summation order
        if clip is not None:
            norm = math.sqrt(sum(float((q.grad**2).sum()) for q in ref if q.grad is not None))
            max_norm = clip * norm if norm > 0 else clip
            assert clip_grad_norm(params, max_norm) == clip_grad_norm(ref, max_norm)
        opt.step()
        ref_opt.step()
        for (lo, hi), p, q, m, v in zip(opt._bounds, params, ref, ref_opt._m, ref_opt._v):
            assert _same_bytes(p.data, q.data)
            assert _same_bytes(opt._m[lo:hi].reshape(m.shape), m)
            assert _same_bytes(opt._v[lo:hi].reshape(v.shape), v)
            assert np.shares_memory(p.data, opt._flat)
    # a parameter that never held a grad kept its data and its zero moments
    for (lo, hi), p, a, held in zip(
        opt._bounds, params, init, zip(*(holds for holds, _, _ in steps))
    ):
        if not any(held):
            assert _same_bytes(p.data, a) and not opt._m[lo:hi].any()


class TestFlatWeights:
    def test_data_is_a_view_of_the_flat_vector(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        before = {n: p.data.copy() for n, p in layer.named_parameters()}
        opt = Adam(layer.parameters(), lr=0.1)
        for name, p in layer.named_parameters():
            assert np.shares_memory(p.data, opt._flat)
            assert np.array_equal(p.data, before[name])

    def test_an_assigned_grad_is_read_at_step_time(self):
        p = Parameter(np.zeros(3))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0, -2.0, 3.0])
        p.grad *= -1.0  # as clipping scales it: in place, after the assignment
        opt.step()
        assert np.array_equal(np.sign(p.data), [1.0, -1.0, 1.0])

    def test_a_parameter_without_grad_is_skipped_and_zero_grad_clears_all(self):
        a, b = Parameter(np.ones(2)), Parameter(np.ones((2, 2)))
        opt = Adam([a, b], lr=0.1)
        b.grad = np.ones((2, 2))
        opt.step()
        assert np.array_equal(a.data, np.ones(2)) and not np.array_equal(b.data, np.ones((2, 2)))
        a.grad = np.ones(2)
        opt.zero_grad()
        assert a.grad is None and b.grad is None

    def test_a_second_optimizer_never_leaves_the_first_stepping_a_copy(self):
        p = Parameter(np.array([1.0]))
        first, second = Adam([p], lr=0.1), Adam([p], lr=0.1)
        for opt in (first, second, first):
            start = p.data.copy()
            p.grad = np.array([1.0])
            opt.step()
            assert p.data[0] < start[0]
            assert np.shares_memory(p.data, opt._flat)

    def test_a_rebound_data_array_is_moved_into_a_new_flat_vector(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.1)
        p.data = np.array([5.0, 5.0])
        p.grad = np.ones(2)
        opt.step()
        assert (p.data < 5.0).all()
        assert np.shares_memory(p.data, opt._flat)

    def test_duplicate_parameters_and_mixed_dtypes_are_refused(self):
        p = Parameter(np.zeros(2))
        with pytest.raises(ValueError, match="twice"):
            Adam([p, p])
        with dtype_policy(np.float32):
            single = Parameter(np.zeros(2))
        with pytest.raises(TypeError, match="dtype"):
            Adam([Parameter(np.zeros(2)), single])


class TestToDtype:
    def test_the_optimizer_steps_the_cast_weights(self):
        layer = Linear(3, 2, rng=np.random.default_rng(1))
        opt = Adam(layer.parameters(), lr=0.1)
        layer.to_dtype(np.float32)
        for p in layer.parameters():
            assert p.data.dtype == np.float32
            p.grad = np.ones_like(p.data)
        before = [p.data.copy() for p in layer.parameters()]
        opt.step()
        assert opt._flat.dtype == np.float32
        for p, b in zip(layer.parameters(), before):
            assert np.shares_memory(p.data, opt._flat)
            assert (p.data < b).all()

    def test_to_dtype_and_load_state_dict_on_any_module_bump_the_weights_version(self):
        outer, inner = Module(), Linear(3, 2, rng=np.random.default_rng(2))
        outer.inner = inner
        start = Module.weights_version
        inner.load_state_dict(inner.state_dict())
        assert outer.weights_version == Module.weights_version == start + 1
        inner.to_dtype(np.float64)
        assert outer.weights_version == start + 2


class TestPickle:
    def test_round_trip_rebuilds_the_flat_vector_and_steps_the_same(self):
        layer = Linear(4, 3, rng=np.random.default_rng(3))
        opt = Adam(layer.parameters(), lr=0.05)
        rng = np.random.default_rng(4)
        for _ in range(3):
            for p in layer.parameters():
                p.grad = rng.standard_normal(p.data.shape)
            opt.step()
        copy_layer, copy_opt = pickle.loads(pickle.dumps((layer, opt)))
        assert copy_opt._flat is None  # rebuilt from the parameters on the first step
        grads = [rng.standard_normal(p.data.shape) for p in layer.parameters()]
        for net, o in ((layer, opt), (copy_layer, copy_opt)):
            for _ in range(2):
                o.zero_grad()
                for p, g in zip(net.parameters(), grads):
                    p.grad = g.copy()
                clip_grad_norm(list(net.parameters()), 0.5)
                o.step()
        for p, q in zip(layer.parameters(), copy_layer.parameters()):
            assert _same_bytes(p.data, q.data)
            assert np.shares_memory(q.data, copy_opt._flat)

    def test_weights_and_grads_are_pickled_once(self):
        params = [Parameter(np.ones((50, 40))) for _ in range(3)]
        opt = Adam(params)
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.step()
        nbytes = sum(p.data.nbytes for p in params)
        # data, grad and two moments: four copies, not six
        assert len(pickle.dumps(opt)) < 4 * nbytes + 4096
