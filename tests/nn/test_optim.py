"""Optimizer and clipping tests."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import Adam, clip_grad_norm


def quadratic_param(start=5.0):
    """A parameter to be driven toward 0 by minimizing x^2."""
    return Parameter(np.array([start]))


def step_once(opt, p):
    p.grad = 2.0 * p.data  # d/dx x^2
    opt.step()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.3)
        for _ in range(300):
            step_once(opt, p)
        assert abs(p.data[0]) < 1e-2

    def test_first_step_size_is_lr(self):
        # with bias correction, |first step| ~= lr regardless of grad scale
        for g in (1e-3, 1.0, 1e3):
            p = Parameter(np.array([0.0]))
            opt = Adam([p], lr=0.1)
            p.grad = np.array([g])
            opt.step()
            assert abs(p.data[0]) == pytest.approx(0.1, rel=1e-3)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], betas=(1.0, 0.9))

    def test_skips_none_grads(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.1)
        opt.step()  # no grad set
        assert p.data[0] == 5.0

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=0.0)


class TestClipping:
    def test_clip_norm_scales(self):
        p = Parameter(np.zeros(4))
        p.grad = np.array([3.0, 0.0, 4.0, 0.0])  # norm 5
        total = clip_grad_norm([p], max_norm=1.0)
        assert total == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_norm_noop_when_small(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], 0.0)
