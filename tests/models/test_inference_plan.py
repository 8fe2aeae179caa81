"""Frozen inference plans: the serving path of the last-step TCN family.

``NeuralForecaster.predict`` answers ``rptcn`` (``feature`` and ``none``
attention), ``quantile_rptcn``, ``tcn`` and the NN half of
``hybrid_arima_nn`` through a plan built once per fitted network
(:class:`repro.models.tcn.LastStepPlan`). These tests hold it to

* the Module forward (``Trainer.predict``) bit for bit, over batch sizes
  across the 256-row chunk boundary, feature and horizon counts, channel
  and dilation variants, every attention / FC / normalizer combination,
  float32 and non-contiguous inputs;
* derived state only: ``predict`` leaves ``to_bytes()`` and the pickle
  as they were, a ``from_bytes`` copy serves the same, neither
  ``warm_fit`` nor ``load_state_dict`` nor ``to_dtype`` leaves a stale
  plan behind, and the ``temporal`` attention keeps the Module forward;
* no mode walks: a fitted network predicts without one ``Module.train``
  call.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models import create_forecaster
from repro.models.base import _PLANS
from repro.models.ensemble import HybridARIMANNForecaster
from repro.models.tcn import LastStepPlan, TemporalBlock
from repro.nn.module import Module
from repro.nn.tensor import dtype_policy


def _windows(n, window=12, features=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, window, features))
    y = x[:, -1, :1] + 0.1 * rng.random((n, 1))
    return x, y


def _module_predict(model, x):
    """What the Module forward serves: ``Trainer.predict``, never the plan."""
    if isinstance(model, HybridARIMANNForecaster):
        return model._arima_part(np.asarray(x, float)) + model.nn.trainer.predict(x)
    return model.trainer.predict(x)


def _fit(name, x, y, **kwargs):
    return create_forecaster(name, epochs=1, seed=0, **kwargs).fit(x, y)


def _assert_plan_is_the_module(model, x):
    got = model.predict(x)
    want = _module_predict(model, x)
    assert got.dtype == want.dtype
    assert got.shape == want.shape == (len(x), want.shape[1])
    assert np.array_equal(got, want)


_RPTCN_VARIANTS = st.fixed_dictionaries(
    {
        "attention": st.sampled_from(["feature", "none"]),
        "use_fc": st.booleans(),
        "fc_units": st.sampled_from([4, 9]),
        "channels": st.sampled_from([(4,), (6, 6), (3, 5, 8)]),
        "kernel_size": st.sampled_from([2, 3]),
        "dropout": st.sampled_from([0.0, 0.3]),
        "horizon": st.integers(1, 3),
    }
)


class TestPlanEqualsModuleForward:
    @settings(max_examples=30, deadline=None)
    @given(
        variant=_RPTCN_VARIANTS,
        sigmoid=st.booleans(),
        dilated=st.booleans(),
        features=st.integers(1, 3),
        window=st.sampled_from([5, 12]),
        n=st.integers(0, 600),
    )
    @example(
        variant={"attention": "feature", "use_fc": True, "fc_units": 9,
                 "channels": (6, 6), "kernel_size": 3, "dropout": 0.3, "horizon": 2},
        sigmoid=True, dilated=True, features=3, window=12, n=257,
    )
    def test_rptcn(self, variant, sigmoid, dilated, features, window, n):
        levels = len(variant["channels"])
        dilations = tuple(3**i for i in range(levels)) if dilated else None
        x, y = _windows(max(n, 40), window, features, seed=n)
        variant = dict(variant)
        horizon = variant.pop("horizon")
        model = create_forecaster(
            "rptcn", horizon=horizon, dilations=dilations, epochs=1, seed=n, **variant
        )
        model.fit(x[:40], np.repeat(y[:40], horizon, axis=1))
        if sigmoid and model.model.feature_attention is not None:
            model.model.feature_attention.normalizer = "sigmoid"
        assert isinstance(_PLANS.get(model.model, "unbuilt"), str)
        _assert_plan_is_the_module(model, x[:n])
        assert isinstance(_PLANS[model.model], LastStepPlan)

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("tcn", {"channels": (5, 7), "horizon": 2}),
            ("quantile_rptcn", {"channels": (4, 4), "taus": (0.1, 0.5, 0.9)}),
            (
                "hybrid_arima_nn",
                {"order": (1, 0, 0), "nn_kwargs": {"channels": (4, 4), "epochs": 1, "seed": 0}},
            ),
        ],
    )
    @pytest.mark.parametrize("n", [0, 1, 5, 256, 257, 600])
    def test_other_covered_forecasters(self, name, kwargs, n):
        x, y = _windows(600, features=2, seed=3)
        if name == "hybrid_arima_nn":
            model = create_forecaster(name, **kwargs).fit(x[:60], y[:60])
        else:
            horizon = kwargs.get("horizon", 1)
            model = _fit(name, x[:60], np.repeat(y[:60], horizon, axis=1), **kwargs)
        _assert_plan_is_the_module(model, x[:n])

    @pytest.mark.parametrize("layout", ["float32", "strided", "fortran"])
    def test_input_dtype_and_layout(self, layout):
        x, y = _windows(700, features=3, seed=4)
        model = _fit("rptcn", x[:60], y[:60], channels=(6, 6))
        if layout == "float32":
            xs = x.astype(np.float32)
        elif layout == "strided":  # every other row and feature of a wider batch
            wide = np.zeros((2 * len(x), x.shape[1], 2 * x.shape[2]))
            wide[::2, :, ::2] = x
            xs = wide[::2, :, ::2]
        else:
            xs = np.asfortranarray(x)
        _assert_plan_is_the_module(model, xs)

    def test_float32_network_under_the_float32_policy(self):
        x, y = _windows(300, features=2, seed=5)
        model = _fit("rptcn", x[:60], y[:60], channels=(6, 6))
        model.model.to_dtype(np.float32)  # before the first predict builds the plan
        with dtype_policy(np.float32):
            got = model.predict(x)
            want = model.trainer.predict(x)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)


class TestPlanIsDerivedState:
    def test_predict_changes_no_bytes_and_a_copy_serves_the_same(self):
        x, y = _windows(300, seed=6)
        model = _fit("rptcn", x[:60], y[:60], channels=(4, 4))
        blob, pickled = model.to_bytes(), pickle.dumps(model)
        first = model.predict(x)
        assert model.model in _PLANS
        assert model.to_bytes() == blob and pickle.dumps(model) == pickled
        copy = type(model).from_bytes(blob)
        assert copy.model not in _PLANS
        assert np.array_equal(copy.predict(x), first)

    def test_warm_fit_never_serves_a_stale_plan(self):
        x, y = _windows(300, seed=7)
        model = _fit("rptcn", x[:60], y[:60], channels=(4, 4))
        before = model.predict(x)
        net = model.model
        model.warm_fit(x[60:120], y[60:120], epochs=1)
        assert model.model is net  # trained in place
        after = model.predict(x)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, model.trainer.predict(x))

    def test_loaded_weights_never_serve_a_stale_plan(self):
        x, y = _windows(300, seed=12)
        a = _fit("rptcn", x[:60], y[:60], channels=(4, 4))
        b = create_forecaster("rptcn", epochs=1, seed=1, channels=(4, 4)).fit(x[60:], y[60:])
        before = a.predict(x)
        a.model.load_state_dict(b.model.state_dict())
        after = a.predict(x)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, a.trainer.predict(x))
        assert np.array_equal(after, b.predict(x))

    def test_a_submodule_load_state_dict_never_serves_a_stale_plan(self):
        x, y = _windows(300, seed=14)
        a = _fit("rptcn", x[:60], y[:60], channels=(4, 4))
        b = create_forecaster("rptcn", epochs=1, seed=1, channels=(4, 4)).fit(x[60:], y[60:])
        before = a.predict(x)
        a.model.backbone.load_state_dict(b.model.backbone.state_dict())
        after = a.predict(x)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, a.trainer.predict(x))

    def test_to_dtype_never_serves_a_stale_plan(self):
        x, y = _windows(300, seed=13)
        model = _fit("rptcn", x[:60], y[:60], channels=(4, 4))
        model.predict(x[:3])  # the float64 plan
        model.model.to_dtype(np.float32)
        with dtype_policy(np.float32):
            got = model.predict(x)
            want = model.trainer.predict(x)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)

    def test_refit_builds_a_new_plan(self):
        x, y = _windows(300, seed=8)
        model = _fit("tcn", x[:60], y[:60], channels=(4, 4))
        model.predict(x[:3])
        old = _PLANS[model.model]
        model.fit(x[60:120], y[60:120])
        _assert_plan_is_the_module(model, x)
        assert _PLANS[model.model] is not old

    def test_temporal_attention_keeps_the_module_forward(self):
        x, y = _windows(100, seed=9)
        model = _fit("rptcn", x[:60], y[:60], channels=(4, 4), attention="temporal")
        _assert_plan_is_the_module(model, x)
        assert _PLANS[model.model] is None

    def test_recurrent_nets_keep_the_module_forward(self):
        x, y = _windows(100, seed=10)
        model = _fit("lstm", x[:60], y[:60])
        _assert_plan_is_the_module(model, x)
        assert _PLANS[model.model] is None


def test_serving_walks_no_modules(monkeypatch):
    """The plan path runs no Module code: no mode walk, no block forward."""
    x, y = _windows(300, seed=11)
    model = _fit("rptcn", x[:60], y[:60], channels=(4, 4))
    want = model.trainer.predict(x)

    def fail(*_):
        raise AssertionError("the Module forward ran")

    monkeypatch.setattr(Module, "train", fail)
    monkeypatch.setattr(TemporalBlock, "forward_rows", fail)
    monkeypatch.setattr(type(model.model), "forward", fail)
    assert np.array_equal(model.predict(x), want)
