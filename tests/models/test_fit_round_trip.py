"""A fitted network's optimizer state survives serialization exactly.

Adam keeps the weights in one flat vector of which each parameter's
``data`` is a view, and its moments in two more laid out like it
(:class:`repro.nn.optim.Adam`). A pickle stores each parameter's data
once and no flat vector; the optimizer rebuilds it on its first step.
These tests hold that to

* ``warm_fit`` after ``to_bytes``/``from_bytes``: bit for bit the
  ``warm_fit`` of the original;
* a forecaster pickled when Adam kept one moment array per parameter
  (``tests/nn/data/rptcn_unfused_block.pkl``): it loads, predicts as it
  did, and its ``warm_fit`` is bit for bit the per-parameter optimizer's
  (``tests/nn/optim_reference.py``) from the same state;
* the payload size: no larger than with one moment array per parameter.
"""

from __future__ import annotations

import io
import pickle
from pathlib import Path

import numpy as np

from repro.models import create_forecaster
from repro.models.base import Forecaster
from repro.models.rptcn import RPTCNForecaster
from repro.nn.optim import Adam

from ..nn.optim_reference import ReferenceAdam

LEGACY = Path(__file__).resolve().parent.parent / "nn" / "data" / "rptcn_unfused_block.pkl"

#: ``len(to_bytes())`` of :func:`_pool_fit` when Adam kept one moment
#: array per parameter (data and grads as now)
BYTES_PER_PARAMETER_MOMENTS = 190_887


def _windows(n, window=12, features=1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, window, features)), rng.random((n, 1))


def _pool_fit():
    """The fleet's pooled RPTCN refit shape: 907 windows of 12, one feature, 2 epochs."""
    x, y = _windows(907)
    return RPTCNForecaster(epochs=2, seed=0).fit(x, y), x


def _state(model):
    opt = model.trainer.optimizer
    return [p.data for p in model.model.parameters()] + [opt._m, opt._v]


def test_warm_fit_after_a_byte_round_trip_is_bit_identical():
    x, y = _windows(300, features=2, seed=1)
    model = create_forecaster("rptcn", channels=(6, 6), epochs=2, seed=0).fit(x[:200], y[:200])
    copy = Forecaster.from_bytes(model.to_bytes())
    for m in (model, copy):
        m.warm_fit(x[100:], y[100:], epochs=2)
    assert np.array_equal(copy.predict(x), model.predict(x))
    for a, b in zip(_state(model), _state(copy)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_payload_is_no_larger_than_with_per_parameter_moments():
    model, _ = _pool_fit()
    n = model.model.num_parameters()
    blob = model.to_bytes()
    assert len(blob) <= BYTES_PER_PARAMETER_MOMENTS
    # data, grad and the two moments: every weight four times, not six
    assert len(blob) < 4 * 8 * n + 16_384


class _ReferenceUnpickler(pickle.Unpickler):
    """Loads pickled Adams as the per-parameter reference, moment lists as saved."""

    def find_class(self, module, name):
        if (module, name) == ("repro.nn.optim.adam", "Adam"):
            return ReferenceAdam
        return super().find_class(module, name)


def test_legacy_pickle_loads_predicts_and_warm_fits_as_the_per_parameter_optimizer():
    payload = LEGACY.read_bytes()
    saved = pickle.loads(payload)
    model = saved["forecaster"]
    assert isinstance(model.trainer.optimizer, Adam)
    np.testing.assert_allclose(model.predict(saved["x"]), saved["pred"], rtol=1e-12, atol=1e-14)

    ref = _ReferenceUnpickler(io.BytesIO(payload)).load()["forecaster"]
    assert isinstance(ref.trainer.optimizer._m, list)
    x, y = _windows(64, features=2, seed=2)
    before = model.predict(x)
    model.warm_fit(x, y, epochs=2)
    ref.warm_fit(x, y, epochs=2)
    assert not np.array_equal(model.predict(x), before)
    assert np.array_equal(model.predict(x), ref.predict(x))
    opt, ref_opt = model.trainer.optimizer, ref.trainer.optimizer
    for (lo, hi), m, v in zip(opt._bounds, ref_opt._m, ref_opt._v):
        assert opt._m[lo:hi].tobytes() == m.tobytes()
        assert opt._v[lo:hi].tobytes() == v.tobytes()
