"""Naive baselines and registry mechanics."""

import numpy as np
import pytest

from repro.models import (
    DriftForecaster,
    FORECASTER_REGISTRY,
    MeanForecaster,
    PersistenceForecaster,
    create_forecaster,
    register_forecaster,
)
from repro.models.base import Forecaster


@pytest.fixture
def windows(rng):
    x = rng.random((30, 8, 3))
    y = rng.random((30, 2))
    return x, y


class TestRegistry:
    def test_all_paper_models_registered(self):
        required = {"arima", "lstm", "cnn_lstm", "xgboost", "rptcn", "tcn"}
        assert required <= set(FORECASTER_REGISTRY)

    def test_create_by_name(self):
        f = create_forecaster("persistence", horizon=2)
        assert isinstance(f, PersistenceForecaster)
        assert f.horizon == 2

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown forecaster"):
            create_forecaster("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(KeyError, match="already registered"):

            @register_forecaster("persistence")
            class Dup(Forecaster):  # pragma: no cover
                def fit(self, x, y, x_val=None, y_val=None):
                    return self

                def predict(self, x):
                    return x

    def test_builtin_names_match_their_modules(self):
        """Each built-in name is registered by the module the lazy table names."""
        import importlib
        import pkgutil

        import repro.models
        from repro.models.base import _BUILTIN

        for info in pkgutil.iter_modules(repro.models.__path__):
            importlib.import_module(f"repro.models.{info.name}")
        # test modules may register extra names; every built-in is loaded now
        loaded = {n: cls for n, cls in dict.items(FORECASTER_REGISTRY) if n in _BUILTIN}
        assert set(loaded) == set(_BUILTIN)
        for name, cls in loaded.items():
            assert cls.__module__ == f"repro.models.{_BUILTIN[name]}", name
        assert len(FORECASTER_REGISTRY) == len(list(FORECASTER_REGISTRY))
        assert FORECASTER_REGISTRY.get("nope") is None

    def test_name_attribute_set(self):
        assert PersistenceForecaster.name == "persistence"
        assert FORECASTER_REGISTRY["rptcn"].name == "rptcn"


class TestPersistence:
    def test_repeats_last_value(self, windows):
        x, y = windows
        f = PersistenceForecaster(horizon=2, target_col=1).fit(x, y)
        pred = f.predict(x)
        np.testing.assert_array_equal(pred[:, 0], x[:, -1, 1])
        np.testing.assert_array_equal(pred[:, 0], pred[:, 1])

    def test_requires_fit(self, windows):
        x, _ = windows
        with pytest.raises(RuntimeError):
            PersistenceForecaster().predict(x)


class TestMean:
    def test_predicts_window_mean(self, windows):
        x, y = windows
        f = MeanForecaster(horizon=2).fit(x, y)
        np.testing.assert_allclose(f.predict(x)[:, 0], x[:, :, 0].mean(axis=1))


class TestDrift:
    def test_extrapolates_linear_trend_exactly(self):
        t = np.arange(10.0)
        x = np.tile(t[None, :, None], (3, 1, 1))
        y = np.full((3, 2), np.nan)
        f = DriftForecaster(horizon=2).fit(x, y)
        pred = f.predict(x)
        np.testing.assert_allclose(pred, [[10.0, 11.0]] * 3)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            DriftForecaster(horizon=0)
