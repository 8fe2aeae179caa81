"""Public-API surface tests: everything __all__ promises actually exists."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.nn.layers",
    "repro.nn.optim",
    "repro.models",
    "repro.traces",
    "repro.data",
    "repro.training",
    "repro.analysis",
    "repro.experiments",
    "repro.streaming",
    "repro.cluster",
    "repro.obs",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} must declare __all__"
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", PACKAGES)
def test_package_docstrings(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, (
        f"{name} needs a real module docstring"
    )


def test_version():
    import repro

    assert repro.__version__.count(".") == 2


def test_registry_is_complete():
    """Every forecaster module registered its public classes."""
    from repro.models import FORECASTER_REGISTRY

    expected = {
        "arima", "lstm", "cnn_lstm", "xgboost", "rptcn", "tcn",
        "gru", "bilstm", "mlp", "holt", "seq2seq", "transformer",
        "persistence", "mean", "drift",
        "quantile_xgboost", "quantile_rptcn",
        "ensemble", "hybrid_arima_nn", "clustered",
    }
    assert expected <= set(FORECASTER_REGISTRY)
