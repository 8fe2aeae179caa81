"""Forecasting models: the paper's RPTCN plus every baseline it compares to.

All models implement the :class:`~repro.models.base.Forecaster` interface
over windowed supervised data ``X (N, window, features) -> y (N, horizon)``
and are discoverable through :func:`~repro.models.base.create_forecaster`.

Each model's module loads on first use (PEP 562 here, and by name through
the registry), so ``import repro.models`` loads only :mod:`.base`, and a
process that serves Holt never imports :mod:`repro.nn`.
"""

from .._lazy import lazy_exports
from .base import (
    FORECASTER_REGISTRY,
    Forecaster,
    NeuralForecaster,
    create_forecaster,
    register_forecaster,
)

__all__ = [
    "Forecaster",
    "NeuralForecaster",
    "register_forecaster",
    "create_forecaster",
    "FORECASTER_REGISTRY",
    "TemporalBlock",
    "TCN",
    "TCNForecaster",
    "RPTCN",
    "RPTCNForecaster",
    "LSTMForecaster",
    "CNNLSTMForecaster",
    "ARIMA",
    "ARIMAForecaster",
    "RegressionTree",
    "GradientBoostedTrees",
    "GBTForecaster",
    "PersistenceForecaster",
    "MeanForecaster",
    "DriftForecaster",
    "GRUForecaster",
    "PrunedGRUForecaster",
    "MLPForecaster",
    "HoltForecaster",
    "holt_linear",
    "grid_search",
    "GridSearchResult",
    "TrialResult",
    "BiLSTMForecaster",
    "Seq2SeqForecaster",
    "PinballLoss",
    "QuantileGBTForecaster",
    "QuantileRPTCNForecaster",
    "TransformerForecaster",
    "EnsembleForecaster",
    "HybridARIMANNForecaster",
    "ClusteredForecaster",
    "KMeans",
    "window_features",
]


__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ARIMA": "arima",
        "ARIMAForecaster": "arima",
        "BiLSTMForecaster": "bilstm",
        "ClusteredForecaster": "clustered",
        "KMeans": "clustered",
        "window_features": "clustered",
        "CNNLSTMForecaster": "cnn_lstm",
        "EnsembleForecaster": "ensemble",
        "HybridARIMANNForecaster": "ensemble",
        "HoltForecaster": "exponential",
        "holt_linear": "exponential",
        "GradientBoostedTrees": "gbt",
        "GBTForecaster": "gbt",
        "RegressionTree": "gbt",
        "GRUForecaster": "gru",
        "PrunedGRUForecaster": "gru_pruned",
        "LSTMForecaster": "lstm",
        "MLPForecaster": "mlp",
        "DriftForecaster": "naive",
        "MeanForecaster": "naive",
        "PersistenceForecaster": "naive",
        "PinballLoss": "quantile",
        "QuantileGBTForecaster": "quantile",
        "QuantileRPTCNForecaster": "quantile",
        "RPTCN": "rptcn",
        "RPTCNForecaster": "rptcn",
        "Seq2SeqForecaster": "seq2seq",
        "TCN": "tcn",
        "TCNForecaster": "tcn",
        "TemporalBlock": "tcn",
        "TransformerForecaster": "transformer",
        "GridSearchResult": "tuning",
        "TrialResult": "tuning",
        "grid_search": "tuning",
    },
)
