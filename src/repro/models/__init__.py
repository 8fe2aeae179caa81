"""Forecasting models: the paper's RPTCN plus every baseline it compares to.

All models implement the :class:`~repro.models.base.Forecaster` interface
over windowed supervised data ``X (N, window, features) -> y (N, horizon)``
and are discoverable through :func:`~repro.models.base.create_forecaster`.
"""

from .arima import ARIMA, ARIMAForecaster
from .base import (
    FORECASTER_REGISTRY,
    Forecaster,
    NeuralForecaster,
    create_forecaster,
    register_forecaster,
)
from .bilstm import BiLSTMForecaster
from .clustered import ClusteredForecaster, KMeans, window_features
from .cnn_lstm import CNNLSTMForecaster
from .ensemble import EnsembleForecaster, HybridARIMANNForecaster
from .exponential import HoltForecaster, holt_linear
from .gbt import GradientBoostedTrees, GBTForecaster, RegressionTree
from .gru import GRUForecaster
from .gru_pruned import PrunedGRUForecaster
from .lstm import LSTMForecaster
from .mlp import MLPForecaster
from .naive import DriftForecaster, MeanForecaster, PersistenceForecaster
from .quantile import PinballLoss, QuantileGBTForecaster, QuantileRPTCNForecaster
from .rptcn import RPTCN, RPTCNForecaster
from .seq2seq import Seq2SeqForecaster
from .tcn import TCN, TCNForecaster, TemporalBlock
from .transformer import TransformerForecaster
from .tuning import GridSearchResult, TrialResult, grid_search

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
