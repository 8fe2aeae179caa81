"""Neural-network layers built on the :mod:`repro.nn` autograd engine."""

from .activations import Tanh
from .attention import BahdanauAttention, FeatureAttention, TemporalAttention
from .container import ModuleList, Sequential
from .conv import Conv1d
from .dropout import Dropout, SpatialDropout1d
from .linear import Linear
from .normalization import LayerNorm, WeightNormConv1d
from .recurrent import GRU, LSTM, GRUCell, LSTMCell
from .transformer import (
    MultiHeadSelfAttention,
    TransformerEncoderBlock,
    positional_encoding,
)

__all__ = [
    "Tanh",
    "FeatureAttention",
    "TemporalAttention",
    "BahdanauAttention",
    "Sequential",
    "ModuleList",
    "Conv1d",
    "Dropout",
    "SpatialDropout1d",
    "Linear",
    "LayerNorm",
    "WeightNormConv1d",
    "LSTM",
    "LSTMCell",
    "GRU",
    "GRUCell",
    "MultiHeadSelfAttention",
    "TransformerEncoderBlock",
    "positional_encoding",
]
