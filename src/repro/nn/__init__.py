"""A from-scratch NumPy deep-learning framework.

This subpackage replaces the TensorFlow/Keras stack the paper ran on:
reverse-mode autodiff (:mod:`repro.nn.tensor`), the layers the forecasters
build (:mod:`repro.nn.layers`: dilated causal weight-normalized convs,
spatial dropout, LSTM/GRU, attention, the transformer encoder), the MSE
loss, and Adam with gradient-norm clipping (:mod:`repro.nn.optim`), with
vectorized NumPy kernels.
"""

from . import functional, init, optim
from .layers import (
    GRU,
    LSTM,
    BahdanauAttention,
    Conv1d,
    Dropout,
    FeatureAttention,
    GRUCell,
    LayerNorm,
    Linear,
    LSTMCell,
    ModuleList,
    Sequential,
    SpatialDropout1d,
    Tanh,
    TemporalAttention,
    WeightNormConv1d,
)
from .init import default_rng, set_default_seed
from .losses import MSELoss
from .module import Module, Parameter
from .tensor import (
    Tensor,
    dtype_policy,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "dtype_policy",
    "set_default_seed",
    "default_rng",
    "Module",
    "Parameter",
    "functional",
    "init",
    "optim",
    "MSELoss",
    # layers
    "Linear",
    "Conv1d",
    "WeightNormConv1d",
    "LayerNorm",
    "Dropout",
    "SpatialDropout1d",
    "Tanh",
    "Sequential",
    "ModuleList",
    "LSTM",
    "LSTMCell",
    "GRU",
    "GRUCell",
    "FeatureAttention",
    "TemporalAttention",
    "BahdanauAttention",
]
