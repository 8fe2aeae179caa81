"""Training loop, callbacks and evaluation metrics."""

from .callbacks import Callback, EarlyStopping
from .metrics import mae, mse, rmse
from .trainer import Trainer, TrainingHistory

__all__ = [
    "Trainer",
    "TrainingHistory",
    "Callback",
    "EarlyStopping",
    "mse",
    "mae",
    "rmse",
]
