"""Training loop, callbacks and evaluation metrics.

Each module loads on first use (PEP 562), so reading the metrics does not
import the training loop or :mod:`repro.nn`.
"""

from .._lazy import lazy_exports

__all__ = [
    "Trainer",
    "TrainingHistory",
    "Callback",
    "EarlyStopping",
    "mse",
    "mae",
    "rmse",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Trainer": "trainer",
        "TrainingHistory": "trainer",
        "Callback": "callbacks",
        "EarlyStopping": "callbacks",
        "mse": "metrics",
        "mae": "metrics",
        "rmse": "metrics",
    },
)
