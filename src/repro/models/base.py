"""Forecaster interface and registry.

Every model — deep or classical — consumes the same windowed supervised
format produced by :mod:`repro.data.windowing`:

* ``x``: ``(N, window, features)`` normalized inputs,
* ``y``: ``(N, horizon)`` future values of the target indicator.

``target_col`` names the feature column holding the target's *current*
value (needed by the univariate classical models and the naive baselines).
"""

from __future__ import annotations

import abc
import importlib
import pickle
import weakref
from typing import TYPE_CHECKING, Callable, Iterator, Type

import numpy as np

if TYPE_CHECKING:
    from ..nn.module import Module
    from ..training.trainer import Trainer, TrainingHistory
    from .tcn import LastStepPlan

__all__ = [
    "Forecaster",
    "NeuralForecaster",
    "register_forecaster",
    "create_forecaster",
    "FORECASTER_REGISTRY",
]


class Forecaster(abc.ABC):
    """fit/predict interface over windowed data."""

    #: short machine name, set by the registry decorator
    name: str = ""

    def __init__(self, horizon: int = 1, target_col: int = 0) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.horizon = horizon
        self.target_col = target_col
        self.fitted = False

    @abc.abstractmethod
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
    ) -> "Forecaster":
        """Train on windowed data; validation data drives early stopping."""

    @abc.abstractmethod
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Return ``(N, horizon)`` predictions.

        **Batch contract:** rows are independent — predicting a stacked
        ``(N, window, features)`` batch must equal predicting each row
        separately and concatenating the results. Classical forecasters
        are bit-for-bit; GEMM-backed neural forwards may differ by
        floating-point reduction order only (a few ulps), never by any
        genuine cross-row coupling (no batch statistics, no sampling
        shared across rows). Serving relies on this: the fleet predictor
        stacks the due windows of many streams into one batch and makes
        a single ``predict`` call, and
        ``tests/models/test_batch_parity.py`` asserts the equivalence
        for every registered forecaster.
        """

    # -- warm-start contract ---------------------------------------------------

    @property
    def supports_warm_fit(self) -> bool:
        """Whether :meth:`warm_fit` is cheaper than a fit-from-scratch.

        Online callers (the async refit engine) use this to decide
        whether shipping the current weights to a background worker buys
        anything; models that just re-fit report ``False``.
        """
        return False

    def warm_fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
        epochs: int | None = None,
    ) -> "Forecaster":
        """Resume training from the current parameters on fresh windows.

        The contract is *best effort*: a model that cannot resume (never
        fitted, incompatible input shape, no incremental procedure) must
        fall back to a full :meth:`fit` rather than raise — callers
        treat ``warm_fit`` as "give me an updated model", not as a
        guarantee of incrementality. ``epochs`` bounds the resume budget
        for iterative models and is ignored by the rest. The base
        implementation is exactly the cold path.
        """
        del epochs  # the cold path has no epoch budget to bound
        return self.fit(x, y, x_val, y_val)

    # -- shared validation helpers -------------------------------------------

    @staticmethod
    def _check_xy(x: np.ndarray, y: np.ndarray | None = None) -> None:
        x = np.asarray(x)
        if x.ndim != 3:
            raise ValueError(f"x must be (N, window, features), got shape {x.shape}")
        if y is not None:
            y = np.asarray(y)
            if y.ndim != 2 or len(y) != len(x):
                raise ValueError(
                    f"y must be (N, horizon) aligned with x, got {y.shape} for x {x.shape}"
                )

    def _check_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError(f"{type(self).__name__} is not fitted")

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the fitted forecaster (parameters and all) to bytes.

        Every forecaster in the registry — classical and ``repro.nn``
        based — holds only NumPy arrays, plain Python state and RNGs, so
        a pickle round-trip reproduces predictions bit-for-bit. Used by
        the serving checkpoint (:mod:`repro.streaming.checkpoint`); the
        payload is a trusted local artifact, not a wire format.
        """
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def from_bytes(payload: bytes) -> "Forecaster":
        """Inverse of :meth:`to_bytes`; validates the payload type."""
        obj = pickle.loads(payload)
        if not isinstance(obj, Forecaster):
            raise TypeError(
                f"payload deserialized to {type(obj).__name__}, expected a Forecaster"
            )
        return obj


#: built-in forecaster name → the module of this package that registers it
_BUILTIN = {
    "arima": "arima",
    "bilstm": "bilstm",
    "clustered": "clustered",
    "cnn_lstm": "cnn_lstm",
    "drift": "naive",
    "ensemble": "ensemble",
    "gru": "gru",
    "gru_pruned": "gru_pruned",
    "holt": "exponential",
    "hybrid_arima_nn": "ensemble",
    "lstm": "lstm",
    "mean": "naive",
    "mlp": "mlp",
    "persistence": "naive",
    "quantile_rptcn": "quantile",
    "quantile_xgboost": "quantile",
    "rptcn": "rptcn",
    "seq2seq": "seq2seq",
    "tcn": "tcn",
    "transformer": "transformer",
    "xgboost": "gbt",
}


class _Registry(dict):
    """name → Forecaster subclass; a built-in's module is imported on first lookup.

    Every built-in name counts as registered (``in``, iteration, ``len``,
    ``get``) before its module loads, so a process imports only the
    models it asks for: a Holt server never loads :mod:`repro.nn`.
    """

    def __missing__(self, name: str) -> Type[Forecaster]:
        if name not in _BUILTIN:
            raise KeyError(name)
        importlib.import_module(f".{_BUILTIN[name]}", __package__)
        return dict.__getitem__(self, name)

    def __contains__(self, name: object) -> bool:
        return name in _BUILTIN or dict.__contains__(self, name)

    def __iter__(self) -> Iterator[str]:
        yield from _BUILTIN
        yield from (name for name in dict.keys(self) if name not in _BUILTIN)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def get(self, name: str, default: Type[Forecaster] | None = None):
        return self[name] if name in self else default


#: name → Forecaster subclass
FORECASTER_REGISTRY: dict[str, Type[Forecaster]] = _Registry()


def register_forecaster(name: str) -> Callable[[Type[Forecaster]], Type[Forecaster]]:
    """Class decorator adding the forecaster to the global registry.

    A built-in name registers only from its own module (see ``_BUILTIN``).
    """

    def deco(cls: Type[Forecaster]) -> Type[Forecaster]:
        home = _BUILTIN.get(name)
        if dict.__contains__(FORECASTER_REGISTRY, name) or (
            home is not None and cls.__module__ != f"{__package__}.{home}"
        ):
            raise KeyError(f"forecaster {name!r} already registered")
        FORECASTER_REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def create_forecaster(name: str, **kwargs) -> Forecaster:
    """Instantiate a registered forecaster by name."""
    try:
        cls = FORECASTER_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown forecaster {name!r}; registered: {sorted(FORECASTER_REGISTRY)}"
        ) from None
    return cls(**kwargs)


#: fitted network → its frozen inference plan, or None where the network
#: has none. Derived state: kept beside the network, never in its pickle
#: or checkpoint bytes, and gone when the network is. A plan records the
#: process-wide ``Module.weights_version`` it was built at and is rebuilt
#: once that moves (any ``load_state_dict`` or ``to_dtype``, on any module
#: of any network: a rare rebuild too many, never a stale plan); whether a
#: network has a plan at all does not depend on its weights.
_PLANS: weakref.WeakKeyDictionary[Module, LastStepPlan | None] = (
    weakref.WeakKeyDictionary()
)


def _inference_plan(model: "Module") -> "LastStepPlan | None":
    """The network's frozen inference plan (``model.inference_plan()``), built on first use."""
    version = model.weights_version
    plan = _PLANS.get(model)
    if model not in _PLANS or (plan is not None and plan.weights_version != version):
        build = getattr(model, "inference_plan", None)
        plan = _PLANS[model] = build() if build is not None else None
        if plan is not None:
            plan.weights_version = version
    return plan


class NeuralForecaster(Forecaster):
    """Shared training plumbing for the deep models.

    Subclasses implement :meth:`build` returning an ``nn.Module`` mapping
    ``(N, window, features)`` tensors to ``(N, horizon)``. Training follows
    the paper's recipe: Adam + MSE, EarlyStopping(patience=10) on
    validation loss with best-weight restore.

    **Serving.** A network that defines ``inference_plan()`` (the
    last-step TCN family: ``rptcn`` with the ``feature`` or ``none``
    attention, ``quantile_rptcn``, ``tcn``) answers :meth:`predict`
    through that frozen plan, built once per fitted network: its weights
    folded into plain arrays, run with the Module forward's ops in its
    order, in the same 256-row chunks as :meth:`Trainer.predict`, so the
    output is bit for bit the Module forward's. The plan is derived
    state, kept outside the forecaster and its pickle; :meth:`fit` and
    :meth:`warm_fit` drop it. Every other network, and training, runs
    the Module forward.
    """

    def __init__(
        self,
        horizon: int = 1,
        target_col: int = 0,
        epochs: int = 60,
        batch_size: int = 32,
        lr: float = 1e-3,
        patience: int = 10,
        grad_clip_norm: float | None = 5.0,
        seed: int = 0,
    ) -> None:
        super().__init__(horizon=horizon, target_col=target_col)
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.patience = patience
        self.grad_clip_norm = grad_clip_norm
        self.seed = seed
        self.model: Module | None = None
        self.trainer: Trainer | None = None
        self.history: TrainingHistory | None = None

    @abc.abstractmethod
    def build(self, window: int, features: int, rng: np.random.Generator) -> Module:
        """Construct the underlying network for the given input shape."""

    def _make_loss(self) -> Module:
        """Training objective; subclasses may override (e.g. pinball)."""
        from ..nn.losses import MSELoss

        return MSELoss()

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
    ) -> "NeuralForecaster":
        from ..nn.optim import Adam
        from ..training.callbacks import EarlyStopping
        from ..training.trainer import Trainer

        self._check_xy(x, y)
        self._drop_plan()
        rng = np.random.default_rng(self.seed)
        _, window, features = x.shape
        self._fit_shape = (window, features)
        self.model = self.build(window, features, rng)
        self.trainer = Trainer(
            self.model,
            Adam(self.model.parameters(), lr=self.lr),
            self._make_loss(),
            grad_clip_norm=self.grad_clip_norm,
            rng=rng,
        )
        callbacks = []
        if x_val is not None and y_val is not None:
            callbacks.append(EarlyStopping(patience=self.patience))
        self.history = self.trainer.fit(
            x,
            y,
            x_val,
            y_val,
            epochs=self.epochs,
            batch_size=self.batch_size,
            callbacks=callbacks,
        )
        self.fitted = True
        return self

    @property
    def supports_warm_fit(self) -> bool:
        """Neural models resume from current weights + optimizer moments."""
        return True

    def warm_fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
        epochs: int | None = None,
    ) -> "NeuralForecaster":
        """Continue training the existing network for a few epochs.

        Reuses the live :class:`Trainer` — same Adam instance, so the
        optimizer's first/second moments carry over and the resume is a
        genuine continuation rather than a re-warmup. Falls back to the
        cold :meth:`fit` when there is nothing to resume (never fitted)
        or the input shape no longer matches the built network. The
        default budget is a quarter of the cold epoch count, floor 1.
        """
        if (
            self.model is None
            or self.trainer is None
            or not self.fitted
            or getattr(self, "_fit_shape", None) != tuple(np.asarray(x).shape[1:])
        ):
            return self.fit(x, y, x_val, y_val)
        from ..training.callbacks import EarlyStopping

        self._check_xy(x, y)
        # warm_fit trains the live network in place: its plan goes stale
        self._drop_plan()
        budget = int(epochs) if epochs is not None else max(1, self.epochs // 4)
        if budget < 1:
            raise ValueError(f"epochs must be >= 1, got {budget}")
        callbacks = []
        if x_val is not None and y_val is not None:
            callbacks.append(EarlyStopping(patience=self.patience))
        history = self.trainer.fit(
            x,
            y,
            x_val,
            y_val,
            epochs=budget,
            batch_size=self.batch_size,
            callbacks=callbacks,
        )
        # splice the resume into the model's lifetime loss curves
        if self.history is not None:
            self.history.train_loss.extend(history.train_loss)
            self.history.val_loss.extend(history.val_loss)
            self.history.epochs_run += history.epochs_run
        else:
            self.history = history
        return self

    def _drop_plan(self) -> None:
        if self.model is not None:
            _PLANS.pop(self.model, None)

    def predict(self, x: np.ndarray) -> np.ndarray:
        self._check_fitted()
        self._check_xy(x)
        assert self.trainer is not None
        plan = _inference_plan(self.model)
        return self.trainer.predict(x) if plan is None else plan.predict(x)

    @property
    def loss_curves(self) -> dict[str, list[float]]:
        """Train/validation loss per epoch (Figs. 9-10 data)."""
        self._check_fitted()
        assert self.history is not None
        return self.history.as_dict()
