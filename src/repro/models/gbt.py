"""Gradient-boosted regression trees — the XGBoost baseline, from scratch.

Implements the second-order boosting objective of Chen & Guestrin (2016):
each tree greedily maximizes the regularized gain

    gain = 1/2 [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda) ] - gamma

with leaf weights ``-G/(H+lambda)``. **The hessian is 1** for every
objective here: squared error, and the pinball loss of
:mod:`repro.models.quantile`, which overrides
:meth:`GradientBoostedTrees._base_score` and
:meth:`GradientBoostedTrees._gradient` and shares the boosting loop. So
``H`` of a node is its row count, the trees take only gradients, and
``min_child_weight`` is the least number of rows a child may hold. For
squared error this is exactly XGBoost's regression path.

**Split search is exact greedy over presorted columns.** Each column is
stable-sorted once per fit, or once per tree when rows are subsampled: a
subsampled tree numbers its rows by their position in the sample, and
ties must break in that order. A node keeps its rows in every candidate
column's sorted order, a ``(C, m)`` array; one call gathers the
gradients in that order, takes prefix sums along each row and scores
every split of every column. The left child's weight after position
``i`` is ``i + 1`` in every column, one shared vector: the exact
integers a prefix sum of ones gives. The column is the first one, in
``feature_ids`` order, whose best gain strictly beats the running best
(starting at 0); a NaN gain never wins. Children take their orders by a
stable boolean partition of the parent's, one gather of the split mask
serving both. This is bit-exact against stable-sorting each node's rows
afresh: a stable sort restricted to an ascending subset of rows is that
subset's own stable sort, so every node sees the same order, the same
sequential prefix sums and so the same gains.

**Training rows are never routed when every row grew the tree.** Growing
a tree already sends each row to its leaf, so without row subsampling
the tree writes each training row's leaf value as it makes the leaf, and
the boosting loop adds those; a subsampled tree routes the training
matrix through the tree instead.

**Prediction routes every tree at once.** At the end of ``fit`` the
trees' node arrays are stacked into ``(T, K)`` arrays in which leaves
route to themselves, so all rows walk all trees together, one step per
depth level. The trees' shrunken leaf values are then summed by a
cumulative sum along the tree axis: the same sequential ``base + lr *
leaf_1 + lr * leaf_2 + ...`` as adding the trees one at a time. A single
tree stacks its own arrays on its first ``predict``, not when it is
grown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .base import Forecaster, register_forecaster

__all__ = ["TreeParams", "RegressionTree", "GradientBoostedTrees", "GBTForecaster"]

#: rows routed per block by :meth:`GradientBoostedTrees.predict` (bounds
#: the ``(T, rows)`` working arrays)
_BLOCK = 2048


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 4
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.reg_lambda < 0 or self.gamma < 0 or self.min_child_weight < 0:
            raise ValueError("regularization parameters must be non-negative")


def _presort(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort of each column of ``x``: ``(C, n)`` row order and sorted values."""
    cols = np.ascontiguousarray(x.T)
    order = np.argsort(cols, axis=1, kind="stable")
    return order, np.take_along_axis(cols, order, axis=1)


def _partition(
    order: np.ndarray, vals: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Entries of ``order``/``vals`` where the ``(C, m)`` mask ``keep`` holds."""
    pos = np.flatnonzero(keep)
    c = len(order)
    return order.ravel()[pos].reshape(c, -1), vals.ravel()[pos].reshape(c, -1)


class _Forest(NamedTuple):
    """Node arrays of ``T`` trees, stacked ``(T, K)`` and raveled.

    Leaves and padding route to themselves (on feature 0), so ``depth``
    routing steps take every row to its leaf in every tree; child links
    are indices into the raveled arrays and ``roots`` holds each tree's
    root.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int


def _stack(trees: Sequence["RegressionTree"]) -> _Forest:
    k = max(tree.n_nodes for tree in trees)
    size = len(trees) * k
    feature = np.zeros(size, dtype=np.intp)
    threshold = np.zeros(size)
    left = np.arange(size)
    right = np.arange(size)
    value = np.zeros(size)
    for t, tree in enumerate(trees):
        base = t * k
        split = np.flatnonzero(tree._feature != -1)
        at = base + split
        feature[at] = tree._feature[split]
        threshold[at] = tree._threshold[split]
        left[at] = base + tree._left[split]
        right[at] = base + tree._right[split]
        value[base : base + tree.n_nodes] = tree._value
    roots = np.arange(len(trees)) * k
    return _Forest(feature, threshold, left, right, value, roots, max(t.depth for t in trees))


def _route(forest: _Forest, x: np.ndarray) -> np.ndarray:
    """Leaf value reached by every row of ``x`` in every tree, ``(T, rows)``."""
    rows = np.arange(len(x))
    node = np.repeat(forest.roots[:, None], len(x), axis=1)
    for _ in range(forest.depth):
        go_left = x[rows, forest.feature[node]] <= forest.threshold[node]
        node = np.where(go_left, forest.left[node], forest.right[node])
    return forest.value[node]


class RegressionTree:
    """One CART-style tree grown on gradients (unit hessian).

    Nodes are stored in parallel arrays (feature, threshold, children,
    value); prediction routes all samples through the arrays with a loop
    over depth rather than over samples.
    """

    def __init__(self, params: TreeParams) -> None:
        self.params = params
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self._gain: list[float] = []

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        self._gain.append(0.0)
        return len(self.feature) - 1

    @staticmethod
    def _leaf_weight(g_sum: float, n_rows: float, reg_lambda: float) -> float:
        return -g_sum / (n_rows + reg_lambda)

    def _best_split(
        self, g: np.ndarray, order: np.ndarray, vals: np.ndarray, g_total: float
    ) -> tuple[float, int, float] | None:
        """Return (gain, column, threshold) of the node's best split, or None.

        ``order``/``vals`` hold the node's rows and values in each
        candidate column's sorted order; ``column`` indexes their rows.
        """
        m = order.shape[1]
        if not m:
            return None
        p = self.params
        # unit hessian: a node's weight is its row count, and the left
        # child's weight after position i is i + 1 in every column
        h_total = float(m)
        parent_score = g_total**2 / (h_total + p.reg_lambda)
        hs = np.arange(1.0, m)
        hr = h_total - hs
        # split between positions i and i+1 only where the value changes
        valid = vals[:, 1:] != vals[:, :-1]
        valid &= (hs >= p.min_child_weight) & (hr >= p.min_child_weight)
        # gain = 0.5 * (gl**2 / (hl + lambda) + gr**2 / (hr + lambda)
        # - parent_score) - gamma, in place: gains starts as gl
        gains = np.cumsum(g[order[:, :-1]], axis=1)
        right = g_total - gains
        with np.errstate(all="ignore"):
            np.square(gains, out=gains)
            gains /= hs + p.reg_lambda
            np.square(right, out=right)
            right /= hr + p.reg_lambda
            gains += right
            gains -= parent_score
            gains *= 0.5
            gains -= p.gamma
        np.copyto(gains, -np.inf, where=~valid)
        k = np.argmax(gains, axis=1)
        best = gains[np.arange(len(k)), k]
        # first column whose gain strictly beats the running best (from 0);
        # a NaN gain never does
        best[~(best > 0.0)] = -np.inf
        c = int(np.argmax(best))
        if not best[c] > 0.0:
            return None
        thr = 0.5 * (vals[c, k[c]] + vals[c, k[c] + 1])
        return float(best[c]), c, float(thr)

    def fit(
        self, x: np.ndarray, g: np.ndarray, feature_ids: np.ndarray | None = None
    ) -> "RegressionTree":
        x = np.asarray(x, float)
        g = np.asarray(g, float)
        if x.ndim != 2 or len(x) != len(g):
            raise ValueError("x must be (N, F) with aligned g")
        feature_ids = (
            np.arange(x.shape[1]) if feature_ids is None else np.asarray(feature_ids)
        )
        return self._grow(g, feature_ids, *_presort(x[:, feature_ids]))

    def _grow(
        self,
        g: np.ndarray,
        feature_ids: np.ndarray,
        order: np.ndarray,
        vals: np.ndarray,
        leaf_out: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Grow on presorted columns: ``order[c]`` is the stable sort of
        column ``feature_ids[c]`` over the rows of ``g``, ``vals[c]`` its
        sorted values. ``leaf_out``, if given, receives each row's leaf
        value: what :meth:`predict` returns for the rows the tree grew on."""
        p = self.params
        root = self._new_node()
        stack = [(root, np.arange(len(g)), order, vals, 0)]
        while stack:
            node, idx, order, vals, depth = stack.pop()
            g_sum = g[idx].sum()
            split = (
                self._best_split(g, order, vals, g_sum)
                if depth < p.max_depth and len(idx) >= 2
                else None
            )
            if split is None:
                self.value[node] = value = self._leaf_weight(g_sum, float(len(idx)), p.reg_lambda)
                if leaf_out is not None:
                    leaf_out[idx] = value
                continue
            gain, c, thr = split
            self.feature[node] = int(feature_ids[c])
            self.threshold[node] = thr
            self._gain[node] = gain
            go_left = np.zeros(len(g), dtype=bool)
            go_left[order[c]] = vals[c] <= thr
            self.left[node] = left_id = self._new_node()
            self.right[node] = right_id = self._new_node()
            on_left = go_left[idx]
            # a child at max_depth is a leaf: it needs no column order
            if depth + 1 < p.max_depth:
                side = go_left[order]
                left_rows = _partition(order, vals, side)
                right_rows = _partition(order, vals, ~side)
            else:
                left_rows = right_rows = (None, None)
            stack.append((left_id, idx[on_left], *left_rows, depth + 1))
            stack.append((right_id, idx[~on_left], *right_rows, depth + 1))
        self._freeze()
        return self

    def _freeze(self) -> None:
        self._feature = np.asarray(self.feature)
        self._threshold = np.asarray(self.threshold)
        self._left = np.asarray(self.left)
        self._right = np.asarray(self.right)
        self._value = np.asarray(self.value)
        self._forest: _Forest | None = None  # stacked on first predict

    def _routing(self) -> _Forest:
        # absent in pickles from before trees were stacked
        forest = getattr(self, "_forest", None)
        if forest is None:
            forest = self._forest = _stack([self])
        return forest

    def split_gains(self, n_features: int) -> np.ndarray:
        """Total gain contributed by each feature's splits in this tree."""
        gains = np.zeros(n_features)
        for node, f in enumerate(self.feature):
            if f != -1:
                gains[f] += self._gain[node]
        return gains

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int((self._feature == -1).sum())

    @property
    def depth(self) -> int:
        depths = np.zeros(self.n_nodes, dtype=int)
        for node in range(self.n_nodes):
            for child in (self._left[node], self._right[node]):
                if child != -1:
                    depths[child] = depths[node] + 1
        return int(depths.max())

    def predict(self, x: np.ndarray) -> np.ndarray:
        return _route(self._routing(), np.asarray(x, float))[0]


class GradientBoostedTrees:
    """Boosted ensemble with shrinkage, subsampling and early stopping."""

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_child_weight: float = 1.0,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        subsample: float = 1.0,
        colsample: float = 1.0,
        early_stopping_rounds: int | None = 20,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if not 0.0 < subsample <= 1.0 or not 0.0 < colsample <= 1.0:
            raise ValueError("subsample and colsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.tree_params = TreeParams(
            max_depth=max_depth,
            min_child_weight=min_child_weight,
            reg_lambda=reg_lambda,
            gamma=gamma,
        )
        self.subsample = subsample
        self.colsample = colsample
        self.early_stopping_rounds = early_stopping_rounds
        self.seed = seed
        self.trees: list[RegressionTree] = []
        self.base_score_: float = 0.0
        self.best_iteration_: int | None = None
        self.eval_history_: list[float] = []
        self.fitted = False
        self._forest: _Forest | None = None

    def _base_score(self, y: np.ndarray) -> float:
        """Constant prediction the boosting starts from (squared loss: the mean)."""
        return float(y.mean())

    def _gradient(self, pred: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-row gradient of the loss at ``pred``; its hessian must be 1."""
        return pred - y  # squared loss

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
    ) -> "GradientBoostedTrees":
        x = np.asarray(x, float)
        y = np.asarray(y, float).reshape(-1)
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError(f"x must be (N, F) with y (N,), got {x.shape}, {y.shape}")
        rng = np.random.default_rng(self.seed)
        has_val = x_val is not None and y_val is not None
        if has_val:
            x_val = np.asarray(x_val, float)
            y_val = np.asarray(y_val, float).reshape(-1)

        self.trees = []
        self.eval_history_ = []
        self.base_score_ = self._base_score(y)
        pred = np.full(len(y), self.base_score_)
        val_pred = np.full(len(y_val), self.base_score_) if has_val else None

        best_val = float("inf")
        best_iter = -1
        n, f = x.shape
        # without row subsampling every tree splits the same rows: sort once
        presorted = _presort(x) if self.subsample == 1.0 else None
        # ... and every row's leaf value falls out of growing the tree
        leaf = np.empty(n) if self.subsample == 1.0 else None
        for it in range(self.n_estimators):
            g = self._gradient(pred, y)
            rows = (
                rng.choice(n, size=max(1, int(n * self.subsample)), replace=False)
                if self.subsample < 1.0
                else None
            )
            cols = (
                rng.choice(f, size=max(1, int(f * self.colsample)), replace=False)
                if self.colsample < 1.0
                else np.arange(f)
            )
            if rows is not None:
                order, vals = _presort(x[np.ix_(rows, cols)])
                g = g[rows]
            elif self.colsample < 1.0:
                order, vals = presorted[0][cols], presorted[1][cols]
            else:  # the fit-level sort as is: a gather would copy it per tree
                order, vals = presorted
            tree = RegressionTree(self.tree_params)._grow(g, cols, order, vals, leaf)
            self.trees.append(tree)
            pred += self.learning_rate * (tree.predict(x) if leaf is None else leaf)

            if has_val:
                val_pred += self.learning_rate * tree.predict(x_val)
                val_rmse = float(np.sqrt(np.mean((val_pred - y_val) ** 2)))
                self.eval_history_.append(val_rmse)
                if val_rmse < best_val - 1e-12:
                    best_val = val_rmse
                    best_iter = it
                elif (
                    self.early_stopping_rounds is not None
                    and it - best_iter >= self.early_stopping_rounds
                ):
                    break

        if has_val and best_iter >= 0:
            self.best_iteration_ = best_iter
            self.trees = self.trees[: best_iter + 1]
        else:
            self.best_iteration_ = len(self.trees) - 1
        self._forest = _stack(self.trees)
        self.fitted = True
        return self

    def _staged(self, x: np.ndarray) -> np.ndarray:
        """Ensemble output after 0, 1, ..., T trees, ``(T + 1, rows)``."""
        forest = getattr(self, "_forest", None)
        if forest is None:  # unpickled from before trees were stacked
            forest = self._forest = _stack(self.trees)
        leaves = _route(forest, x)
        steps = np.empty((len(leaves) + 1, len(x)))
        steps[0] = self.base_score_
        np.multiply(self.learning_rate, leaves, out=steps[1:])
        return np.cumsum(steps, axis=0)

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise RuntimeError("fit before predict")
        x = np.asarray(x, float)
        out = np.empty(len(x))
        for s in range(0, len(x), _BLOCK):
            out[s : s + _BLOCK] = self._staged(x[s : s + _BLOCK])[-1]
        return out

    def feature_importances(self, n_features: int) -> np.ndarray:
        """Gain-based feature importances, normalized to sum to one.

        The tree-ensemble analogue of the paper's PCC screening: it
        reveals which (indicator, lag) columns the booster actually
        exploits, and cross-checks the correlation ranking.
        """
        if not self.fitted:
            raise RuntimeError("fit before reading importances")
        gains = np.zeros(n_features)
        for tree in self.trees:
            gains += tree.split_gains(n_features)
        total = gains.sum()
        return gains / total if total > 0 else gains

    def staged_train_loss(self, x: np.ndarray, y: np.ndarray) -> list[float]:
        """Training MSE after each boosting round (Fig. 9 convergence data)."""
        if not self.fitted:
            raise RuntimeError("fit before staged_train_loss")
        x = np.asarray(x, float)
        y = np.asarray(y, float).reshape(-1)
        return [float(np.mean((pred - y) ** 2)) for pred in self._staged(x)[1:]]


@register_forecaster("xgboost")
class GBTForecaster(Forecaster):
    """Windowed-interface wrapper: one booster per horizon step.

    Windows are flattened to ``(N, window * features)``; multi-step
    horizons train independent boosters per step (direct multi-step
    strategy, which is what tree libraries do in practice).
    """

    def __init__(
        self,
        horizon: int = 1,
        target_col: int = 0,
        **gbt_kwargs,
    ) -> None:
        super().__init__(horizon=horizon, target_col=target_col)
        self.gbt_kwargs = gbt_kwargs
        self.models: list[GradientBoostedTrees] = []

    @staticmethod
    def _flatten(x: np.ndarray) -> np.ndarray:
        """``(N, window, features)`` -> ``(N, window * features)``, N may be 0."""
        x = np.asarray(x, float)
        return x.reshape(len(x), math.prod(x.shape[1:]))

    def fit(self, x, y, x_val=None, y_val=None) -> "GBTForecaster":
        self._check_xy(x, y)
        xf = self._flatten(x)
        y = np.asarray(y, float)
        xv = self._flatten(x_val) if x_val is not None else None
        self.models = []
        for k in range(self.horizon):
            m = GradientBoostedTrees(**self.gbt_kwargs)
            m.fit(
                xf,
                y[:, k],
                xv,
                np.asarray(y_val, float)[:, k] if (xv is not None and y_val is not None) else None,
            )
            self.models.append(m)
        self.fitted = True
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        self._check_fitted()
        self._check_xy(x)
        xf = self._flatten(x)
        return np.column_stack([m.predict(xf) for m in self.models])

    @property
    def loss_curves(self) -> dict[str, list[float]]:
        """Validation RMSE per boosting round of the first-step model."""
        self._check_fitted()
        return {"val_loss": list(self.models[0].eval_history_)}
