"""Gradient-boosted-trees tests, including hypothesis invariants."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models.gbt import (
    GBTForecaster,
    GradientBoostedTrees,
    RegressionTree,
    TreeParams,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestRegressionTree:
    def test_single_split_recovers_step_function(self, rng):
        x = rng.random((200, 1))
        y = np.where(x[:, 0] > 0.5, 1.0, -1.0)
        g = 0.0 - y  # gradients of squared loss from pred=0
        tree = RegressionTree(TreeParams(max_depth=1, reg_lambda=0.0)).fit(
            x, g, np.ones(200)
        )
        pred = tree.predict(x)
        assert np.corrcoef(pred, y)[0, 1] > 0.99
        assert tree.threshold[0] == pytest.approx(0.5, abs=0.05)

    def test_max_depth_respected(self, rng):
        x = rng.random((300, 3))
        g = rng.standard_normal(300)
        for depth in (1, 2, 3):
            tree = RegressionTree(TreeParams(max_depth=depth)).fit(x, g, np.ones(300))
            assert tree.depth <= depth

    def test_pure_node_becomes_leaf(self):
        x = np.ones((10, 1))  # no split possible on a constant feature
        g = np.arange(10.0)
        tree = RegressionTree(TreeParams(max_depth=3)).fit(x, g, np.ones(10))
        assert tree.n_nodes == 1

    def test_leaf_weight_formula(self):
        """Leaf value must be -G/(H+lambda)."""
        x = np.ones((4, 1))
        g = np.array([1.0, 2.0, 3.0, 4.0])
        h = np.ones(4)
        tree = RegressionTree(TreeParams(max_depth=2, reg_lambda=2.0)).fit(x, g, h)
        assert tree.predict(x)[0] == pytest.approx(-10.0 / (4.0 + 2.0))

    def test_min_child_weight_blocks_tiny_splits(self, rng):
        x = rng.random((20, 1))
        g = rng.standard_normal(20)
        tree = RegressionTree(TreeParams(max_depth=5, min_child_weight=15.0)).fit(
            x, g, np.ones(20)
        )
        assert tree.n_nodes == 1  # no split can give both children >= 15 weight

    def test_gamma_prunes_weak_splits(self, rng):
        x = rng.random((200, 1))
        g = rng.normal(0, 0.01, 200)  # almost nothing to gain
        tree = RegressionTree(TreeParams(max_depth=3, gamma=100.0)).fit(
            x, g, np.ones(200)
        )
        assert tree.n_nodes == 1

    def test_column_subset_respected(self, rng):
        x = rng.random((300, 4))
        y = 10.0 * x[:, 2]  # only feature 2 matters
        g = -y
        tree = RegressionTree(TreeParams(max_depth=2)).fit(
            x, g, np.ones(300), feature_ids=np.array([0, 1])
        )
        used = {f for f in tree.feature if f != -1}
        assert used <= {0, 1}

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            RegressionTree(TreeParams(max_depth=0))
        with pytest.raises(ValueError):
            RegressionTree(TreeParams()).fit(rng.random((5, 2)), np.zeros(4), np.ones(4))


class TestBoosting:
    def test_fits_nonlinear_function(self, rng):
        x = rng.random((600, 2))
        y = np.sin(6 * x[:, 0]) + x[:, 1] ** 2
        model = GradientBoostedTrees(n_estimators=120, learning_rate=0.2, max_depth=3)
        model.fit(x, y)
        mse = np.mean((model.predict(x) - y) ** 2)
        assert mse < 0.01

    def test_monotone_train_loss(self, rng):
        """With full sampling, the staged training loss never increases."""
        x = rng.random((300, 3))
        y = x.sum(axis=1) + rng.normal(0, 0.05, 300)
        model = GradientBoostedTrees(n_estimators=50, learning_rate=0.3)
        model.fit(x, y)
        losses = model.staged_train_loss(x, y)
        diffs = np.diff(losses)
        assert (diffs <= 1e-10).all()

    def test_early_stopping_truncates(self, rng):
        x = rng.random((300, 3))
        y = rng.standard_normal(300)  # pure noise: validation stops improving fast
        xv = rng.random((100, 3))
        yv = rng.standard_normal(100)
        model = GradientBoostedTrees(
            n_estimators=300, learning_rate=0.3, early_stopping_rounds=5
        )
        model.fit(x, y, xv, yv)
        assert len(model.trees) < 300
        assert model.best_iteration_ == len(model.trees) - 1

    def test_base_score_is_target_mean(self, rng):
        x = rng.random((100, 2))
        y = rng.random(100) + 5.0
        model = GradientBoostedTrees(n_estimators=1).fit(x, y)
        assert model.base_score_ == pytest.approx(y.mean())

    def test_subsampling_reproducible(self, rng):
        x = rng.random((200, 3))
        y = x.sum(axis=1)
        preds = []
        for _ in range(2):
            m = GradientBoostedTrees(n_estimators=20, subsample=0.7, colsample=0.7, seed=5)
            m.fit(x, y)
            preds.append(m.predict(x))
        np.testing.assert_array_equal(preds[0], preds[1])

    @given(st.floats(0.05, 1.0), st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_predictions_within_target_hull_property(self, lr, depth):
        """Squared-loss GBT predictions stay inside [min(y), max(y)]...

        ...up to overshoot bounded by the learning rate; with lr <= 1 and
        mean base score the ensemble cannot leave the hull on training data
        it has memorized, a standard sanity property for regression trees.
        """
        rng = np.random.default_rng(0)
        x = rng.random((150, 2))
        y = rng.random(150)
        m = GradientBoostedTrees(n_estimators=30, learning_rate=lr, max_depth=depth)
        m.fit(x, y)
        pred = m.predict(x)
        margin = 0.5 * (y.max() - y.min())
        assert pred.min() >= y.min() - margin
        assert pred.max() <= y.max() + margin

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(subsample=0.0)


class TestForecasterWrapper:
    def test_windowed_fit_predict(self, rng):
        from repro.data.windowing import make_windows

        t = np.linspace(0, 20, 500)
        series = np.sin(t) * 0.5 + 0.5
        x, y = make_windows(series[:, None], series, window=10)
        f = GBTForecaster(n_estimators=60).fit(x[:300], y[:300], x[300:400], y[300:400])
        pred = f.predict(x[400:])
        mse = np.mean((pred - y[400:]) ** 2)
        assert mse < 0.01  # sine continuation is easy for trees

    def test_multistep_trains_one_model_per_step(self, rng):
        from repro.data.windowing import make_windows

        series = rng.random(300)
        x, y = make_windows(series[:, None], series, window=8, horizon=3)
        f = GBTForecaster(horizon=3, n_estimators=10).fit(x, y)
        assert len(f.models) == 3
        assert f.predict(x[:5]).shape == (5, 3)

    def test_loss_curves_exposed(self, rng):
        from repro.data.windowing import make_windows

        series = rng.random(400)
        x, y = make_windows(series[:, None], series, window=8)
        f = GBTForecaster(n_estimators=15).fit(x[:200], y[:200], x[200:300], y[200:300])
        assert len(f.loss_curves["val_loss"]) >= 1


# --- oracle: per-node argsort split search, per-tree routing, per-tree sum ---


def _oracle_best_split(x, g, h, feature_ids, p):
    g_total = g.sum()
    h_total = h.sum()
    parent_score = g_total**2 / (h_total + p.reg_lambda)
    best_gain = 0.0
    best = None
    for f in feature_ids:
        col = x[:, f]
        order = np.argsort(col, kind="stable")
        vals = col[order]
        if vals[0] == vals[-1]:
            continue
        gs = np.cumsum(g[order])[:-1]
        hs = np.cumsum(h[order])[:-1]
        valid = vals[1:] != vals[:-1]
        valid &= (hs >= p.min_child_weight) & ((h_total - hs) >= p.min_child_weight)
        if not valid.any():
            continue
        gl, hl = gs[valid], hs[valid]
        gr, hr = g_total - gl, h_total - hl
        gains = 0.5 * (
            gl**2 / (hl + p.reg_lambda) + gr**2 / (hr + p.reg_lambda) - parent_score
        ) - p.gamma
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            i = np.flatnonzero(valid)[k]
            best_gain = float(gains[k])
            best = (best_gain, int(f), float(0.5 * (vals[i] + vals[i + 1])))
    return best


def _oracle_tree(x, g, h, feature_ids, p):
    t = SimpleNamespace(feature=[], threshold=[], left=[], right=[], value=[], gain=[])

    def new_node():
        for field, v in (("feature", -1), ("threshold", 0.0), ("left", -1),
                         ("right", -1), ("value", 0.0), ("gain", 0.0)):
            getattr(t, field).append(v)
        return len(t.feature) - 1

    stack = [(new_node(), np.arange(len(x)), 0)]
    while stack:
        node, idx, depth = stack.pop()
        g_node, h_node = g[idx], h[idx]
        split = (
            _oracle_best_split(x[idx], g_node, h_node, feature_ids, p)
            if depth < p.max_depth and len(idx) >= 2
            else None
        )
        if split is None:
            t.value[node] = -g_node.sum() / (h_node.sum() + p.reg_lambda)
            continue
        t.gain[node], t.feature[node], t.threshold[node] = split
        go_left = x[idx, t.feature[node]] <= t.threshold[node]
        t.left[node], t.right[node] = new_node(), new_node()
        stack.append((t.left[node], idx[go_left], depth + 1))
        stack.append((t.right[node], idx[~go_left], depth + 1))
    return t


def _oracle_route(t, x):
    out = np.empty(len(x))
    for r, row in enumerate(x):
        node = 0
        while t.feature[node] != -1:
            go_left = row[t.feature[node]] <= t.threshold[node]
            node = t.left[node] if go_left else t.right[node]
        out[r] = t.value[node]
    return out


def _oracle_predict(trees, base, lr, x):
    out = np.full(len(x), base)
    for t in trees:
        out += lr * _oracle_route(t, x)
    return out


def _oracle_boost(x, y, x_val, y_val, kw):
    """The squared-loss boosting loop with oracle trees (trees, base, history)."""
    m = GradientBoostedTrees(**kw)  # validated hyperparameters only
    rng = np.random.default_rng(m.seed)
    has_val = x_val is not None
    base = float(y.mean())
    pred = np.full(len(y), base)
    val_pred = np.full(len(y_val), base) if has_val else None
    trees, history = [], []
    best_val, best_iter = float("inf"), -1
    n, f = x.shape
    for it in range(m.n_estimators):
        g, h = pred - y, np.ones(n)
        rows = (
            rng.choice(n, size=max(1, int(n * m.subsample)), replace=False)
            if m.subsample < 1.0 else np.arange(n)
        )
        cols = (
            rng.choice(f, size=max(1, int(f * m.colsample)), replace=False)
            if m.colsample < 1.0 else np.arange(f)
        )
        t = _oracle_tree(x[rows], g[rows], h[rows], cols, m.tree_params)
        trees.append(t)
        pred += m.learning_rate * _oracle_route(t, x)
        if has_val:
            val_pred += m.learning_rate * _oracle_route(t, x_val)
            val_rmse = float(np.sqrt(np.mean((val_pred - y_val) ** 2)))
            history.append(val_rmse)
            if val_rmse < best_val - 1e-12:
                best_val, best_iter = val_rmse, it
            elif it - best_iter >= m.early_stopping_rounds:
                break
    if has_val and best_iter >= 0:
        trees = trees[: best_iter + 1]
    return trees, base, history


def _assert_same_tree(tree, oracle):
    assert tree.feature == oracle.feature
    assert tree.left == oracle.left and tree.right == oracle.right
    for got, want in ((tree.threshold, oracle.threshold), (tree.value, oracle.value),
                      (tree._gain, oracle.gain)):
        assert np.asarray(got, float).tobytes() == np.asarray(want, float).tobytes()


def _bits(a):
    return np.asarray(a, float).tobytes()


@st.composite
def _design(draw, max_n=400, max_f=10):
    """A feature matrix with many ties, sometimes a constant column."""
    n = draw(st.integers(2, max_n))
    f = draw(st.integers(1, max_f))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, f))
    levels = draw(st.sampled_from([1, 3, 20, None]))
    if levels is not None:
        x = np.round(x * levels) / levels  # quantized: heavy value ties
    if draw(st.booleans()):
        x[:, draw(st.integers(0, f - 1))] = 0.25
    return x, rng


class TestPresortedParity:
    """Presorted split search and stacked routing vs the per-node oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        design=_design(),
        depth=st.integers(1, 6),
        mcw=st.sampled_from([0.0, 1.0, 3.0]),
        reg_lambda=st.sampled_from([0.0, 1.0, 2.5]),
        gamma=st.sampled_from([0.0, 0.1]),
        grads=st.sampled_from(["normal", "constant", "sign"]),
        hessian=st.booleans(),
        permute=st.booleans(),
    )
    def test_tree_matches_oracle(
        self, design, depth, mcw, reg_lambda, gamma, grads, hessian, permute
    ):
        x, rng = design
        n, f = x.shape
        g = {  # constant gradients give splits of gain exactly 0, which must lose
            "normal": np.round(rng.standard_normal(n), 1),
            "constant": np.ones(n),
            "sign": rng.choice([-1.0, 1.0], n),
        }[grads]
        h = rng.random(n) + 0.5 if hessian else np.ones(n)
        fids = rng.permutation(f)[: rng.integers(1, f + 1)] if permute else np.arange(f)
        p = TreeParams(max_depth=depth, min_child_weight=mcw, reg_lambda=reg_lambda, gamma=gamma)
        with np.errstate(all="ignore"):
            tree = RegressionTree(p).fit(x, g, h, fids)
            oracle = _oracle_tree(x, g, h, fids, p)
            _assert_same_tree(tree, oracle)
            probe = np.vstack([x, rng.standard_normal((5, f))])
            assert _bits(tree.predict(probe)) == _bits(_oracle_route(oracle, probe))

    def test_tied_columns_pick_first_in_feature_ids_order(self, rng):
        x = rng.random((50, 1))
        x = np.hstack([x, x, x])  # identical gains on every column
        g = np.where(x[:, 0] > 0.5, 1.0, -1.0)
        for fids in ([0, 1, 2], [2, 0, 1], [1, 2]):
            tree = RegressionTree(TreeParams(max_depth=1)).fit(x, g, np.ones(50), fids)
            assert tree.feature[0] == fids[0]

    @settings(max_examples=60, deadline=None)
    @given(
        design=_design(),
        n_estimators=st.integers(1, 8),
        lr=st.sampled_from([0.1, 0.5, 1.0]),
        depth=st.integers(1, 6),
        mcw=st.sampled_from([0.0, 1.0, 3.0]),
        reg_lambda=st.sampled_from([0.0, 1.0]),
        gamma=st.sampled_from([0.0, 0.1]),
        subsample=st.sampled_from([1.0, 0.7]),
        colsample=st.sampled_from([1.0, 0.5]),
        n_val=st.sampled_from([0, 1, 40]),
        rounds=st.integers(1, 3),
    )
    @example(
        design=(np.arange(2.0)[:, None], np.random.default_rng(0)), n_estimators=1, lr=1.0,
        depth=1, mcw=0.0, reg_lambda=0.0, gamma=0.0, subsample=1.0, colsample=1.0,
        n_val=0, rounds=1,
    )
    def test_ensemble_matches_oracle(
        self, design, n_estimators, lr, depth, mcw, reg_lambda, gamma, subsample,
        colsample, n_val, rounds,
    ):
        x, rng = design
        n, f = x.shape
        y = np.round(2.0 * x[:, 0] + np.sin(x[:, -1]) + 0.3 * rng.standard_normal(n), 2)
        x_val = rng.standard_normal((n_val, f)) if n_val else None
        y_val = x_val[:, 0] + 0.3 * rng.standard_normal(n_val) if n_val else None
        kw = dict(
            n_estimators=n_estimators, learning_rate=lr, max_depth=depth,
            min_child_weight=mcw, reg_lambda=reg_lambda, gamma=gamma,
            subsample=subsample, colsample=colsample, early_stopping_rounds=rounds,
            seed=int(rng.integers(1000)),
        )
        with np.errstate(all="ignore"):
            model = GradientBoostedTrees(**kw).fit(x, y, x_val, y_val)
            trees, base, history = _oracle_boost(x, y, x_val, y_val, kw)
            assert len(model.trees) == len(trees)
            for tree, oracle in zip(model.trees, trees):
                _assert_same_tree(tree, oracle)
            assert _bits(model.base_score_) == _bits(base)
            assert _bits(model.eval_history_) == _bits(history)
            probe = np.vstack([x, rng.standard_normal((7, f))])
            if n_val:
                probe = np.vstack([probe, x_val])
            assert _bits(model.predict(probe)) == _bits(_oracle_predict(trees, base, lr, probe))
            assert _bits(model.predict(probe[:1])) == _bits(_oracle_predict(trees, base, lr, probe[:1]))
            assert model.predict(probe[:0]).shape == (0,)

    def test_unpickled_model_without_stacked_arrays_predicts_identically(self, rng):
        """A model pickled before trees were stacked builds them on first predict."""
        x = rng.random((300, 4))
        y = x[:, 0] + np.sin(6 * x[:, 1])
        model = GradientBoostedTrees(n_estimators=25, max_depth=4, subsample=0.8).fit(x, y)
        probe = rng.random((40, 4))
        want = model.predict(probe)
        old = pickle.loads(pickle.dumps(model))
        del old._forest
        for tree in old.trees:
            del tree._forest
        assert _bits(old.trees[3].predict(probe)) == _bits(model.trees[3].predict(probe))
        assert _bits(old.predict(probe)) == _bits(want)
        assert old.staged_train_loss(x, y) == model.staged_train_loss(x, y)
