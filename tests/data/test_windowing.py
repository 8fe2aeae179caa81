"""Sliding-window and chronological-split tests with hypothesis invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.windowing import (
    WindowDataset,
    chronological_split,
    make_windows,
)


class TestMakeWindows:
    def test_shapes(self, rng):
        # windows start at 0..88: start + window + horizon <= 100 -> 89 windows
        x, y = make_windows(rng.random((100, 3)), rng.random(100), window=10, horizon=2)
        assert x.shape == (89, 10, 3)
        assert y.shape == (89, 2)

    def test_window_contents(self):
        t = np.arange(20.0)
        feats = t[:, None]
        x, y = make_windows(feats, t, window=4, horizon=1)
        np.testing.assert_array_equal(x[0, :, 0], [0, 1, 2, 3])
        np.testing.assert_array_equal(y[0], [4])
        np.testing.assert_array_equal(x[5, :, 0], [5, 6, 7, 8])
        np.testing.assert_array_equal(y[5], [9])

    def test_multistep_targets(self):
        t = np.arange(20.0)
        _, y = make_windows(t[:, None], t, window=3, horizon=4)
        np.testing.assert_array_equal(y[0], [3, 4, 5, 6])

    def test_stride(self):
        t = np.arange(30.0)
        x, _ = make_windows(t[:, None], t, window=5, horizon=1, stride=3)
        np.testing.assert_array_equal(x[1, :, 0], [3, 4, 5, 6, 7])

    def test_1d_features_promoted(self, rng):
        x, _ = make_windows(rng.random(50), rng.random(50), window=5)
        assert x.shape[2] == 1

    def test_no_target_leak_into_window(self):
        """y[i] must come strictly after every step in x[i]."""
        t = np.arange(50.0)
        x, y = make_windows(t[:, None], t, window=7, horizon=3)
        for i in range(len(x)):
            assert y[i].min() > x[i, :, 0].max()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            make_windows(rng.random((10, 2)), rng.random(9), 3)
        with pytest.raises(ValueError):
            make_windows(rng.random((10, 2)), rng.random(10), 0)
        with pytest.raises(ValueError):
            make_windows(rng.random((5, 2)), rng.random(5), window=5, horizon=1)


class TestSplit:
    def test_paper_622_ratio(self):
        s = chronological_split(1000)
        assert s.sizes() == (600, 200, 200)

    def test_contiguous_and_ordered(self):
        s = chronological_split(100)
        assert s.train.stop == s.val.start
        assert s.val.stop == s.test.start
        assert s.test.stop == 100

    @given(st.integers(10, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, n):
        s = chronological_split(n)
        sizes = s.sizes()
        assert sum(sizes) == n
        assert all(sz > 0 for sz in sizes)

    def test_custom_ratios(self):
        s = chronological_split(100, (0.8, 0.1, 0.1))
        assert s.sizes() == (80, 10, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            chronological_split(2)
        with pytest.raises(ValueError):
            chronological_split(100, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            chronological_split(4, (0.9, 0.05, 0.05))


class TestWindowDataset:
    def test_splits_are_chronological(self, rng):
        ds = WindowDataset(rng.random((200, 2)), rng.random(200), window=8)
        xt, _ = ds.train
        xv, _ = ds.val
        xe, _ = ds.test
        assert len(xt) + len(xv) + len(xe) == len(ds)

    def test_no_temporal_overlap_between_train_and_test_targets(self):
        t = np.arange(300.0)
        ds = WindowDataset(t[:, None], t, window=5)
        _, yt = ds.train
        _, ye = ds.test
        assert yt.max() < ye.min()

    def test_batches_cover_all_samples(self, rng):
        ds = WindowDataset(rng.random((150, 2)), rng.random(150), window=6)
        seen = 0
        for xb, yb in ds.batches("train", batch_size=16, rng=rng):
            assert len(xb) == len(yb) <= 16
            seen += len(xb)
        assert seen == len(ds.train[0])

    def test_batches_deterministic_with_seed(self, rng):
        ds = WindowDataset(rng.random((100, 2)), rng.random(100), window=4)
        b1 = [xb for xb, _ in ds.batches("train", 8, rng=np.random.default_rng(3))]
        b2 = [xb for xb, _ in ds.batches("train", 8, rng=np.random.default_rng(3))]
        for a, b in zip(b1, b2):
            np.testing.assert_array_equal(a, b)

    def test_no_shuffle_preserves_order(self, rng):
        t = np.arange(100.0)
        ds = WindowDataset(t[:, None], t, window=4)
        batches = list(ds.batches("train", 8, shuffle=False))
        firsts = [yb[0, 0] for _, yb in batches]
        assert firsts == sorted(firsts)
