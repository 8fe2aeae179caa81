"""Serving checkpoints: ring cursor validation, format compatibility, size.

The ring is wrap-padded in memory but checkpoints only the logical
``(streams, capacity, features)`` ring. These tests pin down that

* a checkpoint with bad ring cursors is refused before anything is
  written — by the ring itself and by :class:`FleetPredictor` and
  :class:`OnlinePredictor`, whose state must be exactly as it was after
  the refusal; so is a fleet state that lacks the refit cursor or the
  detector, or whose detector arrays are another fleet's size;
* fleet, sharded and scalar checkpoints written by older code (before
  the ring was padded, while the fleet still kept an error ring, while
  the predictors still took options that are now retired) still restore
  and serve bit-identically to an uninterrupted run, and within Holt's
  predict tolerance of what that older code served; a retired option is
  refused when passed to a constructor;
* a fleet checkpoint is the history ring plus a few scalars per stream.
"""

import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.obs.registry import MetricRegistry
from repro.streaming import (
    CheckpointError,
    AsyncRefitEngine,
    FleetPredictor,
    MatrixRingBuffer,
    OnlinePredictor,
    PageHinkley,
    ShardedFleetPredictor,
    read_checkpoint,
)

DATA = Path(__file__).resolve().parent / "data"

CAPACITY = 10

#: small fleet whose history ring wraps within a few dozen ticks
FLEET_KW = dict(
    forecaster_name="holt",
    window=6,
    buffer_capacity=CAPACITY,
    refit_interval=8,
    min_fit_size=8,
    detector=PageHinkley(threshold=0.25, min_instances=30),
)


def _assert_holt_tolerance(got, recorded, history):
    """``got`` is within Holt's predict tolerance of ``recorded``.

    The fixtures recorded what Holt served while its predict ran the
    level/trend recursion; it now multiplies each window by a precomputed
    filter, which agrees to ``1e-12 * max|window|``
    (:meth:`repro.models.HoltForecaster.predict`). Every window is drawn
    from ``history``, so its largest magnitude bounds ``max|window|``.
    NaN (nothing served) must match NaN.
    """
    scale = float(np.nanmax(np.abs(np.asarray(history, float))))
    np.testing.assert_allclose(
        np.asarray(got, float), np.asarray(recorded, float), rtol=0, atol=1e-12 * scale
    )


#: the scalar fixture's predictor config (its detector aside)
ONLINE_KW = dict(
    forecaster_name="holt",
    window=6,
    buffer_capacity=40,
    refit_interval=25,
    min_fit_size=12,
)

#: the sharded fixture's fleet config (``error_history`` aside)
SHARD_KW = dict(
    forecaster_name="holt",
    window=8,
    buffer_capacity=48,
    refit_interval=16,
    min_fit_size=12,
)


def _ticks(n_ticks, n_streams, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n_ticks)[:, None]
    ticks = 50.0 + 10.0 * np.sin(2 * np.pi * t / 12 + np.arange(n_streams))
    return ticks + rng.normal(0.0, 1.0, (n_ticks, n_streams))


def _assert_same_state(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_same_state(a[key], b[key])
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, float) and math.isnan(a):
        assert isinstance(b, float) and math.isnan(b)
    else:
        assert a == b


def _with_cursor(state, case):
    """A copy of a ring state with one cursor rule broken (the others hold)."""
    head = state["head"].copy()
    size = state["size"].copy()
    cap = state["capacity"]
    if case == "head shape":
        head = head[:-1]
    elif case == "size shape":
        size = np.append(size, 0)
    elif case == "negative size":
        size[0] = -1
    elif case == "size above capacity":
        size[0] = cap + 1
    elif case == "negative head":
        size[0], head[0] = cap, -1
    elif case == "head at capacity":
        size[0], head[0] = cap, cap
    elif case == "unwrapped head off size":
        size[0], head[0] = 3, 4
    else:  # pragma: no cover
        raise AssertionError(case)
    return {**state, "head": head, "size": size}


CURSOR_CASES = (
    "head shape",
    "size shape",
    "negative size",
    "size above capacity",
    "negative head",
    "head at capacity",
    "unwrapped head off size",
)


class TestRingCursorValidation:
    @pytest.mark.parametrize("case", CURSOR_CASES)
    def test_ring_refuses_bad_cursor_and_keeps_its_storage(self, case):
        ring = MatrixRingBuffer(3, CAPACITY, 1, window=4)
        rng = np.random.default_rng(0)
        for _ in range(CAPACITY + 3):
            ring.append_tick(rng.normal(size=(3, 1)))
        good = ring.state_dict()
        storage = ring._data.copy()
        source = MatrixRingBuffer(3, CAPACITY, 1, window=4)
        source.append_tick(np.ones((3, 1)))
        with pytest.raises(ValueError, match="ring"):
            ring.load_state_dict(_with_cursor(source.state_dict(), case))
        np.testing.assert_array_equal(ring._data, storage)
        _assert_same_state(ring.state_dict(), good)

    def test_ring_refuses_wrong_data_shape(self):
        ring = MatrixRingBuffer(2, CAPACITY, 1, window=3)
        state = ring.state_dict()
        state["data"] = np.zeros((2, CAPACITY + 2, 1))
        with pytest.raises(ValueError, match="data shape"):
            ring.load_state_dict(state)


class TestFleetRefusesBadRing:
    def _served(self):
        fleet = FleetPredictor(4, **FLEET_KW)
        ticks = _ticks(40, 4)
        for row in ticks[:30]:
            fleet.process_tick(row)
        return fleet, ticks[30:]

    @pytest.mark.parametrize("case", CURSOR_CASES)
    def test_bad_cursor_raises_and_leaves_predictor_unchanged(self, case):
        fleet, rest = self._served()
        twin, _ = self._served()
        before = fleet.state_dict()
        bad = fleet.state_dict()
        # a foreign checkpoint: every scalar field differs from the live one
        bad.update(step=999, since_refit=7, refit_cursor=3, on_fallback=True)
        bad["buffer"] = _with_cursor(bad["buffer"], case)
        with pytest.raises(CheckpointError, match="ring"):
            fleet.load_state_dict(bad)
        _assert_same_state(fleet.state_dict(), before)
        for row in rest:
            got, want = fleet.process_tick(row), twin.process_tick(row)
            assert got.predictions.tobytes() == want.predictions.tobytes()


class TestFleetRefusesIncompleteState:
    """A state missing a fleet-only key is refused before anything is written."""

    def _fleet(self, steps):
        fleet = FleetPredictor(4, **FLEET_KW)
        for row in _ticks(steps, 4):
            fleet.process_tick(row)
        return fleet

    @pytest.mark.parametrize("key", ["detector", "refit_cursor"])
    def test_missing_key_raises_and_leaves_the_fleet_unchanged(self, key):
        fleet = self._fleet(30)
        assert (fleet.model_version, fleet.state_dict()["step"]) == (3, 30)
        blob = pickle.dumps(fleet.state_dict())
        old = self._fleet(5).state_dict()
        del old[key]
        with pytest.raises(CheckpointError, match=key):
            fleet.load_state_dict(old)
        assert pickle.dumps(fleet.state_dict()) == blob

    def test_detector_of_another_fleet_size_is_refused(self):
        fleet = self._fleet(30)
        blob = pickle.dumps(fleet.state_dict())
        bad = fleet.state_dict()
        bad["detector"] = {name: arr[:2] for name, arr in bad["detector"].items()}
        with pytest.raises(CheckpointError, match="detector"):
            fleet.load_state_dict(bad)
        assert pickle.dumps(fleet.state_dict()) == blob


class TestShardedRefusesBadShard:
    def test_snapshot_a_later_shard_refuses_loads_on_no_shard(self, tmp_path):
        """Every shard checks its state before any adopts one.

        A step-20 snapshot whose shard 1 ring head is out of range,
        loaded into the fleet at step 40: the load raises, and shard 0
        (which would accept its own state) keeps its step-40 state.
        """
        ticks = _ticks(40, 4)
        with ShardedFleetPredictor(4, shards=2, registry=MetricRegistry(),
                                   **SHARD_KW) as fleet:
            fleet.run(ticks[:20])
            fleet.save(tmp_path / "step20.ckpt")
            fleet.run(ticks[20:])
            fleet.save(tmp_path / "before.ckpt")
            bad = read_checkpoint(tmp_path / "step20.ckpt")["state"]
            ring = bad["shard_states"][1]["buffer"]
            ring["size"][0] = ring["head"][0] = SHARD_KW["buffer_capacity"]
            with pytest.raises(CheckpointError, match="shard 1 failed 'check'.*ring heads"):
                fleet.load_state(bad)
            fleet.save(tmp_path / "after.ckpt")
        before = read_checkpoint(tmp_path / "before.ckpt")["state"]
        after = read_checkpoint(tmp_path / "after.ckpt")["state"]
        assert after["step"] == before["step"] == 40
        assert len(after["shard_states"]) == len(before["shard_states"]) == 2
        for got, want in zip(after["shard_states"], before["shard_states"]):
            _assert_same_state(got, want)


def _scalar_ring(state, case):
    """A copy of a scalar ring state with one rule broken (the others hold)."""
    cap = state["capacity"]
    if case == "size above capacity":
        return {**state, "size": cap + 4, "head": cap - 3}
    if case == "negative head":
        return {**state, "size": cap, "head": -1}
    if case == "head at capacity":
        return {**state, "size": cap, "head": cap}
    if case == "unwrapped head off size":
        return {**state, "size": 3, "head": 4}
    if case == "broadcasting data":
        return {**state, "data": np.zeros((1, state["features"]))}
    raise AssertionError(case)  # pragma: no cover


class TestScalarRefusesBadRing:
    def _served(self):
        pred = OnlinePredictor(
            detector=PageHinkley(threshold=0.25, min_instances=30),
            **dict(ONLINE_KW, buffer_capacity=CAPACITY, min_fit_size=8, refit_interval=8),
        )
        ticks = _ticks(40, 1)[:, 0]
        pred.run(ticks[:30])
        return pred, ticks[30:]

    @pytest.mark.parametrize(
        "case",
        (
            "size above capacity",
            "negative head",
            "head at capacity",
            "unwrapped head off size",
            "broadcasting data",
        ),
    )
    def test_bad_ring_raises_and_leaves_predictor_unchanged(self, case):
        pred, rest = self._served()
        twin, _ = self._served()
        before = pred.state_dict()
        bad = pred.state_dict()
        bad.update(step=999, since_refit=7, on_fallback=True)
        bad["buffer"] = _scalar_ring(bad["buffer"], case)
        with pytest.raises(CheckpointError, match="ring"):
            pred.load_state_dict(bad)
        _assert_same_state(pred.state_dict(), before)
        for record in rest:
            got, want = pred.process(np.array([record])), twin.process(np.array([record]))
            assert np.array_equal(got.prediction, want.prediction, equal_nan=True)


class TestCheckpointCompatibility:
    def test_unpadded_fleet_checkpoint_restores_bit_identically(self, tmp_path):
        """A checkpoint from before the ring was padded serves unchanged.

        ``data/fleet_unpadded_ring.pkl`` holds a ``FleetPredictor.save``
        artifact written by the unpadded ring (5 holt streams, 2
        features, window 6, capacity 10, quarantined records so heads
        differ), the whole tick trace, the tick it was saved after, and
        the predictions the uninterrupted unpadded run served from there.
        It was written with ``FLEET_KW`` and ``features=2``.
        """
        with open(DATA / "fleet_unpadded_ring.pkl", "rb") as fh:
            saved = pickle.load(fh)
        path = tmp_path / "fleet.ckpt"
        path.write_bytes(saved["checkpoint"])
        ticks, split = saved["ticks"], saved["split"]

        restored = FleetPredictor.restore(path)
        ring = restored.state_dict()["buffer"]
        assert ring["data"].shape == (5, 10, 2)
        assert len(set(ring["head"].tolist())) > 1

        uninterrupted = FleetPredictor(5, features=2, **FLEET_KW)
        for row in ticks[:split]:
            uninterrupted.process_tick(row)
        for row, want in zip(ticks[split:], saved["predictions"]):
            got = restored.process_tick(row).predictions
            again = uninterrupted.process_tick(row).predictions
            assert got.tobytes() == again.tobytes()
            _assert_holt_tolerance(got, want, ticks)

    def test_padded_fleet_checkpoint_is_the_logical_ring(self):
        fleet = FleetPredictor(3, **FLEET_KW)
        for row in _ticks(25, 3):
            fleet.process_tick(row)
        assert fleet.buffer._data.shape == (3, CAPACITY + 5, 1)
        assert fleet.state_dict()["buffer"]["data"].shape == (3, CAPACITY, 1)

    def test_sharded_checkpoint_with_error_history_restores_bit_identically(self, tmp_path):
        """A composed checkpoint from a fleet that still kept an error ring.

        ``data/sharded_error_history.pkl`` holds a
        ``ShardedFleetPredictor.save`` artifact written before the fleet's
        error ring was removed: 4 holt streams over 2 shards, built with
        ``error_history=64`` and ``SHARD_KW``, so its ``fleet_kwargs``
        carry that option and every shard state an ``errors`` ring. It
        also holds the tick trace, the tick it was saved after, and the
        predictions the uninterrupted run served from there.
        """
        with open(DATA / "sharded_error_history.pkl", "rb") as fh:
            saved = pickle.load(fh)
        path = tmp_path / "fleet.ckpt"
        path.write_bytes(saved["checkpoint"])
        ticks, split = saved["ticks"], saved["split"]
        state = read_checkpoint(path)["state"]
        assert state["config"]["fleet_kwargs"]["error_history"] == 64
        assert all("errors" in shard["stats"] for shard in state["shard_states"])

        restored = ShardedFleetPredictor.restore(path, registry=MetricRegistry())
        try:
            assert "error_history" not in restored.fleet_kwargs
            got = restored.run(ticks[split:])
        finally:
            restored.close(collect_metrics=False)
        with ShardedFleetPredictor(4, shards=2, registry=MetricRegistry(),
                                   **SHARD_KW) as uninterrupted:
            want = uninterrupted.run(ticks)[split:]
        assert len(got) == len(want) == len(saved["predictions"])
        for g, w, recorded in zip(got, want, saved["predictions"]):
            _assert_holt_tolerance(g.predictions, recorded, ticks)
            assert g.predictions.tobytes() == w.predictions.tobytes()
            assert g.errors.tobytes() == w.errors.tobytes()
            assert g.refit == w.refit

    def test_scalar_checkpoint_with_page_hinkley_restores_bit_identically(self, tmp_path):
        """A scalar checkpoint from before the drift ABC and ``serve_dtype`` went.

        ``data/online_page_hinkley.pkl`` holds an ``OnlinePredictor.save``
        artifact written by that code with ``ONLINE_KW`` and
        ``PageHinkley(threshold=20.0, min_instances=30)``, saved mid-stream
        (the detector has seen 82 errors and has not fired yet), plus the
        whole trace, the step it was saved after, and the predictions the
        uninterrupted run served from there (NaN where none was). The
        trace shifts level 5 steps after the save: the restored detector,
        past ``min_instances``, fires at once, where a fresh one could not
        yet — so these predictions hold only if its state survived.
        """
        with open(DATA / "online_page_hinkley.pkl", "rb") as fh:
            saved = pickle.load(fh)
        path = tmp_path / "online.ckpt"
        path.write_bytes(saved["checkpoint"])
        trace, split = saved["trace"], saved["split"]
        state = read_checkpoint(path)["state"]
        assert state["config"]["serve_dtype"] == "<f8"
        assert state["detector"].n_seen == 82 and not state["detector"].drift_detected

        restored = OnlinePredictor.restore(path)
        assert type(restored.detector) is PageHinkley
        uninterrupted = OnlinePredictor(
            detector=PageHinkley(threshold=20.0, min_instances=30), **ONLINE_KW
        )
        for x in trace[:split]:
            uninterrupted.process(x)
        drifts = restored.stats.n_drifts
        for x, want in zip(trace[split:], saved["predictions"]):
            got = restored.process(x).prediction
            again = uninterrupted.process(x).prediction
            got = np.nan if got is None else got
            again = np.nan if again is None else again
            assert np.float64(got).tobytes() == np.float64(again).tobytes()
            _assert_holt_tolerance(got, want, trace)
        assert restored.stats.n_drifts > drifts


class TestRetiredOptions:
    def test_constructors_refuse_retired_options(self):
        """Each retired serving option is an unknown keyword, not a silent no-op."""
        cases = [
            (FleetPredictor, (2,), "refit_backend", "thread"),
            (FleetPredictor, (2,), "serve_dtype", np.float64),
            (FleetPredictor, (2,), "span_sample", 8),
            (OnlinePredictor, (), "serve_dtype", np.float64),
            (OnlinePredictor, (), "span_sample", 8),
            (OnlinePredictor, (), "error_history", 64),
            (AsyncRefitEngine, (), "backend", "thread"),
        ]
        for build, args, option, value in cases:
            with pytest.raises(TypeError, match=option):
                build(*args, **{option: value})


class TestCheckpointSize:
    def test_fleet_checkpoint_is_the_history_ring_plus_scalars_per_stream(self):
        """No per-stream history besides the ring goes into a checkpoint."""
        n = 4096
        fleet = FleetPredictor(n, forecaster_name="holt", window=12, buffer_capacity=64)
        for row in _ticks(5, n):
            fleet.process_tick(row)
        state = fleet.state_dict()
        ring_bytes = state["buffer"]["data"].nbytes
        assert len(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)) <= (
            ring_bytes + 512 * n
        )

