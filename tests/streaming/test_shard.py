"""ShardedFleetPredictor: parity, fault isolation, composed checkpoints.

The anchor contract (ISSUE 6): with ``shards=1`` every emitted
:class:`~repro.streaming.fleet.FleetTick` is bit-identical to a
single-process :class:`~repro.streaming.fleet.FleetPredictor` fed the
same ticks — including across a mid-stream snapshot/restore. With
``shards>1`` each shard is exactly an independent FleetPredictor over
its slice, a worker death takes down only its own streams, and the
whole fleet checkpoints/restores as one artifact.

Fleets here are deliberately tiny (N<=6, short tick runs): every test
spawns real worker processes, so the budget goes to process startup,
not serving.
"""

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricRegistry
from repro.streaming import (
    CheckpointError,
    FleetPredictor,
    ShardedFleetPredictor,
    read_checkpoint,
    shard_boundaries,
    write_checkpoint,
)

#: small-but-real fleet config: refits happen, buffers wrap is avoided
FLEET_KW = dict(
    forecaster_name="holt",
    window=8,
    buffer_capacity=48,
    refit_interval=16,
    min_fit_size=12,
)


def make_ticks(n_ticks, n_streams, seed=0, nan_rate=0.05):
    rng = np.random.default_rng(seed)
    ticks = 50.0 + 10.0 * rng.standard_normal((n_ticks, n_streams))
    ticks[rng.random((n_ticks, n_streams)) < nan_rate] = np.nan
    return ticks


def assert_tick_equal(got, want):
    assert got.step == want.step
    assert got.refit == want.refit
    np.testing.assert_array_equal(got.predictions, want.predictions)
    np.testing.assert_array_equal(got.actuals, want.actuals)
    np.testing.assert_array_equal(got.errors, want.errors)
    np.testing.assert_array_equal(got.drift, want.drift)
    np.testing.assert_array_equal(got.health, want.health)
    np.testing.assert_array_equal(got.gated, want.gated)


class TestShardBoundaries:
    def test_contiguous_balanced_partition(self):
        assert shard_boundaries(10, 4) == (0, 2, 5, 7, 10)
        assert shard_boundaries(6, 1) == (0, 6)
        assert shard_boundaries(4, 4) == (0, 1, 2, 3, 4)
        bounds = shard_boundaries(103, 7)
        sizes = np.diff(bounds)
        assert sizes.sum() == 103 and sizes.max() - sizes.min() <= 1

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            shard_boundaries(4, 0)
        with pytest.raises(ValueError):
            shard_boundaries(4, 5)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=5000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n))
    ))
    def test_partition_properties(self, n_and_shards):
        """Any valid (n, shards): covers [0, n), contiguous, balanced within 1."""
        n, shards = n_and_shards
        bounds = shard_boundaries(n, shards)
        assert len(bounds) == shards + 1
        assert bounds[0] == 0 and bounds[-1] == n
        sizes = np.diff(bounds)
        assert (sizes >= 1).all()  # no empty shard
        assert sizes.sum() == n  # covers every stream exactly once
        assert sizes.max() - sizes.min() <= 1  # balanced within one stream


class TestSingleShardParity:
    def test_bit_identical_to_fleet_predictor(self):
        n = 5
        ticks = make_ticks(48, n, seed=1)
        fleet = FleetPredictor(n, registry=MetricRegistry(), **FLEET_KW)
        expected = fleet.run(ticks)
        with ShardedFleetPredictor(n, shards=1, registry=MetricRegistry(),
                                   **FLEET_KW) as sharded:
            got = sharded.run(ticks)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_tick_equal(g, e)

    def test_parity_across_snapshot_restore(self, tmp_path):
        """save -> close -> restore mid-stream changes nothing downstream."""
        n = 4
        ticks = make_ticks(44, n, seed=2)
        fleet = FleetPredictor(n, registry=MetricRegistry(), **FLEET_KW)
        expected = fleet.run(ticks)

        path = tmp_path / "fleet.ckpt"
        first = ShardedFleetPredictor(n, shards=1, registry=MetricRegistry(),
                                      **FLEET_KW)
        try:
            got = first.run(ticks[:20])
            first.save(path)
        finally:
            first.close(collect_metrics=False)
        second = ShardedFleetPredictor.restore(path, registry=MetricRegistry())
        try:
            got += second.run(ticks[20:])
        finally:
            second.close(collect_metrics=False)
        for g, e in zip(got, expected):
            assert_tick_equal(g, e)

    def test_stream_history_matches_fleet_buffer(self):
        n = 4
        ticks = make_ticks(30, n, seed=3)
        fleet = FleetPredictor(n, registry=MetricRegistry(), **FLEET_KW)
        fleet.run(ticks)
        with ShardedFleetPredictor(n, shards=2, registry=MetricRegistry(),
                                   **FLEET_KW) as sharded:
            sharded.run(ticks)
            for i in range(n):
                np.testing.assert_array_equal(
                    sharded.stream_history(i), fleet.buffer.view(i)
                )
            with pytest.raises(IndexError):
                sharded.stream_history(n)


class TestMultiShardSemantics:
    def test_shards_equal_independent_fleets_on_slices(self):
        """Each shard is exactly a FleetPredictor over its stream slice."""
        n, shards = 6, 2
        ticks = make_ticks(40, n, seed=4)
        bounds = shard_boundaries(n, shards)
        mirrors = [
            FleetPredictor(hi - lo, registry=MetricRegistry(), **FLEET_KW).run(
                ticks[:, lo:hi]
            )
            for lo, hi in zip(bounds, bounds[1:])
        ]
        with ShardedFleetPredictor(n, shards=shards, registry=MetricRegistry(),
                                   **FLEET_KW) as sharded:
            got = sharded.run(ticks)
        for t, g in enumerate(got):
            for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                m = mirrors[s][t]
                np.testing.assert_array_equal(g.predictions[lo:hi], m.predictions)
                np.testing.assert_array_equal(g.actuals[lo:hi], m.actuals)
                np.testing.assert_array_equal(g.errors[lo:hi], m.errors)
                np.testing.assert_array_equal(g.health[lo:hi], m.health)
            # fleet-level refit is the OR of the shard refits
            assert g.refit == any(mirrors[s][t].refit for s in range(shards))


class TestFaultIsolation:
    def test_killed_worker_takes_only_its_streams(self, tmp_path):
        n, shards = 6, 2
        ticks = make_ticks(36, n, seed=5, nan_rate=0.0)
        lo, hi = shard_boundaries(n, shards)[1], n
        mirror = FleetPredictor(hi - lo, registry=MetricRegistry(), **FLEET_KW)
        registry = MetricRegistry()
        # respawn=None: supervision off — a failure is terminal quarantine,
        # the pre-supervisor contract this test pins down
        sharded = ShardedFleetPredictor(n, shards=shards, registry=registry,
                                        respawn=None, **FLEET_KW)
        try:
            for t in ticks[:12]:
                got = sharded.process_tick(t)
                assert_tick_equal_rows(got, mirror.process_tick(t[lo:hi]), lo, hi)

            os.kill(sharded._handles[0].proc.pid, signal.SIGKILL)

            for t in ticks[12:]:
                got = sharded.process_tick(t)
                # dead shard: NaN predictions, fallback health, quarantine gate
                assert np.isnan(got.predictions[:lo]).all()
                assert np.isnan(got.errors[:lo]).all()
                np.testing.assert_array_equal(got.actuals[:lo], t[:lo])
                assert (got.health[:lo] == 2).all()
                assert (got.gated[:lo] == 2).all()
                # surviving shard: still bit-identical to its mirror
                assert_tick_equal_rows(got, mirror.process_tick(t[lo:hi]), lo, hi)

            assert sharded.failed_shards == (0,)
            st = sharded.stats()
            assert st["worker_failures"] == 1
            assert st["failed_shards"] == [0]
            assert any("shard 0" in e for e in st["errors"])
            assert st["per_shard"][0]["ok"] is False
            assert st["per_shard"][1]["ok"] is True
            failures = [
                s["value"]
                for s in registry.snapshot()["series"]
                if s["name"] == "serving_shard_worker_failures_total"
            ]
            assert failures == [1.0]
            # a degraded fleet must refuse to checkpoint
            with pytest.raises(RuntimeError, match="failed shards"):
                sharded.save(tmp_path / "degraded.ckpt")
        finally:
            sharded.close(collect_metrics=False)


def assert_tick_equal_rows(got, want, lo, hi):
    np.testing.assert_array_equal(got.predictions[lo:hi], want.predictions)
    np.testing.assert_array_equal(got.actuals[lo:hi], want.actuals)
    np.testing.assert_array_equal(got.errors[lo:hi], want.errors)
    np.testing.assert_array_equal(got.drift[lo:hi], want.drift)
    np.testing.assert_array_equal(got.health[lo:hi], want.health)
    np.testing.assert_array_equal(got.gated[lo:hi], want.gated)


class TestCheckpointRejection:
    def test_config_mismatch_rejected(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        with ShardedFleetPredictor(4, shards=1, registry=MetricRegistry(),
                                   **FLEET_KW) as sharded:
            sharded.run(make_ticks(16, 4, seed=6))
            sharded.save(path)
        other_kw = {**FLEET_KW, "window": 10}
        with ShardedFleetPredictor(4, shards=1, registry=MetricRegistry(),
                                   **other_kw) as wrong:
            with pytest.raises(CheckpointError, match="config mismatch"):
                wrong.load_state(read_checkpoint(path)["state"])

    def test_restore_applies_saved_shard_count(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        with ShardedFleetPredictor(4, shards=2, registry=MetricRegistry(),
                                   **FLEET_KW) as sharded:
            sharded.run(make_ticks(16, 4, seed=7))
            sharded.save(path)
        restored = ShardedFleetPredictor.restore(path, registry=MetricRegistry())
        try:
            assert restored.shards == 2 and restored.n_streams == 4
        finally:
            restored.close(collect_metrics=False)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.ckpt"
        write_checkpoint(path, {"kind": "online_predictor", "state": {}})
        with pytest.raises(CheckpointError, match="does not hold"):
            ShardedFleetPredictor.restore(path)


class TestConstructionAndLifecycle:
    @pytest.mark.parametrize(
        ("n_streams", "shards"), [(0, 1), (2, 3), (2, 0)]
    )
    def test_bad_geometry_rejected_before_spawning(self, n_streams, shards):
        with pytest.raises(ValueError):
            ShardedFleetPredictor(n_streams, shards=shards,
                                  registry=MetricRegistry(), **FLEET_KW)

    def test_unforwardable_fleet_kwargs_rejected(self):
        """A live callable cannot cross the spawn boundary — refuse early."""
        with pytest.raises(ValueError, match="cannot be passed through"):
            ShardedFleetPredictor(
                2, shards=1, refit_fault_hook=lambda: None, **FLEET_KW
            )

    def test_unset_fleet_kwargs_take_the_fleet_defaults(self):
        """The coordinator reads FleetPredictor's own defaults, not a copy."""
        fleet = FleetPredictor(2, registry=MetricRegistry())
        with ShardedFleetPredictor(2, shards=1, registry=MetricRegistry()) as sharded:
            got = (sharded.window, sharded.buffer_capacity, sharded.forecaster_name)
            want = (fleet.window, fleet.buffer.capacity, fleet.forecaster_name)
            assert got == want
            assert sharded.stream_history(0).shape[1] == fleet.buffer.features

    def test_worker_startup_failure_names_the_shard_and_the_cause(self):
        with pytest.raises(RuntimeError, match="shard 0 failed to start: ValueError: buffer_cap"):
            ShardedFleetPredictor(
                2, shards=1, registry=MetricRegistry(), window=8, buffer_capacity=4
            )

    def test_close_is_idempotent_and_final(self):
        sharded = ShardedFleetPredictor(2, shards=1, registry=MetricRegistry(),
                                        **FLEET_KW)
        sharded.process_tick(np.array([1.0, 2.0]))
        sharded.close()
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            sharded.process_tick(np.array([1.0, 2.0]))
        with pytest.raises(RuntimeError, match="closed"):
            sharded.stream_history(0)

    def test_tick_shape_validated(self):
        with ShardedFleetPredictor(3, shards=1, registry=MetricRegistry(),
                                   **FLEET_KW) as sharded:
            with pytest.raises(ValueError, match="expected tick of shape"):
                sharded.process_tick(np.zeros(4))
