"""Self-healing shard supervision: detect → respawn → restore (ISSUE 7).

Every test here drives real worker processes through real failures —
``SIGKILL`` and ``SIGSTOP``, scheduled via the deterministic
:class:`~repro.streaming.faults.ChaosSchedule` or delivered by hand —
and asserts the supervision contract:

* a killed shard's rows degrade to held-last predictions flagged
  ``RECOVERING`` (health=3), never NaN, while the breaker is closed;
* the shard is respawned with backoff and restored from its background
  checkpoint, and the surviving shards stay bit-identical throughout;
* a crash-looping shard trips the breaker into durable quarantine, and
  a fully-quarantined fleet raises :class:`AllShardsFailedError`
  instead of serving NaN forever;
* a *hung* worker (SIGSTOP — immune to SIGTERM) is detected by
  deadline on both the tick and control paths and escalated to
  ``SIGKILL``.

Fleets are tiny (N<=6) and tick loops are paced only while a shard is
rebuilding, so the budget goes to process churn, not serving.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.obs.registry import MetricRegistry
from repro.streaming import (
    AllShardsFailedError,
    ChaosSchedule,
    FleetPredictor,
    ProcessFault,
    RespawnPolicy,
    ShardedFleetPredictor,
    read_checkpoint,
    shard_boundaries,
    try_read_checkpoint,
)

#: small-but-real fleet config: refits happen, buffer wrap is avoided
FLEET_KW = dict(
    forecaster_name="holt",
    window=8,
    buffer_capacity=48,
    refit_interval=16,
    min_fit_size=12,
)

#: generous pacing while a shard rebuilds (worker spawn pays interpreter
#: start-up + imports); tests assert in ticks, never in wall-clock
RECOVERY_PACE_S = 0.15


def make_ticks(n_ticks, n_streams, seed=0):
    rng = np.random.default_rng(seed)
    return 50.0 + 10.0 * rng.standard_normal((n_ticks, n_streams))


def drive(pred, ticks, pace=RECOVERY_PACE_S):
    """Serve the whole trace, pacing while any shard is rebuilding."""
    out = []
    for t in ticks:
        out.append(pred.process_tick(t))
        if pred.recovering_shards and pace > 0:
            time.sleep(pace)
    return out


class TestSupervisedRecovery:
    def test_sigkill_recovery_holds_rows_and_restores_from_checkpoint(self, tmp_path):
        n, shards, kill_tick = 6, 2, 20
        ticks = make_ticks(80, n, seed=11)
        vlo, vhi = shard_boundaries(n, shards)[0:2]
        mirror = FleetPredictor(n - vhi, registry=MetricRegistry(), **FLEET_KW)
        registry = MetricRegistry()
        pred = ShardedFleetPredictor(
            n,
            shards,
            registry=registry,
            chaos=ChaosSchedule.kill_at(kill_tick, shard=0),
            respawn=RespawnPolicy(backoff_ticks=1),
            checkpoint_dir=tmp_path,
            checkpoint_interval=4,
            tick_timeout=30.0,
            **FLEET_KW,
        )
        try:
            held = None
            recovered_at = None
            for t, row in enumerate(ticks):
                got = pred.process_tick(row)
                want = mirror.process_tick(row[vhi:])
                # survivors: bit-identical to their mirror on every tick,
                # before, during and after the outage
                np.testing.assert_array_equal(got.predictions[vhi:], want.predictions)
                np.testing.assert_array_equal(got.errors[vhi:], want.errors)
                np.testing.assert_array_equal(got.health[vhi:], want.health)
                if t == kill_tick - 1:
                    held = got.predictions[vlo:vhi].copy()
                if pred.recovering_shards:
                    # degraded mode: held-last rows, RECOVERING health,
                    # quarantine gate code — and never NaN (warm-up is over)
                    assert not np.isnan(got.predictions[vlo:vhi]).any()
                    np.testing.assert_array_equal(got.predictions[vlo:vhi], held)
                    assert (got.health[vlo:vhi] == 3).all()
                    assert (got.gated[vlo:vhi] == 2).all()
                    np.testing.assert_array_equal(got.actuals[vlo:vhi], row[vlo:vhi])
                    time.sleep(RECOVERY_PACE_S)
                elif t > kill_tick and recovered_at is None and not pred.failed_shards:
                    recovered_at = t
            assert pred.worker_failures == 1
            assert pred.respawns == 1
            assert recovered_at is not None, "shard never recovered within the run"
            assert pred.failed_shards == ()

            st = pred.stats()
            entry = st["per_shard"][0]
            assert entry["ok"] is True and entry["state"] == "live"
            # the replacement restored from a background checkpoint taken
            # at a step before (and within one interval of) the kill
            assert entry["restored_step"] is not None
            assert kill_tick - 4 <= entry["restored_step"] < kill_tick
            assert st["respawns"] == 1 and st["quarantined_shards"] == []
            # post-recovery, the restored shard serves real predictions again
            last = pred.process_tick(ticks[-1])
            assert not np.isnan(last.predictions[vlo:vhi]).any()
            assert (last.health[vlo:vhi] != 3).all()
            names = {
                s["name"]: s.get("value")
                for s in registry.snapshot()["series"]
                if s["name"].endswith("_total")
                and s.get("labels") in (None, {})
            }
            assert names.get("serving_shard_respawns_total") == 1.0
            assert names.get("serving_shard_worker_failures_total") == 1.0
        finally:
            pred.close(collect_metrics=False)

    def test_respawn_after_wrap_rebuilds_the_ring_pad(self, tmp_path):
        """Restore-then-replay stays bit-identical after the ring wrapped.

        Capacity 10, window 8, checkpoints every 8 ticks, kill at tick
        31: the replacement restores the step-23 checkpoint (head 4), a
        ring that had already wrapped past slot 0, into a fresh private
        ring of its own. The first windows it gathers read the pad
        slots, so the restore must build the pad from the checkpoint.
        """
        kw = dict(FLEET_KW, buffer_capacity=10, min_fit_size=10)
        n, shards, kill_tick = 4, 2, 31
        ticks = make_ticks(90, n, seed=5)
        lo, hi = shard_boundaries(n, shards)[0:2]
        mirror = FleetPredictor(hi - lo, registry=MetricRegistry(), **kw)
        states = []
        for row in ticks[:kill_tick]:
            mirror.process_tick(row[lo:hi])
            states.append(mirror.state_dict())
        pred = ShardedFleetPredictor(
            n,
            shards,
            registry=MetricRegistry(),
            chaos=ChaosSchedule.kill_at(kill_tick, shard=0),
            respawn=RespawnPolicy(backoff_ticks=1),
            checkpoint_dir=tmp_path,
            checkpoint_interval=8,
            tick_timeout=30.0,
            **kw,
        )
        try:
            served = {}
            for t, row in enumerate(ticks):
                got = pred.process_tick(row)
                if t > kill_tick and (got.health[lo:hi] != 3).all():
                    served[t] = got.predictions[lo:hi].copy()
                if pred.recovering_shards:
                    time.sleep(RECOVERY_PACE_S)
            entry = pred.stats()["per_shard"][0]
        finally:
            pred.close(collect_metrics=False)
        assert pred.respawns == 1
        assert entry["restored_step"] == 23
        assert states[23]["buffer"]["head"].tolist() == [4, 4]
        first = min(served)
        assert sorted(served) == list(range(first, len(ticks)))
        assert len(served) >= 10, "shard never recovered within the run"
        replay = FleetPredictor(hi - lo, registry=MetricRegistry(), **kw)
        replay.load_state_dict(states[23])
        for t in range(first, len(ticks)):
            want = replay.process_tick(ticks[t, lo:hi]).predictions
            assert np.isfinite(want).all()
            assert served[t].tobytes() == want.tobytes()

    def test_crash_loop_trips_breaker_then_fleet_refuses_to_serve(self):
        n = 4
        ticks = make_ticks(120, n, seed=12)
        registry = MetricRegistry()
        pred = ShardedFleetPredictor(
            n,
            shards=1,
            registry=registry,
            chaos=ChaosSchedule.crash_loop(0, start=10, until=110),
            respawn=RespawnPolicy(max_failures=2, backoff_ticks=1, failure_window=256),
            tick_timeout=30.0,
            **FLEET_KW,
        )
        try:
            with pytest.raises(AllShardsFailedError, match="quarantined"):
                drive(pred, ticks)
            assert pred.quarantined_shards == (0,)
            assert pred.worker_failures == 2  # breaker tripped at max_failures
            assert pred.respawns == 1  # one respawn attempt before the trip
            # the breaker is durable: every subsequent tick refuses too
            with pytest.raises(AllShardsFailedError):
                pred.process_tick(ticks[0])
            quarantines = [
                s["value"]
                for s in registry.snapshot()["series"]
                if s["name"] == "serving_shard_quarantines_total"
            ]
            assert quarantines == [1.0]
        finally:
            pred.close(collect_metrics=False)

    def test_recovering_rows_before_warmup_may_hold_nan_but_fleet_serves(self):
        """A kill before any prediction exists holds NaN — but only then."""
        n = 4
        ticks = make_ticks(12, n, seed=13)
        pred = ShardedFleetPredictor(
            n,
            shards=2,
            registry=MetricRegistry(),
            chaos=ChaosSchedule.kill_at(2, shard=0),  # mid-warm-up
            respawn=RespawnPolicy(backoff_ticks=1),
            tick_timeout=30.0,
            **FLEET_KW,
        )
        try:
            out = drive(pred, ticks)
            # the fleet never raised and the survivor kept serving
            assert len(out) == len(ticks)
            assert all((o.health[2:] != 3).all() for o in out)
        finally:
            pred.close(collect_metrics=False)


class TestDeadlines:
    def test_hung_worker_tick_deadline_classifies_hung(self):
        n = 4
        ticks = make_ticks(16, n, seed=14)
        pred = ShardedFleetPredictor(
            n,
            shards=2,
            registry=MetricRegistry(),
            chaos=ChaosSchedule([ProcessFault(tick=6, shard=0, kind="hang")]),
            respawn=None,
            tick_timeout=0.5,
            **FLEET_KW,
        )
        try:
            out = drive(pred, ticks, pace=0)
            assert pred.worker_failures == 1
            assert pred.quarantined_shards == (0,)  # respawn=None: terminal
            assert any("hung worker" in e for e in pred.errors)
            # the hung process must actually be gone (terminate→kill escalation)
            assert not pred._handles[0].proc.is_alive()
            # post-failure rows are NaN/quarantined, survivor untouched
            assert np.isnan(out[-1].predictions[:2]).all()
            assert not np.isnan(out[-1].predictions[2:]).any()
        finally:
            pred.close(collect_metrics=False)

    def test_sigstopped_worker_misses_control_deadline_and_is_killed(self, tmp_path):
        n = 4
        ticks = make_ticks(8, n, seed=15)
        pred = ShardedFleetPredictor(
            n,
            shards=2,
            registry=MetricRegistry(),
            control_timeout=0.5,
            tick_timeout=5.0,
            respawn=None,
            **FLEET_KW,
        )
        try:
            drive(pred, ticks, pace=0)
            victim = pred._handles[0].proc
            # SIGSTOP: alive but unresponsive — immune to SIGTERM, so only
            # the terminate→kill escalation can reap it
            os.kill(victim.pid, signal.SIGSTOP)
            with pytest.raises(RuntimeError, match="hung worker"):
                pred.save(tmp_path / "never.ckpt")
            assert not victim.is_alive()
            assert pred.worker_failures == 1
            # stats() degrades instead of raising: failed shard reported
            st = pred.stats()
            assert st["per_shard"][0]["ok"] is False
            assert st["per_shard"][0]["state"] == "quarantined"
            assert st["per_shard"][1]["ok"] is True
        finally:
            pred.close(collect_metrics=False)

    def test_corrupt_tick_reply_marks_shard_failed(self):
        n = 4
        ticks = make_ticks(12, n, seed=16)
        pred = ShardedFleetPredictor(
            n,
            shards=2,
            registry=MetricRegistry(),
            chaos=ChaosSchedule([ProcessFault(tick=5, shard=1, kind="corrupt")]),
            respawn=None,
            tick_timeout=30.0,
            **FLEET_KW,
        )
        try:
            drive(pred, ticks, pace=0)
            assert pred.worker_failures == 1
            assert pred.quarantined_shards == (1,)
            assert any("corrupt tick reply" in e for e in pred.errors)
        finally:
            pred.close(collect_metrics=False)

    def test_slow_fault_is_a_straggler_not_a_failure(self):
        n = 4
        ticks = make_ticks(10, n, seed=17)
        pred = ShardedFleetPredictor(
            n,
            shards=2,
            registry=MetricRegistry(),
            chaos=ChaosSchedule([
                ProcessFault(tick=4, shard=0, kind="slow", duration=0.2)
            ]),
            respawn=None,
            tick_timeout=30.0,
            **FLEET_KW,
        )
        try:
            out = drive(pred, ticks, pace=0)
            assert pred.worker_failures == 0
            assert len(out) == len(ticks)
        finally:
            pred.close(collect_metrics=False)


class TestBackgroundCheckpoints:
    def test_periodic_shard_checkpoints_written_and_valid(self, tmp_path):
        n, interval = 4, 4
        ticks = make_ticks(18, n, seed=18)
        registry = MetricRegistry()
        pred = ShardedFleetPredictor(
            n,
            shards=2,
            registry=registry,
            checkpoint_dir=tmp_path,
            checkpoint_interval=interval,
            **FLEET_KW,
        )
        try:
            drive(pred, ticks, pace=0)
        finally:
            pred.close()  # harvest worker metrics
        bounds = shard_boundaries(n, 2)
        for i in range(2):
            path = tmp_path / f"shard-{i:03d}.ckpt"
            assert path.exists()
            art = read_checkpoint(path)
            assert art["kind"] == "fleet_shard"
            assert art["shard"] == i
            assert (art["lo"], art["hi"]) == (bounds[i], bounds[i + 1])
            # last checkpoint lands on the last step where (step+1) % interval == 0
            assert art["step"] == (len(ticks) // interval) * interval - 1
            assert "state" in art
        # worker-side checkpoint counters merged into the parent registry
        written = sum(
            s["value"]
            for s in registry.snapshot()["series"]
            if s["name"] == "serving_shard_checkpoints_total"
        )
        assert written == 2 * (len(ticks) // interval)

    def test_corrupt_background_checkpoint_reads_as_none(self, tmp_path):
        path = tmp_path / "shard-000.ckpt"
        n = 4
        pred = ShardedFleetPredictor(
            n, shards=1, registry=MetricRegistry(),
            checkpoint_dir=tmp_path, checkpoint_interval=2, **FLEET_KW,
        )
        try:
            drive(pred, make_ticks(6, n, seed=19), pace=0)
        finally:
            pred.close(collect_metrics=False)
        assert read_checkpoint(path)["kind"] == "fleet_shard"
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # bit-rot the payload
        path.write_bytes(bytes(raw))
        assert try_read_checkpoint(path) is None
        assert try_read_checkpoint(tmp_path / "missing.ckpt") is None

    def test_checkpoint_interval_requires_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            ShardedFleetPredictor(4, shards=1, checkpoint_interval=8, **FLEET_KW)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            ShardedFleetPredictor(
                4, shards=1, checkpoint_dir="/tmp", checkpoint_interval=0, **FLEET_KW
            )


class TestPolicyValidation:
    def test_respawn_policy_validation(self):
        RespawnPolicy()  # defaults valid
        with pytest.raises(ValueError, match="max_failures"):
            RespawnPolicy(max_failures=0)
        with pytest.raises(ValueError, match="failure_window"):
            RespawnPolicy(failure_window=0)
        with pytest.raises(ValueError, match="backoff_ticks"):
            RespawnPolicy(backoff_ticks=-1)
        with pytest.raises(ValueError, match="backoff_max_ticks"):
            RespawnPolicy(backoff_ticks=8, backoff_max_ticks=4)

    def test_chaos_shard_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="chaos schedule references shard"):
            ShardedFleetPredictor(
                4, shards=2, chaos=ChaosSchedule.kill_at(5, shard=2), **FLEET_KW
            )
