"""Fleet serving: N=1 bit-parity with the scalar predictor, multi-stream semantics.

The load-bearing guarantee of ``repro.streaming.fleet`` is that the
vectorized path is not an approximation: with one stream, every record —
prediction, error, health, gate verdict, refit/drift flags — is
bit-identical to :class:`~repro.streaming.online.OnlinePredictor` fed
the same values, including across a checkpoint/restore mid-stream. On
top of that, per-stream isolation (one stream's faults never touch a
neighbour's history) and fleet-wide checkpointing are covered here.
"""

import numpy as np
import pytest

from repro.models.base import Forecaster
from repro.obs.registry import MetricRegistry, set_enabled
from repro.streaming import (
    FleetPredictor,
    MatrixRingBuffer,
    OnlinePredictor,
)
from repro.streaming.checkpoint import CheckpointError
from repro.streaming.drift import PageHinkley
from repro.streaming.resilience import (
    GATE_QUARANTINE,
    FleetGate,
    GatePolicy,
    InputGate,
    SupervisorPolicy,
)


def _corrupt_stream(seed: int, n: int = 320) -> np.ndarray:
    """Sinusoid + noise + regime shift + NaNs + impulse outliers."""
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    x = 50 + 10 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 1.5, n)
    x[220:] += 20
    bad = rng.choice(np.arange(10, n), size=10, replace=False)
    x[bad[:5]] = np.nan
    x[bad[5:]] *= 6
    return x


def _assert_records_equal(scalar_recs, fleet_ticks):
    def feq(a, b):
        if a is None or b is None:
            return a is None and b is None
        return a == b or (np.isnan(a) and np.isnan(b))

    for srec, tick in zip(scalar_recs, fleet_ticks):
        frec = tick.record(0)
        assert frec.step == srec.step
        assert feq(frec.prediction, srec.prediction), f"step {srec.step}"
        assert feq(frec.actual, srec.actual), f"step {srec.step}"
        assert feq(frec.error, srec.error), f"step {srec.step}"
        assert frec.refit == srec.refit, f"step {srec.step}"
        assert frec.drift == srec.drift, f"step {srec.step}"
        assert frec.health == srec.health, f"step {srec.step}"
        assert frec.gated == srec.gated, f"step {srec.step}"


_COMMON = dict(
    window=8,
    buffer_capacity=120,
    refit_interval=40,
    min_fit_size=24,
)


class TestSingleStreamBitParity:
    @pytest.mark.parametrize(
        "forecaster,policy",
        [
            ("holt", None),
            (
                "mean",
                GatePolicy(
                    impute="mean",
                    outlier_action="clamp",
                    outlier_sigma=3.0,
                    prediction_sigma=2.5,
                ),
            ),
            ("persistence", GatePolicy(impute="drop")),
        ],
    )
    def test_corrupt_stream_records_identical(self, forecaster, policy):
        x = _corrupt_stream(7)
        scalar = OnlinePredictor(forecaster, gate_policy=policy, **_COMMON)
        fleet = FleetPredictor(1, forecaster, gate_policy=policy, **_COMMON)
        srecs = [scalar.process(np.array([v])) for v in x]
        fticks = [fleet.process_tick(np.array([[v]])) for v in x]
        _assert_records_equal(srecs, fticks)
        assert scalar.stats.n_predictions == int(fleet.stats.n_predictions[0])
        assert scalar.stats.n_refits == fleet.stats.n_refits
        assert scalar.stats.n_drifts == int(fleet.stats.n_drifts[0])
        assert scalar.stats.n_clamped_predictions == int(
            fleet.stats.n_clamped_predictions[0]
        )
        assert scalar.stats.sum_abs_error == float(fleet.stats.sum_abs_error[0])
        assert scalar.gate.n_quarantined == int(fleet.gate.n_quarantined[0])
        assert scalar.gate.n_imputed == int(fleet.gate.n_imputed[0])

    def test_checkpoint_restore_midstream_stays_identical(self, tmp_path):
        x = _corrupt_stream(11)
        scalar = OnlinePredictor("holt", detector=PageHinkley(), **_COMMON)
        fleet = FleetPredictor(1, "holt", detector=PageHinkley(), **_COMMON)
        srecs, fticks = [], []
        for i, v in enumerate(x):
            srecs.append(scalar.process(np.array([v])))
            fticks.append(fleet.process_tick(np.array([[v]])))
            if i == 150:
                scalar.save(tmp_path / "scalar.ckpt")
                fleet.save(tmp_path / "fleet.ckpt")
                scalar = OnlinePredictor.restore(tmp_path / "scalar.ckpt")
                fleet = FleetPredictor.restore(tmp_path / "fleet.ckpt")
        _assert_records_equal(srecs, fticks)


def _failing_attempts(fail: set[int]):
    """Refit fault hook: attempt ``k`` (counted from 0) raises iff ``k in fail``."""
    attempts = iter(range(1 << 30))

    def hook():
        if next(attempts) in fail:
            raise RuntimeError("injected refit fault")

    return hook


class TestServingCounterParity:
    """Both predictors bump one set of event counters where the event happens."""

    PAIRS = (
        ("refits", "n_refits"),
        ("refit_failures", "n_refit_failures"),
        ("drift_events", "n_drifts"),
        ("fallback_predictions", "n_fallback_predictions"),
        ("clamped_predictions", "n_clamped_predictions"),
    )

    @pytest.mark.parametrize("enabled", [True, False])
    def test_counters_equal_the_scalar_stats(self, enabled):
        x = _corrupt_stream(7)  # NaN records, outliers, a regime shift
        kw = dict(
            gate_policy=GatePolicy(prediction_sigma=1.0),
            detector=PageHinkley(threshold=5.0, min_instances=10),
            supervisor_policy=SupervisorPolicy(max_retries=0, backoff_base=0.0),
            **_COMMON,
        )
        scalar_reg, fleet_reg = MetricRegistry(), MetricRegistry()
        # refit attempts 0, 1 and 4 fail: the fallback serves until attempt 2 lands
        scalar = OnlinePredictor(
            "holt", refit_fault_hook=_failing_attempts({0, 1, 4}), registry=scalar_reg, **kw
        )
        fleet = FleetPredictor(
            1, "holt", refit_fault_hook=_failing_attempts({0, 1, 4}), registry=fleet_reg, **kw
        )
        prev = set_enabled(enabled)
        try:
            for v in x:
                scalar.process(np.array([v]))
                fleet.process_tick(np.array([[v]]))
        finally:
            set_enabled(prev)
        got = {s["name"]: s["value"] for s in scalar_reg.collect() if s["kind"] == "counter"}
        got.update(
            {s["name"]: s["value"] for s in fleet_reg.collect() if s["kind"] == "counter"}
        )
        for counter, field in self.PAIRS:
            want = getattr(scalar.stats, field)
            assert want > 0, field
            assert got[f"serving_{counter}_total"] == want, counter
            assert got[f"serving_fleet_{counter}_total"] == want, counter

    @pytest.mark.parametrize("enabled", [True, False])
    def test_records_count_every_offered_record(self, enabled):
        """``records == ticks x N`` whether or not obs is on, absent rows included."""
        ticks = np.random.default_rng(3).normal(0.5, 0.05, (30, 4))
        ticks[10, 2] = ticks[11] = np.nan
        reg = MetricRegistry()
        fleet = FleetPredictor(4, "mean", registry=reg, **_COMMON)
        prev = set_enabled(enabled)
        try:
            fleet.run(ticks)
        finally:
            set_enabled(prev)
        got = {s["name"]: s["value"] for s in reg.collect() if s["kind"] == "counter"}
        assert got["serving_fleet_records_total"] == ticks.size


class TestMultiStream:
    def test_per_stream_fault_isolation(self):
        """A NaN row quarantines its own stream; neighbours keep serving."""
        rng = np.random.default_rng(3)
        ticks = rng.normal(0.5, 0.05, (120, 4))
        ticks[60, 1] = np.nan  # stream 1 misses one tick
        fleet = FleetPredictor(4, "mean", **_COMMON)
        out = fleet.run(ticks)
        hit = out[60]
        assert hit.gated[1] == GATE_QUARANTINE
        assert not np.isfinite(hit.predictions[1])
        assert hit.served[[0, 2, 3]].all()
        # the quarantined record never entered stream 1's history
        assert int(fleet.buffer.sizes[1]) == len(ticks) - 1
        assert int(fleet.gate.n_quarantined.sum()) == 1
        # every other stream served every post-warmup tick
        assert int(fleet.stats.n_predictions[0]) > 90

    def test_shared_model_serves_all_streams_per_tick(self):
        rng = np.random.default_rng(5)
        ticks = rng.normal(0.5, 0.05, (80, 16))
        # quiet detector: only the initial fit + the scheduled refit fire
        fleet = FleetPredictor(
            16, "holt", detector=PageHinkley(threshold=1e9), **_COMMON
        )
        out = fleet.run(ticks)
        # once fitted, a tick serves the whole fleet from one forward
        assert out[-1].served.all()
        # refits are coalesced fleet-wide: first fit at min_fit_size=24,
        # one scheduled refit 40 absorbing ticks later — never per stream
        assert fleet.stats.n_refits == 2
        assert sum(t.refit for t in out) == 2

    def test_fleet_checkpoint_roundtrip_multi_stream(self, tmp_path):
        rng = np.random.default_rng(9)
        ticks = rng.normal(0.5, 0.08, (140, 6))
        ticks[rng.random(ticks.shape) < 0.01] = np.nan
        ticks[0] = 0.5

        solo = FleetPredictor(6, "holt", **_COMMON)
        solo_out = solo.run(ticks)

        fleet = FleetPredictor(6, "holt", **_COMMON)
        resumed_out = fleet.run(ticks[:70])
        fleet.save(tmp_path / "fleet.ckpt")
        restored = FleetPredictor.restore(tmp_path / "fleet.ckpt")
        resumed_out += restored.run(ticks[70:])

        for a, b in zip(solo_out, resumed_out):
            np.testing.assert_array_equal(a.predictions, b.predictions)
            np.testing.assert_array_equal(a.errors, b.errors)
            np.testing.assert_array_equal(a.health, b.health)
            np.testing.assert_array_equal(a.gated, b.gated)
            assert a.refit == b.refit
        np.testing.assert_array_equal(
            solo.buffer.state_dict()["data"], restored.buffer.state_dict()["data"]
        )

    def test_restore_rejects_mismatched_config(self, tmp_path):
        fleet = FleetPredictor(3, "mean", **_COMMON)
        fleet.run(np.full((20, 3), 0.5))
        fleet.save(tmp_path / "fleet.ckpt")
        with pytest.raises(CheckpointError, match="mismatch"):
            FleetPredictor.restore(tmp_path / "fleet.ckpt", n_streams=4)

    def test_records_materialize_per_stream(self):
        fleet = FleetPredictor(3, "mean", **_COMMON)
        out = fleet.run(np.full((40, 3), 0.5) + np.arange(3) * 0.1)
        recs = out[-1].records()
        assert len(recs) == 3
        assert all(r.step == 39 for r in recs)
        assert recs[2].actual == pytest.approx(0.7)


class TestValidation:
    def test_constructor_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="n_streams"):
            FleetPredictor(0, "mean")
        with pytest.raises(TypeError, match="PageHinkley"):

            class Custom(PageHinkley):
                pass

            FleetPredictor(2, "mean", detector=Custom())

    def test_tick_shape_enforced(self):
        fleet = FleetPredictor(3, "mean", **_COMMON)
        with pytest.raises(ValueError, match="expected tick"):
            fleet.process_tick(np.zeros((2, 1)))


class TestFleetGateParity:
    @pytest.mark.parametrize(
        "policy",
        [
            None,
            GatePolicy(impute="mean", outlier_action="clamp", outlier_sigma=3.0),
            GatePolicy(impute="last", outlier_action="quarantine", outlier_sigma=2.5),
            GatePolicy(impute="drop"),
        ],
    )
    def test_tick_verdicts_match_scalar_gates(self, policy):
        """check_tick == running a scalar InputGate per stream, exactly."""
        streams, features, n = 5, 2, 200
        rng = np.random.default_rng(17)
        ticks = rng.normal(10, 2, (n, streams, features))
        ticks[rng.random(ticks.shape) < 0.03] = np.nan
        ticks[rng.random((n, streams)) < 0.02] *= 9

        fleet = FleetGate(streams, features, policy)
        scalars = [InputGate(features, policy) for _ in range(streams)]
        action_name = {0: "accept", 1: "impute", 2: "quarantine"}
        for tick in ticks:
            res = fleet.check_tick(tick)
            for i, gate in enumerate(scalars):
                sres = gate.check(tick[i])
                assert action_name[int(res.actions[i])] == sres.action
                if sres.action != "quarantine":
                    np.testing.assert_array_equal(res.records[i], sres.record)
        for i, gate in enumerate(scalars):
            assert int(fleet.n_accepted[i]) == gate.n_accepted
            assert int(fleet.n_imputed[i]) == gate.n_imputed
            assert int(fleet.n_quarantined[i]) == gate.n_quarantined
            assert fleet.reasons(i) == gate.reasons
        state = fleet.state_dict()
        np.testing.assert_array_equal(
            state["mean"], np.array([g.state_dict()["mean"] for g in scalars])
        )
        np.testing.assert_array_equal(
            state["m2"], np.array([g.state_dict()["m2"] for g in scalars])
        )


class _ExplodingForecaster(Forecaster):
    """Fits fine, always blows up at predict time."""

    name = "exploding"

    def fit(self, x, y, x_val=None, y_val=None):
        self.fitted = True
        return self

    def predict(self, x):
        raise RuntimeError("boom")


class TestFallbackPredictFailures:
    """Satellite fix: the scalar fallback path must count its own failures."""

    @staticmethod
    def _break(predictor):
        predictor.model = _ExplodingForecaster()
        predictor.fallback_model = _ExplodingForecaster()
        return predictor

    def test_scalar_counts_double_failure(self):
        predictor = OnlinePredictor("mean", **_COMMON)
        predictor.run(np.full(40, 0.5))
        self._break(predictor)
        before = predictor.stats.n_fallback_predict_failures
        rec = predictor.process(np.array([0.5]))
        assert rec.prediction is None
        assert predictor.stats.n_fallback_predict_failures == before + 1
        assert predictor.stats.n_predict_failures >= 1
        # the counter survives a checkpoint roundtrip
        state = predictor.stats.state_dict()
        assert state["n_fallback_predict_failures"] == before + 1

    def test_fleet_counts_double_failure_per_stream(self):
        predictor = FleetPredictor(2, "mean", **_COMMON)
        predictor.run(np.full((40, 2), 0.5))
        self._break(predictor)
        tick = predictor.process_tick(np.array([[0.5], [0.5]]))
        assert not tick.served.any()
        np.testing.assert_array_equal(
            predictor.stats.n_fallback_predict_failures, [1, 1]
        )


class TestMatrixRingBufferEdges:
    def test_last_windows_requires_enough_history(self):
        buf = MatrixRingBuffer(2, 8, 1)
        buf.append_tick(np.ones((2, 1)), mask=np.array([True, False]))
        with pytest.raises(ValueError, match="records"):
            buf.last_windows(np.array([1]), 1)
        np.testing.assert_array_equal(buf.last_windows(np.array([0]), 1),
                                      np.ones((1, 1, 1)))

    def test_out_buffer_receives_gather_with_cast(self):
        buf = MatrixRingBuffer(3, 4, 2, window=3)
        for k in range(6):
            buf.append_tick(np.full((3, 2), float(k)))
        out = np.empty((2, 3, 2), dtype=np.float32)
        got = buf.last_windows(np.array([0, 2]), 3, out=out)
        assert got is out
        np.testing.assert_array_equal(out[0, :, 0], [3.0, 4.0, 5.0])

    def test_state_roundtrip(self):
        buf = MatrixRingBuffer(2, 3, 1)
        for k in range(5):
            buf.append_tick(np.full((2, 1), float(k)),
                            mask=np.array([True, k % 2 == 0]))
        clone = MatrixRingBuffer(2, 3, 1)
        clone.load_state_dict(buf.state_dict())
        np.testing.assert_array_equal(clone.view(0), buf.view(0))
        np.testing.assert_array_equal(clone.view(1), buf.view(1))
        bad = MatrixRingBuffer(2, 4, 1)
        with pytest.raises(ValueError, match="mismatch"):
            bad.load_state_dict(buf.state_dict())

