"""The fleet's masked whole-array passes against their scalar definitions.

A fleet tick updates per-stream state — the gate's Welford moments and
running std, the Page-Hinkley detectors, the serving sums — with ufunc
passes masked by ``where=``: rows outside the mask are neither read nor
written. These tests pin down that the masked passes are exact (bit for
bit equal to one scalar object per stream), that derived state (the
gate's running std) is rebuilt on load rather than saved, and that the
values a pass discards — NaN or inf rows — raise no floating-point
warning.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricRegistry
from repro.streaming import FleetPredictor
from repro.streaming.drift import PageHinkley
from repro.streaming.fleet import _FleetPageHinkley
from repro.streaming.resilience import FleetGate, GatePolicy, InputGate

#: the policies of ``test_fleet.py::TestFleetGateParity``
POLICIES = [
    None,
    GatePolicy(impute="mean", outlier_action="clamp", outlier_sigma=3.0),
    GatePolicy(impute="last", outlier_action="quarantine", outlier_sigma=2.5),
    GatePolicy(impute="drop"),
]

#: every key a FleetGate checkpoint has carried; the running std is not one
GATE_STATE_KEYS = {
    "n_seen",
    "n_accepted",
    "n_imputed",
    "n_quarantined",
    "reason_counts",
    "last",
    "count",
    "mean",
    "m2",
}


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# -- Page-Hinkley -------------------------------------------------------------


def _ph_ops(streams: int):
    """Interleaved ``update(values, mask)`` and ``reset(mask)`` operations.

    Masked-off rows of an update carry NaN or +-inf, as the errors of
    unserved streams do; the masked pass must never read them.
    """
    mask = st.lists(st.booleans(), min_size=streams, max_size=streams)
    live = st.lists(
        st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
        min_size=streams,
        max_size=streams,
    )
    junk = st.lists(
        st.sampled_from([np.nan, np.inf, -np.inf]), min_size=streams, max_size=streams
    )
    update = st.tuples(st.just("update"), mask, live, junk)
    reset = st.tuples(st.just("reset"), mask)
    return st.lists(st.one_of(update, update, update, reset), max_size=80)


class TestFleetPageHinkleyParity:
    @given(
        st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), _ph_ops(n))),
        st.floats(0.0, 0.1),
        st.floats(0.01, 3.0),
        st.integers(1, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_detectors_bit_for_bit(self, streams_ops, delta, threshold, min_n):
        streams, ops = streams_ops
        fleet = _FleetPageHinkley(streams, delta, threshold, min_n)
        scalars = [PageHinkley(delta, threshold, min_n) for _ in range(streams)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for op in ops:
                mask = np.asarray(op[1], bool)
                if op[0] == "reset":
                    fleet.reset(mask)
                    for i in np.flatnonzero(mask):
                        scalars[i].reset()
                    continue
                values = np.where(mask, op[2], op[3])
                fired = fleet.update(values, mask)
                want = [
                    bool(mask[i]) and scalars[i].update(float(values[i]))
                    for i in range(streams)
                ]
                assert fired.tolist() == want
        assert fleet.n_seen.tolist() == [ph.n_seen for ph in scalars]
        assert fleet.drift_detected.tolist() == [ph.drift_detected for ph in scalars]
        assert _bits(fleet._mean) == _bits([ph._mean for ph in scalars])
        assert _bits(fleet._cumulative) == _bits([ph._cumulative for ph in scalars])
        assert _bits(fleet._minimum) == _bits([ph._minimum for ph in scalars])


# -- gate band ----------------------------------------------------------------


def _gate_ticks(n: int = 200, streams: int = 5, features: int = 2) -> np.ndarray:
    """The tick mix of ``TestFleetGateParity``: noise, 3 % NaN cells, 2 % x9 rows."""
    rng = np.random.default_rng(17)
    ticks = rng.normal(10, 2, (n, streams, features))
    ticks[rng.random(ticks.shape) < 0.03] = np.nan
    ticks[rng.random((n, streams)) < 0.02] *= 9
    return ticks


def _assert_band_matches_scalars(fleet: FleetGate, scalars, sigma: float) -> None:
    lo, hi, armed = fleet.band(sigma)
    for i, gate in enumerate(scalars):
        band = gate.band(sigma)
        assert bool(armed[i]) == (band is not None)
        if band is not None:
            assert _bits(lo[i]) == _bits(band[0])
            assert _bits(hi[i]) == _bits(band[1])


def _assert_same_band(a: FleetGate, b: FleetGate, sigma: float) -> None:
    for x, y in zip(a.band(sigma), b.band(sigma)):
        assert x.tobytes() == y.tobytes()


class TestFleetGateBandParity:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_band_matches_scalar_gates_every_tick(self, policy):
        ticks = _gate_ticks()
        streams, features = ticks.shape[1:]
        fleet = FleetGate(streams, features, policy)
        scalars = [InputGate(features, policy) for _ in range(streams)]
        for tick in ticks:
            fleet.check_tick(tick)
            for i, gate in enumerate(scalars):
                gate.check(tick[i])
            for sigma in (2.5, fleet.policy.prediction_sigma):
                _assert_band_matches_scalars(fleet, scalars, sigma)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_std_is_rebuilt_on_load_not_saved(self, policy):
        """A fresh gate loaded mid-stream serves the same bands from then on."""
        ticks = _gate_ticks()
        streams, features = ticks.shape[1:]
        fleet = FleetGate(streams, features, policy)
        for tick in ticks[:120]:
            fleet.check_tick(tick)
        state = fleet.state_dict()
        # old checkpoints carry exactly these keys: no std, nothing derived
        assert set(state) == GATE_STATE_KEYS
        resumed = FleetGate(streams, features, policy)
        resumed.load_state_dict(state)
        for tick in ticks[120:]:
            _assert_same_band(fleet, resumed, 3.0)
            a, b = fleet.check_tick(tick), resumed.check_tick(tick)
            assert a.actions.tobytes() == b.actions.tobytes()
            assert a.records.tobytes() == b.records.tobytes()
        _assert_same_band(fleet, resumed, 3.0)

    def test_load_over_a_used_gate_replaces_its_std(self):
        """Loading clears the std of rows the checkpoint has below two records."""
        ticks = _gate_ticks()
        streams, features = ticks.shape[1:]
        young = FleetGate(streams, features)
        young.check_tick(ticks[0])
        old = FleetGate(streams, features)
        for tick in ticks:
            old.check_tick(tick)
        old.load_state_dict(young.state_dict())
        fresh = FleetGate(streams, features)
        fresh.load_state_dict(young.state_dict())
        # every row, armed or not: nothing of the used gate's std survives
        _assert_same_band(old, fresh, 2.0)
        scalars = [InputGate(features) for _ in range(streams)]
        for i, gate in enumerate(scalars):
            gate.check(ticks[0, i])
        for tick in ticks[1:60]:
            old.check_tick(tick)
            for i, gate in enumerate(scalars):
                gate.check(tick[i])
            _assert_band_matches_scalars(old, scalars, 2.0)


# -- output sanitizer -----------------------------------------------------------


def _full_band_sanitize(gate: FleetGate, preds, served, target_col: int, sigma: float):
    """The sanitizer over the whole ``(N, F)`` band: what ``_sanitize`` did before
    it computed only the served cells of the target column."""
    preds = preds.copy()
    clamped = np.zeros(gate.streams, dtype=np.int64)
    failed = np.zeros(gate.streams, dtype=np.int64)
    vals = preds[served]
    bad = ~np.isfinite(vals)
    failed[served[bad]] += 1
    preds[served[bad]] = np.nan
    lo = gate._mean - sigma * gate._std
    hi = gate._mean + sigma * gate._std
    armed = gate._count >= gate.policy.min_history
    vals = preds[served]
    lo_t, hi_t = lo[served, target_col], hi[served, target_col]
    wild = armed[served] & np.isfinite(vals) & ((vals < lo_t) | (vals > hi_t))
    clamped[served[wild]] += 1
    preds[served[wild]] = np.clip(vals[wild], lo_t[wild], hi_t[wild])
    return preds, clamped, failed


class TestSanitizeReadsOnlyTheServedBand:
    @given(
        streams=st.integers(1, 9),
        features=st.integers(1, 3),
        target=st.integers(0, 2),
        ticks=st.integers(0, 30),
        min_history=st.integers(2, 12),
        sigma=st.sampled_from([0.5, 1.0, 2.5, 6.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_clamps_equal_the_full_band_computation(
        self, streams, features, target, ticks, min_history, sigma, seed
    ):
        target = target % features
        rng = np.random.default_rng(seed)
        fleet = FleetPredictor(
            streams,
            "mean",
            window=2,
            buffer_capacity=8,
            features=features,
            target_col=target,
            gate_policy=GatePolicy(min_history=min_history, prediction_sigma=sigma),
            registry=(registry := MetricRegistry()),
        )
        # a random gate state: streams that have seen different record counts
        for _ in range(ticks):
            tick = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), (streams, features))
            tick[rng.random(streams) < 0.3] = np.nan
            fleet.gate.check_tick(tick)
        preds = rng.normal(0, 4, streams)
        preds[rng.random(streams) < 0.1] = np.nan
        preds[rng.random(streams) < 0.1] = np.inf
        served = np.flatnonzero(rng.random(streams) < 0.7)
        want, clamped, failed = _full_band_sanitize(fleet.gate, preds, served, target, sigma)
        got = preds.copy()
        fleet._sanitize(got, served)
        assert got.tobytes() == want.tobytes()
        assert fleet.stats.n_clamped_predictions.tolist() == clamped.tolist()
        counted = registry.counter("serving_fleet_clamped_predictions_total").value
        assert counted == int(clamped.sum())
        assert fleet.stats.n_predict_failures.tolist() == failed.tolist()


# -- warnings -----------------------------------------------------------------


def _hostile_ticks(n: int, streams: int, seed: int) -> np.ndarray:
    """``(n, streams, 2)`` ticks with all-NaN, inf, -inf and partly NaN rows."""
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)[:, None, None]
    ticks = 0.5 + 0.2 * np.sin(2 * np.pi * t / 24 + rng.uniform(0, 6, (1, streams, 2)))
    ticks = ticks + rng.normal(0, 0.01, ticks.shape)
    kind = rng.random((n, streams))
    ticks[kind < 0.05] = np.nan  # empty rows
    ticks[(kind >= 0.05) & (kind < 0.08), 0] = np.inf
    ticks[(kind >= 0.08) & (kind < 0.10), 1] = -np.inf
    ticks[(kind >= 0.10) & (kind < 0.13), 1] = np.nan  # partly missing
    ticks[(kind >= 0.13) & (kind < 0.15)] = np.inf  # inf in every cell
    ticks[(kind >= 0.15) & (kind < 0.17)] *= 40  # outliers
    ticks[0] = 0.5  # every stream starts with a finite record
    ticks[:, -1] = np.nan  # one stream never reports
    return ticks


class TestMaskedPassesRaiseNoWarnings:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_fleet_over_nan_and_inf_rows(self, policy):
        ticks = _hostile_ticks(240, 6, seed=3)
        fleet = FleetPredictor(
            6,
            "holt",
            window=6,
            buffer_capacity=60,
            refit_interval=30,
            min_fit_size=18,
            features=2,
            gate_policy=policy,
            detector=PageHinkley(threshold=0.05, min_instances=10),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fleet.run(ticks)
        assert fleet.stats.n_refits >= 1
        assert int(fleet.gate.n_quarantined.sum()) > 0
        served = np.array([tick.served for tick in out])
        assert served.any() and not served[:, -1].any()
        assert np.isfinite(fleet.stats.sum_abs_error).all()
        assert np.isfinite(fleet.gate.state_dict()["m2"]).all()
