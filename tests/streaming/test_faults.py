"""Stream fault-injection harness: determinism, rates, provenance."""

import numpy as np
import pytest

from repro.streaming import (
    ChaosSchedule,
    FaultConfig,
    FaultInjector,
    InjectedFault,
    ProcessFault,
)


def _records(n=500, features=1, seed=9):
    rng = np.random.default_rng(seed)
    return rng.random((n, features))


class TestFaultConfig:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(drop_rate=1.0)
        with pytest.raises(ValueError):
            FaultConfig(nan_cell_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(outlier_scale=0.0)

    def test_at_level_scales_rates(self):
        cfg = FaultConfig.at_level(0.1)
        assert cfg.nan_cell_rate == pytest.approx(0.1)
        assert cfg.drop_rate == pytest.approx(0.05)
        assert cfg.duplicate_rate == pytest.approx(0.025)
        zero = FaultConfig.at_level(0.0)
        assert zero.drop_rate == 0.0 and zero.nan_cell_rate == 0.0


class TestFaultInjector:
    def test_zero_config_is_identity(self):
        records = _records(100)
        inj = FaultInjector(FaultConfig(seed=1))
        out = np.asarray(list(inj.stream(records)))
        np.testing.assert_array_equal(out, records)
        assert inj.emitted_from == list(range(100))
        assert all(v == 0 for v in inj.counts.values())

    def test_deterministic_given_seed(self):
        records = _records(400)
        cfg = FaultConfig.at_level(0.1, seed=42)
        a = [np.array(r, copy=True) for r in FaultInjector(cfg).stream(records)]
        b = [np.array(r, copy=True) for r in FaultInjector(cfg).stream(records)]
        assert len(a) == len(b)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_stream_faults_independent_of_refit_draws(self):
        """Interleaving refit_fault() calls must not change which records are
        corrupted — checkpoint-equivalence tests rely on this."""
        records = _records(300)
        cfg = FaultConfig.at_level(0.1, refit_failure_rate=0.5, seed=3)

        plain = FaultInjector(cfg)
        a = [np.array(r, copy=True) for r in plain.stream(records)]

        noisy = FaultInjector(cfg)
        out = []
        for i, rec in enumerate(noisy.stream(records)):
            out.append(np.array(rec, copy=True))
            if i % 7 == 0:
                try:
                    noisy.refit_fault()
                except InjectedFault:
                    pass
        assert len(a) == len(out)
        for x, y in zip(a, out):
            np.testing.assert_array_equal(x, y)
        assert plain.emitted_from == noisy.emitted_from

    def test_counts_and_provenance(self):
        records = _records(2000)
        inj = FaultInjector(FaultConfig.at_level(0.1, seed=11))
        emitted = list(inj.stream(records))
        assert len(emitted) == len(inj.emitted_from)
        # drops shrink, duplicates grow; net length reflects both
        assert len(emitted) == 2000 - inj.counts["dropped"] + inj.counts["duplicated"]
        # provenance indices are valid and non-decreasing
        src = inj.emitted_from
        assert all(0 <= i < 2000 for i in src)
        assert all(b >= a for a, b in zip(src, src[1:]))
        # every advertised fault class fired at a plausible rate
        assert 50 < inj.counts["dropped"] < 200       # rate 0.05
        assert 100 < inj.counts["nan_cells"] < 300    # rate 0.1 on survivors
        assert inj.counts["duplicated"] > 10          # rate 0.025
        assert inj.counts["outlier_records"] > 10     # rate 0.05

    def test_duplicates_share_source_index(self):
        inj = FaultInjector(FaultConfig(duplicate_rate=0.2, seed=5))
        list(inj.stream(_records(500)))
        src = inj.emitted_from
        assert inj.counts["duplicated"] > 0
        repeats = sum(1 for a, b in zip(src, src[1:]) if a == b)
        assert repeats == inj.counts["duplicated"]

    def test_outliers_are_scaled_spikes(self):
        records = np.full((500, 1), 0.5)
        inj = FaultInjector(FaultConfig(outlier_rate=0.1, outlier_scale=4.0, seed=8))
        out = np.asarray(list(inj.stream(records)))
        spiked = np.abs(out - 0.5) > 1e-12
        assert spiked.sum() == inj.counts["outlier_records"]
        assert spiked.sum() > 10

    def test_refit_fault_raises_at_rate(self):
        inj = FaultInjector(FaultConfig(refit_failure_rate=0.5, seed=2))
        raised = 0
        for _ in range(400):
            try:
                inj.refit_fault()
            except InjectedFault:
                raised += 1
        assert raised == inj.counts["refit_faults"]
        assert 140 < raised < 260


class TestProcessFault:
    def test_validation(self):
        ProcessFault(tick=0, shard=0, kind="kill")  # minimal valid
        with pytest.raises(ValueError, match="tick"):
            ProcessFault(tick=-1)
        with pytest.raises(ValueError, match="shard"):
            ProcessFault(tick=0, shard=-1)
        with pytest.raises(ValueError, match="kind"):
            ProcessFault(tick=0, kind="explode")
        with pytest.raises(ValueError, match="duration"):
            ProcessFault(tick=0, kind="slow", duration=0.0)


class TestChaosSchedule:
    def test_sorted_and_sliced_per_shard(self):
        sched = ChaosSchedule([
            ProcessFault(tick=9, shard=1, kind="hang"),
            ProcessFault(tick=3, shard=0, kind="kill"),
            ProcessFault(tick=9, shard=0, kind="slow"),
        ])
        assert [(f.tick, f.shard) for f in sched.faults] == [(3, 0), (9, 0), (9, 1)]
        assert len(sched) == 3
        assert sched.max_shard() == 1
        shard0 = sched.for_shard(0)
        assert set(shard0) == {3, 9} and shard0[3].kind == "kill"
        assert sched.for_shard(1)[9].kind == "hang"
        assert sched.for_shard(2) == {}

    def test_duplicate_tick_shard_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ChaosSchedule([
                ProcessFault(tick=4, shard=0, kind="kill"),
                ProcessFault(tick=4, shard=0, kind="hang"),
            ])
        # same tick on different shards is fine
        ChaosSchedule([
            ProcessFault(tick=4, shard=0, kind="kill"),
            ProcessFault(tick=4, shard=1, kind="hang"),
        ])

    def test_kill_at_and_crash_loop(self):
        one = ChaosSchedule.kill_at(12, shard=1)
        assert len(one) == 1 and one.faults[0] == ProcessFault(12, 1, "kill")
        loop = ChaosSchedule.crash_loop(0, start=5, until=8)
        assert [f.tick for f in loop.faults] == [5, 6, 7]
        assert all(f.kind == "kill" and f.shard == 0 for f in loop.faults)
        assert loop.max_shard() == 0
        assert ChaosSchedule([]).max_shard() == -1
        with pytest.raises(ValueError, match="empty crash window"):
            ChaosSchedule.crash_loop(0, start=8, until=8)
