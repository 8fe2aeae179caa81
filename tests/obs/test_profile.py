"""Profiling hooks: call counting, latency sampling, error tracking."""

import pytest

from repro.obs import registry as reg_mod
from repro.obs.profile import profiled
from repro.obs.registry import use_registry


def _series(reg, name, function):
    for s in reg.collect():
        if s["name"] == name and ("function", function) in s["labels"]:
            return s
    return None


class TestProfiled:
    def test_counts_calls_and_records_latency(self):
        with use_registry() as reg:

            @profiled(name="work")
            def work(x):
                return x * 2

            for i in range(5):
                assert work(i) == 2 * i
            calls = _series(reg, "profiled_calls_total", "work")
            lat = _series(reg, "profiled_seconds", "work")
            assert calls["value"] == 5.0
            assert lat["count"] == 5
            assert lat["sum"] >= 0.0

    def test_default_name_is_qualname(self):
        with use_registry() as reg:

            @profiled
            def bare():
                pass

            bare()
            calls = next(s for s in reg.collect() if s["name"] == "profiled_calls_total")
            assert ("function", "TestProfiled.test_default_name_is_qualname.<locals>.bare") in (
                calls["labels"]
            )

    def test_sampling_times_every_kth_call(self):
        with use_registry() as reg:

            @profiled(name="hot", sample=3)
            def hot():
                pass

            for _ in range(9):
                hot()
            assert _series(reg, "profiled_calls_total", "hot")["value"] == 9.0
            assert _series(reg, "profiled_seconds", "hot")["count"] == 3

    def test_sample_validated(self):
        with pytest.raises(ValueError, match="sample"):
            profiled(name="x", sample=0)

    def test_errors_counted_and_reraised(self):
        with use_registry() as reg:

            @profiled(name="flaky")
            def flaky():
                raise KeyError("nope")

            with pytest.raises(KeyError):
                flaky()
            assert _series(reg, "profiled_errors_total", "flaky")["value"] == 1.0
            assert _series(reg, "profiled_seconds", "flaky")["count"] == 1

    def test_disabled_short_circuits(self):
        with use_registry() as reg:

            @profiled(name="quiet")
            def quiet():
                return "ok"

            reg_mod.set_enabled(False)
            try:
                assert quiet() == "ok"
            finally:
                reg_mod.set_enabled(True)
            assert reg.collect() == []

    def test_explicit_registry_pinned(self):
        from repro.obs.registry import MetricRegistry

        pinned = MetricRegistry()

        @profiled(name="pinned", registry=pinned)
        def fn():
            pass

        with use_registry() as ambient:
            fn()
            assert ambient.collect() == []
        assert _series(pinned, "profiled_calls_total", "pinned")["value"] == 1.0

