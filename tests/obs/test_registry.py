"""Metric instrument and registry semantics: counters, gauges, histogram math."""

import math
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    log_buckets,
    use_registry,
)


class TestCounter:
    def test_monotonic(self):
        c = Counter("events_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        c = Counter("events_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_restore(self):
        c = Counter("events_total")
        c.restore(42)
        assert c.value == 42
        with pytest.raises(ValueError):
            c.restore(-1)

    def test_labels_frozen_and_sorted(self):
        c = Counter("events_total", labels={"b": 2, "a": "x"})
        assert c.labels == (("a", "x"), ("b", "2"))


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("level")
        g.set(5.0)
        g.inc(2.0)
        g.dec()
        assert g.value == 6.0

    def test_callback_wins(self):
        g = Gauge("level", callback=lambda: 17.0)
        g.set(1.0)
        assert g.value == 17.0


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _bounds_and_value(draw):
    """Strictly increasing finite bounds and a finite value to bucket."""
    bounds = sorted(draw(st.lists(_FINITE, min_size=1, max_size=30, unique=True)))
    value = draw(st.one_of(
        st.sampled_from(bounds),  # on a bound
        st.floats(max_value=bounds[0], allow_nan=False, allow_infinity=False),  # below the first
        st.floats(min_value=bounds[-1], allow_nan=False, allow_infinity=False),  # above the last
        _FINITE,
    ))
    return tuple(bounds), value


class TestHistogramBuckets:
    def test_log_buckets_span_and_order(self):
        bounds = log_buckets(1e-6, 100.0, per_decade=3)
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] == 100.0
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert len(bounds) == 25

    def test_log_buckets_validation(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1e-3, 1.0, per_decade=0)

    def test_observations_land_in_correct_buckets(self):
        h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 50.0, 500.0):
            h.observe(v)
        # cumulative counts: <=1 -> 2 (0.5 and the boundary 1.0), <=10 -> 3, <=100 -> 4, inf -> 5
        assert h.bucket_counts() == [(1.0, 2), (10.0, 3), (100.0, 4), (math.inf, 5)]
        assert h.count == 5
        assert h.sum == pytest.approx(556.5)

    @settings(max_examples=300, deadline=None)
    @given(case=_bounds_and_value())
    @example(case=((1.0, 10.0), 10.0))
    @example(case=((1.0, 10.0), -5.0))
    @example(case=((1.0, 10.0), 50.0))
    def test_bucket_matches_the_reference_bisect(self, case):
        bounds, value = case
        # the hand-written loop observe() ran before it called bisect_left
        lo, hi = 0, len(bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        h = Histogram("lat", buckets=bounds)
        h.observe(value)
        cumulative = [n for _, n in h.bucket_counts()]
        assert cumulative.index(1) == lo

    def test_empty_histogram(self):
        h = Histogram("lat")
        assert h.count == 0
        assert math.isnan(h.quantile(0.5))
        assert math.isnan(h.mean)
        assert math.isnan(h.minimum) and math.isnan(h.maximum)

    def test_single_sample_quantiles_exact(self):
        h = Histogram("lat")
        h.observe(0.0123)
        # clamping into [min, max] makes every quantile the sample itself
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.0123)

    def test_nan_and_inf_rejected_without_side_effects(self):
        h = Histogram("lat")
        h.observe(1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                h.observe(bad)
        assert h.count == 1
        assert h.sum == 1.0

    def test_quantile_range_validated(self):
        h = Histogram("lat")
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantiles_monotone_and_bounded(self):
        h = Histogram("lat")
        values = [10 ** (i / 50 - 4) for i in range(300)]
        for v in values:
            h.observe(v)
        qs = [h.quantile(q / 10) for q in range(11)]
        assert all(a <= b + 1e-12 for a, b in zip(qs, qs[1:]))
        assert min(values) <= qs[0] and qs[-1] <= max(values)
        # the p50 estimate should be within one bucket of the true median
        true_median = sorted(values)[len(values) // 2]
        assert h.quantile(0.5) == pytest.approx(true_median, rel=1.5)

    def test_overflow_bucket_and_max(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        h.observe(1000.0)
        assert h.quantile(0.99) == 1000.0
        assert h.bucket_counts()[-1] == (math.inf, 1)

    def test_restore_roundtrip(self):
        h = Histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        clone = Histogram("lat", buckets=(1.0, 10.0))
        clone.restore([1, 1, 1], h.sum, h.minimum, h.maximum)
        assert clone.count == 3
        assert clone.quantile(0.5) == h.quantile(0.5)
        with pytest.raises(ValueError, match="buckets"):
            clone.restore([1, 2], 0.0, 0.0, 0.0)

    def test_bad_bucket_bounds_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("lat", buckets=(1.0, 1.0, 2.0))


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricRegistry()
        a = reg.counter("hits_total", labels={"k": "v"})
        b = reg.counter("hits_total", labels={"k": "v"})
        c = reg.counter("hits_total", labels={"k": "other"})
        assert a is b and a is not c

    def test_kind_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("thing")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("thing")

    def test_registered_instruments_merge_by_key(self):
        reg = MetricRegistry()
        a = Counter("gate_total", labels={"action": "drop"})
        b = Counter("gate_total", labels={"action": "drop"})
        reg.register(a)
        reg.register(b)
        a.inc(3)
        b.inc(4)
        (series,) = reg.collect()
        assert series["value"] == 7.0

    def test_registered_counts_survive_owner_death(self):
        reg = MetricRegistry()

        def scoped():
            c = Counter("gone_total")
            reg.register(c)
            c.inc(9)

        scoped()
        (series,) = reg.collect()
        assert series["value"] == 9.0

    def test_histogram_merge_recomputes_quantiles(self):
        reg = MetricRegistry()
        a = Histogram("lat", buckets=(1.0, 10.0))
        b = Histogram("lat", buckets=(1.0, 10.0))
        reg.register(a)
        reg.register(b)
        a.observe(0.5)
        b.observe(5.0)
        b.observe(7.0)
        (series,) = reg.collect()
        assert series["count"] == 3
        assert series["min"] == 0.5 and series["max"] == 7.0
        assert 0.5 <= series["quantiles"]["p50"] <= 10.0

    def test_collector_runs_before_collect(self):
        reg = MetricRegistry()
        reg.add_collector(lambda: reg.gauge("lazy").set(99.0), name="lazy")
        snap = reg.snapshot()
        assert snap["series"][0]["name"] == "lazy"
        assert snap["series"][0]["value"] == 99.0

    def test_snapshot_is_plain_data(self):
        import json

        reg = MetricRegistry()
        reg.counter("a_total").inc()
        reg.histogram("h").observe(0.5)
        snap = reg.snapshot()
        assert snap["schema"] == "repro-obs/v1"
        json.dumps(snap)  # JSON-serializable end to end

    def test_clear(self):
        reg = MetricRegistry()
        reg.counter("x").inc()
        reg.clear()
        assert reg.collect() == []

    def test_thread_safety_smoke(self):
        reg = MetricRegistry()
        c = reg.counter("contended_total")

        def work():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000

    def test_use_registry_swaps_default(self):
        from repro.obs.registry import default_registry

        before = default_registry()
        with use_registry() as reg:
            assert default_registry() is reg
            assert reg is not before
        assert default_registry() is before
