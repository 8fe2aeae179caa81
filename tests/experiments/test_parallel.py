"""Parallel executor: determinism, failure isolation, obs merging.

The contract under test is the one the runner relies on: ``jobs`` is an
implementation detail — same results, same error reporting, same merged
observability — and a crashed task never takes down its siblings.
"""

import numpy as np
import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    TaskSpec,
    derive_seed,
    run_tasks,
    shutdown_pools,
    warm_pool,
)
from repro.obs import registry as obs_registry
from repro.obs import trace as obs_trace
from repro.obs.registry import MetricRegistry
from repro.obs.trace import Span

TOYS = "tests.experiments._paralleltasks"


def toy_specs(n=4, fn="square"):
    return [
        TaskSpec(
            experiment="toy",
            key=(i,),
            fn=f"{TOYS}.{fn}",
            params={"x": i},
        )
        for i in range(n)
    ]


class TestDeriveSeed:
    def test_deterministic_across_calls(self):
        assert derive_seed(2021, "table2", "uni") == derive_seed(2021, "table2", "uni")

    def test_sensitive_to_every_part(self):
        base = derive_seed(2021, "table2", "uni", "lstm")
        assert base != derive_seed(2022, "table2", "uni", "lstm")
        assert base != derive_seed(2021, "robustness", "uni", "lstm")
        assert base != derive_seed(2021, "table2", "uni", "rptcn")

    def test_fits_numpy_seed_space(self):
        for i in range(50):
            s = derive_seed(0, "k", i)
            assert 0 <= s < 2**32
        # usable directly
        np.random.default_rng(derive_seed(7, "x"))

    def test_reasonably_spread(self):
        seeds = {derive_seed(0, i) for i in range(200)}
        assert len(seeds) == 200


class TestRunTasks:
    def test_inline_matches_pool(self):
        serial = run_tasks(toy_specs(), jobs=1, registry=MetricRegistry())
        pooled = run_tasks(toy_specs(), jobs=2, registry=MetricRegistry())
        assert [t.value for t in serial] == [t.value for t in pooled]
        assert [t.spec.name for t in serial] == [t.spec.name for t in pooled]
        assert all(t.ok for t in serial)

    def test_results_in_task_order(self):
        results = run_tasks(toy_specs(8), jobs=3, registry=MetricRegistry())
        assert [t.value["x"] for t in results] == list(range(8))

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            run_tasks(toy_specs(), jobs=0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_is_isolated(self, jobs):
        specs = toy_specs(4)
        specs[1] = TaskSpec(experiment="toy", key=(1,), fn=f"{TOYS}.boom",
                            params={"x": 1})
        results = run_tasks(specs, jobs=jobs, registry=MetricRegistry())
        assert [t.ok for t in results] == [True, False, True, True]
        assert "exploded" in results[1].error
        assert "ValueError" in results[1].error
        assert results[1].traceback and "boom" in results[1].traceback
        assert results[1].value is None

    def test_outcome_counters(self):
        reg = MetricRegistry()
        specs = toy_specs(3)
        specs[0] = TaskSpec(experiment="toy", key=(0,), fn=f"{TOYS}.boom",
                            params={"x": 0})
        run_tasks(specs, jobs=1, registry=reg)
        by_status = {
            s["labels"]["status"]: s["value"]
            for s in reg.snapshot()["series"]
            if s["name"] == "experiment_tasks_total"
        }
        assert by_status == {"ok": 2.0, "error": 1.0}


class TestPersistentPool:
    """The pool survives across run_tasks calls and recovers when broken."""

    def test_workers_reused_across_calls(self):
        shutdown_pools()
        first = run_tasks(toy_specs(6, fn="worker_pid"), jobs=2, registry=MetricRegistry())
        second = run_tasks(toy_specs(6, fn="worker_pid"), jobs=2, registry=MetricRegistry())
        pids_first = {t.value for t in first}
        pids_second = {t.value for t in second}
        # no new workers spawn for the second sweep: same process pool
        assert pids_second <= pids_first
        shutdown_pools()
        third = run_tasks(toy_specs(6, fn="worker_pid"), jobs=2, registry=MetricRegistry())
        assert {t.value for t in third}.isdisjoint(pids_first)

    def test_warm_pool_prespawns_workers(self):
        shutdown_pools()
        pids = warm_pool(2)
        assert pids, "warm_pool spawned no workers"
        results = run_tasks(toy_specs(4, fn="worker_pid"), jobs=2, registry=MetricRegistry())
        assert {t.value for t in results} <= set(pids)

    def test_warm_pool_noop_inline(self):
        assert warm_pool(1) == []

    def test_multi_item_chunks_keep_order_and_isolation(self):
        specs = toy_specs(20)
        specs[7] = TaskSpec(experiment="toy", key=(7,), fn=f"{TOYS}.boom", params={"x": 7})
        results = run_tasks(specs, jobs=2, registry=MetricRegistry())
        assert [t.ok for t in results] == [i != 7 for i in range(20)]
        assert [t.value["x"] for t in results if t.ok] == [i for i in range(20) if i != 7]

    def test_broken_pool_fails_inflight_and_recovers(self):
        shutdown_pools()
        killed = run_tasks(toy_specs(3, fn="die"), jobs=2, registry=MetricRegistry())
        assert all(not t.ok for t in killed)
        assert any("BrokenProcessPool" in (t.error or "") for t in killed)
        # the dead pool was disposed: the next sweep runs on a fresh one
        healthy = run_tasks(toy_specs(3), jobs=2, registry=MetricRegistry())
        assert [t.value["value"] for t in healthy] == [0, 1, 4]


class TestObsMerging:
    def test_worker_metrics_adopted_by_parent(self):
        reg = MetricRegistry()
        old = obs_registry.get_registry()
        obs_registry.set_default_registry(reg)
        try:
            run_tasks(toy_specs(3, fn="instrumented"), jobs=2, registry=reg)
        finally:
            obs_registry.set_default_registry(old)
        series = {
            (s["name"], s["labels"].get("kind")): s["value"]
            for s in reg.snapshot()["series"]
        }
        assert series[("paralleltest_work_total", "unit")] == 3.0

    def test_worker_spans_revived_on_parent_tracer(self):
        tracer = obs_trace.default_tracer()
        tracer.clear()
        run_tasks(toy_specs(2, fn="instrumented"), jobs=2, registry=MetricRegistry())
        names = [s.name for s in tracer.finished]
        assert names.count("task:toy/0") == 1
        assert names.count("task:toy/1") == 1

    def test_revive_span_preserves_tree(self):
        data = {
            "name": "task:x",
            "duration": 1.5,
            "status": "error",
            "error": "ValueError: nope",
            "counters": {"cells": 3},
            "children": [{"name": "inner", "duration": 0.5}],
        }
        span = Span.from_dict(data)
        assert span.name == "task:x"
        assert span.duration == pytest.approx(1.5)
        assert span.status == "error"
        assert [c.name for c in span.children] == ["inner"]
        assert span.counters["cells"] == 3


class TestCacheIntegration:
    def test_hits_skip_execution_entirely(self, tmp_path):
        """Second run must not re-execute: marker files prove it."""
        reg = MetricRegistry()
        cache = ResultCache(tmp_path / "cache", registry=reg)
        markers = tmp_path / "markers"
        markers.mkdir()
        specs = [
            TaskSpec(experiment="toy", key=(i,), fn=f"{TOYS}.touch_and_square",
                     params={"marker_dir": str(markers), "x": i})
            for i in range(3)
        ]
        first = run_tasks(specs, jobs=1, cache=cache, registry=reg)
        assert len(list(markers.glob("*.marker"))) == 3
        for m in markers.glob("*.marker"):
            m.unlink()

        second = run_tasks(specs, jobs=1, cache=cache, registry=reg)
        assert list(markers.glob("*.marker")) == []  # nothing re-ran
        assert [t.value for t in first] == [t.value for t in second]
        assert all(t.cached for t in second)
        assert cache.hits == 3 and cache.stores == 3
        by_status = {
            s["labels"]["status"]: s["value"]
            for s in reg.snapshot()["series"]
            if s["name"] == "experiment_tasks_total"
        }
        assert by_status["cached"] == 3.0

    def test_failed_tasks_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path, registry=MetricRegistry())
        specs = [TaskSpec(experiment="toy", key=(0,), fn=f"{TOYS}.boom",
                          params={"x": 0})]
        run_tasks(specs, jobs=1, cache=cache, registry=MetricRegistry())
        assert len(cache) == 0
        # and the rerun re-executes (fails again) rather than hitting
        results = run_tasks(specs, jobs=1, cache=cache, registry=MetricRegistry())
        assert not results[0].ok and not results[0].cached

    def test_uncacheable_specs_bypass_cache(self, tmp_path):
        cache = ResultCache(tmp_path, registry=MetricRegistry())
        specs = toy_specs(2)
        for s in specs:
            s.cacheable = False
        run_tasks(specs, jobs=1, cache=cache, registry=MetricRegistry())
        assert len(cache) == 0 and cache.misses == 0


class TestTable2Parallelism:
    """End-to-end guarantees on the real Table II grid."""

    def test_jobs_1_equals_jobs_4_on_quick_profile(self):
        """--jobs must be invisible in the numbers: bit-identical metrics.

        Uses the quick profile restricted to the Mul-Exp scenario (8
        cells) to keep the double sweep affordable; every cell goes
        through the same task machinery as the full grid.
        """
        from repro.experiments.accuracy import run_table2

        serial = run_table2("quick", scenarios=("mul_exp",), jobs=1)
        pooled = run_table2("quick", scenarios=("mul_exp",), jobs=4)
        assert serial.errors == {} and pooled.errors == {}
        assert serial.metrics == pooled.metrics  # exact float equality
        assert serial.entity_ids == pooled.entity_ids

    def test_warm_cache_skips_every_cell(self, tmp_path):
        """A rerun with an unchanged world must hit for all cells."""
        from repro.experiments.accuracy import run_table2
        from repro.experiments.config import ExperimentProfile

        tiny = ExperimentProfile(name="tiny", n_steps=450, n_machines=2,
                                 containers_per_machine=1, n_entities=1,
                                 epochs=3, gbt_estimators=15)
        cache = ResultCache(tmp_path, registry=MetricRegistry())
        cold = run_table2(tiny, scenarios=("uni",), cache=cache)
        n_cells = len(cold.metrics)
        assert cache.stores == n_cells and cache.hits == 0

        warm = run_table2(tiny, scenarios=("uni",), cache=cache)
        assert cache.hits == n_cells  # every cell served from cache
        assert warm.metrics == cold.metrics
        assert warm.entity_ids == cold.entity_ids
