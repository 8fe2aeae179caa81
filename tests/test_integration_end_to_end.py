"""Cross-module integration: the whole system on one synthetic cluster.

Generate → corrupt → persist → reload → clean → screen → expand →
window → train → predict → allocate → schedule → serve online. Exercises
every subpackage against the same data, the way a downstream user would.
"""

import numpy as np
import pytest

from repro.cluster import (
    JobGenerator,
    PolicyInputs,
    excess_stats,
    make_policy,
    replay_packing,
)
from repro.data import PipelineConfig, PredictionPipeline
from repro.models import create_forecaster
from repro.streaming import OnlinePredictor
from repro.traces import (
    ClusterTraceGenerator,
    CorruptionConfig,
    TraceConfig,
    corrupt_trace,
    read_trace_csv,
    write_trace_csv,
)


@pytest.fixture(scope="module")
def cluster():
    return ClusterTraceGenerator(
        TraceConfig(n_machines=2, containers_per_machine=2, n_steps=700, seed=99)
    ).generate()


class TestFullStory:
    def test_persist_corrupt_reload_predict(self, cluster, tmp_path_factory):
        """The complete data lifecycle ends in a working forecaster."""
        tmp = tmp_path_factory.mktemp("trace")
        dirty = corrupt_trace(cluster, CorruptionConfig(seed=5))
        write_trace_csv(dirty, tmp)
        reloaded = read_trace_csv(tmp)
        entity = reloaded.containers[0]

        pipe = PredictionPipeline(PipelineConfig(scenario="mul_exp", window=10))
        result = pipe.run(entity, "xgboost", {"n_estimators": 40})
        assert result.metrics["mse"] < 0.15
        assert result.pipeline.cleaning_report.n_dropped_incomplete > 0

    def test_forecast_feeds_allocation(self, cluster):
        """Pipeline output plugs directly into the autoscaling policies."""
        entity = cluster.containers[0]
        pipe = PredictionPipeline(PipelineConfig(scenario="uni", window=10))
        prepared = pipe.prepare(entity)
        xt, yt = prepared.dataset.train
        xe, ye = prepared.dataset.test

        f = create_forecaster("xgboost", n_estimators=40,
                              target_col=prepared.target_col)
        f.fit(xt, yt)

        # replay in capacity units: the container's CPU % over 100
        def capacity(values):
            return prepared.denormalize_target(values) / 100.0

        n = len(ye)
        truth = capacity(ye[:, 0])
        obs = PolicyInputs(
            last_observed=capacity(xe[:, -1, prepared.target_col]),
            point=capacity(f.predict(xe)[:, 0]),
            headroom_q=np.zeros(n),
            truth_next=truth,
            request=np.ones(n),
            active=np.ones(n, dtype=bool),
            throttled=np.zeros(n, dtype=bool),
        )
        predictive = excess_stats(
            truth, make_policy("predictive", headroom=0.1).reservations(obs)
        )
        static = excess_stats(truth, make_policy("request").reservations(obs))
        assert predictive.mean_slack < static.mean_slack
        assert predictive.n_samples == len(ye)

    def test_same_archetypes_drive_scheduling(self):
        """The workload archetypes power the job generator consistently."""
        jobs = JobGenerator(duration=400, seed=7).generate(30)
        usage = np.stack([job.usage for job in jobs], axis=1)
        n = len(jobs)
        obs = PolicyInputs(
            last_observed=usage[49],
            point=np.quantile(usage[:50], 0.95, axis=0),
            headroom_q=np.zeros(n),
            truth_next=usage.max(axis=0),
            request=np.array([job.request for job in jobs]),
            active=np.ones(n, dtype=bool),
            throttled=np.zeros(n, dtype=bool),
        )
        packed = {}
        for name in ("request", "predictive"):
            footprints = make_policy(name, headroom=0.08).reservations(obs)
            state, stats = replay_packing(footprints, usage)
            packed[name] = (int(state.powered_on.sum()), stats)
        assert packed["predictive"][0] <= packed["request"][0]
        assert packed["request"][1].rate == 0.0

    def test_trace_stream_serves_online(self, cluster):
        """A raw entity stream runs through the online predictor."""
        entity = cluster.containers[1]
        stream = entity.cpu / 100.0
        predictor = OnlinePredictor(
            "holt", window=10, buffer_capacity=300, refit_interval=100, min_fit_size=50
        )
        results = predictor.run(stream)
        assert predictor.stats.n_predictions > 0.8 * len(results) - 60
        assert np.isfinite(predictor.stats.mae)
        assert predictor.stats.n_refits >= 1

    def test_registry_covers_paper_table(self):
        """Every model of the paper's Table II is constructible by name."""
        for name in ("arima", "lstm", "cnn_lstm", "xgboost", "rptcn"):
            f = create_forecaster(name)
            assert f.name == name
