"""Job model and the open-loop packing replay on the cluster policy ladder.

A job's footprint is what a cluster autoscaling policy would reserve for
it: the request, a probe-based usage prediction plus margin, or the true
lifetime peak plus margin. :func:`replay_packing` places the batch best-fit
decreasing in a :class:`~repro.cluster.state.ClusterState` and replays
the jobs' actual usage on the placement.
"""

import numpy as np
import pytest

from repro.cluster import Job, JobGenerator, PolicyInputs, make_policy, replay_packing


def make_job(jid="j", request=0.5, usage=None, duration=20):
    usage = usage if usage is not None else np.full(duration, 0.2)
    return Job(job_id=jid, request=request, usage=usage)


def job_inputs(jobs, probe_len=60, point=None):
    """Size a job batch once: probe q95 as forecast, peak as truth."""
    usage = [job.usage for job in jobs]
    n = len(jobs)
    if point is None:
        point = [np.quantile(u[:probe_len], 0.95) for u in usage]
    return PolicyInputs(
        last_observed=np.array([u[min(probe_len, len(u)) - 1] for u in usage]),
        point=np.asarray(point, float),
        headroom_q=np.zeros(n),
        truth_next=np.array([job.peak_usage for job in jobs]),
        request=np.array([job.request for job in jobs]),
        active=np.ones(n, dtype=bool),
        throttled=np.zeros(n, dtype=bool),
    )


def footprint(name, job, point=None, probe_len=60, **kwargs):
    obs = job_inputs([job], probe_len=probe_len, point=point)
    return float(make_policy(name, **kwargs).reservations(obs)[0])


def machines_used(footprints, capacity=1.0):
    footprints = np.asarray(footprints, float)
    state, _ = replay_packing(footprints, np.zeros((1, len(footprints))), capacity)
    return int(state.powered_on.sum())


def pack(name, jobs, margin):
    """Machines used and replay statistics of one policy's packing."""
    footprints = make_policy(name, headroom=margin).reservations(job_inputs(jobs))
    usage = np.stack([job.usage for job in jobs], axis=1)
    state, stats = replay_packing(footprints, usage)
    return int(state.powered_on.sum()), stats


class TestJob:
    def test_properties(self):
        j = make_job(usage=np.array([0.1, 0.3, 0.2]))
        assert j.duration == 3
        assert j.peak_usage == pytest.approx(0.3)
        assert j.mean_usage == pytest.approx(0.2)
        assert j.slack == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_job(request=0.0)
        with pytest.raises(ValueError):
            make_job(request=1.5)
        with pytest.raises(ValueError):
            Job("j", 0.5, np.array([]))
        with pytest.raises(ValueError):
            Job("j", 0.5, np.array([-0.1, 0.2]))


class TestJobGenerator:
    def test_generates_requested_count(self):
        jobs = JobGenerator(duration=100, seed=1).generate(25)
        assert len(jobs) == 25
        assert all(j.duration == 100 for j in jobs)

    def test_requests_inflate_peaks(self):
        jobs = JobGenerator(duration=200, seed=2,
                            request_inflation=(1.5, 1.5)).generate(30)
        for j in jobs:
            assert j.request >= min(1.0, j.peak_usage * 1.5) - 1e-9

    def test_slack_exists(self):
        """The Alibaba gap: mean usage well below request."""
        jobs = JobGenerator(duration=300, seed=3).generate(40)
        assert np.mean([j.slack for j in jobs]) > 0.02

    def test_deterministic(self):
        a = JobGenerator(duration=50, seed=4).generate(5)
        b = JobGenerator(duration=50, seed=4).generate(5)
        for ja, jb in zip(a, b):
            np.testing.assert_array_equal(ja.usage, jb.usage)
            assert ja.request == jb.request

    def test_validation(self):
        with pytest.raises(ValueError):
            JobGenerator(mix={"bogus": 1.0})
        with pytest.raises(ValueError):
            JobGenerator(mix={})


class TestPlacement:
    def test_first_fit_decreasing_packs_tightly(self):
        # footprints 0.6, 0.4, 0.4, 0.3, 0.3 pack into 2 unit machines
        assert machines_used([0.4, 0.6, 0.3, 0.4, 0.3]) == 2

    def test_respects_capacity(self):
        # 0.6 + 0.6 > 1: every job gets its own machine
        assert machines_used([0.6] * 4) == 4

    def test_custom_capacity(self):
        assert machines_used([0.6] * 4, capacity=2.0) == 2

    def test_oversized_footprint_clamped(self):
        """A forecast above the request is charged the request."""
        jobs = [make_job("a"), make_job("b")]
        footprints = make_policy("predictive").reservations(
            job_inputs(jobs, point=[5.0, 5.0])
        )
        np.testing.assert_allclose(footprints, 0.5)
        assert machines_used(footprints) == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            machines_used([0.5], capacity=0.0)


class TestFootprints:
    def test_request_scheduler_charges_request(self):
        assert footprint("request", make_job(request=0.7)) == 0.7

    def test_oracle_charges_peak_plus_margin(self):
        j = make_job(usage=np.array([0.1, 0.4, 0.2]))
        assert footprint("oracle", j, headroom=0.1) == pytest.approx(0.5)

    def test_predictive_uses_probe_quantile(self):
        usage = np.concatenate([np.full(50, 0.2), np.full(50, 0.8)])
        j = Job("j", 1.0, usage)
        # probe only sees the low phase
        fp = footprint("predictive", j, probe_len=50, headroom=0.0)
        assert fp == pytest.approx(0.2, abs=0.01)

    def test_predictive_custom_fn(self):
        fp = footprint("predictive", make_job(), point=[0.42], headroom=0.0)
        assert fp == pytest.approx(0.42)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_policy("predictive", headroom=-0.1)
        with pytest.raises(ValueError):
            make_policy("oracle", headroom=-1.0)


class TestSimulation:
    @pytest.fixture(scope="class")
    def jobs(self):
        return JobGenerator(duration=300, seed=7,
                            usage_scale=(0.1, 0.4)).generate(40)

    def test_request_packing_never_overloads(self, jobs):
        _, stats = pack("request", jobs, margin=0.0)
        assert stats.rate == 0.0

    def test_consolidation_ordering(self, jobs):
        """oracle <= predictive <= request in machine count."""
        request, _ = pack("request", jobs, margin=0.0)
        predictive, _ = pack("predictive", jobs, margin=0.05)
        oracle, _ = pack("oracle", jobs, margin=0.05)
        assert oracle <= request
        assert predictive <= request

    def test_predictive_utilization_higher(self, jobs):
        _, request = pack("request", jobs, margin=0.0)
        _, predictive = pack("predictive", jobs, margin=0.05)
        assert predictive.mean_served > request.mean_served

    def test_overload_bounded_with_margin(self, jobs):
        _, predictive = pack("predictive", jobs, margin=0.1)
        assert predictive.rate < 0.2

    def test_replay_validation(self):
        with pytest.raises(ValueError):
            replay_packing(np.array([]), np.zeros((10, 0)))
        with pytest.raises(ValueError, match="usage"):
            replay_packing(np.array([0.5, 0.5]), np.zeros((10, 3)))
