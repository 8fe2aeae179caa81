"""Hypothesis property tests on best-fit-decreasing ClusterState packing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import replay_packing

request_lists = st.lists(
    st.floats(0.05, 1.0, allow_nan=False, width=64), min_size=1, max_size=40
)


def pack(requests):
    """Place jobs by their requests in decreasing order; no usage replayed."""
    footprints = np.array(requests)
    state, _ = replay_packing(footprints, np.zeros((1, len(footprints))))
    return state


class TestPackingProperties:
    @given(request_lists)
    @settings(max_examples=80, deadline=None)
    def test_every_job_assigned_exactly_once(self, requests):
        state = pack(requests)
        assert state.active.all()
        assert (state.placement >= 0).all()
        assert state.jobs_on.sum() == len(requests)
        state.check_invariants()

    @given(request_lists)
    @settings(max_examples=80, deadline=None)
    def test_no_machine_overcommitted_on_requests(self, requests):
        state = pack(requests)
        # one machine per job: an empty machine always fits, nothing is forced
        assert state.n_forced_placements == 0
        assert (state.reserved <= state.capacity + 1e-9).all()

    @given(request_lists)
    @settings(max_examples=80, deadline=None)
    def test_machine_count_bounds(self, requests):
        """Packing uses at least ceil(sum) machines and at most n machines."""
        n_machines = int(pack(requests).powered_on.sum())
        lower = int(np.ceil(sum(requests) - 1e-9))
        assert max(1, lower) <= n_machines <= len(requests)

    @given(request_lists)
    @settings(max_examples=40, deadline=None)
    def test_machines_numbered_densely(self, requests):
        on = np.flatnonzero(pack(requests).powered_on)
        np.testing.assert_array_equal(on, np.arange(len(on)))

    @given(request_lists)
    @settings(max_examples=40, deadline=None)
    def test_ffd_no_worse_than_one_job_per_machine(self, requests):
        assert int(pack(requests).powered_on.sum()) <= len(requests)
