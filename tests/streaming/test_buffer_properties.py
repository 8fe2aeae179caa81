"""Hypothesis property tests on the ring buffers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import MatrixRingBuffer, RollingBuffer

from .ring_reference import apply_op, assert_ring_matches, fresh_references, ring_ops


class TestBufferProperties:
    @given(
        st.integers(1, 16),
        st.lists(st.floats(-100, 100, allow_nan=False, width=64), min_size=0, max_size=80),
    )
    @settings(max_examples=100, deadline=None)
    def test_view_equals_tail_of_stream(self, capacity, stream):
        """After any append sequence, view() is the last ``capacity`` items."""
        buf = RollingBuffer(capacity, 1)
        for v in stream:
            buf.append(np.array([v]))
        expected = np.asarray(stream[-capacity:], float)
        np.testing.assert_array_equal(buf.view()[:, 0], expected)

    @given(st.integers(1, 10), st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_size_never_exceeds_capacity(self, capacity, n):
        buf = RollingBuffer(capacity, 2)
        for i in range(n):
            buf.append(np.array([float(i), float(i)]))
        assert len(buf) == min(n, capacity)
        assert buf.full == (n >= capacity)

    @given(
        st.integers(2, 12),
        st.lists(st.floats(-10, 10, allow_nan=False, width=64), min_size=3, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_last_is_suffix_of_view(self, capacity, stream):
        buf = RollingBuffer(capacity, 1)
        for v in stream:
            buf.append(np.array([v]))
        n = min(2, len(buf))
        np.testing.assert_array_equal(buf.last(n), buf.view()[-n:])

    @given(
        st.integers(2, 12),
        st.lists(st.floats(-10, 10, allow_nan=False, width=64), min_size=1, max_size=40),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_last_into_matches_view_suffix_for_all_n(self, capacity, stream, data):
        """The no-copy tail fill agrees with view()[-n:] at every wrap state."""
        buf = RollingBuffer(capacity, 1)
        for v in stream:
            buf.append(np.array([v]))
        n = data.draw(st.integers(1, len(buf)))
        out = np.empty((n, 1))
        result = buf.last_into(out)
        assert result is out
        np.testing.assert_array_equal(out, buf.view()[-n:])

    @given(
        st.integers(1, 16),
        st.lists(
            st.lists(st.floats(-100, 100, allow_nan=False, width=64),
                     min_size=0, max_size=40),
            min_size=0,
            max_size=6,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_extend_equals_appending_each_row(self, capacity, chunks):
        """Vectorized extend == looping append, at every wrap/overflow state."""
        fast = RollingBuffer(capacity, 2)
        slow = RollingBuffer(capacity, 2)
        for chunk in chunks:
            rows = np.array([[v, -v] for v in chunk], float).reshape(len(chunk), 2)
            fast.extend(rows)
            for row in rows:
                slow.append(row)
            np.testing.assert_array_equal(fast.view(), slow.view())
            assert len(fast) == len(slow)
        # internal ring state must agree too, not just the view
        assert fast.state_dict()["head"] == slow.state_dict()["head"]


class TestMatrixRingBufferProperties:
    @given(
        st.integers(1, 5),
        st.integers(2, 10),
        st.lists(
            st.lists(st.booleans(), min_size=1, max_size=5),
            min_size=0,
            max_size=30,
        ),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_each_stream_matches_a_rolling_buffer(self, streams, capacity, masks, data):
        """A masked tick sequence == per-stream RollingBuffer appends."""
        fleet = MatrixRingBuffer(streams, capacity, 1, window=capacity)
        scalars = [RollingBuffer(capacity, 1) for _ in range(streams)]
        rng = np.random.default_rng(0)
        for tick_mask in masks:
            mask = np.resize(np.asarray(tick_mask, bool), streams)
            records = rng.normal(size=(streams, 1))
            fleet.append_tick(records, mask=mask)
            for i in range(streams):
                if mask[i]:
                    scalars[i].append(records[i])
        for i in range(streams):
            np.testing.assert_array_equal(fleet.view(i), scalars[i].view())
            assert int(fleet.sizes[i]) == len(scalars[i])
            if len(scalars[i]) >= 1:
                w = data.draw(st.integers(1, len(scalars[i])))
                np.testing.assert_array_equal(
                    fleet.last_windows(np.array([i]), w)[0], scalars[i].last(w)
                )


class TestPaddedRingProperties:
    """The wrap-padded ring == per-stream rolling buffers, at every step."""

    @given(st.integers(1, 5), st.integers(1, 10), st.integers(1, 3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_ticks_clears_and_roundtrips_match_rolling_buffers(
        self, streams, capacity, features, data
    ):
        window = data.draw(st.integers(1, capacity), label="window")
        ring = MatrixRingBuffer(streams, capacity, features, window=window)
        refs = fresh_references(streams, capacity, features)
        rng = np.random.default_rng(0)
        for op in data.draw(ring_ops(streams), label="ops"):
            refs = apply_op(ring, refs, op, rng)
            assert_ring_matches(ring, refs)

    @given(st.integers(1, 10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_checkpoint_loads_into_a_fresh_ring(self, capacity, data):
        """A logical state_dict restores into a new ring (different pad contents)."""
        window = data.draw(st.integers(1, capacity), label="window")
        ring = MatrixRingBuffer(3, capacity, 1, window=window)
        refs = fresh_references(3, capacity, 1)
        rng = np.random.default_rng(1)
        for op in data.draw(ring_ops(3), label="ops"):
            refs = apply_op(ring, refs, op, rng)
        clone = MatrixRingBuffer(3, capacity, 1, window=window)
        clone.append_tick(np.full((3, 1), -7.0))
        clone.load_state_dict(ring.state_dict())
        assert_ring_matches(clone, refs)

    def test_window_outside_capacity_rejected(self):
        with pytest.raises(ValueError, match="window"):
            MatrixRingBuffer(2, 4, 1, window=5)
        with pytest.raises(ValueError, match="window"):
            MatrixRingBuffer(2, 4, 1, window=0)
