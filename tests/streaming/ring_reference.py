"""Per-stream :class:`RollingBuffer` oracle for the fleet ring's property tests.

The wrap-padded :class:`~repro.streaming.buffer.MatrixRingBuffer` must
behave exactly like ``streams``
independent rolling buffers under any sequence of masked ticks,
``clear()`` calls and checkpoint round trips. :func:`ring_ops` draws
such sequences, :func:`apply_op` drives a ring and its references
through one step, and :func:`assert_ring_matches` checks every read
path plus the pad invariant.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.streaming import RollingBuffer

#: op codes drawn by :func:`ring_ops`; every other code is a masked tick
CLEAR, ROUNDTRIP = 0, 1


def ring_ops(streams: int, max_size: int = 60):
    """Sequences of ``(code, mask)``: ~5 % clears, ~5 % round trips, else ticks."""
    return st.lists(
        st.tuples(
            st.integers(0, 19),
            st.lists(st.booleans(), min_size=streams, max_size=streams),
        ),
        max_size=max_size,
    )


def fresh_references(streams: int, capacity: int, features: int) -> list[RollingBuffer]:
    return [RollingBuffer(capacity, features) for _ in range(streams)]


def roundtrip_in_place(ring) -> None:
    """``state_dict`` → scribble over every slot and the pad → ``load_state_dict``.

    The scribble stands in for whatever the ring held before the load:
    the restore must rebuild the pad, not trust it.
    """
    state = ring.state_dict()
    garbage = np.full((ring.streams, ring.features), 1e9)
    for _ in range(ring.capacity + ring.window):
        ring.append_tick(garbage)
    ring.load_state_dict(state)


def apply_op(ring, refs: list[RollingBuffer], op, rng) -> list[RollingBuffer]:
    """Apply one drawn op to ``ring`` and the references; returns the references."""
    code, mask = op
    if code == CLEAR:
        ring.clear()
        return fresh_references(ring.streams, ring.capacity, ring.features)
    if code == ROUNDTRIP:
        roundtrip_in_place(ring)
        return refs
    mask = np.asarray(mask, bool)
    records = rng.normal(size=(ring.streams, ring.features))
    ring.append_tick(records, mask=mask)
    for i in np.flatnonzero(mask):
        refs[i].append(records[i])
    return refs


def assert_ring_matches(ring, refs: list[RollingBuffer]) -> None:
    """Every read path of ``ring`` agrees with the per-stream references."""
    capacity, window, features = ring.capacity, ring.window, ring.features
    sizes = np.array([len(r) for r in refs])
    np.testing.assert_array_equal(ring.sizes, sizes)

    state = ring.state_dict()
    assert state["data"].shape == (ring.streams, capacity, features)
    filled = ring.filled_matrix()
    assert filled.shape == (ring.streams, capacity, features)
    for i, ref in enumerate(refs):
        want = ref.view()
        np.testing.assert_array_equal(ring.view(i), want)
        # filled_matrix is ring-ordered: rolled to the head it reads
        # never-written slots (NaN) first, then the history oldest first
        chrono = np.roll(filled[i], -int(state["head"][i]), axis=0)
        n = len(ref)
        assert np.isnan(chrono[: capacity - n]).all()
        np.testing.assert_array_equal(chrono[capacity - n :], want)

    for w in range(1, window + 1):
        idx = np.flatnonzero(sizes >= w)
        want = np.array([refs[i].last(w) for i in idx]).reshape(idx.size, w, features)
        np.testing.assert_array_equal(ring.last_windows(idx, w), want)
        out = np.full((idx.size, w, features), np.nan, dtype=np.float32)
        assert ring.last_windows(idx, w, out=out) is out
        np.testing.assert_array_equal(out, want.astype(np.float32))
    with pytest.raises(ValueError, match="window"):
        ring.last_windows(np.arange(ring.streams), window + 1)

    # the pad invariant: on a wrapped stream every pad slot mirrors its slot
    wrapped = sizes == capacity
    data = ring._data
    assert data.shape == (ring.streams, capacity + window - 1, features)
    np.testing.assert_array_equal(data[wrapped, capacity:], data[wrapped, : window - 1])
