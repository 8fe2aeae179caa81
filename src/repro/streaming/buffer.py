"""Fixed-capacity ring buffers over multivariate monitoring records.

:class:`RollingBuffer` holds one stream's history; :class:`MatrixRingBuffer`
holds a whole fleet of independent ring buffers in a single
``(streams, capacity + window - 1, features)`` array so that a tick's
worth of records — one per stream — appends in O(1) vectorized work,
and the most recent windows of many streams gather into one ``(B,
window, features)`` batch for a micro-batched model forward.

The fleet ring is *wrap-padded*: a record written to slot
``j < window - 1`` is written again to slot ``capacity + j``, so the
last ``w <= window`` records of every stream are one contiguous run of
its row, and the batch gather is a single ``(stream, start)`` index
into a sliding-window view. Checkpoints carry only the logical
``(streams, capacity, features)`` ring; loading one refreshes the pad.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .checkpoint import Stateful

__all__ = ["RollingBuffer", "MatrixRingBuffer"]


def _check_cursors(ring: Any, saved: dict[str, Any]) -> None:
    """Both rings' ``_check_state``: ``0 <= size <= capacity``, ``0 <= head <
    capacity``, and ``head == size`` while a ring (or stream) has not wrapped."""
    head, size, capacity = saved["head"], saved["size"], ring.capacity
    if np.any((size < 0) | (size > capacity)):
        raise ValueError(f"ring sizes must be in [0, {capacity}]")
    if np.any((head < 0) | (head >= capacity)):
        raise ValueError(f"ring heads must be in [0, {capacity})")
    if np.any((size < capacity) & (head != size)):
        raise ValueError("an unwrapped ring must have head == size")


class RollingBuffer(Stateful):
    """Ring buffer of ``(features,)`` records with O(1) append.

    Backed by a preallocated ``(capacity, features)`` array; ``view()``
    materializes the chronologically ordered contents (one copy — the
    price of presenting a contiguous array to the window builders).
    """

    def __init__(self, capacity: int, features: int) -> None:
        if capacity < 1 or features < 1:
            raise ValueError(f"capacity and features must be >= 1, got {capacity}, {features}")
        self.capacity = capacity
        self.features = features
        self._data = np.empty((capacity, features))
        self._head = 0  # next write position
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size == self.capacity

    def append(self, record: np.ndarray) -> None:
        record = np.asarray(record, float)
        if record.shape != (self.features,):
            raise ValueError(f"expected shape ({self.features},), got {record.shape}")
        self._data[self._head] = record
        self._head = (self._head + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def extend(self, records: np.ndarray) -> None:
        """Append ``(k, features)`` rows with at most two slice copies.

        Exactly equivalent to appending each row in order: only the last
        ``capacity`` rows can survive, so everything earlier is skipped
        outright and the survivors land in their final ring positions.
        """
        records = np.asarray(records, float)
        if records.size == 0 and records.ndim <= 2:
            return
        if records.ndim != 2 or records.shape[1] != self.features:
            raise ValueError(f"expected shape (k, {self.features}), got {records.shape}")
        k = len(records)
        m = min(k, self.capacity)  # rows that actually survive
        rows = records[k - m :]
        start = (self._head + (k - m)) % self.capacity
        first = min(m, self.capacity - start)
        self._data[start : start + first] = rows[:first]
        if first < m:
            self._data[: m - first] = rows[first:]
        self._head = (self._head + k) % self.capacity
        self._size = min(self._size + k, self.capacity)

    def view(self) -> np.ndarray:
        """Chronologically ordered contents, oldest first (copy)."""
        if self._size < self.capacity:
            return self._data[: self._size].copy()
        return np.roll(self._data, -self._head, axis=0).copy()

    def last(self, n: int) -> np.ndarray:
        """The most recent ``n`` records, oldest first."""
        out = np.empty((n, self.features))
        self.last_into(out)
        return out

    def last_into(self, out: np.ndarray) -> np.ndarray:
        """Copy the most recent ``len(out)`` records into ``out``, oldest first.

        Serving fast path: unlike :meth:`last` via :meth:`view`, this never
        materializes (or rolls) the whole buffer — at most two slice copies
        of exactly ``n`` rows land in the caller-owned output array.
        """
        n = len(out)
        if n < 1 or n > self._size:
            raise ValueError(f"n must be in [1, {self._size}], got {n}")
        if self._size < self.capacity:
            out[...] = self._data[self._size - n : self._size]
            return out
        start = (self._head - n) % self.capacity
        if start + n <= self.capacity:
            out[...] = self._data[start : start + n]
        else:
            split = self.capacity - start
            out[:split] = self._data[start:]
            out[split:] = self._data[: n - split]
        return out

    def clear(self) -> None:
        self._head = 0
        self._size = 0

    # -- checkpointing ---------------------------------------------------------

    #: raw ring state (data + head + size) for exact checkpoint/restore
    _STATE = {"capacity": "capacity", "features": "features",
              "data": "_data", "head": "_head", "size": "_size"}  # fmt: skip
    _FIXED = ("capacity", "features")
    _WHAT = "ring"

    _check_state = _check_cursors


class MatrixRingBuffer(Stateful):
    """A fleet of independent ring buffers in one preallocated array.

    Semantically ``streams`` :class:`RollingBuffer` instances — each
    stream has its own head and size, because quarantined records never
    enter a stream's history and streams may join mid-flight — but the
    storage is one ``(streams, capacity + window - 1, features)`` block,
    so the two serving hot paths are single vectorized operations:

    * :meth:`append_tick` writes one record per (masked) stream via a
      fancy-indexed assignment;
    * :meth:`last_windows` gathers the most recent ``w <= window``
      records of any subset of streams into a ``(B, w, features)`` batch
      with one gather, ready for a micro-batched model forward.

    ``window`` is the widest gather the ring serves. Each write to a
    slot ``j < window - 1`` is repeated at pad slot ``capacity + j``, so
    a stream's last ``w`` records are always the contiguous run starting
    at ``(head - w) % capacity``: the gather indexes a sliding-window
    view by ``(stream, start)`` instead of wrapping every element.
    Rings that only append and reduce (the default ``window=1``) carry
    no pad.
    """

    def __init__(self, streams: int, capacity: int, features: int, window: int = 1) -> None:
        if streams < 1 or capacity < 1 or features < 1:
            raise ValueError(
                f"streams, capacity and features must be >= 1, "
                f"got {streams}, {capacity}, {features}"
            )
        if not 1 <= window <= capacity:
            raise ValueError(f"window must be in [1, {capacity}], got {window}")
        self.streams = streams
        self.capacity = capacity
        self.features = features
        self.window = window
        self._pad = window - 1
        self._data = np.empty((streams, capacity + self._pad, features))
        self._head = np.zeros(streams, dtype=np.int64)  # next write position
        self._size = np.zeros(streams, dtype=np.int64)
        #: gather width -> (streams, starts, width, features) view of ``_data``
        self._windows: dict[int, np.ndarray] = {}

    @property
    def sizes(self) -> np.ndarray:
        """Per-stream fill levels (read-only view)."""
        out = self._size.view()
        out.flags.writeable = False
        return out

    def __len__(self) -> int:
        """Total records held across all streams."""
        return int(self._size.sum())

    def append_tick(self, records: np.ndarray, mask: np.ndarray | None = None) -> None:
        """Append one record per stream; ``mask`` selects which streams absorb."""
        records = np.asarray(records, float)
        if records.shape != (self.streams, self.features):
            raise ValueError(
                f"expected shape ({self.streams}, {self.features}), got {records.shape}"
            )
        if mask is None:
            idx = np.arange(self.streams)
            mask = True
        else:
            mask = np.asarray(mask, bool)
            if mask.shape != (self.streams,):
                raise ValueError(f"mask must have shape ({self.streams},), got {mask.shape}")
            idx = np.flatnonzero(mask)
            if idx.size == 0:
                return
            if idx.size == self.streams:
                mask = True  # the plain ufunc loops: cheaper per call than a mask array
        # the data write scatters: it must not touch an unmasked row's slots
        heads = self._head[idx]
        rows = records[idx]
        self._data[idx, heads] = rows
        if self._pad:
            low = heads < self._pad
            if low.any():
                self._data[idx[low], heads[low] + self.capacity] = rows[low]
        np.add(self._head, 1, out=self._head, where=mask)
        np.remainder(self._head, self.capacity, out=self._head, where=mask)
        np.add(self._size, 1, out=self._size, where=mask)
        np.minimum(self._size, self.capacity, out=self._size, where=mask)

    def last_windows(
        self, idx: np.ndarray, window: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Gather the most recent ``window`` records of streams ``idx``.

        Returns ``(len(idx), window, features)``, oldest first within
        each window — the fleet equivalent of
        :meth:`RollingBuffer.last_into` for a whole batch at once.
        ``window`` may not exceed the ring's own ``window``. ``out``
        (any float dtype) receives the gather when given.
        """
        if not 1 <= window <= self.window:
            raise ValueError(f"window must be in [1, {self.window}], got {window}")
        idx = np.asarray(idx, dtype=np.int64)
        if np.any(self._size[idx] < window):
            raise ValueError(f"every requested stream needs >= {window} records")
        view = self._windows.get(window)
        if view is None:
            view = sliding_window_view(self._data, (window, self.features), axis=(1, 2))[:, :, 0]
            self._windows[window] = view
        gathered = view[idx, (self._head[idx] - window) % self.capacity]
        if out is None:
            return gathered
        out[...] = gathered
        return out

    def view(self, stream: int) -> np.ndarray:
        """Chronologically ordered contents of one stream, oldest first (copy)."""
        size = int(self._size[stream])
        row = self._data[stream]
        if size < self.capacity:
            return row[:size].copy()
        head = int(self._head[stream])
        return np.concatenate((row[head : self.capacity], row[:head]))

    def filled_matrix(self) -> np.ndarray:
        """The raw ring with never-written slots masked to NaN (copy).

        Rows are **not** chronologically ordered — this is for
        order-insensitive reductions (quantiles, means) over every
        stream's retained history in one vectorized pass. A stream that
        has not wrapped has written exactly slots ``[0, size)``; a
        wrapped stream has written all of them.
        """
        out = self._data[:, : self.capacity].copy()
        out[np.arange(self.capacity)[None, :] >= self._size[:, None]] = np.nan
        return out

    def clear(self) -> None:
        self._head[:] = 0
        self._size[:] = 0

    # -- checkpointing ---------------------------------------------------------

    #: logical ring state for exact checkpoint/restore: ``data`` is the ring
    #: without the pad, so checkpoints do not depend on the gather width
    _STATE = {"streams": "streams", "capacity": "capacity", "features": "features",
              "data": "_ring", "head": "_head", "size": "_size"}  # fmt: skip
    _FIXED = ("streams", "capacity", "features")
    _WHAT = "ring"

    @property
    def _ring(self) -> np.ndarray:
        return self._data[:, : self.capacity]

    _check_state = _check_cursors

    def _adopt(self, saved: dict[str, Any]) -> None:
        super()._adopt(saved)
        self._data[:, self.capacity :] = self._data[:, : self._pad]  # refresh the pad
