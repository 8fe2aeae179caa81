"""Shared-memory numpy storage for cross-process fleet serving.

The sharded fleet coordinator and its worker processes exchange one tick
of data per step for every stream in the fleet. Pickling that tick over
a pipe costs O(N) serialization both ways on the hottest path in the
system; instead, both sides map the same ``multiprocessing.shared_memory``
segment and the tick travels as two vectorized numpy copies (parent
writes the ``(N, F)`` tick in, workers write the columnar
:class:`~repro.streaming.fleet.FleetTick` mirror out). Only tiny
constant-size control tokens cross the pipe per tick.

:class:`ShmBlock` is one shared segment carved into named, dtype-typed
numpy arrays from a declarative list of :class:`ShmArraySpec`. The
creating process owns the segment (and unlinks it); attaching processes
get views over the same pages. A tick pipeline banks its per-tick arrays
by giving each a leading bank axis: bank ``t`` of array ``name`` is
``block[name][t % banks]``, so the banks of one array are distinct
indices of one axis and cannot alias (property-tested in
``tests/streaming/test_shm_buffer.py``).

Ownership protocol: exactly one process *creates* a block (and its
``close()`` also unlinks the segment); every other process *attaches*
and only ever drops its own mapping. Attachers must be spawned children
of the creator so that they share its resource-tracker process — then a
dying (even ``SIGKILL``\\ ed) worker cannot destroy a segment the rest
of the fleet is still using. The segment therefore outlives any worker:
a *respawned* shard worker simply re-attaches to the same block by name.
The block holds only per-tick data, which every tick overwrites, so a
replacement inherits no state from its predecessor.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = ["ShmArraySpec", "ShmBlock"]

#: every array in a block starts on a 64-byte boundary (cache-line size)
_ALIGN = 64


@dataclass(frozen=True)
class ShmArraySpec:
    """One named array inside a shared block."""

    name: str
    shape: tuple[int, ...]
    dtype: str  #: numpy dtype string (``"<f8"``, ``"|b1"``, ...)

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def _layout(specs: tuple[ShmArraySpec, ...]) -> tuple[dict[str, int], int]:
    """Aligned byte offsets per array and the total segment size."""
    offsets: dict[str, int] = {}
    cursor = 0
    for spec in specs:
        if spec.name in offsets:
            raise ValueError(f"duplicate array name {spec.name!r} in shm layout")
        offsets[spec.name] = cursor
        cursor += -(-spec.nbytes // _ALIGN) * _ALIGN
    return offsets, max(cursor, 1)


class ShmBlock:
    """A shared-memory segment presented as named numpy arrays.

    Build one with :meth:`create` (owner side) or :meth:`attach` (worker
    side, given the owner's ``specs`` and segment ``name``); index it
    like a mapping: ``block["predictions"]`` is a live numpy view.
    """

    def __init__(
        self, specs: tuple[ShmArraySpec, ...], shm: shared_memory.SharedMemory, owner: bool
    ) -> None:
        self.specs = tuple(specs)
        self._shm = shm
        self._owner = owner
        self._closed = False
        self._arrays = self._map()

    def _map(self) -> dict[str, np.ndarray]:
        """One array per spec over the segment's buffer."""
        offsets, _ = _layout(self.specs)
        return {
            spec.name: np.ndarray(
                spec.shape, dtype=spec.dtype, buffer=self._shm.buf, offset=offsets[spec.name]
            )
            for spec in self.specs
        }

    @classmethod
    def create(cls, specs: tuple[ShmArraySpec, ...] | list[ShmArraySpec]) -> "ShmBlock":
        """Allocate a fresh zero-initialized segment sized for ``specs``."""
        specs = tuple(specs)
        _, size = _layout(specs)
        shm = shared_memory.SharedMemory(create=True, size=size)
        block = cls(specs, shm, owner=True)
        for arr in block._arrays.values():
            arr[...] = np.zeros((), dtype=arr.dtype)
        return block

    @classmethod
    def attach(
        cls, specs: tuple[ShmArraySpec, ...] | list[ShmArraySpec], name: str
    ) -> "ShmBlock":
        """Map an existing segment by name (non-owning).

        Attachers are expected to be ``multiprocessing``-spawned children
        of the creator, which share the creator's resource-tracker
        process: the duplicate registration on attach is a no-op there,
        and a killed worker cannot tear the segment down (the tracker
        only reaps at tracker shutdown, after the owner's unlink).
        """
        shm = shared_memory.SharedMemory(name=name)
        return cls(tuple(specs), shm, owner=False)

    @property
    def name(self) -> str:
        """The OS-level segment name attachers need."""
        return self._shm.name

    def __getitem__(self, field: str) -> np.ndarray:
        return self._arrays[field]

    def close(self) -> None:
        """Drop this process's mapping; the owner also destroys the segment.

        Refuses with ``BufferError`` while any view of the block's arrays
        is still alive (a bank slice, a kept reference): NumPy views of
        the segment do not pin the mapping, so unmapping under them would
        make their next access crash the interpreter. Drop them and call
        ``close`` again.
        """
        if self._closed:
            return
        pinned = self._pinned()
        if pinned:
            # views held only by unreachable cycles (a caught exception's
            # traceback frames, say) do not count
            gc.collect()
            pinned = self._pinned()
        if pinned:
            raise BufferError(
                f"shared block {self.name!r} still has live views of {', '.join(pinned)}; "
                "drop every view of its arrays before close()"
            )
        self._closed = True
        self._arrays.clear()
        _release(self._shm, self._owner)

    def _pinned(self) -> list[str]:
        """Names of the block's arrays that something besides the block still holds.

        Every view of an array keeps the array itself alive (it is the
        view's ``base``), so an array that outlives the block's own
        reference has a live view or holder.
        """
        refs = {name: weakref.ref(arr) for name, arr in self._arrays.items()}
        self._arrays = {}
        held = {name: arr for name, ref in refs.items() if (arr := ref()) is not None}
        # a held array stays the block's own, so a later check still sees its views
        self._arrays = {**self._map(), **held}
        return list(held)

    def _release_with_last_view(self) -> None:
        """Hand the mapping to the arrays still held: the last of them to die closes it."""
        held = [self._arrays[name] for name in self._pinned()]
        self._closed = True
        self._arrays = {}
        if not held:
            _release(self._shm, self._owner)
            return
        shm, owner, alive = self._shm, self._owner, [len(held)]

        def drop_one() -> None:
            alive[0] -= 1
            if not alive[0]:
                _release(shm, owner)

        for arr in held:
            weakref.finalize(arr, drop_one)

    def __del__(self) -> None:  # pragma: no cover — GC safety net
        try:
            self.close()
        except BufferError:
            # collected under live views: unmapping now would crash their next access
            self._release_with_last_view()
        except Exception:  # noqa: BLE001
            pass


def _release(shm: shared_memory.SharedMemory, owner: bool) -> None:
    """Unmap ``shm``; the owner also destroys the segment."""
    shm.close()
    if owner:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover — already gone
            pass
