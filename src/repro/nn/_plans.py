"""Kernel plan caches for the :mod:`repro.nn` substrate.

The substrate's hot ops (im2col convolution, einsum contractions) used to
pay per-call planning overhead: rebuilding the gather index matrix and
re-running ``np.einsum``'s path optimizer on every forward/backward. Both
are pure functions of the *shape signature*, not the data, so this module
memoizes them process-wide:

- :func:`gather_indices` — the ``(K, L_out)`` im2col index matrix keyed on
  ``(length, kernel, dilation, stride)``. Returned arrays are marked
  read-only so a cached plan can never be corrupted by a caller.
- :func:`planned_einsum` — ``np.einsum`` executed with a contraction path
  found once per ``(subscripts, shapes)`` signature via ``np.einsum_path``.
- :func:`fold_cols` — the adjoint of the im2col gather: a loop-free
  col2im scatter-add expressed as ``K`` strided-view slice accumulations
  (``K`` is the kernel size, 2–7 in practice) instead of one
  ``np.add.at`` call over the full index matrix, which is the slowest
  scatter primitive in NumPy. The accumulation order (kernel-tap major,
  ascending time) matches ``np.add.at`` iterating the index matrix in C
  order, so results are bit-for-bit identical.
- :func:`last_step_plan` — the rows of a causal TCN stack that can reach
  its last output step, keyed on ``(kernel, dilations, window)``, and
  :func:`last_step_rows`, the same plan as flat row indices into a batch
  of ``n`` windows, with the inverse maps the backward gathers with.
  Heads that read only the last backbone step compute, and train
  through, just these rows (:meth:`repro.models.tcn.TCN.last_step`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..obs.registry import MetricRegistry, get_registry

__all__ = [
    "gather_indices",
    "einsum_path",
    "planned_einsum",
    "fold_cols",
    "conv_out_length",
    "LastStepBlock",
    "last_step_plan",
    "last_step_rows",
    "plan_cache_stats",
    "register_plan_metrics",
]


def conv_out_length(length: int, kernel_size: int, dilation: int, stride: int) -> int:
    """Output length of a 1-D convolution over an already-padded input."""
    return (length - (kernel_size - 1) * dilation - 1) // stride + 1


@lru_cache(maxsize=None)
def gather_indices(length: int, kernel_size: int, dilation: int, stride: int) -> np.ndarray:
    """Memoized index matrix ``idx[k, t] = t * stride + k * dilation`` for im2col."""
    l_out = conv_out_length(length, kernel_size, dilation, stride)
    if l_out <= 0:
        raise ValueError(
            f"conv1d produces empty output: length={length}, "
            f"kernel={kernel_size}, dilation={dilation}, stride={stride}"
        )
    k = np.arange(kernel_size)[:, None] * dilation
    t = np.arange(l_out)[None, :] * stride
    idx = k + t
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def gather_indices_flat(
    length: int, kernel_size: int, dilation: int, stride: int
) -> tuple[np.ndarray, int]:
    """Raveled gather index plus ``l_out``, for ``np.take`` along the length axis.

    ``np.take`` with a flat index produces a C-contiguous ``(N, C, K*L_out)``
    result, so the downstream reshape to the GEMM layout ``(N, C*K, L_out)``
    is a free view — fancy indexing with the 2-D matrix yields a
    non-contiguous layout whose reshape copies the whole column tensor.
    """
    idx = gather_indices(length, kernel_size, dilation, stride)
    flat = np.ascontiguousarray(idx.ravel())
    flat.setflags(write=False)
    return flat, idx.shape[1]


@lru_cache(maxsize=None)
def einsum_path(subscripts: str, *shapes: tuple[int, ...]) -> list:
    """Contraction path for ``subscripts`` over operands of the given shapes.

    ``np.einsum(..., optimize=True)`` re-runs its path search on every call;
    for the fixed shape signatures of a training loop that search costs more
    than the small contractions themselves. ``np.empty`` operands are used
    because path search only inspects shapes.
    """
    path, _ = np.einsum_path(
        subscripts, *[np.empty(s) for s in shapes], optimize="optimal"
    )
    return path


def planned_einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum`` with a memoized contraction path."""
    path = einsum_path(subscripts, *(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


def fold_cols(
    gcols: np.ndarray, length: int, stride: int, dilation: int
) -> np.ndarray:
    """Scatter-add im2col columns ``(N, C, K, L_out)`` back onto ``(N, C, length)``.

    Equivalent to ``np.add.at(gxp, (:, :, gather_indices(...)), gcols)`` but
    expressed as one vectorized strided-slice accumulation per kernel tap.
    Within a tap the target positions are distinct, so ``+=`` on the strided
    view is an exact scatter; across taps the per-position accumulation
    order matches ``np.add.at``'s C-order traversal of the index matrix.
    """
    n, c, k, l_out = gcols.shape
    gxp = np.zeros((n, c, length), dtype=gcols.dtype)
    span = (l_out - 1) * stride + 1
    for tap in range(k):
        off = tap * dilation
        gxp[:, :, off : off + span : stride] += gcols[:, :, tap, :]
    return gxp


# ---------------------------------------------------------------------------
# last-step TCN inference: the rows that reach the final output step
# ---------------------------------------------------------------------------


class LastStepBlock(NamedTuple):
    """Rows of one causal residual block that reach the stack's last step.

    Rows are counted per window. ``conv1`` holds, for each conv1 position
    the block needs, the input row of each kernel tap; ``conv2`` does the
    same for each needed output position over the conv1 rows. ``-1``
    marks a tap that reaches back before the window (a causal zero).
    ``residual`` gives the input row at each output position.
    """

    rows_in: int
    conv1: np.ndarray  # (rows_mid, K)
    conv2: np.ndarray  # (rows_out, K)
    residual: np.ndarray  # (rows_out,)


def _tap_rows(steps: np.ndarray, offsets: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Row in ``source`` (sorted steps) of each tap ``steps[:, None] - offsets``."""
    wanted = steps[:, None] - offsets[None, :]
    rows = np.searchsorted(source, wanted)
    rows[wanted < 0] = -1
    return rows


@lru_cache(maxsize=None)
def last_step_plan(
    kernel_size: int, dilations: tuple[int, ...], window: int
) -> tuple[LastStepBlock, ...]:
    """Per-block rows a causal TCN computes to produce only its last step.

    Walks the blocks backwards from output step ``window - 1``: a block
    output at step ``t`` reads conv2 at ``t`` and the residual at ``t``;
    conv2 at ``t`` reads conv1 at ``t - (K-1-j) d`` for taps ``j``, and
    conv1 reads the block input the same way. The first block reads the
    whole window (row ``t`` is step ``t``); every later block reads the
    compact, ascending rows its predecessor produced. Tap ``j`` of a row
    lists the same input step as tap ``j`` of the full forward's causal
    im2col, so each kept row is computed by the same dot products.
    Returned index arrays are read-only.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    out_steps = np.array([window - 1])
    plan = []
    for level in range(len(dilations) - 1, -1, -1):
        offsets = np.arange(kernel_size - 1, -1, -1) * dilations[level]
        reach = (out_steps[:, None] - offsets).ravel()
        mid_steps = np.unique(reach[reach >= 0])
        if level == 0:
            in_steps = np.arange(window)
        else:
            reach = (mid_steps[:, None] - offsets).ravel()
            in_steps = np.unique(reach[reach >= 0])
        block = LastStepBlock(
            len(in_steps),
            _tap_rows(mid_steps, offsets, in_steps),
            _tap_rows(out_steps, offsets, mid_steps),
            np.searchsorted(in_steps, out_steps),
        )
        for arr in block[1:]:
            arr.setflags(write=False)
        plan.append(block)
        out_steps = in_steps
    return tuple(reversed(plan))


def _batch_rows(rows: np.ndarray, per_window: int, n: int) -> np.ndarray:
    """``rows`` of ``n`` stacked windows as flat rows after a leading zero row.

    Window ``w``'s row ``r`` is ``1 + w * per_window + r``; a causal-zero
    tap (``-1``) is row 0.
    """
    flat = 1 + rows[None] + (per_window * np.arange(n)).reshape((n,) + (1,) * rows.ndim)
    flat[:, rows < 0] = 0
    flat = flat.ravel()
    flat.setflags(write=False)
    return flat


def _batch_readers(taps: np.ndarray, rows_in: int, n: int) -> np.ndarray:
    """Adjoint of ``taps``: which im2col entry reads each input row, per tap.

    Entry ``(w, r, j)`` (window ``w``, input row ``r``, tap ``j``) is the
    flat position ``i * K + j`` of the entry of the ``n``-window im2col
    whose tap ``j`` reads that row, or ``-1`` where none does. Within one
    tap the kept rows read distinct input rows, so there is at most one.
    Flattened like :func:`_batch_rows`, without the zero row.
    """
    m, k = taps.shape
    readers = np.full((rows_in, k), -1)
    for tap in range(k):
        hit = np.flatnonzero(taps[:, tap] >= 0)
        readers[taps[hit, tap], tap] = hit * k + tap
    flat = readers[None] + (m * k * np.arange(n)).reshape(n, 1, 1)
    flat[:, readers < 0] = -1
    flat = flat.ravel()
    flat.setflags(write=False)
    return flat


@lru_cache(maxsize=32)
def _last_step_rows(
    kernel_size: int, dilations: tuple[int, ...], window: int, capacity: int
) -> tuple[tuple[np.ndarray, ...], ...]:
    return tuple(
        (
            _batch_rows(block.conv1, block.rows_in, capacity),
            _batch_rows(block.conv2, len(block.conv1), capacity),
            _batch_rows(block.residual, block.rows_in, capacity),
            _batch_readers(block.conv1, block.rows_in, capacity),
            _batch_readers(block.conv2, len(block.conv1), capacity),
        )
        for block in last_step_plan(kernel_size, dilations, window)
    )


@lru_cache(maxsize=128)
def last_step_rows(
    kernel_size: int, dilations: tuple[int, ...], window: int, n: int
) -> tuple[tuple[np.ndarray, ...], ...]:
    """:func:`last_step_plan` as flat rows of an ``n``-window batch.

    Per block: ``(conv1, conv2, residual, conv1_readers, conv2_readers)``.
    Every stage of the batch is one zero row followed by the ``n``
    windows' rows, window-major; causal-zero taps point at the zero row.
    One ``np.take`` with the first three is one stage's im2col (or
    residual gather) for the whole batch; one ``np.take`` with a readers
    array (:func:`_batch_readers`) gathers, per input row and tap, the
    im2col gradient that flows back to that row, the im2col's adjoint as
    a gather. The rows of ``n`` windows are a prefix of the rows of any
    larger batch, so they are built once per power-of-two capacity and
    returned as prefix views: a fleet whose batch size moves tick to tick
    shares one cached array. The views of each batch size are memoized
    as well, so a call is one cache lookup.
    """
    capacity = 1 << max(n - 1, 0).bit_length()
    return tuple(
        tuple(rows[: rows.size // capacity * n] for rows in block)
        for block in _last_step_rows(kernel_size, dilations, window, capacity)
    )


# ---------------------------------------------------------------------------
# observability: plan-cache hit/miss counters
# ---------------------------------------------------------------------------

_PLAN_CACHES = {
    "gather_indices": gather_indices,
    "gather_indices_flat": gather_indices_flat,
    "einsum_path": einsum_path,
}


def plan_cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/size snapshot of every kernel plan cache."""
    stats: dict[str, dict[str, int]] = {}
    for name, fn in _PLAN_CACHES.items():
        info = fn.cache_info()
        stats[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return stats


def register_plan_metrics(registry: MetricRegistry | None = None) -> None:
    """Mirror the plan caches into ``registry`` at every collection.

    The hot path pays nothing: ``lru_cache`` already tracks hits and
    misses, and a registry collector copies ``cache_info()`` into
    ``nn_plan_cache_{hits,misses}_total`` counters and an
    ``nn_plan_cache_size`` gauge only when a snapshot is taken. The
    process-global registry is wired at import; tests with injected
    registries call this themselves.
    """
    reg = get_registry(registry)

    def collect() -> None:
        for name, stats in plan_cache_stats().items():
            labels = {"cache": name}
            reg.counter(
                "nn_plan_cache_hits_total", "kernel plan cache hits", labels
            ).restore(stats["hits"])
            reg.counter(
                "nn_plan_cache_misses_total", "kernel plan cache misses", labels
            ).restore(stats["misses"])
            reg.gauge(
                "nn_plan_cache_size", "cached kernel plans", labels
            ).set(stats["size"])

    reg.add_collector(collect, name="nn_plan_caches")


register_plan_metrics()
