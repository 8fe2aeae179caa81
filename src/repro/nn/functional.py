"""Stateless differentiable operations used by :mod:`repro.nn` layers.

The heavy ops here are :func:`conv1d`, :func:`lstm` and
:func:`temporal_block`. The convolution is an explicit im2col gather (a
memoized strided index array from :mod:`repro.nn._plans`) followed by a
single batched GEMM; the input gradient is a loop-free col2im fold (one
strided-view accumulation per kernel tap) rather than an ``np.add.at``
scatter. The LSTM is a fused sequence kernel: one gate matmul over the
whole ``(N, T, C)`` input, a NumPy-only recurrent loop, and a
hand-written BPTT backward — no per-step Tensor allocation. The TCN
residual block is fused the same way: one autograd node per block,
computed channels-last with one 2-D GEMM per convolution and a
hand-written backward through weight norm, ReLU and spatial dropout.
:func:`temporal_block_rows` is the same block over a subset of rows, with
its own hand-written backward: heads that read only the last time step
run it, in training and in inference, on the rows that can reach that
step.

Every op with a nontrivial graph closure also has an inference fast path:
when autograd is off (or no parent requires grad) the op returns a
constant Tensor and skips closure/parent bookkeeping entirely.
"""

from __future__ import annotations

import numpy as np

from . import _plans
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "conv1d",
    "lstm",
    "temporal_block",
    "temporal_block_rows",
    "window_rows",
    "softmax",
    "dropout",
    "spatial_dropout1d",
    "linear",
]


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int | tuple[int, int] = 0,
    dilation: int = 1,
) -> Tensor:
    """1-D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    x: ``(N, C_in, L)`` input.
    weight: ``(C_out, C_in, K)`` filters.
    bias: optional ``(C_out,)``.
    padding: symmetric amount, or an explicit ``(left, right)`` pair —
        causal convolutions pad only on the left.
    """
    if isinstance(padding, tuple):
        pad_l, pad_r = padding
    else:
        pad_l = pad_r = int(padding)

    n, c_in, length = x.shape
    c_out, c_in_w, k = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {c_in_w}")

    xp = x.data
    if pad_l or pad_r:
        # np.pad's generality costs ~4x a zeros-plus-slice-assign here
        padded = np.zeros((n, c_in, length + pad_l + pad_r), dtype=xp.dtype)
        padded[:, :, pad_l : pad_l + length] = xp
        xp = padded
    flat_idx, l_out = _plans.gather_indices_flat(xp.shape[-1], k, dilation, stride)
    # np.take with the raveled index keeps the gather C-contiguous, so this
    # reshape to the GEMM layout (N, C_in*K, L_out) is a free view; the
    # contraction "oik,nikt->not" is then a batched GEMM, which beats even a
    # path-cached einsum (einsum re-parses subscripts on every call)
    cols2 = np.take(xp, flat_idx, axis=2).reshape(n, c_in * k, l_out)
    w2 = weight.data.reshape(c_out, c_in * k)
    out = np.matmul(w2, cols2)  # (N, C_out, L_out)
    if bias is not None:
        out += bias.data[None, :, None]

    requires = is_grad_enabled() and (
        x.requires_grad
        or weight.requires_grad
        or (bias is not None and bias.requires_grad)
    )
    if not requires:
        return Tensor(out)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            gw = np.matmul(grad, cols2.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(gw.reshape(c_out, c_in, k))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if x.requires_grad:
            gcols = np.matmul(w2.T, grad).reshape(n, c_in, k, -1)
            gxp = _plans.fold_cols(gcols, length + pad_l + pad_r, stride, dilation)
            if pad_l or pad_r:
                gxp = gxp[:, :, pad_l : pad_l + length]
            x._accumulate(gxp)

    return Tensor._from_op(out, parents, backward)


# ---------------------------------------------------------------------------
# normalized exponentials
# ---------------------------------------------------------------------------


def _softmax_arr(x: np.ndarray, axis: int) -> np.ndarray:
    """:func:`softmax` on a raw array."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    out = _softmax_arr(x.data, axis)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # J^T g = s * (g - sum(g * s))
            dot = (grad * out).sum(axis=axis, keepdims=True)
            x._accumulate(out * (grad - dot))

    return Tensor._from_op(out, (x,), backward)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scale kept activations by ``1/(1-p)`` at train time."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def spatial_dropout1d(
    x: Tensor, p: float, rng: np.random.Generator, training: bool = True
) -> Tensor:
    """Channel dropout for ``(N, C, L)`` tensors (drops whole feature maps).

    TCN residual blocks use this form of regularization (Bai et al. 2018);
    zeroing entire channels preserves temporal autocorrelation within each
    retained channel.
    """
    if not training or p <= 0.0:
        return x
    return x * Tensor(_channel_mask(rng, x.shape[0], x.shape[1], p))


def _channel_mask(rng: np.random.Generator, n: int, c: int, p: float) -> np.ndarray:
    """The ``(N, C, 1)`` inverted-dropout mask of one spatial dropout."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    return (rng.random((n, c, 1)) >= p) / (1.0 - p)


# ---------------------------------------------------------------------------
# affine
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` — the paper's eq. (6)."""
    if not (
        is_grad_enabled()
        and (
            x.requires_grad
            or weight.requires_grad
            or (bias is not None and bias.requires_grad)
        )
    ):
        # inference fast path: one GEMM, no transpose node, no graph wiring
        out = x.data @ weight.data.T
        if bias is not None:
            out += bias.data
        return Tensor(out)
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


# ---------------------------------------------------------------------------
# fused LSTM sequence kernel
# ---------------------------------------------------------------------------


def _sigmoid_arr(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic on a raw array.

    ``exp(-|x|)`` never overflows, and the two ``np.where`` branches are the
    exact expressions of the piecewise-stable form (``1/(1+e^-x)`` for
    ``x >= 0``, ``e^x/(1+e^x)`` otherwise) — element-wise identical to
    :meth:`Tensor.sigmoid`, but with no boolean fancy indexing.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def lstm(
    x: Tensor,
    w_ih: Tensor,
    w_hh: Tensor,
    bias: Tensor,
    state: tuple[Tensor, Tensor] | None = None,
) -> Tensor:
    """Fused single-layer LSTM over a ``(N, T, F)`` sequence.

    The input projection for all four gates and all ``T`` steps is one
    GEMM; the recurrent loop then runs on raw NumPy arrays (no per-step
    Tensor allocation, no autograd chain of length ``T``), and backward is
    a hand-written BPTT sweep over stashed gate activations. Gate layout
    matches :class:`~repro.nn.layers.recurrent.LSTMCell`: ``[i, f, g, o]``.

    Returns the hidden sequence ``(N, T, H)``. ``state`` is an optional
    ``(h_0, c_0)`` pair of ``(N, H)`` Tensors; gradients flow back into it.
    """
    n, t, _ = x.shape
    h_size = w_hh.shape[-1]
    xp = x.data

    if state is not None:
        h0, c0 = Tensor.ensure(state[0]), Tensor.ensure(state[1])
        h_prev0, c_prev0 = h0.data, c0.data
    else:
        h0 = c0 = None
        h_prev0 = np.zeros((n, h_size), dtype=xp.dtype)
        c_prev0 = np.zeros((n, h_size), dtype=xp.dtype)

    # one GEMM for the whole sequence's input projection (bias folded in)
    gates_x = xp.reshape(n * t, xp.shape[-1]) @ w_ih.data.T
    gates_x += bias.data
    gates_x = gates_x.reshape(n, t, 4 * h_size)
    whh_t = w_hh.data.T

    parents = [x, w_ih, w_hh, bias] + ([h0, c0] if h0 is not None else [])
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)

    hs = np.empty((n, t, h_size), dtype=xp.dtype)
    h, c = h_prev0, c_prev0

    if not requires:
        # inference fast path: nothing stashed, nothing wired
        for step in range(t):
            g_all = gates_x[:, step] + h @ whh_t
            i_f = _sigmoid_arr(g_all[:, : 2 * h_size])
            i, f = i_f[:, :h_size], i_f[:, h_size:]
            g = np.tanh(g_all[:, 2 * h_size : 3 * h_size])
            o = _sigmoid_arr(g_all[:, 3 * h_size :])
            c = f * c + i * g
            h = o * np.tanh(c)
            hs[:, step] = h
        return Tensor(hs)

    # training path: stash post-activation gates and cell states for BPTT
    ia = np.empty((n, t, h_size), dtype=xp.dtype)
    fa = np.empty_like(ia)
    ga = np.empty_like(ia)
    oa = np.empty_like(ia)
    ca = np.empty_like(ia)
    tca = np.empty_like(ia)
    for step in range(t):
        g_all = gates_x[:, step] + h @ whh_t
        i_f = _sigmoid_arr(g_all[:, : 2 * h_size])
        i, f = i_f[:, :h_size], i_f[:, h_size:]
        g = np.tanh(g_all[:, 2 * h_size : 3 * h_size])
        o = _sigmoid_arr(g_all[:, 3 * h_size :])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        ia[:, step], fa[:, step], ga[:, step], oa[:, step] = i, f, g, o
        ca[:, step], tca[:, step] = c, tc
        hs[:, step] = h

    def backward(grad: np.ndarray) -> None:
        dgates = np.empty((n, t, 4 * h_size), dtype=grad.dtype)
        dh_next = np.zeros((n, h_size), dtype=grad.dtype)
        dc_next = np.zeros((n, h_size), dtype=grad.dtype)
        whh = w_hh.data
        for step in range(t - 1, -1, -1):
            i, f, g, o = ia[:, step], fa[:, step], ga[:, step], oa[:, step]
            tc = tca[:, step]
            c_prev = ca[:, step - 1] if step > 0 else c_prev0
            dh = grad[:, step] + dh_next
            dc = dc_next + dh * o * (1.0 - tc * tc)
            dg_step = dgates[:, step]
            dg_step[:, :h_size] = dc * g * i * (1.0 - i)
            dg_step[:, h_size : 2 * h_size] = dc * c_prev * f * (1.0 - f)
            dg_step[:, 2 * h_size : 3 * h_size] = dc * i * (1.0 - g * g)
            dg_step[:, 3 * h_size :] = dh * tc * o * (1.0 - o)
            dh_next = dg_step @ whh
            dc_next = dc * f
        flat = dgates.reshape(n * t, 4 * h_size)
        if w_ih.requires_grad:
            w_ih._accumulate(flat.T @ xp.reshape(n * t, -1))
        if w_hh.requires_grad:
            hp = np.empty_like(hs)
            hp[:, 0] = h_prev0
            hp[:, 1:] = hs[:, :-1]
            w_hh._accumulate(flat.T @ hp.reshape(n * t, h_size))
        if bias.requires_grad:
            bias._accumulate(flat.sum(axis=0))
        if x.requires_grad:
            x._accumulate((flat @ w_ih.data).reshape(n, t, -1))
        if h0 is not None and h0.requires_grad:
            h0._accumulate(dh_next)
        if c0 is not None and c0.requires_grad:
            c0._accumulate(dc_next)

    return Tensor._from_op(hs, parents, backward)


# ---------------------------------------------------------------------------
# fused TCN residual block
# ---------------------------------------------------------------------------

#: guards the weight-norm division for an all-zero direction ``v``
WEIGHT_NORM_EPS = 1e-12


def _weight_norm(v: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``w = v * (g / (||v|| + eps))`` per output filter, and ``||v||``."""
    r = np.sqrt((v * v).sum(axis=(1, 2), keepdims=True))
    return v * (g / (r + WEIGHT_NORM_EPS)), r


def _weight_norm_backward(
    gw: np.ndarray, v: np.ndarray, g: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients ``(dv, dg)`` of :func:`_weight_norm` given ``dL/dw``.

    A filter with ``||v|| = 0`` gets 0 for the projection term of ``dv``,
    its exact limit (``v`` and ``dot`` are 0 there), instead of ``0 / 0``.
    """
    norm = r + WEIGHT_NORM_EPS
    dot = (gw * v).sum(axis=(1, 2), keepdims=True)
    num = g * dot
    den = norm * norm * r
    proj = np.divide(num, den, out=np.zeros(num.shape, np.result_type(num, den)), where=r > 0)
    dv = gw * (g / norm) - v * proj
    return dv, dot / norm


def _gemm_weight(w: np.ndarray) -> np.ndarray:
    """``(C_out, C_in, K)`` filters as the ``(K*C_in, C_out)`` GEMM operand."""
    c_out, c_in, k = w.shape
    return w.transpose(2, 1, 0).reshape(k * c_in, c_out)


def _causal_cols(x: np.ndarray, k: int, dilation: int) -> np.ndarray:
    """Causal im2col of a channels-last ``(N, L, C)`` input -> ``(N*L, K*C)``.

    Row ``(n, t)`` holds ``x[n, t - (K-1-j)*d]`` for taps ``j = 0..K-1``:
    one strided slice copy per tap into an uninitialized buffer, with each
    tap's causal prefix zero-filled explicitly (all of it when the tap
    reaches back past the start of the window).
    """
    n, length, c = x.shape
    cols = np.empty((n, length, k, c), dtype=x.dtype)
    for tap in range(k):
        off = min((k - 1 - tap) * dilation, length)
        cols[:, :off, tap] = 0.0
        cols[:, off:, tap] = x[:, : length - off]
    return cols.reshape(n * length, k * c)


def _fold_causal(
    gcols: np.ndarray, n: int, length: int, k: int, dilation: int
) -> np.ndarray:
    """Adjoint of :func:`_causal_cols`: ``(N*L, K*C)`` -> ``(N, L, C)``."""
    gcols = gcols.reshape(n, length, k, gcols.shape[1] // k)
    gx = gcols[:, :, k - 1].copy()  # the zero-offset tap covers every step
    for tap in range(k - 1):
        off = (k - 1 - tap) * dilation
        if off < length:
            gx[:, : length - off] += gcols[:, off:, tap]
    return gx


def _bias_relu(h: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``ReLU(h + bias)``, in place on the fresh GEMM output ``h``."""
    h += bias
    np.maximum(h, 0.0, out=h)
    return h


def _conv_grads(
    g: np.ndarray, cols: np.ndarray, v: Tensor, gain: Tensor, bias: Tensor, r: np.ndarray
) -> None:
    """Accumulate one weight-norm conv's ``v``/``g``/bias grads from its pre-activation grad."""
    if v.requires_grad or gain.requires_grad:
        c_out, c_in, k = v.shape
        gw = (cols.T @ g).reshape(k, c_in, c_out).transpose(2, 1, 0)
        dv, dg = _weight_norm_backward(gw, v.data, gain.data, r)
        if v.requires_grad:
            v._accumulate(dv)
        if gain.requires_grad:
            gain._accumulate(dg)
    if bias.requires_grad:
        bias._accumulate(g.sum(axis=0))


def temporal_block(
    x: Tensor,
    v1: Tensor,
    g1: Tensor,
    b1: Tensor,
    v2: Tensor,
    g2: Tensor,
    b2: Tensor,
    dilation: int,
    down_weight: Tensor | None = None,
    down_bias: Tensor | None = None,
    p: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """One TCN residual block (paper Fig. 6) as a single autograd node.

    Computes ``ReLU(res(x) + drop(ReLU(conv2(drop(ReLU(conv1(x)))))))``
    where each ``conv`` is a causal dilated convolution whose filters are
    weight-normalized, ``w = v * (g / (||v|| + eps))`` per output filter,
    and ``res`` is the identity or the 1x1 convolution ``down_weight``.

    Inside the op the layout is channels-last ``(N, L, C)``: the input is
    ``x.data.transpose(0, 2, 1)`` (for a window that was swapped to
    channels-first, that is the caller's own contiguous array), each
    convolution is a causal im2col followed by one 2-D GEMM
    ``(N*L, K*C) @ (K*C, C_out)``, and the result is returned as the
    ``(N, C_out, L)`` transposed view. Backward is hand-written: one GEMM
    per weight gradient, one GEMM plus a K-slice fold per input gradient
    (skipped when ``x`` does not require grad), and the weight-norm
    chain rule into ``v`` and ``g``.

    Spatial dropout (``training`` and ``p > 0``) draws its two
    ``(N, C_out, 1)`` masks from ``rng`` exactly as
    :func:`spatial_dropout1d` would, first block half before second, so
    the generator advances as in the unfused composition. Under
    ``no_grad`` the same helpers run in the same order, in place, freeing
    each temporary as soon as it is consumed; the output equals the
    grad-mode forward bit for bit.
    """
    n, _, length = x.shape
    c_out, c_in, k = v1.shape
    xl = x.data.transpose(0, 2, 1)
    w1, r1 = _weight_norm(v1.data, g1.data)
    w2, r2 = _weight_norm(v2.data, g2.data)
    w1m, w2m = _gemm_weight(w1), _gemm_weight(w2)
    dropping = training and p > 0.0

    def drop(h: np.ndarray) -> np.ndarray | None:
        if not dropping:
            return None
        mask = _channel_mask(rng, n, c_out, p).transpose(0, 2, 1)  # (N, 1, C)
        h.reshape(n, length, c_out)[...] *= mask
        return mask

    def residual() -> np.ndarray:
        if down_weight is None:
            return xl.reshape(n * length, c_in)
        res = xl.reshape(n * length, c_in) @ down_weight.data[:, :, 0].T
        res += down_bias.data
        return res

    parents = [x, v1, g1, b1, v2, g2, b2]
    if down_weight is not None:
        parents += [down_weight, down_bias]
    requires = is_grad_enabled() and any(t.requires_grad for t in parents)

    if not requires:
        # inference path: in place, and every temporary is freed as soon as
        # it is consumed, so the transient heap peak stays small. A larger
        # peak lets glibc trim the freed heap top after each call and
        # fault it back in on the next (hundreds of page faults per call)
        cols = _causal_cols(xl, k, dilation)
        h = _bias_relu(cols @ w1m, b1.data)
        del cols
        drop(h)
        cols = _causal_cols(h.reshape(n, length, c_out), k, dilation)
        del h
        h = _bias_relu(cols @ w2m, b2.data)
        del cols
        drop(h)
        h += residual()
        np.maximum(h, 0.0, out=h)
        return Tensor(h.reshape(n, length, c_out).transpose(0, 2, 1))

    cols1 = _causal_cols(xl, k, dilation)
    h1 = _bias_relu(cols1 @ w1m, b1.data)
    mask1 = drop(h1)
    cols2 = _causal_cols(h1.reshape(n, length, c_out), k, dilation)
    h2 = _bias_relu(cols2 @ w2m, b2.data)
    mask2 = drop(h2)
    out = h2 + residual()
    np.maximum(out, 0.0, out=out)

    def branch_grad(g: np.ndarray, h: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
        """Gradient at a conv's pre-activation from the grad at its dropout."""
        g = g * (h > 0)
        if mask is not None:
            g.reshape(n, length, c_out)[...] *= mask
        return g

    def backward(grad: np.ndarray) -> None:
        g = grad.transpose(0, 2, 1).reshape(n * length, c_out) * (out > 0)
        gx = None
        if down_weight is not None:
            if down_weight.requires_grad:
                gwd = xl.reshape(n * length, c_in).T @ g
                down_weight._accumulate(gwd.T[:, :, None])
            if down_bias.requires_grad:
                down_bias._accumulate(g.sum(axis=0))
            if x.requires_grad:
                gx = g @ down_weight.data[:, :, 0]
        elif x.requires_grad:
            gx = g
        g = branch_grad(g, h2, mask2)
        _conv_grads(g, cols2, v2, g2, b2, r2)
        g = _fold_causal(g @ w2m.T, n, length, k, dilation)
        g = branch_grad(g.reshape(n * length, c_out), h1, mask1)
        _conv_grads(g, cols1, v1, g1, b1, r1)
        if x.requires_grad:
            gx = gx + _fold_causal(g @ w1m.T, n, length, k, dilation).reshape(
                n * length, c_in
            )
            x._accumulate(gx.reshape(n, length, c_in).transpose(0, 2, 1))

    return Tensor._from_op(out.reshape(n, length, c_out).transpose(0, 2, 1), parents, backward)


def window_rows(x: Tensor) -> Tensor:
    """``(N, C, L)`` windows as the ``(1 + N*L, C)`` rows of :func:`temporal_block_rows`.

    Row 0 is the causal zero row; window ``w``'s step ``t`` is row
    ``1 + w * L + t``. The gradient that reaches the zero row is dropped.
    """
    n, c, length = x.shape
    xl = x.data.transpose(0, 2, 1).reshape(n * length, c)
    rows = np.concatenate([np.zeros((1, c), dtype=xl.dtype), xl])

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad[1:].reshape(n, length, c).transpose(0, 2, 1))

    return Tensor._from_op(rows, (x,), backward)


def _row_cols(xr: np.ndarray, taps: np.ndarray, k: int) -> np.ndarray:
    """im2col of the rows whose ``K`` taps are ``taps``: ``(len(taps) / K, K*C)``."""
    cols = np.take(xr, taps, axis=0)
    return cols.reshape(len(taps) // k, k * xr.shape[1])


def _conv_rows(cols: np.ndarray, wm: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``ReLU(cols @ wm + bias)`` as ``(1 + len(cols), C_out)`` rows behind a zero row."""
    out = np.empty((1 + len(cols), wm.shape[1]), dtype=np.result_type(cols, wm))
    out[0] = 0.0
    _bias_relu(np.matmul(cols, wm, out=out[1:]), bias)
    return out


def _fold_rows(g: np.ndarray, wm: np.ndarray, readers: np.ndarray, k: int) -> np.ndarray:
    """Input-row gradient ``(1 + M_in, C)`` of a row conv, from its pre-activation grad ``g``.

    The adjoint of :func:`_row_cols` plus the GEMM: ``g @ wm.T`` is
    written as ``(M * K, C)`` per-tap rows followed by one zero row, and
    one ``np.take`` gathers, for every input row and tap, the entry that
    read it (``readers`` of :func:`repro.nn._plans.last_step_rows`; a
    ``-1`` reader gathers the zero row). The taps are summed in
    :func:`_fold_causal`'s order, the zero-offset tap first and then
    ``0 .. K-2``, so each row sums the same terms in the same order as
    the full fold. The causal zero row gets no gradient.
    """
    m, width = len(g), wm.shape[0]
    c = width // k
    taps = np.empty((m * k + 1, c), dtype=np.result_type(g, wm))
    taps[-1] = 0.0
    np.matmul(g, wm.T, out=taps[:-1].reshape(m, width))
    gathered = np.take(taps, readers, axis=0)
    gathered = gathered.reshape(len(gathered) // k, k, c)
    gx = np.empty((1 + len(gathered), c), dtype=taps.dtype)
    gx[0] = 0.0
    body = gx[1:]
    np.copyto(body, gathered[:, k - 1])
    for tap in range(k - 1):
        body += gathered[:, tap]
    return gx


def _drop_rows(h: np.ndarray, rng: np.random.Generator, n: int, p: float) -> np.ndarray | None:
    """Spatial dropout, in place, of ``n`` windows' rows behind the zero row.

    Draws the ``(n, C, 1)`` mask of :func:`_channel_mask` and scales every
    row of window ``w`` by mask row ``w``; returns the mask as ``(n, 1, C)``
    (None, drawing nothing, when ``p`` is 0).
    """
    if p <= 0.0:
        return None
    c = h.shape[1]
    mask = _channel_mask(rng, n, c, p).transpose(0, 2, 1)
    if n:
        h[1:].reshape(n, -1, c)[...] *= mask
    return mask


def _residual_rows(
    res: np.ndarray, down_w: np.ndarray | None, down_b: np.ndarray | None
) -> np.ndarray:
    """The shortcut at the gathered input rows: identity, or the 1x1 downsample.

    ``down_w`` is the downsample's ``(C_out, C_in)`` weight matrix.
    """
    if down_w is None:
        return res
    res = res @ down_w.T
    res += down_b
    return res


def _block_rows(
    xr: np.ndarray,
    rows: tuple[np.ndarray, ...],
    n: int,
    k: int,
    w1m: np.ndarray,
    b1: np.ndarray,
    w2m: np.ndarray,
    b2: np.ndarray,
    down_w: np.ndarray | None,
    down_b: np.ndarray | None,
    p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """:func:`temporal_block_rows` without autograd, on plain arrays.

    ``w1m``/``w2m`` are the convs' folded GEMM weights
    (``_gemm_weight(_weight_norm(v, g)[0])``); ``down_w``/``down_b`` the
    downsample's ``(C_out, C_in)`` matrix and bias, or None. Returns the
    output rows ``(1 + M_out, C_out)`` behind the zero row, in place on
    fresh buffers. A frozen inference plan
    (:class:`repro.models.tcn.LastStepPlan`) calls it with weights folded
    once per fitted network.
    """
    conv1, conv2, residual = rows[:3]
    h = _conv_rows(_row_cols(xr, conv1, k), w1m, b1)
    _drop_rows(h, rng, n, p)
    out = _conv_rows(_row_cols(h, conv2, k), w2m, b2)
    del h
    _drop_rows(out, rng, n, p)
    body = out[1:]
    body += _residual_rows(np.take(xr, residual, axis=0), down_w, down_b)
    np.maximum(body, 0.0, out=body)
    return out


def temporal_block_rows(
    x: Tensor,
    rows: tuple[np.ndarray, ...],
    n: int,
    v1: Tensor,
    g1: Tensor,
    b1: Tensor,
    v2: Tensor,
    g2: Tensor,
    b2: Tensor,
    down_weight: Tensor | None = None,
    down_bias: Tensor | None = None,
    p: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """:func:`temporal_block` over selected rows of ``n`` windows, one autograd node.

    ``x`` holds block-input rows ``(1 + M_in, C_in)`` behind a leading
    zero row (:func:`window_rows` for the first block); ``rows`` is the
    block's entry of :func:`repro.nn._plans.last_step_rows`: the flat
    conv1, conv2 and residual rows, where a causal-zero tap points at
    that zero row, and the two convs' readers for the backward. Each conv
    is one ``np.take`` im2col and one GEMM over the needed rows only.
    Returns the output rows ``(1 + M_out, C_out)`` in the same layout, for
    the next block.

    A kept row gathers the same taps in the same order as the full
    forward's causal im2col and goes through the same weight-norm, GEMM,
    bias, ReLU, dropout and residual ops as :func:`temporal_block`.
    Spatial dropout draws the same two ``(n, C_out, 1)`` masks from
    ``rng`` in the same order, and scales every row of window ``w`` by
    mask row ``w``. The backward is hand-written over the kept rows: the
    weight grads are ``cols.T @ g`` (through the weight-norm chain rule),
    the bias and downsample grads sum over the kept rows, and the input
    grad is the im2col's adjoint, one gather per stage that sums each
    input row's taps (:func:`_fold_rows`); the zero row gets none.
    The full block's gradient is exactly zero at every dropped row, so
    only the GEMMs' and sums' row counts differ: values and gradients
    agree up to how BLAS and pairwise summation round a different row
    count (bit for bit where nothing rounds).
    """
    p = p if training else 0.0
    parents = (x, v1, g1, b1, v2, g2, b2)
    if down_weight is not None:
        parents += (down_weight, down_bias)
    if is_grad_enabled() and any(t.requires_grad for t in parents):
        return _temporal_block_rows_graph(x, rows, n, parents, p, rng)
    return Tensor(
        _block_rows(
            x.data,
            rows,
            n,
            v1.shape[2],
            _gemm_weight(_weight_norm(v1.data, g1.data)[0]),
            b1.data,
            _gemm_weight(_weight_norm(v2.data, g2.data)[0]),
            b2.data,
            down_weight.data[:, :, 0] if down_weight is not None else None,
            down_bias.data if down_bias is not None else None,
            p,
            rng,
        )
    )


def _temporal_block_rows_graph(
    x: Tensor,
    rows: tuple[np.ndarray, ...],
    n: int,
    parents: tuple[Tensor, ...],
    p: float,
    rng: np.random.Generator | None,
) -> Tensor:
    """:func:`temporal_block_rows` with autograd: the forward keeps what its backward reads."""
    v1, g1, b1, v2, g2, b2 = parents[1:7]
    down_weight, down_bias = parents[7:] or (None, None)
    conv1, conv2, residual, readers1, readers2 = rows
    xr = x.data
    c_out, _, k = v1.shape
    w1, r1 = _weight_norm(v1.data, g1.data)
    w2, r2 = _weight_norm(v2.data, g2.data)
    w1m, w2m = _gemm_weight(w1), _gemm_weight(w2)
    cols1 = _row_cols(xr, conv1, k)
    h1 = _conv_rows(cols1, w1m, b1.data)
    mask1 = _drop_rows(h1, rng, n, p)
    cols2 = _row_cols(h1, conv2, k)
    h2 = _conv_rows(cols2, w2m, b2.data)
    mask2 = _drop_rows(h2, rng, n, p)
    res_in = np.take(xr, residual, axis=0)
    res = _residual_rows(
        res_in,
        down_weight.data[:, :, 0] if down_weight is not None else None,
        down_bias.data if down_bias is not None else None,
    )
    out = np.empty(h2.shape, dtype=np.result_type(h2, res))
    out[0] = 0.0
    np.add(h2[1:], res, out=out[1:])
    np.maximum(out, 0.0, out=out)

    def branch_grad(g: np.ndarray, h: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
        """Gradient at a conv's pre-activation from the grad at its dropout."""
        g = g * (h[1:] > 0)
        if mask is not None and n:
            g.reshape(n, -1, c_out)[...] *= mask
        return g

    def backward(grad: np.ndarray) -> None:
        g = grad[1:] * (out[1:] > 0)
        gres = None
        if down_weight is not None:
            if down_weight.requires_grad:
                down_weight._accumulate((res_in.T @ g).T[:, :, None])
            if down_bias.requires_grad:
                down_bias._accumulate(g.sum(axis=0))
            if x.requires_grad:
                gres = g @ down_weight.data[:, :, 0]
        elif x.requires_grad:
            gres = g
        g = branch_grad(g, h2, mask2)
        _conv_grads(g, cols2, v2, g2, b2, r2)
        g = branch_grad(_fold_rows(g, w2m, readers2, k)[1:], h1, mask1)
        _conv_grads(g, cols1, v1, g1, b1, r1)
        if x.requires_grad:
            gx = _fold_rows(g, w1m, readers1, k)
            gx[residual] += gres
            x._accumulate(gx)

    return Tensor._from_op(out, parents, backward)
