"""Weight initialization schemes.

All initializers take an explicit ``np.random.Generator`` so that every
experiment in the benchmark harness is reproducible bit-for-bit from a seed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "glorot_uniform",
    "he_uniform",
    "orthogonal",
    "zeros",
    "ones",
    "compute_fans",
    "default_rng",
    "set_default_seed",
]


# ---------------------------------------------------------------------------
# module-level default generator
# ---------------------------------------------------------------------------

# Layers that are constructed without an explicit ``rng`` used to each spin
# up a fresh unseeded ``np.random.default_rng()``, making weight init
# irreproducible unless every call site threaded a generator. Instead they
# now draw from this process-wide seeded generator.

_DEFAULT_SEED = 0
_DEFAULT_RNG: np.random.Generator | None = None


def set_default_seed(seed: int) -> None:
    """(Re)seed the shared generator used when layers get ``rng=None``.

    Calling this resets the stream, so two identical model constructions
    bracketed by the same ``set_default_seed(s)`` produce identical weights.
    """
    global _DEFAULT_SEED, _DEFAULT_RNG
    _DEFAULT_SEED = int(seed)
    _DEFAULT_RNG = np.random.default_rng(_DEFAULT_SEED)


def default_rng() -> np.random.Generator:
    """The shared, seeded fallback generator (seed 0 unless overridden)."""
    global _DEFAULT_RNG
    if _DEFAULT_RNG is None:
        _DEFAULT_RNG = np.random.default_rng(_DEFAULT_SEED)
    return _DEFAULT_RNG


def compute_fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for dense and conv weight shapes.

    Dense weights are ``(out, in)``; conv1d weights are ``(out, in, k)``
    where the receptive field multiplies both fans, matching Keras/PyTorch.
    """
    if len(shape) < 1:
        raise ValueError("weight must have at least 1 dimension")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_out = shape[0] * receptive
    fan_in = shape[1] * receptive
    return fan_in, fan_out


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in, fan_out = compute_fans(shape)
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in, _ = compute_fans(shape)
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Orthogonal init (used for recurrent kernels, Saxe et al. 2014)."""
    if len(shape) < 2:
        raise ValueError("orthogonal init needs >= 2 dimensions")
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))  # deterministic sign convention
    q = q.T if rows < cols else q
    return gain * q[:rows, :cols].reshape(shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)
