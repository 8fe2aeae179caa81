"""Latent-load archetypes for synthetic cloud workloads.

Each archetype returns a latent utilization series in ``[0, 1]`` that
drives all eight indicators of an entity (see
:mod:`repro.traces.generator`). The archetypes cover the behaviours the
paper observes in the Alibaba trace:

* machines show mild diurnal periodicity around 40-60 % mean utilization
  (paper Fig. 2) — :func:`periodic_load`;
* containers are *high-dynamic*: abrupt regime switches, bursts, and no
  long-range regularity (paper Fig. 1) — :func:`regime_switching_load`,
  :func:`bursty_load`, :func:`spiky_batch_load`;
* the Fig. 8 evaluation series has a sustained abrupt jump ("the CPU
  resource utilization increases abruptly after the 350th sampling point,
  then maintains a high utilization") — :func:`mutation_load`.

All series are produced by vectorized NumPy (AR(1) smoothing is the one
``np.add.accumulate``-style recursion, done via ``scipy.signal.lfilter``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "periodic_load",
    "bursty_load",
    "regime_switching_load",
    "ramp_load",
    "spiky_batch_load",
    "mutation_load",
    "ar1_noise",
    "WORKLOAD_ARCHETYPES",
]


def ar1_noise(
    n: int, rng: np.random.Generator, phi: float = 0.9, sigma: float = 1.0
) -> np.ndarray:
    """Zero-mean AR(1) series ``x_t = phi * x_{t-1} + eps_t``.

    Implemented as an IIR filter so the recursion runs in C, and scaled to
    unit stationary variance before applying ``sigma``.
    """
    if not -1.0 < phi < 1.0:
        raise ValueError(f"phi must be in (-1, 1) for stationarity, got {phi}")
    from scipy.signal import lfilter

    eps = rng.standard_normal(n)
    x = lfilter([1.0], [1.0, -phi], eps)
    return sigma * x * np.sqrt(1.0 - phi**2)


def periodic_load(
    n: int,
    rng: np.random.Generator,
    *,
    base: float = 0.42,
    amplitude: float = 0.12,
    period: int = 8640,  # 24 h at 10 s sampling
    noise: float = 0.05,
    phase: float | None = None,
) -> np.ndarray:
    """Diurnal machine-level load: sinusoid + AR(1) jitter.

    Defaults target the paper's reported cluster statistics: mean usage in
    the 40-60 % band with 75 % of samples below 0.6.
    """
    phase = rng.uniform(0, 2 * np.pi) if phase is None else phase
    t = np.arange(n)
    diurnal = base + amplitude * np.sin(2 * np.pi * t / period + phase)
    # a weak second harmonic makes the daily shape asymmetric, like real load
    diurnal += 0.35 * amplitude * np.sin(4 * np.pi * t / period + 2.1 * phase)
    return np.clip(diurnal + ar1_noise(n, rng, phi=0.95, sigma=noise), 0.0, 1.0)


def bursty_load(
    n: int,
    rng: np.random.Generator,
    *,
    base: float = 0.25,
    burst_rate: float = 0.01,
    burst_height: float = 0.45,
    burst_len_mean: float = 30.0,
    noise: float = 0.06,
) -> np.ndarray:
    """Low steady load with Poisson-arriving rectangular bursts.

    Burst starts are a Bernoulli process; each burst holds an elevated
    level for a geometric duration — the classic request-storm shape of
    online services.
    """
    load = np.full(n, base)
    starts = np.flatnonzero(rng.random(n) < burst_rate)
    heights = rng.uniform(0.5, 1.5, size=starts.size) * burst_height
    lengths = rng.geometric(1.0 / burst_len_mean, size=starts.size)
    for s, h, ln in zip(starts, heights, lengths):
        load[s : s + ln] += h
    return np.clip(load + ar1_noise(n, rng, phi=0.8, sigma=noise), 0.0, 1.0)


def regime_switching_load(
    n: int,
    rng: np.random.Generator,
    *,
    levels: tuple[float, ...] = (0.15, 0.45, 0.8),
    dwell_mean: float = 120.0,
    noise: float = 0.07,
) -> np.ndarray:
    """Markov regime switching between utilization plateaus.

    This is the dominant container behaviour in the paper's Fig. 1:
    stretches of stable usage punctuated by *mutation points* — abrupt,
    unpredictable level changes that defeat purely periodic predictors.
    """
    if len(levels) < 2:
        raise ValueError("need at least two regimes")
    # sample dwell times until the horizon is covered
    segments: list[tuple[int, float]] = []
    covered = 0
    state = int(rng.integers(len(levels)))
    while covered < n:
        dwell = int(rng.geometric(1.0 / dwell_mean))
        segments.append((min(dwell, n - covered), levels[state]))
        covered += dwell
        # jump to a different regime (uniform over the others)
        state = (state + 1 + int(rng.integers(len(levels) - 1))) % len(levels)
    load = np.concatenate([np.full(ln, lv) for ln, lv in segments])[:n]
    return np.clip(load + ar1_noise(n, rng, phi=0.85, sigma=noise), 0.0, 1.0)


def ramp_load(
    n: int,
    rng: np.random.Generator,
    *,
    start: float = 0.2,
    end: float = 0.7,
    noise: float = 0.05,
) -> np.ndarray:
    """Linearly drifting load (gradual rollout / tenant growth)."""
    load = np.linspace(start, end, n)
    return np.clip(load + ar1_noise(n, rng, phi=0.9, sigma=noise), 0.0, 1.0)


def spiky_batch_load(
    n: int,
    rng: np.random.Generator,
    *,
    idle: float = 0.08,
    spike_rate: float = 0.02,
    spike_height: float = 0.85,
    decay: float = 0.9,
    noise: float = 0.04,
) -> np.ndarray:
    """Batch-job profile: near-idle with sharp spikes that decay geometrically.

    Spikes are injected as impulses and shaped by an exponential-decay IIR
    filter (map-reduce stage bursts).
    """
    from scipy.signal import lfilter

    impulses = np.where(rng.random(n) < spike_rate, spike_height, 0.0)
    impulses *= rng.uniform(0.6, 1.4, size=n)
    shaped = lfilter([1.0], [1.0, -decay], impulses)
    return np.clip(idle + shaped + ar1_noise(n, rng, phi=0.7, sigma=noise), 0.0, 1.0)


def mutation_load(
    n: int,
    rng: np.random.Generator,
    *,
    low: float = 0.25,
    high: float = 0.75,
    jump_at: float = 0.7,
    noise: float = 0.05,
    preview_rate: float = 0.01,
    preview_len_mean: float = 12.0,
) -> np.ndarray:
    """Step load: low plateau, one abrupt sustained jump at ``jump_at`` · n.

    Mirrors the paper's Fig. 8 test series where CPU utilization "increases
    abruptly after the 350th sampling point and then maintains a high
    utilization". The jump lands inside the chronological test split when
    ``jump_at`` exceeds the 0.6+0.2 train+validation fraction.

    ``preview_rate`` injects brief excursions to the high level *before*
    the jump. In the paper's trace, the high regime is not unseen — models
    predict the rise immediately but differ in how well they track the new
    level. Without previews the task degenerates into pure extrapolation
    beyond the training range, which no learned model (and especially no
    tree ensemble) can win. Set ``preview_rate=0`` for that harder variant.
    """
    if not 0.0 < jump_at < 1.0:
        raise ValueError(f"jump_at must be in (0, 1), got {jump_at}")
    if preview_rate < 0:
        raise ValueError(f"preview_rate must be non-negative, got {preview_rate}")
    k = int(n * jump_at)
    load = np.concatenate([np.full(k, low), np.full(n - k, high)])
    if preview_rate > 0 and k > 0:
        starts = np.flatnonzero(rng.random(k) < preview_rate)
        lengths = rng.geometric(1.0 / preview_len_mean, size=starts.size)
        for s, ln in zip(starts, lengths):
            stop = min(s + ln, k)
            load[s:stop] = high * rng.uniform(0.9, 1.05)
    return np.clip(load + ar1_noise(n, rng, phi=0.9, sigma=noise), 0.0, 1.0)


#: name → callable registry used by the generator and the experiment configs.
WORKLOAD_ARCHETYPES: dict[str, Callable[..., np.ndarray]] = {
    "periodic": periodic_load,
    "bursty": bursty_load,
    "regime_switching": regime_switching_load,
    "ramp": ramp_load,
    "spiky_batch": spiky_batch_load,
    "mutation": mutation_load,
}
