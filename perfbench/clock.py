"""Pass clock: wall time with calibration pauses cut out, and host-speed scaling.

The shared host this benchmark runs on changes its effective CPU speed in
steps of up to 1.6x that last seconds to minutes, far longer than one
pass. No amount of repetition inside a run averages such a step away, so
every pass also times a fixed reference kernel every ``INTERVAL_S`` of
pass time and scales each measured interval by the kernel's nominal time
over its time interpolated at that moment. A reported time is thus the
time the pass would have taken on a host where the kernel runs in its
nominal time. The kernels are benchmark code only, so a change to the
program moves the scaled times in full.

A speed step does not slow every kind of code alike: vector passes over
wide arrays, interpreter-bound code and tree fitting answer differently.
So there are three kernels, and a pass uses the one that resembles its
calls: ``wide`` for ticks of many streams, whose time goes to vector
passes over the tick, ``trees`` for the cluster loop, whose time goes to
boosted-tree refits, ``narrow`` for everything else.

Calibration pauses are taken only between calls (outside every timed
interval) and are subtracted from the clock, so they never count as
serving time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: pass time between two calibrations
INTERVAL_S = 0.1
REPEATS = 3
#: ticks at least this wide are timed against the ``wide`` kernel
WIDE_STREAMS = 1024

_rng = np.random.default_rng(12345)
_A = _rng.random(4096)
_B = _rng.random(4096)
_A[::97] = np.nan
_M = _rng.random((48, 48))
_V = _rng.random((128, 48))
_W = _rng.random(12)
_X = _rng.random((1500, 8))
_G = _rng.random(1500)


class _Record:
    def __init__(self) -> None:
        self.level = 1.0
        self.seen: dict[int, float] = {}

    def step(self, v: float) -> float:
        self.seen[int(v) % 17] = v
        return self.level + v


def _vector_passes(reps: int) -> float:
    s = 0.0
    for _ in range(reps):
        c = np.where(np.isfinite(_A), _A * 0.9 + _B * 0.1, _B)
        c.sort()
        s += float((_V @ _M).sum()) + float(c[-1])
    return s


def _wide_kernel() -> float:
    """Mostly vector passes over a 4096-stream tick, some interpreter work."""
    s = 0.0
    for i in range(1500):
        s += (i % 7) * 0.5
    return s + _vector_passes(8)


def _narrow_kernel() -> float:
    """About equal parts interpreter arithmetic, method calls and dict
    updates, NumPy calls on one window, and vector passes."""
    s = 0.0
    for i in range(800):
        s += (i % 7) * 0.5
    rec = _Record()
    for i in range(200):
        s += rec.step(float(i))
    for _ in range(30):
        w = _W[np.isfinite(_W)]
        s += float(np.clip(w * w.mean(), 0.0, 1.0)[-1])
    return s + _vector_passes(3)


def _trees_kernel() -> float:
    """The narrow kernel, then split search as a boosted-tree fit does it:
    per feature, a stable argsort of a 1500-row column, cumulative sums
    and a masked argmax."""
    s = _narrow_kernel()
    rank = np.arange(1.0, len(_G))
    for f in range(_X.shape[1]):
        col = _X[:, f]
        order = np.argsort(col, kind="stable")
        vals = col[order]
        gs = np.cumsum(_G[order])[:-1]
        valid = vals[1:] != vals[:-1]
        gains = gs[valid] ** 2 / (rank[valid] + 1.0)
        s += float(gains[int(np.argmax(gains))])
    return s


#: kernel and the reference time its scaled figures are expressed at
KERNELS = {
    "wide": (_wide_kernel, 0.5e-3),
    "narrow": (_narrow_kernel, 0.5e-3),
    "trees": (_trees_kernel, 1.7e-3),
}


def kernel_for(streams: int) -> str:
    return "wide" if streams >= WIDE_STREAMS else "narrow"


def reference_seconds(kernel: str) -> float:
    """Fastest of ``REPEATS`` timings of the named reference kernel."""
    run = KERNELS[kernel][0]
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        run()
        best = min(best, perf_counter() - t0)
    return best


class PassClock:
    """Wall clock of one pass minus its calibration pauses."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.nominal = KERNELS[kernel][1]
        self.paused = 0.0
        self.at: list[float] = []  #: clock time of each calibration
        self.ref: list[float] = []  #: reference seconds measured there
        self.calibrate()

    def now(self) -> float:
        return perf_counter() - self.paused

    def calibrate(self) -> None:
        a = perf_counter()
        self.at.append(a - self.paused)
        self.ref.append(reference_seconds(self.kernel))
        self.paused += perf_counter() - a
        self._next = self.now() + INTERVAL_S

    def due(self) -> bool:
        return self.now() >= self._next

    def between_calls(self) -> None:
        """Calibrate if due; call only while no call is in flight."""
        if self.due():
            self.calibrate()

    def scale(self, times) -> np.ndarray:
        """Host-speed factor at each clock time (1 on the nominal host).

        Each calibration is first replaced by the median of itself and its
        two neighbours, so one disturbed kernel timing does not skew the
        calls around it.
        """
        ref = np.array(self.ref)
        if len(ref) >= 3:
            ref[1:-1] = np.median(np.stack([ref[:-2], ref[1:-1], ref[2:]]), axis=0)
        return self.nominal / np.interp(np.asarray(times, float), self.at, ref)

    def scaled(self, ends, latencies, start: int, t0: float):
        """Scaled set-up, timed latencies, timed wall time and median factor.

        ``ends[i]`` is the clock time at which call ``i`` returned,
        ``latencies[i]`` its duration, ``start`` the first timed call and
        ``t0`` the clock time the pass began. Set-up is scaled at its
        midpoint; each timed call's latency and its share of wall time
        (from the previous call's end) at its own end.
        """
        self.calibrate()  # closes the interpolation range after the last call
        ends = np.asarray(ends, float)
        setup_end = ends[start - 1] if start > 0 else t0
        setup = (setup_end - t0) * self.scale([(t0 + setup_end) / 2])[0]
        timed = ends[start:]
        factor = self.scale(timed) if len(timed) else np.ones(1)
        shares = np.diff(np.concatenate([[setup_end], timed]))
        lat = np.asarray(latencies, float)[start:] * factor[: len(timed)]
        wall = float((shares * factor[: len(timed)]).sum())
        return float(setup), lat, wall, float(np.median(factor))
