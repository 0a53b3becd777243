"""Load traces: time-varying total-load profiles.

The paper optimizes for steady batch load and explicitly defers dynamic
workloads to future work.  This module provides the load profiles the
extension layers (:mod:`repro.core.controller`, :mod:`repro.control`)
use to study that regime: a diurnal cloud-batch pattern, step changes,
ramps, flash crowds, and composable noisy overlays.  A trace maps
wall-clock seconds to offered load in tasks/s.

Determinism
-----------

Every stochastic trace is a *pure function of time*: noise is derived
from a seed and the time bucket, never from mutable generator state, so
``load_at(t)`` returns the same value on every call.  That property is
what makes campaign scores reproducible byte-for-byte.

Vector twins
------------

Every constructor here also gives its trace a vectorized twin, and
:meth:`LoadTrace.values_at` is bit-identical to :meth:`LoadTrace.load_at`
at every time, not merely close: the twins repeat the scalar expression
order, and where numpy's transcendental functions may round differently
from ``math``'s in the last ulp, the twins call the ``math`` function
per element.  Code relies on this: :meth:`LoadTrace.grid` pre-samples a
trace once and serves ``load_at`` from the samples, so the MPC campaign
(:mod:`repro.control.campaign`) reads its demand and its forecasts from
one grid with unchanged results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError

_U64 = np.uint64
_DOUBLE_SCALE = 1.0 / float(1 << 53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a bijective avalanche mix on uint64."""
    x = x + _U64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def _bucket_noise(seed: int, buckets: np.ndarray) -> np.ndarray:
    """Standard-normal noise as a pure function of ``(seed, bucket)``.

    Counter-based (SplitMix64 mix + Box-Muller) so it vectorizes over
    arbitrary bucket arrays and never touches generator state: the same
    bucket always yields the same draw.
    """
    b = np.asarray(buckets, dtype=np.uint64)
    key = _mix64(np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64))[0]
    h1 = _mix64(b ^ key)
    h2 = _mix64(h1)
    u1 = (h1 >> _U64(11)).astype(np.float64) * _DOUBLE_SCALE
    u2 = (h2 >> _U64(11)).astype(np.float64) * _DOUBLE_SCALE
    u1 = np.maximum(u1, 1e-300)  # Box-Muller needs u1 > 0
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _libm(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``fn`` (a scalar ``math`` function) applied to every element of
    ``x``: the vector twins call the function their scalar profile
    calls, so the two agree bit for bit (``np.exp`` differs from
    ``math.exp`` in the last ulp on some inputs)."""
    return np.asarray(np.frompyfunc(fn, 1, 1)(x), dtype=float)


def _derive_seed(rng: np.random.Generator) -> int:
    """One stable integer drawn from ``rng`` to key per-bucket noise."""
    return int(rng.integers(0, 2**63))


@dataclass(frozen=True)
class LoadTrace:
    """A total-load profile over time.

    Attributes
    ----------
    profile:
        Function mapping time (s) to offered load (tasks/s).
    duration:
        Length of the trace, s.
    vector_profile:
        Optional vectorized twin of ``profile`` mapping an array of
        times to an array of loads; :meth:`sample` uses it for a single
        vectorized pass instead of a Python loop.
    """

    profile: Callable[[float], float]
    duration: float
    vector_profile: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration}"
            )

    def load_at(self, t: float) -> float:
        """Offered load at time ``t`` (clamped to the trace duration)."""
        clamped = min(max(t, 0.0), self.duration)
        value = float(self.profile(clamped))
        return max(0.0, value)

    def values_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`load_at` over an array of times (equal to
        it bit for bit for the traces this module builds)."""
        times = np.asarray(times, dtype=float)
        clamped = np.clip(times, 0.0, self.duration)
        if self.vector_profile is not None:
            values = np.asarray(
                self.vector_profile(clamped), dtype=float
            )
        else:
            values = np.array(
                [float(self.profile(t)) for t in clamped], dtype=float
            )
        # load_at's max(0.0, value) argument order: a -0.0 comes out
        # as 0.0 from both.
        return np.maximum(0.0, values)

    def grid(self, dt: float) -> "TraceGrid":
        """The trace pre-sampled every ``dt`` seconds, built once per
        ``dt`` and kept with the trace (see :class:`TraceGrid`)."""
        # Not a dataclass field: a cache beside the frozen fields, like
        # functools.cached_property keeps on instances.
        grids = self.__dict__.setdefault("_grids", {})
        found = grids.get(dt)
        if found is None:
            found = grids[dt] = TraceGrid(self, dt)
        return found

    def sample(self, dt: float) -> np.ndarray:
        """The trace sampled every ``dt`` seconds (inclusive of t=0).

        One vectorized pass when the trace carries a
        :attr:`vector_profile` (every constructor in this module does);
        otherwise falls back to a per-sample Python loop.
        """
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        times = np.arange(0.0, self.duration + 1e-9, dt)
        return self.values_at(times)

    def peak(self, dt: float = 60.0, refine: bool = True) -> float:
        """Largest sampled load, tasks/s.

        The coarse pass samples every ``dt`` seconds, so a flash-crowd
        spike narrower than ``dt`` can be under-resolved (the grid
        lands on its flank, not its summit).  With ``refine=True`` the
        grid around the coarse argmax is re-sampled at successively
        finer steps (down to 1 s) to recover the true summit.  A spike
        so narrow that *no* coarse sample touches it at all can still
        be missed — pass a smaller ``dt`` when the trace may contain
        features narrower than the grid.
        """
        times = np.arange(0.0, self.duration + 1e-9, dt)
        values = self.values_at(times)
        best_index = int(np.argmax(values))
        best_t = float(times[best_index])
        best = float(values[best_index])
        if not refine:
            return best
        step = dt
        while step > 1.0:
            step /= 10.0
            lo = max(0.0, best_t - 10.0 * step)
            hi = min(self.duration, best_t + 10.0 * step)
            window = np.arange(lo, hi + 1e-9, step)
            window_values = self.values_at(window)
            index = int(np.argmax(window_values))
            if window_values[index] > best:
                best = float(window_values[index])
                best_t = float(window[index])
        return best


class TraceGrid:
    """A trace's :meth:`LoadTrace.load_at`, served from one pre-sampled
    :meth:`LoadTrace.values_at` grid.

    The grid holds the trace at ``k * dt`` for every ``k`` up to the
    duration.  :meth:`load_at` clamps a time as the trace does; a
    clamped time that is exactly a grid point returns its sample, and
    any other time falls back to the trace's own ``load_at``.  Since
    ``values_at`` equals ``load_at`` bit for bit, so does the grid —
    only a lookup costs a list index instead of a profile evaluation.
    """

    def __init__(self, trace: LoadTrace, dt: float) -> None:
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        self.trace = trace
        self.dt = float(dt)
        times = np.arange(int(trace.duration / dt) + 2) * self.dt
        times = times[times <= trace.duration]
        # Python lists: indexing one is cheaper than a numpy scalar.
        self._times: list[float] = times.tolist()
        self._values: list[float] = trace.values_at(times).tolist()

    def __len__(self) -> int:
        return len(self._times)

    def load_at(self, t: float) -> float:
        """Offered load at time ``t``: ``trace.load_at(t)`` exactly."""
        clamped = min(max(t, 0.0), self.trace.duration)
        k = round(clamped / self.dt)
        if k < len(self._times) and self._times[k] == clamped:
            return self._values[k]
        return self.trace.load_at(t)


def constant_trace(load: float, duration: float) -> LoadTrace:
    """A steady load — the paper's own operating regime."""
    if load < 0.0:
        raise ConfigurationError(f"load must be non-negative, got {load}")
    return LoadTrace(
        profile=lambda t: load,
        duration=duration,
        vector_profile=lambda ts: np.full(ts.shape, float(load)),
    )


def step_trace(
    levels: Sequence[float], dwell: float
) -> LoadTrace:
    """Piecewise-constant load: ``levels[i]`` for the i-th ``dwell``
    window (the shape of the paper's profiling campaigns)."""
    if not levels:
        raise ConfigurationError("need at least one level")
    if any(l < 0.0 for l in levels):
        raise ConfigurationError("levels must be non-negative")
    if dwell <= 0.0:
        raise ConfigurationError(f"dwell must be positive, got {dwell}")
    steps = np.asarray(levels, dtype=float)
    last = len(steps) - 1

    def profile(t: float) -> float:
        return float(steps[min(int(t // dwell), last)])

    def vector_profile(ts: np.ndarray) -> np.ndarray:
        index = np.minimum((ts // dwell).astype(int), last)
        return steps[index]

    return LoadTrace(
        profile=profile,
        duration=dwell * len(steps),
        vector_profile=vector_profile,
    )


def diurnal_trace(
    base: float,
    peak: float,
    duration: float = 86400.0,
    peak_time: float = 14.0 * 3600.0,
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
    period: float = 86400.0,
    noise_dt: float = 60.0,
) -> LoadTrace:
    """A day-shaped load: a sinusoid between ``base`` (night) and
    ``peak`` (afternoon), optionally with Gaussian jitter.

    Mirrors the diurnal pattern of batch back-ends that follow user
    activity (e.g. click-stream processing feeding from live traffic).
    ``period`` compresses the day for short campaign replays.

    Noise is deterministic per time bucket: one seed is drawn from
    ``rng`` at construction and the jitter at time ``t`` is a pure
    function of ``(seed, t // noise_dt)``, so repeated ``load_at(t)``
    calls agree and replays are reproducible.
    """
    if not 0.0 <= base <= peak:
        raise ConfigurationError(
            f"need 0 <= base <= peak, got base={base}, peak={peak}"
        )
    if noise_std < 0.0:
        raise ConfigurationError(
            f"noise_std must be non-negative, got {noise_std}"
        )
    if noise_std > 0.0 and rng is None:
        raise ConfigurationError("noisy traces need an rng")
    if period <= 0.0:
        raise ConfigurationError(f"period must be positive, got {period}")
    if noise_dt <= 0.0:
        raise ConfigurationError(
            f"noise_dt must be positive, got {noise_dt}"
        )
    mid = 0.5 * (base + peak)
    amplitude = 0.5 * (peak - base)
    seed = _derive_seed(rng) if noise_std > 0.0 else 0

    def profile(t: float) -> float:
        phase = 2.0 * math.pi * (t - peak_time) / period
        value = mid + amplitude * math.cos(phase)
        if noise_std > 0.0:
            bucket = int(t // noise_dt)
            value += noise_std * float(_bucket_noise(seed, [bucket])[0])
        return value

    def vector_profile(ts: np.ndarray) -> np.ndarray:
        phase = 2.0 * np.pi * (ts - peak_time) / period
        values = mid + amplitude * _libm(math.cos, phase)
        if noise_std > 0.0:
            buckets = (ts // noise_dt).astype(np.int64)
            values = values + noise_std * _bucket_noise(seed, buckets)
        return values

    return LoadTrace(
        profile=profile, duration=duration, vector_profile=vector_profile
    )


def ramp_trace(
    start: float, end: float, duration: float
) -> LoadTrace:
    """A linear ramp from ``start`` to ``end`` tasks/s."""
    if start < 0.0 or end < 0.0:
        raise ConfigurationError("loads must be non-negative")
    return LoadTrace(
        profile=lambda t: start + (end - start) * (t / duration),
        duration=duration,
        vector_profile=lambda ts: start + (end - start) * (ts / duration),
    )


def flash_crowd_trace(
    base: float,
    spike: float,
    onset: float,
    duration: float,
    decay: float = 900.0,
    rise: float = 30.0,
) -> LoadTrace:
    """A flash crowd: steady ``base`` until ``onset``, then a sudden
    surge of ``spike`` tasks/s (linear rise over ``rise`` seconds) that
    decays exponentially back toward ``base`` with time constant
    ``decay`` — the canonical news-event / viral-link shape.
    """
    if base < 0.0:
        raise ConfigurationError(f"base must be non-negative, got {base}")
    if spike <= 0.0:
        raise ConfigurationError(f"spike must be positive, got {spike}")
    if not 0.0 <= onset < duration:
        raise ConfigurationError(
            f"onset must lie within [0, duration), got onset={onset}, "
            f"duration={duration}"
        )
    if decay <= 0.0:
        raise ConfigurationError(f"decay must be positive, got {decay}")
    if rise < 0.0:
        raise ConfigurationError(f"rise must be non-negative, got {rise}")

    crest = onset + rise

    def profile(t: float) -> float:
        if t < onset:
            return base
        if t < crest:
            return base + spike * (t - onset) / rise
        return base + spike * math.exp(-(t - crest) / decay)

    def vector_profile(ts: np.ndarray) -> np.ndarray:
        values = np.full(ts.shape, float(base))
        if rise > 0.0:
            rising = (ts >= onset) & (ts < crest)
            values[rising] += spike * (ts[rising] - onset) / rise
        decaying = ts >= crest
        values[decaying] += spike * _libm(
            math.exp, -(ts[decaying] - crest) / decay
        )
        return values

    return LoadTrace(
        profile=profile, duration=duration, vector_profile=vector_profile
    )


def overlay_traces(*traces: LoadTrace) -> LoadTrace:
    """The pointwise sum of component traces.

    Each component is evaluated through its own :meth:`LoadTrace.load_at`
    (so per-component clamping applies) and the results are added; the
    overlay spans the longest component.  This is the composition
    primitive: diurnal + flash crowd + noise = overlay of three traces.
    """
    if not traces:
        raise ConfigurationError("need at least one trace to overlay")
    duration = max(trace.duration for trace in traces)
    parts = tuple(traces)

    def profile(t: float) -> float:
        return sum(part.load_at(t) for part in parts)

    def vector_profile(ts: np.ndarray) -> np.ndarray:
        total = np.zeros(ts.shape)
        for part in parts:
            total += part.values_at(ts)
        return total

    return LoadTrace(
        profile=profile, duration=duration, vector_profile=vector_profile
    )


def noisy_trace(
    trace: LoadTrace,
    noise_std: float,
    seed: int,
    noise_dt: float = 60.0,
) -> LoadTrace:
    """``trace`` plus deterministic per-bucket Gaussian jitter.

    The jitter at time ``t`` is a pure function of
    ``(seed, t // noise_dt)`` — see the module docstring — so the noisy
    trace stays replayable: the same ``t`` always sees the same draw.
    """
    if noise_std < 0.0:
        raise ConfigurationError(
            f"noise_std must be non-negative, got {noise_std}"
        )
    if noise_dt <= 0.0:
        raise ConfigurationError(
            f"noise_dt must be positive, got {noise_dt}"
        )

    def profile(t: float) -> float:
        bucket = int(t // noise_dt)
        jitter = noise_std * float(_bucket_noise(seed, [bucket])[0])
        return trace.load_at(t) + jitter

    def vector_profile(ts: np.ndarray) -> np.ndarray:
        buckets = (ts // noise_dt).astype(np.int64)
        return trace.values_at(ts) + noise_std * _bucket_noise(
            seed, buckets
        )

    return LoadTrace(
        profile=profile,
        duration=trace.duration,
        vector_profile=vector_profile,
    )


def clamped_trace(
    trace: LoadTrace,
    ceiling: float,
    floor: float = 0.0,
) -> LoadTrace:
    """``trace`` clipped into ``[floor, ceiling]`` — e.g. offered load
    capped at cluster capacity before it reaches a controller."""
    if not 0.0 <= floor <= ceiling:
        raise ConfigurationError(
            f"need 0 <= floor <= ceiling, got floor={floor}, "
            f"ceiling={ceiling}"
        )

    return LoadTrace(
        profile=lambda t: min(max(trace.load_at(t), floor), ceiling),
        duration=trace.duration,
        vector_profile=lambda ts: np.clip(
            trace.values_at(ts), floor, ceiling
        ),
    )
