"""Metric primitives and the process-local registry.

Three instrument kinds, mirroring the usual metrics vocabulary:

- :class:`Counter` — a monotonically increasing total (events seen,
  solver iterations performed, simulation steps taken);
- :class:`Gauge` — a point-in-time value that can move both ways
  (statuses tabulated by the last index build, machines currently on);
- :class:`Histogram` — a distribution of observations, used for all
  wall-clock span durations (``time.<span>`` series recorded by
  :class:`repro.obs.runtime.timed`).

A :class:`MetricsRegistry` owns one namespace of instruments plus the
list of completed :class:`~repro.obs.records.RunRecord` objects.  The
registry is plain data: enabling/disabling instrumentation and the
module-global default registry live in :mod:`repro.obs.runtime`.

One lock-free registry serves every thread (the daemon's event loop
and compute thread update it at once): get-or-create and appends are
atomic under the GIL, but a racing float ``+=`` can, rarely, lose an
update — the price of the near-zero-cost disabled mode.  Snapshots are
JSON-safe dictionaries and round-trip through
:meth:`MetricsRegistry.from_snapshot`.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from time import monotonic
from typing import Iterator, Mapping, Optional

from repro.errors import ConfigurationError
from repro.obs.records import RunRecord

#: Version stamp embedded in every snapshot so downstream consumers
#: (the bench results schema check, dashboards) can detect drift.
SCHEMA_VERSION = 1

#: Histograms keep at most this many raw samples (count/total/min/max
#: stay exact beyond it; retention degrades to uniform reservoir
#: sampling); bounds memory for long campaigns.
MAX_HISTOGRAM_SAMPLES = 4096

#: Per-time-bucket raw-sample cap for :class:`SlidingHistogram`.  Within
#: a bucket the first this-many observations are retained exactly;
#: beyond it retention degrades to reservoir sampling (and window
#: summaries say so via ``sampled``).
MAX_WINDOW_BUCKET_SAMPLES = 1024

#: Default horizons (seconds) reported by windowed summaries: 10 s /
#: 1 min / 5 min — the operator's "now", "recently", and "trend" views.
DEFAULT_HORIZONS = (10.0, 60.0, 300.0)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0.0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """A point-in-time value that can move in either direction."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """A distribution of observations (durations, sizes, gaps).

    Tracks exact ``count``/``total``/``min``/``max`` for any number of
    observations and retains up to :data:`MAX_HISTOGRAM_SAMPLES` raw
    samples for percentile queries.  Past the cap, retention switches to
    reservoir sampling (Vitter's Algorithm R) so the retained set stays
    a uniform sample of *every* observation — keeping only the first N
    would bias quantiles toward run startup and hide late-run outliers.
    The reservoir uses a private :class:`random.Random` seeded from the
    histogram name, so results are deterministic and the global
    ``random`` state is untouched.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples",
                 "_rng", "_restored")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))
        #: Retained-sample count carried over from a snapshot (raw
        #: samples themselves are never exported); ``None`` while the
        #: histogram is live.
        self._restored: Optional[int] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self._restored = None
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < MAX_HISTOGRAM_SAMPLES:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < MAX_HISTOGRAM_SAMPLES:
                self._samples[slot] = value

    @property
    def mean(self) -> float:
        """Average observation (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (over the retained samples)."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = q / 100.0 * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    @property
    def samples_retained(self) -> int:
        """How many raw samples back the percentile estimates."""
        if self._restored is not None:
            return self._restored
        return len(self._samples)

    @property
    def sampled(self) -> bool:
        """Whether the reservoir downsampled (percentiles approximate).

        ``False`` means every observation is retained and
        :meth:`percentile` is exact; ``True`` means quantiles come from
        a uniform sample of ``samples_retained`` out of ``count``
        observations.
        """
        return self.count > self.samples_retained

    def summary(self) -> dict:
        """JSON-safe summary (raw samples are not exported).

        When the reservoir has downsampled, the summary carries
        ``"sampled": true`` plus ``"samples"`` (the retained-sample
        count) next to the raw ``"count"`` — so exported percentiles
        are never silently read as exact.  Exact histograms omit both
        keys and keep the historical five-key shape.
        """
        summary = {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }
        if self.sampled:
            summary["sampled"] = True
            summary["samples"] = self.samples_retained
        return summary


class _Windowed:
    """Shared ring-of-time-buckets machinery for windowed instruments.

    Both windowed instruments key a fixed-size ring by *absolute bucket
    epoch* (``floor(now / bucket_seconds)``): writing to a slot whose
    stored epoch is stale resets it first, so expiry costs nothing — old
    buckets are simply never read once their epoch falls out of the
    window.  Every read/write takes an explicit ``now`` (defaulting to
    :func:`time.monotonic`) so tests can drive the clock
    deterministically.
    """

    __slots__ = ("name", "window", "bucket_seconds", "n_buckets", "_epochs")

    def __init__(
        self, name: str, window: float = 300.0, bucket_seconds: float = 1.0
    ) -> None:
        if bucket_seconds <= 0.0:
            raise ConfigurationError(
                f"windowed instrument {name!r}: bucket_seconds must be "
                f"positive, got {bucket_seconds}"
            )
        if window < bucket_seconds:
            raise ConfigurationError(
                f"windowed instrument {name!r}: window ({window}) must be "
                f"at least one bucket ({bucket_seconds})"
            )
        self.name = name
        self.window = float(window)
        self.bucket_seconds = float(bucket_seconds)
        self.n_buckets = int(math.ceil(self.window / self.bucket_seconds))
        self._epochs = [-1] * self.n_buckets

    def _epoch(self, now: Optional[float]) -> int:
        if now is None:
            now = monotonic()
        return int(now // self.bucket_seconds)

    def _span(self, horizon: float) -> int:
        """Bucket count covering ``horizon`` (validated against window)."""
        if not 0.0 < horizon <= self.window + 1e-9:
            raise ConfigurationError(
                f"windowed instrument {self.name!r}: horizon must be in "
                f"(0, {self.window}] seconds, got {horizon}"
            )
        return min(
            self.n_buckets, int(math.ceil(horizon / self.bucket_seconds))
        )

    def _live_slots(
        self, horizon: float, now: Optional[float]
    ) -> Iterator[int]:
        """Slots holding data observed within ``horizon`` of ``now``."""
        epoch = self._epoch(now)
        span = self._span(horizon)
        for e in range(epoch - span + 1, epoch + 1):
            slot = e % self.n_buckets
            if self._epochs[slot] == e:
                yield slot


class WindowedCounter(_Windowed):
    """An event counter with per-horizon totals and rates.

    Unlike :class:`Counter` (a lifetime total), a ``WindowedCounter``
    answers "how many in the last H seconds" for any horizon up to its
    window — the primitive behind live req/s and error-rate readouts.
    """

    __slots__ = ("_values",)

    def __init__(
        self, name: str, window: float = 300.0, bucket_seconds: float = 1.0
    ) -> None:
        super().__init__(name, window, bucket_seconds)
        self._values = [0.0] * self.n_buckets

    def inc(self, amount: float = 1.0, now: Optional[float] = None) -> None:
        if amount < 0.0:
            raise ConfigurationError(
                f"windowed counter {self.name!r} cannot decrease "
                f"(inc {amount})"
            )
        epoch = self._epoch(now)
        slot = epoch % self.n_buckets
        if self._epochs[slot] != epoch:
            self._epochs[slot] = epoch
            self._values[slot] = 0.0
        self._values[slot] += amount

    def total(self, horizon: float, now: Optional[float] = None) -> float:
        """Sum of increments within the last ``horizon`` seconds."""
        return sum(self._values[s] for s in self._live_slots(horizon, now))

    def rate(self, horizon: float, now: Optional[float] = None) -> float:
        """Mean per-second rate over the last ``horizon`` seconds."""
        return self.total(horizon, now=now) / horizon

    def summary(
        self,
        horizons: tuple = DEFAULT_HORIZONS,
        now: Optional[float] = None,
    ) -> dict:
        """JSON-safe ``{"<horizon s>": {"total", "rate"}}`` map."""
        out = {}
        for horizon in horizons:
            total = self.total(horizon, now=now)
            out[f"{horizon:g}"] = {"total": total, "rate": total / horizon}
        return out


class SlidingHistogram(_Windowed):
    """A distribution over a sliding time window.

    Complements :class:`Histogram` (lifetime-cumulative): the sliding
    variant answers "what is the p99 *right now*", over any horizon up
    to its window, by retaining raw samples per time bucket.  Within a
    bucket the first :data:`MAX_WINDOW_BUCKET_SAMPLES` observations are
    kept exactly — so window percentiles are exact at sane rates — and
    beyond that retention degrades to the same deterministic reservoir
    sampling as :class:`Histogram` (summaries then carry
    ``sampled: true``).  count/total/min/max per bucket stay exact
    regardless.
    """

    __slots__ = ("_counts", "_totals", "_mins", "_maxs", "_samples", "_rng")

    def __init__(
        self, name: str, window: float = 300.0, bucket_seconds: float = 1.0
    ) -> None:
        super().__init__(name, window, bucket_seconds)
        n = self.n_buckets
        self._counts = [0] * n
        self._totals = [0.0] * n
        self._mins = [0.0] * n
        self._maxs = [0.0] * n
        self._samples: list[list[float]] = [[] for _ in range(n)]
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float, now: Optional[float] = None) -> None:
        value = float(value)
        epoch = self._epoch(now)
        slot = epoch % self.n_buckets
        if self._epochs[slot] != epoch:
            self._epochs[slot] = epoch
            self._counts[slot] = 0
            self._totals[slot] = 0.0
            self._samples[slot] = []
        count = self._counts[slot]
        if count == 0 or value < self._mins[slot]:
            self._mins[slot] = value
        if count == 0 or value > self._maxs[slot]:
            self._maxs[slot] = value
        self._counts[slot] = count + 1
        self._totals[slot] += value
        samples = self._samples[slot]
        if len(samples) < MAX_WINDOW_BUCKET_SAMPLES:
            samples.append(value)
        else:
            pick = self._rng.randrange(count + 1)
            if pick < MAX_WINDOW_BUCKET_SAMPLES:
                samples[pick] = value

    # -- window reads --------------------------------------------------- #

    def count(self, horizon: float, now: Optional[float] = None) -> int:
        return sum(self._counts[s] for s in self._live_slots(horizon, now))

    def total(self, horizon: float, now: Optional[float] = None) -> float:
        return sum(self._totals[s] for s in self._live_slots(horizon, now))

    def rate(self, horizon: float, now: Optional[float] = None) -> float:
        """Observations per second over the last ``horizon`` seconds."""
        return self.count(horizon, now=now) / horizon

    def mean(self, horizon: float, now: Optional[float] = None) -> float:
        count = total = 0.0
        for slot in self._live_slots(horizon, now):
            count += self._counts[slot]
            total += self._totals[slot]
        return total / count if count else 0.0

    def min_value(self, horizon: float, now: Optional[float] = None) -> float:
        lows = [self._mins[s] for s in self._live_slots(horizon, now)
                if self._counts[s]]
        return min(lows) if lows else 0.0

    def max_value(self, horizon: float, now: Optional[float] = None) -> float:
        highs = [self._maxs[s] for s in self._live_slots(horizon, now)
                 if self._counts[s]]
        return max(highs) if highs else 0.0

    def sampled(self, horizon: float, now: Optional[float] = None) -> bool:
        """Whether any live bucket downsampled (percentiles approximate)."""
        return any(
            self._counts[s] > len(self._samples[s])
            for s in self._live_slots(horizon, now)
        )

    def percentile(
        self, q: float, horizon: float, now: Optional[float] = None
    ) -> float:
        """``q``-th percentile over the last ``horizon`` seconds.

        Exact while no live bucket overflowed its sample cap; the same
        linear interpolation as :meth:`Histogram.percentile`.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(
                f"percentile must be in [0, 100], got {q}"
            )
        pooled: list[float] = []
        for slot in self._live_slots(horizon, now):
            pooled.extend(self._samples[slot])
        if not pooled:
            return 0.0
        pooled.sort()
        rank = q / 100.0 * (len(pooled) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(pooled) - 1)
        frac = rank - lo
        return pooled[lo] * (1.0 - frac) + pooled[hi] * frac

    def summary(
        self,
        horizons: tuple = DEFAULT_HORIZONS,
        now: Optional[float] = None,
    ) -> dict:
        """JSON-safe per-horizon summary map.

        ``{"<horizon s>": {count, rate, mean, min, max, p50, p99,
        sampled}}`` — the shape the serving ``telemetry`` op exports.
        """
        out = {}
        for horizon in horizons:
            out[f"{horizon:g}"] = {
                "count": self.count(horizon, now=now),
                "rate": self.rate(horizon, now=now),
                "mean": self.mean(horizon, now=now),
                "min": self.min_value(horizon, now=now),
                "max": self.max_value(horizon, now=now),
                "p50": self.percentile(50.0, horizon, now=now),
                "p99": self.percentile(99.0, horizon, now=now),
                "sampled": self.sampled(horizon, now=now),
            }
        return out


class MetricsRegistry:
    """One namespace of counters, gauges, histograms, and run records.

    Instruments are created on first use (``registry.counter("x")``)
    so call sites never need registration boilerplate.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.records: list[RunRecord] = []

    # ------------------------------------------------------------------ #
    # Instrument access (get-or-create)
    # ------------------------------------------------------------------ #

    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = Histogram(name)
        return inst

    def reset(self) -> None:
        """Drop every instrument and record."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.records.clear()

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def timings(self) -> dict[str, dict]:
        """Summaries of every ``time.<span>`` histogram, keyed by span
        path (the ``time.`` prefix stripped)."""
        return {
            name[len("time.") :]: hist.summary()
            for name, hist in sorted(self.histograms.items())
            if name.startswith("time.")
        }

    def snapshot(self) -> dict:
        """The whole registry as one JSON-safe dictionary."""
        return {
            "schema": SCHEMA_VERSION,
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self.histograms.items())
            },
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The snapshot serialized as JSON."""
        return json.dumps(self.snapshot(), indent=indent)

    @classmethod
    def from_snapshot(cls, data: Mapping) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output.

        Histogram raw samples are not exported, so percentile queries on
        the rebuilt registry degrade to the mean; ``snapshot()`` of the
        result round-trips exactly.
        """
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported metrics snapshot schema {schema!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        registry = cls()
        for name, value in data.get("counters", {}).items():
            registry.counter(name).value = float(value)
        for name, value in data.get("gauges", {}).items():
            registry.gauge(name).set(float(value))
        for name, summary in data.get("histograms", {}).items():
            hist = registry.histogram(name)
            hist.count = int(summary["count"])
            hist.total = float(summary["total"])
            if hist.count:
                hist.min = float(summary["min"])
                hist.max = float(summary["max"])
                # An absent "samples" key means the source histogram was
                # exact, so the restored one reports exact too.
                hist._restored = int(summary.get("samples", hist.count))
        registry.records = [
            RunRecord.from_dict(r) for r in data.get("records", [])
        ]
        return registry
