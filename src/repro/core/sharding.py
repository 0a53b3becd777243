"""Pod-sharded consolidation: Algorithm 1 beyond n ≈ 500.

The paper's pre-processing is O(n^3 log n) — vectorizing bought ~40x
(see ``benchmarks/bench_consolidation_scale.py``) but the cubic term
still walls out near n = 500 (~8.5 s build, 31.7M status rows).  This
module takes the system from hundreds to thousands of machines by
partitioning the room into *pods* (contiguous machine-id ranges, the
same grouping rule as :class:`repro.testbed.multirack.MultiRackConfig`
racks and the thermal zones in :mod:`repro.thermal.zonal`) and building
one small :class:`~repro.core.consolidation.ConsolidationIndex` per pod:
the offline cost drops from ``n^3`` to ``sum_p m_p^3`` — a factor of
``(n / m)^2`` for pods of size ``m``.

Queries stay (essentially) exact because the paper's particle view
(Eq. 26) composes across any partition: at a fixed ratio ``t`` the best
global size-``k`` set is the ``k`` right-most particles, and the ``k``
right-most particles of a partitioned room are, pod by pod, prefixes of
each pod's own tabulated order at ``t``.  A global query is the
per-cardinality sweep of :class:`~repro.core.consolidation.RatioSweep`,
the one a monolithic index also answers through; only the order rows
differ.  Merging them at a ratio

1. looks up each pod's order row for ``t`` in O(log m_p) (the pod's own
   Algorithm-2 search over event times), then
2. *water-fills* the global budget across the pods — a greedy merge of
   the pods' presorted coordinate lists, exact because each pod's
   ``maxL(k_p, t)`` curve is concave in ``k_p`` (prefix sums of a
   descending sort), so marginal returns decrease and the greedy split
   is the water-filling optimum (cf. Rostami et al., "Linearized Data
   Center Workload and Cooling Management").

Because the cooling term ``-rho * t`` of Eq. 23 is *global* (one cooler
serves every pod), per-pod costs must never be summed independently —
that would double-count the cooler.  The shared-ratio formulation above
is what makes the decomposition sound: every pod operates at the same
``t``, and each pod's share of the load is its prefix coordinate sum at
that ratio.

``PodShardedIndex`` shares the monolithic index's query surface
(``query_refined`` / ``query_many`` / ``status_count`` / ``cache_key``).
:class:`~repro.core.optimizer.JointOptimizer` queries it when built
with ``pods=...``, and for every query with exclusions (a sharded index
over the survivors), so the serving daemon, controller and fault
campaigns inherit it unchanged.  The scale benchmark's annealing
baseline and Eq. 23 subset scorer live with the test oracles
(``tests/oracles/anneal.py``).
"""

from __future__ import annotations

import hashlib
import math
import os
import pathlib
from typing import Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, InfeasibleError
from repro.core.consolidation import (
    ConsolidationIndex,
    RatioSweep,
    consolidation_cache_key,
)
from repro.core.select import Pair, _validate_pairs

#: Default pod size targeted when the caller does not pick a pod count:
#: small enough that a pod build is milliseconds, large enough that the
#: cross-pod merge stays short.
DEFAULT_POD_MACHINES = 48


def contiguous_pods(n: int, pods: int) -> list[range]:
    """Partition machine ids ``0..n-1`` into ``pods`` contiguous ranges.

    Mirrors the rack rule of
    :meth:`repro.testbed.multirack.MultiRackConfig.rack_members`
    (contiguous ids, sizes differing by at most one), so a pod boundary
    can be aligned with physical racks by choosing ``pods = n_racks``.
    """
    if n < 1:
        raise ConfigurationError(f"need at least one machine, got {n}")
    if not 1 <= pods <= n:
        raise ConfigurationError(
            f"pod count must be in [1, {n}], got {pods}"
        )
    base, extra = divmod(n, pods)
    ranges: list[range] = []
    start = 0
    for p in range(pods):
        size = base + (1 if p < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


def default_pod_count(n: int) -> int:
    """Pod count targeting :data:`DEFAULT_POD_MACHINES` machines per pod."""
    return max(1, math.ceil(n / DEFAULT_POD_MACHINES))


def _pod_build_worker(spec: dict) -> dict:
    """Build one pod's tables in a worker process.

    Returns the column-oriented arrays (not the index object) so the
    payload pickles cheaply and the parent re-assembles via
    :meth:`ConsolidationIndex._from_tables`.
    """
    index = ConsolidationIndex(**spec)
    return {
        "event_t": index._event_t,
        "event_p": index._event_p,
        "event_q": index._event_q,
        "times": index._times,
        "orders_mat": index._orders_mat,
        "tab_row": index._tab_row,
        "tab_k": index._tab_k,
        "tab_lmax": index._tab_lmax,
    }


class PodShardedIndex(RatioSweep):
    """Pod-partitioned Algorithm 1 with shared-ratio global queries.

    Parameters mirror :class:`ConsolidationIndex`, plus:

    Parameters
    ----------
    pods:
        Number of contiguous pods (default: one pod per
        :data:`DEFAULT_POD_MACHINES` machines).  ``pods=1`` degenerates
        to a single monolithic index behind the sharded query path.
    cache_dir:
        Optional directory of persisted pod indexes.  Each pod's tables
        are keyed by their own content hash
        (:func:`~repro.core.consolidation.consolidation_cache_key`) and
        round-tripped through the standard ``.npz`` documents of
        :mod:`repro.core.serialization` — so pods are shared between a
        sharded and any other index over the same machine subset, and
        corrupt files are rebuilt, never trusted.
    max_workers:
        Process-pool width for the parallel pod builds (default: the
        machine's CPU count).  Builds fall back to serial, with the
        identical result, when worker processes cannot be spawned
        (restricted sandboxes) or only one pod needs building.

    Queries are the :class:`~repro.core.consolidation.RatioSweep` over
    the pods' merged order rows.  Unlike the monolithic index, the
    supply band is mandatory and ordered (``0 <= t_min <= t_max``);
    :class:`~repro.core.optimizer.JointOptimizer` always derives it from
    the cooler's achievable supply range.
    """

    _OBS = "sharding"
    _QUERY_COUNTER = "sharding.queries"

    def __init__(
        self,
        pairs: Sequence[Pair],
        w2: float,
        rho: float,
        theta0: float = 0.0,
        t_min: Optional[float] = None,
        t_max: Optional[float] = None,
        capacities: Optional[Sequence[float]] = None,
        pods: Optional[int] = None,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self.pairs = _validate_pairs(pairs)
        n = len(self.pairs)
        if w2 < 0.0:
            raise ConfigurationError(f"w2 must be non-negative, got {w2}")
        if rho <= 0.0:
            raise ConfigurationError(f"rho must be positive, got {rho}")
        if t_min is None or t_max is None:
            raise ConfigurationError(
                "the sharded index needs both t_min and t_max: the "
                "shared-ratio scan brackets candidates against the "
                "supply band"
            )
        if not 0.0 <= t_min <= t_max:
            raise ConfigurationError(
                f"need 0 <= t_min <= t_max, got [{t_min}, {t_max}]"
            )
        if capacities is not None and len(capacities) != n:
            raise ConfigurationError(
                f"{n} pairs but {len(capacities)} capacities"
            )
        self.w2 = float(w2)
        self.rho = float(rho)
        self.theta0 = float(theta0)
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self.capacities = (
            None if capacities is None else [float(c) for c in capacities]
        )
        self.cache_dir = (
            None if cache_dir is None else pathlib.Path(cache_dir)
        )
        self.max_workers = max_workers
        pod_count = default_pod_count(n) if pods is None else int(pods)
        self.pod_ranges = contiguous_pods(n, pod_count)
        self._a = np.asarray([p[0] for p in self.pairs], dtype=np.float64)
        self._b = np.asarray([p[1] for p in self.pairs], dtype=np.float64)
        self._init_sweep(self.capacities)
        self.indexes: list[ConsolidationIndex] = []
        self._build_pods()

    # ------------------------------------------------------------------ #
    # Offline: per-pod Algorithm 1, in parallel, through the .npz cache
    # ------------------------------------------------------------------ #

    def _pod_spec(self, ids: range) -> dict:
        return dict(
            pairs=[self.pairs[i] for i in ids],
            w2=self.w2,
            rho=self.rho,
            theta0=self.theta0,
            t_min=self.t_min,
            t_max=self.t_max,
            capacities=(
                None
                if self.capacities is None
                else [self.capacities[i] for i in ids]
            ),
        )

    def _build_pods(self) -> None:
        from repro.core.serialization import (
            load_consolidation_index,
            save_consolidation_index,
        )

        specs = [self._pod_spec(ids) for ids in self.pod_ranges]
        built: list[Optional[ConsolidationIndex]] = [None] * len(specs)
        pending: list[int] = []
        with obs.timed("sharding/build"):
            for p, spec in enumerate(specs):
                if self.cache_dir is None:
                    pending.append(p)
                    continue
                key = consolidation_cache_key(**spec)
                path = self.cache_dir / f"consolidation-{key[:24]}.npz"
                if path.exists():
                    try:
                        built[p] = load_consolidation_index(
                            path, expected_key=key
                        )
                        obs.count("sharding.pod_cache_hits")
                        continue
                    except ConfigurationError:
                        obs.count("sharding.pod_cache_invalid")
                pending.append(p)
            if pending:
                obs.count("sharding.pod_builds", len(pending))
                tables = self._build_tables(
                    [specs[p] for p in pending]
                )
                for p, pod_tables in zip(pending, tables):
                    built[p] = ConsolidationIndex._from_tables(
                        **specs[p], **pod_tables
                    )
                if self.cache_dir is not None:
                    self.cache_dir.mkdir(parents=True, exist_ok=True)
                    for p in pending:
                        index = built[p]
                        path = self.cache_dir / (
                            f"consolidation-{index.cache_key[:24]}.npz"
                        )
                        save_consolidation_index(index, path)
            self.indexes = [index for index in built if index is not None]
            obs.set_span_attributes(
                machines=len(self.pairs),
                pods=self.pod_count,
                built=len(pending),
                statuses=self.status_count,
            )
        obs.set_gauge("sharding.pods", self.pod_count)
        obs.set_gauge("sharding.statuses", self.status_count)

    def _build_tables(self, specs: list[dict]) -> list[dict]:
        """Build the pending pods' tables, in parallel when possible.

        Worker-process failures (sandboxes that forbid ``fork``/spawn,
        unpicklable edge cases, broken pools) degrade to the serial
        build — same tables, just slower — rather than failing the
        caller.
        """
        workers = self.max_workers
        if workers is None:
            workers = os.cpu_count() or 1
        workers = min(int(workers), len(specs))
        if workers > 1:
            try:
                from concurrent.futures import ProcessPoolExecutor
                from concurrent.futures.process import BrokenProcessPool

                with ProcessPoolExecutor(max_workers=workers) as pool:
                    tables = list(pool.map(_pod_build_worker, specs))
                obs.count("sharding.parallel_pod_builds", len(specs))
                return tables
            except (OSError, ValueError, RuntimeError, ImportError,
                    BrokenProcessPool, NotImplementedError):
                obs.count("sharding.parallel_build_fallbacks")
        return [_pod_build_worker(spec) for spec in specs]

    # ------------------------------------------------------------------ #
    # Structure facts (mirroring the monolithic surface)
    # ------------------------------------------------------------------ #

    @property
    def pod_count(self) -> int:
        """Number of pods the machines are partitioned into."""
        return len(self.pod_ranges)

    @property
    def event_count(self) -> int:
        """Total pairwise passing events across the pods."""
        return sum(index.event_count for index in self.indexes)

    @property
    def status_count(self) -> int:
        """Total tabulated statuses across the pods (``sum_p m_p^3``
        scale, versus the monolithic ``n^3``)."""
        return sum(index.status_count for index in self.indexes)

    @property
    def largest_pod(self) -> int:
        """Machines in the largest pod."""
        return max(len(ids) for ids in self.pod_ranges)

    @property
    def cache_key(self) -> str:
        """Content hash over the pod keys and the pod boundaries."""
        digest = hashlib.sha256()
        digest.update(b"repro-pod-sharded-index")
        digest.update(str([len(ids) for ids in self.pod_ranges]).encode())
        for index in self.indexes:
            digest.update(index.cache_key.encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # Online: the shared-ratio sweep over the pods' tabulated orders
    # ------------------------------------------------------------------ #

    def _sources(self) -> Sequence[tuple[ConsolidationIndex, int]]:
        return tuple(
            (index, ids.start)
            for index, ids in zip(self.indexes, self.pod_ranges)
        )

    def query(self, load: float) -> list[int]:
        """Alias of :meth:`query_refined` (the sharded path has no
        unrefined variant: the shared-ratio scan is the query)."""
        return self.query_refined(load)

    def max_load(self, power_budget: float) -> float:
        """The paper's ``maxL`` across pods: the largest load servable
        under ``power_budget``.

        For a ratio ``t`` the budget affords
        ``k_max(t) = floor((P_b - theta0 + rho * t) / w2)`` machines,
        and the servable load is the merged top-``k`` coordinate sum
        (capacity-capped).  ``k_max`` steps up while coordinates shrink
        as ``t`` grows, so the optimum sits at a step boundary: the
        scan evaluates the band floor plus every boundary in the band —
        at most ``rho * (t_max - t_min) / w2 + 2`` merge evaluations.

        Raises
        ------
        InfeasibleError
            If the budget cannot power even one machine anywhere in
            the band.
        """
        n = len(self.pairs)
        slack = power_budget - self.theta0
        candidates = [self.t_min, self.t_max]
        j_lo = math.ceil((slack + self.rho * self.t_min) / self.w2)
        j_hi = math.floor((slack + self.rho * self.t_max) / self.w2)
        for j in range(max(j_lo, 1), j_hi + 1):
            t_j = (j * self.w2 - slack) / self.rho
            if self.t_min < t_j <= self.t_max:
                candidates.append(t_j)
        best = -float("inf")
        for t in candidates:
            k_max = math.floor((slack + self.rho * t) / self.w2 + 1e-9)
            k_max = min(k_max, n)
            if k_max < 1:
                continue
            _, cum_x, cum_cap = self._evaluate(t)
            served = cum_x[:k_max]
            if cum_cap is not None:
                served = np.minimum(served, cum_cap[:k_max])
            best = max(best, float(np.max(served)))
        if best == -float("inf"):
            raise InfeasibleError(
                f"budget {power_budget:.1f} W cannot power even one "
                "machine inside the supply band"
            )
        return best
