"""Discrete-time linear thermal plant extracted from the RK4 engine.

The transient room model (:class:`repro.thermal.simulation.RoomSimulation`)
integrates, for a *fixed* on-mask, dynamics that are exactly linear in
the stacked state ``x = [t_cpu, t_box, t_room]`` and the inputs (per-node
powers and the supply-air temperature): every term of the derivative —
conductive exchange, fan streams, bypass flow, envelope losses — is
affine (see Eq. 6/7 of the paper; the cooler side is the linear Eq. 10).
Composing RK4 substeps of a linear system is itself a linear map, so the
discrete step over one control interval has the exact form

    ``x+ = A x + B_power p + b_supply * t_ac + offset``

and finite differences against the engine recover ``A``, ``B_power``,
``b_supply`` and ``offset`` *exactly* (to floating-point roundoff) — no
truncation error, because there is no higher-order term to truncate.
:class:`LinearizedPlant` performs that extraction by probing the
engine's own ``_advance`` stepper with basis states/inputs, so the
linear model inherits the integrator bit for bit, and memoizes the
matrices per on-mask (the mask changes the flow topology: an off node
couples to the room through a weak passive conductance instead of its
fan stream).

This is the prediction model the receding-horizon controller
(:mod:`repro.control.mpc`) optimizes over: CPU-temperature trajectories
become affine functions of the supply-temperature trajectory, which
turns the H-step lookahead into a linear program.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.thermal.simulation import RoomSimulation


@dataclass(frozen=True)
class PlantMatrices:
    """The exact discrete-time linear map of one control interval.

    ``next_state = a @ x + b_power @ p + b_supply * t_ac + offset`` where
    ``x = [t_cpu (n), t_box (n), t_room]`` (length ``2n + 1``), ``p`` is
    the per-node electrical power vector (entries of off nodes are
    ignored: their columns are zero), and ``t_ac`` the supply-air
    temperature held over the interval.
    """

    a: np.ndarray          # (m, m)
    b_power: np.ndarray    # (m, n)
    b_supply: np.ndarray   # (m,)
    offset: np.ndarray     # (m,)
    on_mask: np.ndarray    # (n,) bool — the mask this map was built for
    dt: float

    @property
    def state_dim(self) -> int:
        return int(self.a.shape[0])


class LinearizedPlant:
    """Extract and cache per-mask discrete-time linear thermal models.

    Parameters
    ----------
    room, cooler:
        The ground-truth room and cooling unit (the same objects a
        :class:`RoomSimulation` is built from).  The cooler is only
        needed to construct the probe simulation; the PI loop is
        bypassed — the supply temperature is an *input* of the linear
        model, matching how the MPC commands it through the actuation
        map (Eq. 10's ``T_SP``/``T_ac`` relation).
    dt:
        Control interval the discrete map spans, s.
    rk_dt:
        RK4 substep; the interval is covered by
        ``ceil(dt / rk_dt)`` equal substeps (so the probe uses the same
        integrator cadence as the closed-loop simulation).
    max_cached_masks:
        LRU capacity of the per-mask matrix cache.
    """

    def __init__(
        self,
        room,
        cooler,
        dt: float = 60.0,
        rk_dt: float = 2.0,
        max_cached_masks: int = 16,
    ) -> None:
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        if rk_dt <= 0.0 or rk_dt > dt:
            raise ConfigurationError(
                f"need 0 < rk_dt <= dt, got rk_dt={rk_dt}, dt={dt}"
            )
        if max_cached_masks < 1:
            raise ConfigurationError(
                f"max_cached_masks must be >= 1, got {max_cached_masks}"
            )
        self.dt = float(dt)
        self.substeps = max(1, int(np.ceil(dt / rk_dt - 1e-9)))
        self.rk_dt = self.dt / self.substeps
        self._probe = RoomSimulation(room, cooler)
        self.n = room.node_count
        self.max_cached_masks = max_cached_masks
        self._cache: OrderedDict[bytes, PlantMatrices] = OrderedDict()

    @classmethod
    def from_testbed(
        cls, testbed, dt: float = 60.0, rk_dt: float = 2.0, **kwargs
    ) -> "LinearizedPlant":
        """Build a plant around a testbed's ground-truth room/cooler."""
        return cls(testbed.room, testbed.cooler, dt=dt, rk_dt=rk_dt, **kwargs)

    @property
    def state_dim(self) -> int:
        """Stacked state length ``2n + 1``."""
        return 2 * self.n + 1

    # ------------------------------------------------------------------ #
    # State packing
    # ------------------------------------------------------------------ #

    @staticmethod
    def pack_state(
        t_cpu: np.ndarray, t_box: np.ndarray, t_room: float
    ) -> np.ndarray:
        """Stack ``(t_cpu, t_box, t_room)`` into one state vector."""
        return np.concatenate(
            [np.asarray(t_cpu, dtype=float),
             np.asarray(t_box, dtype=float),
             [float(t_room)]]
        )

    @staticmethod
    def unpack_state(
        state: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Inverse of :meth:`pack_state`."""
        state = np.asarray(state, dtype=float)
        return state[:n], state[n: 2 * n], float(state[2 * n])

    @classmethod
    def state_of(cls, sim: RoomSimulation) -> np.ndarray:
        """The packed thermal state of a live simulation."""
        return cls.pack_state(sim.t_cpu, sim.t_box, sim.t_room)

    # ------------------------------------------------------------------ #
    # Extraction
    # ------------------------------------------------------------------ #

    def _rollout(
        self, state: np.ndarray, powers: np.ndarray, t_ac: float
    ) -> np.ndarray:
        """One control interval of the RK4 engine from ``state``.

        The probe's mask must already be set; the cooler PI loop is
        bypassed (``t_ac`` is held constant over the interval).
        """
        probe = self._probe
        n = self.n
        probe.t_cpu = np.array(state[:n], dtype=float)
        probe.t_box = np.array(state[n: 2 * n], dtype=float)
        probe.t_room = float(state[2 * n])
        probe.powers = np.asarray(powers, dtype=float)
        for _ in range(self.substeps):
            probe._advance(self.rk_dt, t_ac)
        return self.pack_state(probe.t_cpu, probe.t_box, probe.t_room)

    def matrices(self, on_mask) -> PlantMatrices:
        """The discrete linear map for ``on_mask`` (memoized, LRU).

        Extraction probes the engine with basis states and inputs: the
        zero rollout gives ``offset`` (envelope drift), each unit state
        gives a column of ``A``, each unit power a column of
        ``B_power``, and a unit supply temperature gives ``b_supply``.
        Because the dynamics are linear for a fixed mask, superposition
        makes these probes *exact* — validated against the transient
        engine in ``tests/test_control_plant.py``.
        """
        mask = np.asarray(on_mask, dtype=bool)
        if mask.shape != (self.n,):
            raise ConfigurationError(
                f"expected mask of shape ({self.n},), got {mask.shape}"
            )
        key = mask.tobytes()
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            obs.count("mpc.plant_cache_hits")
            return cached
        with obs.timed("control/linearize"):
            m = self.state_dim
            n = self.n
            self._probe.on_mask = mask
            zeros_m = np.zeros(m)
            zeros_n = np.zeros(n)
            offset = self._rollout(zeros_m, zeros_n, 0.0)
            a = np.empty((m, m))
            basis = np.zeros(m)
            for j in range(m):
                basis[j] = 1.0
                a[:, j] = self._rollout(basis, zeros_n, 0.0) - offset
                basis[j] = 0.0
            b_power = np.zeros((m, n))
            unit_p = np.zeros(n)
            for i in range(n):
                if not mask[i]:
                    continue  # an off node's power never enters the map
                unit_p[i] = 1.0
                b_power[:, i] = self._rollout(zeros_m, unit_p, 0.0) - offset
                unit_p[i] = 0.0
            b_supply = self._rollout(zeros_m, zeros_n, 1.0) - offset
            obs.set_span_attributes(
                machines_on=int(mask.sum()), dt=self.dt,
                substeps=self.substeps,
            )
        result = PlantMatrices(
            a=a, b_power=b_power, b_supply=b_supply, offset=offset,
            on_mask=mask.copy(), dt=self.dt,
        )
        self._cache[key] = result
        if len(self._cache) > self.max_cached_masks:
            self._cache.popitem(last=False)
        obs.count("mpc.plant_linearizations")
        return result

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    def step(
        self,
        state: np.ndarray,
        powers: np.ndarray,
        t_ac: float,
        on_mask,
    ) -> np.ndarray:
        """Predict the state one control interval ahead."""
        mats = self.matrices(on_mask)
        return (
            mats.a @ np.asarray(state, dtype=float)
            + mats.b_power @ np.asarray(powers, dtype=float)
            + mats.b_supply * float(t_ac)
            + mats.offset
        )

    def predict(
        self,
        state: np.ndarray,
        powers_seq,
        t_ac_seq,
        masks,
    ) -> np.ndarray:
        """Roll the linear model over a horizon.

        Returns the ``(H + 1, state_dim)`` trajectory including the
        initial state as row 0.
        """
        powers_seq = [np.asarray(p, dtype=float) for p in powers_seq]
        t_ac_seq = [float(u) for u in t_ac_seq]
        masks = list(masks)
        if not len(powers_seq) == len(t_ac_seq) == len(masks):
            raise ConfigurationError(
                "powers_seq, t_ac_seq and masks must have equal length, "
                f"got {len(powers_seq)}, {len(t_ac_seq)}, {len(masks)}"
            )
        trajectory = np.empty((len(masks) + 1, self.state_dim))
        trajectory[0] = np.asarray(state, dtype=float)
        for h, (p, u, mask) in enumerate(zip(powers_seq, t_ac_seq, masks)):
            trajectory[h + 1] = self.step(trajectory[h], p, u, mask)
        return trajectory
