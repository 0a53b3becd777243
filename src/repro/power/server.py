"""Ground-truth server power model.

The paper (Eq. 9, after Heath et al. [8]) models per-server power as an
affine function of load::

    P_i = w1 * L_i + w2

where ``L_i`` is the load on server *i* (tasks/s in our workload model) and
``w1``, ``w2`` are fitted coefficients shared by all machines of the same
hardware configuration.  The simulated testbed uses this same affine law as
*ground truth*, optionally perturbed by a small load-dependent curvature term
so the profiling regression has realistic residuals to contend with, exactly
like the real Watts-up-Pro traces in the paper's Fig. 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ServerPowerModel:
    """Affine load-to-power law for one server (paper Eq. 9).

    Parameters
    ----------
    w1:
        Marginal power per unit load, W/(task/s).  Must be positive: more
        work always costs more energy on this hardware.
    w2:
        Load-independent (idle) power draw, W.  Must be non-negative.
    curvature:
        Optional quadratic perturbation coefficient.  The true testbed
        hardware is not perfectly linear; a small positive value bends the
        power curve slightly so that fitted ``(w1, w2)`` differ from the
        ground truth by a realistic amount.  Expressed as W/(task/s)^2.
    capacity:
        The maximum sustainable load of the machine, tasks/s.  Used to
        validate load inputs and to express loads as utilization fractions.
    """

    w1: float
    w2: float
    curvature: float = 0.0
    capacity: float = 40.0

    def __post_init__(self) -> None:
        if self.w1 <= 0.0:
            raise ConfigurationError(f"w1 must be positive, got {self.w1}")
        if self.w2 < 0.0:
            raise ConfigurationError(f"w2 must be non-negative, got {self.w2}")
        if self.capacity <= 0.0:
            raise ConfigurationError(
                f"capacity must be positive, got {self.capacity}"
            )

    def power(self, load: float) -> float:
        """Instantaneous power draw (W) at ``load`` tasks/s.

        Raises
        ------
        ConfigurationError
            If ``load`` is negative or not finite.  Loads slightly above
            capacity are clamped (a saturated server cannot do more work
            than its capacity, so it cannot draw more dynamic power
            either).
        """
        if not math.isfinite(load):
            raise ConfigurationError(f"load must be finite, got {load}")
        if load < 0.0:
            raise ConfigurationError(f"load must be non-negative, got {load}")
        effective = min(load, self.capacity)
        return self.w2 + self.w1 * effective + self.curvature * effective**2

    def power_at_utilization(self, utilization: float) -> float:
        """Power draw at a utilization fraction in ``[0, 1]``."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(
                f"utilization must be in [0, 1], got {utilization}"
            )
        return self.power(utilization * self.capacity)

    @property
    def peak_power(self) -> float:
        """Power draw at full load (W)."""
        return self.power(self.capacity)

    def load_for_power(self, power: float) -> float:
        """Invert the affine law: the load that would draw ``power`` watts.

        Only meaningful for the linear part of the model (``curvature`` is
        ignored); used by tests and by the analytic optimizer, which works
        with the fitted linear model anyway.
        """
        return (power - self.w2) / self.w1
