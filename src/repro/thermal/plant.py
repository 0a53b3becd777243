"""Weather-aware chiller plant wrapped around the CRAC coil (ROADMAP 4).

The paper's Eq. 10 prices cooling at a *constant* efficiency: the CRAC
coil removes ``q`` watts of heat for ``q / eta`` watts of electricity.
A real chilled-water plant is not constant: the compressor's coefficient
of performance (COP) falls as the outdoor wet-bulb temperature rises
(the condenser rejects against it), it degrades at part load, and for
part of the year many sites bypass the compressor entirely and
free-cool through the tower (a water-side economizer).  This module
layers that plant *behind* the existing :class:`~repro.thermal.cooling.
CoolingUnit` without touching the air-side physics:

- the CRAC coil still removes ``q_cool`` from the air stream through
  the same PI loop, enthalpy balance, ``q_max`` and ``t_ac_min``
  limits — nothing in the room simulation changes;
- the *electrical price* of ``q_cool`` becomes mode- and
  weather-dependent: ``q / COP(T_wetbulb, plr)`` in mechanical mode,
  ``q / free_cooling_cop`` when the economizer is engaged, plus the
  unchanged constant CRAC blower draw;
- an optional cooling tower converts the rejected heat into evaporated
  (plus blowdown) water, so campaigns can report WUE next to PUE.

**The linearization contract.**  Eq. 10 survives per operating point:
around a cooling load ``q0`` at wet-bulb ``t_wb`` the plant's electrical
power is the tangent line

    ``P(q) ~= P(q0) + s * (q - q0)``   with   ``s = dP/dq``,

so the paper's lumped constant re-derives as ``c = c_air / eta_eff``
with ``eta_eff = 1/s = effective_efficiency(t_wb, q0)``, and the
tangent's offset folds into the fitted :class:`~repro.core.model.
CoolerModel`'s ``idle_power``.  :meth:`ChillerPlant.linearize` performs
exactly that substitution on a fitted cooler model; the
:class:`~repro.core.optimizer.JointOptimizer` (its Eq. 23 selection
coefficients included) and the MPC's supply-air LP consume the replaced
model completely unchanged in form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro import units
from repro.errors import ConfigurationError
from repro.thermal.cooling import CoolingUnit

#: Modes the hysteretic switchover moves between.
PLANT_MODES: tuple[str, ...] = ("mechanical", "economizer")


@dataclass(frozen=True)
class COPCurve:
    """ASHRAE-style chiller performance map ``COP(T_wetbulb, plr)``.

    The full-load COP falls linearly with the condenser-side wet-bulb
    lift above the design point (``cop_nominal`` at ``t_wb_design``),
    clamped into ``[cop_min, cop_max]``; part load is priced through the
    standard DOE-2 ``EIRFPLR`` quadratic
    ``eir(plr) = a + b*plr + c*plr**2`` (normalized so ``eir(1) = 1``):

        ``COP(t_wb, plr) = cop_full(t_wb) * plr / eir(plr)``.

    Compressor cycling makes low part loads disproportionately
    expensive (``eir(0) = a > 0``), which is why consolidating cooling
    load — like consolidating compute — pays.
    """

    cop_nominal: float = 4.8
    t_wb_design: float = units.celsius_to_kelvin(24.0)
    wb_gain: float = 0.12  # COP lost per K of wet-bulb above design
    cop_min: float = 1.2
    cop_max: float = 9.0
    plr_a: float = 0.17
    plr_b: float = 0.58
    plr_c: float = 0.25

    def __post_init__(self) -> None:
        if self.cop_nominal <= 0.0:
            raise ConfigurationError(
                f"cop_nominal must be positive, got {self.cop_nominal}"
            )
        if not 0.0 < self.cop_min <= self.cop_max:
            raise ConfigurationError(
                f"need 0 < cop_min <= cop_max, got "
                f"[{self.cop_min}, {self.cop_max}]"
            )
        if self.wb_gain < 0.0:
            raise ConfigurationError(
                f"wb_gain must be non-negative, got {self.wb_gain}"
            )
        if not units.is_valid_temperature(self.t_wb_design):
            raise ConfigurationError(
                f"t_wb_design out of range: {self.t_wb_design}"
            )
        if self.plr_a <= 0.0 or self.plr_b < 0.0 or self.plr_c < 0.0:
            raise ConfigurationError(
                "EIRFPLR coefficients need a > 0, b >= 0, c >= 0; got "
                f"({self.plr_a}, {self.plr_b}, {self.plr_c})"
            )

    def cop_full_load(self, t_wetbulb: float) -> float:
        """Full-load COP at a given outdoor wet-bulb temperature, K."""
        cop = self.cop_nominal - self.wb_gain * (
            t_wetbulb - self.t_wb_design
        )
        return min(max(cop, self.cop_min), self.cop_max)

    def eir_fraction(self, plr: float) -> float:
        """EIRFPLR: energy-input ratio relative to full load."""
        return self.plr_a + self.plr_b * plr + self.plr_c * plr * plr

    def cop(self, t_wetbulb: float, plr: float) -> float:
        """Operating COP at wet-bulb ``t_wetbulb`` and part-load ``plr``."""
        plr = min(max(plr, 0.0), 1.0)
        if plr <= 0.0:
            return 0.0
        return self.cop_full_load(t_wetbulb) * plr / self.eir_fraction(plr)


@dataclass(frozen=True)
class EconomizerConfig:
    """Water-side economizer (free cooling) with a hysteretic switchover.

    Free cooling engages when the outdoor wet-bulb drops below
    ``wetbulb_on`` and only disengages once it climbs back above
    ``wetbulb_on + hysteresis`` — the dead band that prevents mode
    chatter when the weather hovers at the threshold.  While engaged,
    the compressor is off and cooling costs only tower fans and pumps:
    an effective ``free_cooling_cop`` far above any mechanical COP.
    """

    wetbulb_on: float = units.celsius_to_kelvin(8.0)
    hysteresis: float = 1.5
    free_cooling_cop: float = 14.0

    def __post_init__(self) -> None:
        if not units.is_valid_temperature(self.wetbulb_on):
            raise ConfigurationError(
                f"wetbulb_on out of range: {self.wetbulb_on}"
            )
        if self.hysteresis < 0.0:
            raise ConfigurationError(
                f"hysteresis must be non-negative, got {self.hysteresis}"
            )
        if self.free_cooling_cop <= 0.0:
            raise ConfigurationError(
                f"free_cooling_cop must be positive, "
                f"got {self.free_cooling_cop}"
            )


@dataclass(frozen=True)
class CoolingTowerConfig:
    """Evaporative cooling-tower water accounting.

    Every joule rejected at the tower evaporates
    ``1 / latent_heat`` kilograms of water; blowdown to control
    dissolved solids multiplies consumption by
    ``cycles / (cycles - 1)``.  One kilogram is one liter.
    """

    latent_heat: float = 2.45e6  # J/kg evaporated
    cycles_of_concentration: float = 4.0

    def __post_init__(self) -> None:
        if self.latent_heat <= 0.0:
            raise ConfigurationError(
                f"latent_heat must be positive, got {self.latent_heat}"
            )
        if self.cycles_of_concentration <= 1.0:
            raise ConfigurationError(
                "cycles_of_concentration must exceed 1, got "
                f"{self.cycles_of_concentration}"
            )

    @property
    def bleed_factor(self) -> float:
        """Total water drawn per kilogram evaporated."""
        c = self.cycles_of_concentration
        return c / (c - 1.0)


@dataclass
class ChillerPlant:
    """The CRAC coil's electrical back end: chiller, economizer, tower.

    Wraps a :class:`~repro.thermal.cooling.CoolingUnit` (whose air-side
    behaviour it never alters) and re-prices its heat removal through a
    weather-dependent COP curve, with an optional free-cooling mode and
    optional water accounting.  The only state is the hysteretic
    economizer mode; everything else is a pure function of
    ``(q_cool, t_wetbulb)``.
    """

    cooling_unit: CoolingUnit
    cop_curve: COPCurve = field(default_factory=COPCurve)
    economizer: Optional[EconomizerConfig] = field(
        default_factory=EconomizerConfig
    )
    tower: Optional[CoolingTowerConfig] = field(
        default_factory=CoolingTowerConfig
    )
    _mode: str = field(default="mechanical", repr=False)

    def __post_init__(self) -> None:
        if self._mode not in PLANT_MODES:
            raise ConfigurationError(f"unknown plant mode {self._mode!r}")

    # ------------------------------------------------------------------ #
    # Mode machine
    # ------------------------------------------------------------------ #

    @property
    def mode(self) -> str:
        """Current plant mode: ``"mechanical"`` or ``"economizer"``."""
        return self._mode

    def reset(self) -> None:
        """Return to mechanical mode (and clear the wrapped coil's PI)."""
        self._mode = "mechanical"
        self.cooling_unit.reset()

    def advance_mode(self, t_wetbulb: float) -> str:
        """Hysteretic switchover: engage free cooling below
        ``wetbulb_on``, fall back to mechanical only above
        ``wetbulb_on + hysteresis``.  Returns the mode now in force."""
        if self.economizer is None:
            return self._mode
        if self._mode == "mechanical":
            if t_wetbulb < self.economizer.wetbulb_on:
                self._mode = "economizer"
        else:
            if t_wetbulb > (
                self.economizer.wetbulb_on + self.economizer.hysteresis
            ):
                self._mode = "mechanical"
        return self._mode

    # ------------------------------------------------------------------ #
    # Electrical and water physics
    # ------------------------------------------------------------------ #

    def part_load_ratio(self, q_cool: float) -> float:
        """Cooling load as a fraction of the coil's ``q_max``."""
        return min(max(q_cool, 0.0) / self.cooling_unit.q_max, 1.0)

    def chiller_power(
        self, q_cool: float, t_wetbulb: float, mode: Optional[str] = None
    ) -> float:
        """Plant electrical power (W) to remove ``q_cool``, excluding
        the CRAC blower.

        Mechanical mode uses the closed form
        ``P = q_max * eir(plr) / cop_full(t_wb)`` (the EIRFPLR identity
        ``q / COP = q_max * eir(plr) / cop_full`` — quadratic in the
        load, convex, and smooth, which is what makes the per-operating-
        point tangent linearization exact).  In economizer mode the
        compressor is off and only tower fans and pumps run.
        """
        if q_cool <= 0.0:
            return 0.0
        mode = self._mode if mode is None else mode
        if mode not in PLANT_MODES:
            raise ConfigurationError(f"unknown plant mode {mode!r}")
        if mode == "economizer" and self.economizer is not None:
            return q_cool / self.economizer.free_cooling_cop
        plr = self.part_load_ratio(q_cool)
        return (
            self.cooling_unit.q_max
            * self.cop_curve.eir_fraction(plr)
            / self.cop_curve.cop_full_load(t_wetbulb)
        )

    def electrical_power(
        self, q_cool: float, t_wetbulb: float, mode: Optional[str] = None
    ) -> float:
        """Total plant draw (W): chiller/economizer plus the CRAC blower."""
        return (
            self.chiller_power(q_cool, t_wetbulb, mode=mode)
            + self.cooling_unit.fan_power
        )

    def operating_cop(
        self, q_cool: float, t_wetbulb: float, mode: Optional[str] = None
    ) -> float:
        """Achieved COP ``q / P`` at this operating point (0 at q=0)."""
        power = self.chiller_power(q_cool, t_wetbulb, mode=mode)
        if power <= 0.0:
            return 0.0
        return q_cool / power

    def water_rate(
        self, q_cool: float, t_wetbulb: float, mode: Optional[str] = None
    ) -> Optional[float]:
        """Tower water consumption (liters/s), ``None`` without a tower.

        The tower rejects the removed heat plus — in mechanical mode —
        the compressor work.
        """
        if self.tower is None:
            return None
        if q_cool <= 0.0:
            return 0.0
        rejected = q_cool + self.chiller_power(q_cool, t_wetbulb, mode=mode)
        kg_per_s = rejected / self.tower.latent_heat
        return kg_per_s * self.tower.bleed_factor

    # ------------------------------------------------------------------ #
    # The Eq. 10 linearization seam
    # ------------------------------------------------------------------ #

    def effective_efficiency(
        self, t_wetbulb: float, load: float, mode: Optional[str] = None
    ) -> float:
        """Marginal efficiency ``1 / (dP/dq)`` at cooling load ``load``.

        This is the ``eta`` that re-derives the paper's Eq. 10 locally:
        the next watt of heat costs ``1 / eta_eff`` watts of
        electricity.  Unlike the CRAC's fixed ``eta`` in ``(0, 1]``,
        the marginal value is a COP and routinely exceeds 1.  In
        mechanical mode
        ``dP/dq = (b + 2*c*plr) / cop_full(t_wb)`` (the EIRFPLR
        quadratic differentiated); in economizer mode the marginal cost
        is the constant free-cooling COP.
        """
        mode = self._mode if mode is None else mode
        if mode == "economizer" and self.economizer is not None:
            return self.economizer.free_cooling_cop
        plr = self.part_load_ratio(load)
        slope = (
            self.cop_curve.plr_b + 2.0 * self.cop_curve.plr_c * plr
        ) / self.cop_curve.cop_full_load(t_wetbulb)
        if slope <= 0.0:
            # Degenerate curve (b = c = 0): price at the average COP.
            return max(self.operating_cop(load, t_wetbulb, mode=mode), 1e-9)
        return 1.0 / slope

    def linearized_c(
        self, t_wetbulb: float, load: float, mode: Optional[str] = None
    ) -> float:
        """The re-derived lumped constant ``c = c_air / eta_eff`` (Eq. 10)."""
        return units.C_AIR / self.effective_efficiency(
            t_wetbulb, load, mode=mode
        )

    def linearize(
        self,
        cooler,
        t_wetbulb: float,
        load: float,
        mode: Optional[str] = None,
    ):
        """A fitted cooler model re-linearized at ``(t_wetbulb, load)``.

        Returns a :class:`~repro.core.model.CoolerModel` whose Eq. 10
        slope is the tangent of the plant's power curve at cooling load
        ``load`` — ``c_f_ac' = f_ac * c_air / eta_eff`` — and whose
        ``idle_power`` absorbs the tangent's offset
        ``P(q0) - s*q0`` on top of the fitted blower floor.  At the
        operating point the replaced model reproduces the plant's power
        exactly; the optimizer, MPC LP, and subset scorer consume it
        with no structural change.
        """
        mode = self._mode if mode is None else mode
        q0 = max(load, 0.0)
        slope = 1.0 / self.effective_efficiency(t_wetbulb, q0, mode=mode)
        offset = self.chiller_power(q0, t_wetbulb, mode=mode) - slope * q0
        c_f_ac = self.cooling_unit.supply_flow * units.C_AIR * slope
        return replace(
            cooler,
            c_f_ac=c_f_ac,
            idle_power=cooler.idle_power + offset,
        )

    def linearized_model(
        self,
        model,
        t_wetbulb: float,
        load: float,
        mode: Optional[str] = None,
    ):
        """A :class:`~repro.core.model.SystemModel` with its cooler
        re-linearized at the operating point (everything else shared)."""
        return replace(
            model,
            cooler=self.linearize(
                model.cooler, t_wetbulb, load, mode=mode
            ),
        )


def default_plant(cooling_unit: CoolingUnit, **overrides) -> ChillerPlant:
    """A :class:`ChillerPlant` with the default curve/economizer/tower."""
    return ChillerPlant(cooling_unit=cooling_unit, **overrides)
