"""Chip power model: dynamic CV²f plus voltage/temperature-dependent leakage.

The model is deliberately first-order — exactly the fidelity the paper's
system-level analysis needs.  Total Vdd-rail power decomposes as:

* per-core dynamic power ``Ceff · activity · V² · f`` for powered-on cores;
* per-core leakage ``L0 · (V/Vref)^k · (1 + c·(T−Tref))``, reduced to a
  small residual when the core is power gated;
* uncore dynamic power driven by an activity floor plus a per-active-core
  contribution (caches and fabric work harder when more cores are busy);
* uncore leakage (never gated — the L3 and fabric stay on).

The defaults in :class:`repro.config.ChipConfig` are calibrated so an
eight-core raytrace-class load lands near the 140 W the paper's Fig. 3a
measures, with an idle-but-clocked chip near 55 W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..config import ChipConfig

#: Reference voltage for the leakage power normalization (V).
LEAKAGE_VREF = 1.2


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component power of one die at one operating point (all watts)."""

    core_dynamic: tuple
    core_leakage: tuple
    uncore_dynamic: float
    uncore_leakage: float

    @property
    def core_total(self) -> float:
        """Sum of all per-core dynamic and leakage power."""
        return sum(self.core_dynamic) + sum(self.core_leakage)

    @property
    def total(self) -> float:
        """Total Vdd-rail chip power."""
        return self.core_total + self.uncore_dynamic + self.uncore_leakage

    def core_power(self, core_id: int) -> float:
        """Dynamic + leakage power of one core."""
        return self.core_dynamic[core_id] + self.core_leakage[core_id]


class PowerModel:
    """Computes a :class:`PowerBreakdown` from per-core operating state."""

    def __init__(self, config: ChipConfig) -> None:
        self._config = config

    @property
    def config(self) -> ChipConfig:
        """The chip configuration this model was built from."""
        return self._config

    def core_dynamic(self, activity: float, voltage: float, frequency: float) -> float:
        """Dynamic power (W) of one core at the given operating point."""
        if activity < 0:
            raise ValueError(f"activity must be >= 0, got {activity}")
        return self._config.core_ceff * activity * voltage * voltage * frequency

    def core_leakage(self, voltage: float, temperature: float, gated: bool) -> float:
        """Leakage power (W) of one core; small residual when gated."""
        leak = self._leakage(self._config.core_leakage_nominal, voltage, temperature)
        if gated:
            return leak * self._config.power_gate_residual
        return leak

    def uncore_power(
        self,
        n_active_cores: int,
        voltage: float,
        frequency: float,
        temperature: float,
    ) -> tuple:
        """(dynamic, leakage) power of the uncore in watts.

        ``frequency`` is the nest clock; we drive it with the mean core
        frequency, a reasonable stand-in for the POWER7+ nest domain.
        """
        cfg = self._config
        activity = cfg.uncore_activity_idle + cfg.uncore_activity_per_core * n_active_cores
        dynamic = cfg.uncore_ceff * activity * voltage * voltage * frequency
        leakage = self._leakage(cfg.uncore_leakage_nominal, voltage, temperature)
        return dynamic, leakage

    def chip_power(
        self,
        activities: Sequence[float],
        voltages: Sequence[float],
        frequencies: Sequence[float],
        gated: Sequence[bool],
        temperature: float,
    ) -> PowerBreakdown:
        """Full-die power breakdown.

        Parameters
        ----------
        activities:
            Per-core switching activity factor (0 for idle-clocked cores the
            caller may still use :attr:`ChipConfig.idle_activity` for).
        voltages:
            Per-core on-die voltage (V) — the *drooped* voltage, not the VRM
            setpoint, because CV²f switches at the local rail.
        frequencies:
            Per-core clock frequency (Hz).
        gated:
            Per-core power-gate state.  A gated core contributes no dynamic
            power and only residual leakage.
        temperature:
            Die temperature (C) for the leakage model.
        """
        n = self._config.n_cores
        if not (len(activities) == len(voltages) == len(frequencies) == len(gated) == n):
            raise ValueError(
                f"per-core sequences must all have length {n}; got "
                f"{len(activities)}/{len(voltages)}/{len(frequencies)}/{len(gated)}"
            )
        core_dyn = []
        core_leak = []
        active = 0
        for act, v, f, g in zip(activities, voltages, frequencies, gated):
            if g:
                core_dyn.append(0.0)
            else:
                core_dyn.append(self.core_dynamic(act, v, f))
                if act > self._config.idle_activity:
                    active += 1
            core_leak.append(self.core_leakage(v, temperature, g))
        ungated = [v for v, g in zip(voltages, gated) if not g]
        v_uncore = sum(ungated) / len(ungated) if ungated else max(voltages)
        ungated_f = [f for f, g in zip(frequencies, gated) if not g]
        f_uncore = sum(ungated_f) / len(ungated_f) if ungated_f else self._config.f_min
        unc_dyn, unc_leak = self.uncore_power(active, v_uncore, f_uncore, temperature)
        return PowerBreakdown(
            core_dynamic=tuple(core_dyn),
            core_leakage=tuple(core_leak),
            uncore_dynamic=unc_dyn,
            uncore_leakage=unc_leak,
        )

    def _leakage(self, nominal: float, voltage: float, temperature: float) -> float:
        cfg = self._config
        v_scale = (voltage / LEAKAGE_VREF) ** cfg.leakage_voltage_exponent
        t_scale = 1.0 + cfg.leakage_temp_coeff * (temperature - cfg.leakage_temp_ref)
        return nominal * v_scale * max(t_scale, 0.1)
