"""Result containers with the derived metrics the figures report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..guardband import GuardbandMode
from ..workloads.profile import WorkloadProfile
from .run import active_mean_frequency
from .server import ServerOperatingPoint


@dataclass(frozen=True)
class SteadyState:
    """One settled measurement: a workload, a placement, a mode."""

    workload: str
    mode: GuardbandMode
    n_active_cores: int
    point: ServerOperatingPoint

    #: Execution time (s) of the workload at this operating point, when a
    #: runtime estimate applies (None for open-ended runs).
    execution_time: Optional[float] = None

    #: Mean clock (Hz) of the cores actually running the workload, captured
    #: at measurement time (idle-socket cores are excluded).
    active_frequency: Optional[float] = None

    @property
    def chip_power(self) -> float:
        """Total chip Vdd power across sockets (W)."""
        return self.point.chip_power

    @property
    def energy(self) -> Optional[float]:
        """Chip energy (J) over the execution, when a runtime applies."""
        if self.execution_time is None:
            return None
        return self.chip_power * self.execution_time

    @property
    def edp(self) -> Optional[float]:
        """Energy-delay product (J·s), when a runtime applies."""
        if self.execution_time is None:
            return None
        return self.energy * self.execution_time


@dataclass(frozen=True)
class RunResult:
    """A static-vs-adaptive measurement pair at one placement.

    This is the unit every improvement figure is built from: the same
    occupancy settled under the static guardband and under one adaptive
    mode, with runtime estimates for the energy metrics.
    """

    profile: WorkloadProfile
    n_active_cores: int
    static: SteadyState
    adaptive: SteadyState

    @property
    def power_saving_fraction(self) -> float:
        """Relative chip-power reduction of the adaptive mode."""
        return 1.0 - self.adaptive.chip_power / self.static.chip_power

    @property
    def frequency_boost_fraction(self) -> float:
        """Relative clock gain of the adaptive mode over the static target."""
        static_freq = self.static.active_frequency or active_mean_frequency(
            self.static.point
        )
        adaptive_freq = self.adaptive.active_frequency or active_mean_frequency(
            self.adaptive.point
        )
        return adaptive_freq / static_freq - 1.0

    @property
    def speedup_fraction(self) -> float:
        """Relative execution-time reduction of the adaptive mode."""
        if self.static.execution_time is None or self.adaptive.execution_time is None:
            raise ValueError("speedup requires runtime estimates on both states")
        return 1.0 - self.adaptive.execution_time / self.static.execution_time

    @property
    def energy_saving_fraction(self) -> float:
        """Relative chip-energy reduction of the adaptive mode."""
        if self.static.energy is None or self.adaptive.energy is None:
            raise ValueError("energy saving requires runtime estimates")
        return 1.0 - self.adaptive.energy / self.static.energy

    @property
    def edp_improvement_fraction(self) -> float:
        """Relative EDP reduction of the adaptive mode."""
        if self.static.edp is None or self.adaptive.edp is None:
            raise ValueError("EDP requires runtime estimates")
        return 1.0 - self.adaptive.edp / self.static.edp
