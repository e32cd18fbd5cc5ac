"""One socket's complete power delivery path: VRM rail → package → cores.

:class:`PowerDeliveryPath` composes the three drop mechanisms of Fig. 8 for
a single socket and answers the central electrical question of the
simulator: *given a VRM setpoint and per-core currents, what voltage do the
transistors of each core actually see?*

The returned :class:`DropBreakdown` carries each component separately so
the analysis layer can regenerate the stacked decomposition of Fig. 9
without re-deriving anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..config import PdnConfig
from ..faults.injector import fault_injector
from ..floorplan import Floorplan
from .didt import DidtNoiseModel
from .irdrop import IrDropNetwork
from .vrm import VoltageRegulatorModule


@dataclass(frozen=True)
class DropBreakdown:
    """Per-core voltage drop decomposition for one operating point.

    All entries are in volts.  ``core_voltages`` is the final on-die voltage
    per core under *typical* conditions (worst-case droops are transient
    events layered on top by the telemetry and firmware models).
    """

    #: VRM setpoint the rail was programmed to.
    setpoint: float

    #: Loadline drop at the VRM (scalar — shared by the whole socket).
    loadline: float

    #: Shared on-chip grid IR drop (scalar).
    ir_shared: float

    #: Per-core local IR drop.
    ir_local: tuple

    #: Typical-case di/dt ripple amplitude (scalar).
    typical_didt: float

    #: Worst-case droop magnitude that events in this state would reach.
    worst_didt: float

    #: Per-core on-die voltage under typical conditions.
    core_voltages: tuple

    @property
    def passive_total(self) -> float:
        """Loadline + shared IR + mean local IR — the paper's passive drop."""
        return self.loadline + self.ir_shared + float(np.mean(self.ir_local))

    def passive_at(self, core_id: int) -> float:
        """Passive (loadline + IR) drop at one core."""
        return self.loadline + self.ir_shared + self.ir_local[core_id]

    def total_at(self, core_id: int) -> float:
        """Typical-condition total drop at one core (excludes rare droops)."""
        return self.passive_at(core_id) + self.typical_didt

    def worst_total_at(self, core_id: int) -> float:
        """Drop at one core during a worst-case droop event."""
        return self.passive_at(core_id) + self.worst_didt

    @property
    def worst_core(self) -> int:
        """Index of the core with the lowest typical-condition voltage."""
        return int(np.argmin(self.core_voltages))

    @property
    def min_voltage(self) -> float:
        """Lowest per-core typical-condition voltage."""
        return float(np.min(self.core_voltages))


class PowerDeliveryPath:
    """VRM rail plus IR network plus noise model for one socket."""

    def __init__(
        self,
        config: PdnConfig,
        floorplan: Floorplan,
        vrm: VoltageRegulatorModule,
        rail: int,
        noise: Optional[DidtNoiseModel] = None,
    ) -> None:
        self._config = config
        self._vrm = vrm
        self._rail = rail
        self._ir = IrDropNetwork(config, floorplan)
        self._noise = noise or DidtNoiseModel(config.didt)

    @property
    def vrm(self) -> VoltageRegulatorModule:
        """The shared VRM chip this path draws from."""
        return self._vrm

    @property
    def rail(self) -> int:
        """The VRM rail index feeding this socket."""
        return self._rail

    @property
    def ir(self) -> IrDropNetwork:
        """The on-chip IR-drop network of this socket."""
        return self._ir

    @property
    def noise(self) -> DidtNoiseModel:
        """The di/dt noise model in effect (workload-scaled)."""
        return self._noise

    def set_noise(self, noise: DidtNoiseModel) -> None:
        """Swap the noise model (the scheduler re-scales it per workload)."""
        self._noise = noise

    def set_voltage(self, voltage: float) -> float:
        """Program this socket's rail setpoint; returns the quantized value."""
        return self._vrm.set_rail(self._rail, voltage)

    @property
    def setpoint(self) -> float:
        """Currently programmed rail setpoint (V)."""
        return self._vrm.setpoint(self._rail)

    def deliver(
        self,
        core_currents: Sequence[float],
        uncore_current: float,
        n_active_cores: int,
    ) -> DropBreakdown:
        """Compute per-core on-die voltages for the given current draw.

        Parameters
        ----------
        core_currents:
            Per-core current draw (A) at the present operating point.
        uncore_current:
            Uncore current (A) — contributes to loadline and shared-grid
            drop but has no per-core local branch.
        n_active_cores:
            Number of cores actively running threads (drives di/dt scaling).
        """
        if uncore_current < 0:
            raise ValueError(f"uncore_current must be >= 0, got {uncore_current}")
        total = float(np.sum(core_currents)) + uncore_current
        self._vrm.record_current(self._rail, total)
        loadline = self._vrm.loadline_drop(self._rail, total)
        injected_droop = 0.0
        injector = fault_injector()
        if injector.enabled:
            # Fault hooks: a loadline-excursion fault scales the resistive
            # drop; a VRM-droop fault sags the delivered rail directly.
            # Both bail to the fault-free arithmetic when inactive.
            scale = injector.loadline_scale(self._rail)
            if scale != 1.0:
                loadline *= scale
            injected_droop = injector.rail_droop(self._rail)
        ir_shared = self._ir.shared_drop(total)
        ir_local = self._ir.local_drops(core_currents)
        ripple = self._noise.typical_ripple(n_active_cores)
        droop = self._noise.worst_droop(n_active_cores)
        setpoint = self.setpoint
        voltages = tuple(
            setpoint - injected_droop - loadline - ir_shared - local - ripple
            for local in ir_local
        )
        return DropBreakdown(
            setpoint=setpoint,
            loadline=loadline,
            ir_shared=ir_shared,
            ir_local=tuple(ir_local),
            typical_didt=ripple,
            worst_didt=droop,
            core_voltages=voltages,
        )
