"""One processor socket: chip + delivery path + the electrical fixed point.

Voltage, current and power on a socket are mutually dependent:

* chip power depends on the on-die voltage (CV²f and leakage);
* current is power over voltage;
* the delivery path drops voltage proportionally to current.

:meth:`ProcessorSocket.solve` resolves the cycle by damped fixed-point
iteration, optionally with the CPM→DPLL frequency servo in the loop (the
overclocking mode, where frequency itself depends on the settled voltage).
The servo iterates on continuous frequencies and quantizes to the DPLL's
28 MHz grid only once at the end (re-settling voltage afterwards) — putting
the quantizer inside the loop would invite limit cycles.  Convergence is
asserted: a silently non-converged state would poison every figure
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..chip import Power7Chip
from ..chip.power import LEAKAGE_VREF, PowerBreakdown
from ..config import ServerConfig
from ..errors import ConvergenceError
from ..faults.injector import fault_injector
from ..pdn import DropBreakdown, PowerDeliveryPath

#: Damping factor of the voltage fixed-point iteration.
DAMPING = 0.6

#: Convergence threshold on per-core voltage (V).
TOLERANCE = 1e-6

#: Iteration cap; the damped loop converges in <40 for every valid config.
MAX_ITERATIONS = 300


@dataclass(frozen=True)
class SocketSolution:
    """Settled electrical state of one socket."""

    #: Per-core on-die voltages under typical conditions (V).
    core_voltages: tuple

    #: Per-core clock frequencies (Hz).
    frequencies: tuple

    #: Voltage-drop decomposition at the settled operating point.
    drops: DropBreakdown

    #: Power breakdown at the settled operating point.
    power: PowerBreakdown

    #: Die temperature at the settled operating point (C).
    temperature: float

    #: Number of fixed-point iterations used (last inner loop).
    iterations: int

    #: Total current drawn from the VRM rail (A).
    total_current: float

    #: Ids of cores that were running at least one thread (and not gated)
    #: when the point was settled.  Empty for an idle socket.  Captured at
    #: solve time so a solution describes its own occupancy — downstream
    #: aggregations (active-core frequency, server minimum clock) must not
    #: re-query live chip state, which may have changed since.
    active_core_ids: tuple = ()

    @property
    def die_power(self) -> float:
        """Power consumed by the transistors at the delivered voltages (W)."""
        return self.power.total

    @property
    def chip_power(self) -> float:
        """Vdd rail power as the platform sensors report it (W).

        The power sensor sits at the VRM output: it measures setpoint ×
        current, which includes the resistive loss in the delivery path.
        This is the quantity the paper plots as "chip power" (Sec. 3.2).
        """
        return self.drops.setpoint * self.total_current

    @property
    def chip_current(self) -> float:
        """Total rail current (A)."""
        return self.total_current

    @property
    def min_frequency(self) -> float:
        """Slowest core clock (Hz) — the multithreaded workload's pace."""
        return min(self.frequencies)

    @property
    def mean_frequency(self) -> float:
        """Mean core clock (Hz)."""
        return float(np.mean(self.frequencies))


class ProcessorSocket:
    """One chip behind one VRM rail."""

    def __init__(
        self,
        chip: Power7Chip,
        path: PowerDeliveryPath,
        config: ServerConfig,
        socket_id: int = 0,
    ) -> None:
        self.chip = chip
        self.path = path
        self.config = config
        self.socket_id = socket_id

    def solve(
        self,
        frequencies: Optional[Sequence[float]] = None,
        servo_margin: Optional[float] = None,
        frequency_cap: Optional[float] = None,
        settle_thermal: bool = True,
    ) -> SocketSolution:
        """Solve the electrical fixed point at the current occupancy.

        Parameters
        ----------
        frequencies:
            Per-core clocks (Hz) to hold fixed.  Mutually exclusive with
            ``servo_margin``.  When both are omitted the DPLLs' current
            outputs are held.
        servo_margin:
            When given, each core's DPLL servoes its frequency so the core's
            timing margin equals this value (V) at the settled voltage — the
            CPM→DPLL closed loop of the overclocking mode.
        frequency_cap:
            Upper bound on servoed frequencies (the undervolting mode caps
            the DPLL at the target clock).
        settle_thermal:
            Settle die temperature to the steady state of the settled power
            (outer loop); when ``False`` the current temperature is held.
        """
        chip = self.chip
        n = chip.n_cores
        if frequencies is not None and servo_margin is not None:
            raise ValueError("pass either frequencies or servo_margin, not both")
        if frequencies is not None:
            if len(frequencies) != n:
                raise ValueError(f"expected {n} frequencies, got {len(frequencies)}")
            for dpll, f in zip(chip.dplls, frequencies):
                dpll.set_frequency(f)

        states = chip.core_states()
        occupancy = _Occupancy(
            activities=[s.activity for s in states],
            gated=[s.gated for s in states],
            n_active=sum(1 for s in states if s.active),
        )
        active_ids = tuple(i for i, s in enumerate(states) if s.active)

        temperature = chip.thermal.temperature
        solution = None
        for _ in range(3 if settle_thermal else 1):
            if servo_margin is not None:
                voltages, freqs, iters = self._iterate(
                    occupancy, temperature, servo=True,
                    servo_margin=servo_margin, frequency_cap=frequency_cap,
                )
                # Quantize the converged servo frequencies down to the DPLL
                # grid, then re-settle voltage at the fixed clocks.
                for dpll, f in zip(chip.dplls, freqs):
                    dpll.set_frequency(f)
                voltages, _, extra = self._iterate(
                    occupancy, temperature, servo=False,
                )
                iters += extra
            else:
                voltages, _, iters = self._iterate(
                    occupancy, temperature, servo=False,
                )
            drops, power, current = self._evaluate(occupancy, voltages, temperature)
            solution = SocketSolution(
                core_voltages=tuple(float(v) for v in voltages),
                frequencies=tuple(chip.frequencies()),
                drops=drops,
                power=power,
                temperature=temperature,
                iterations=iters,
                total_current=current,
                active_core_ids=active_ids,
            )
            if not settle_thermal:
                break
            new_temp = chip.thermal.steady_state(solution.die_power)
            converged = abs(new_temp - temperature) < 0.05
            temperature = new_temp
            chip.thermal.settle(solution.die_power)
            if converged:
                solution = SocketSolution(
                    core_voltages=solution.core_voltages,
                    frequencies=solution.frequencies,
                    drops=solution.drops,
                    power=solution.power,
                    temperature=temperature,
                    iterations=solution.iterations,
                    total_current=solution.total_current,
                    active_core_ids=solution.active_core_ids,
                )
                break
        return solution

    def worst_cpm_codes(self, solution: SocketSolution) -> List[int]:
        """Per-core worst CPM code at a settled operating point."""
        return self.chip.worst_cpm_codes(solution.core_voltages)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _iterate(
        self,
        occupancy: "_Occupancy",
        temperature: float,
        servo: bool,
        servo_margin: float = 0.0,
        frequency_cap: Optional[float] = None,
    ) -> tuple:
        """Damped fixed point on voltage (and, when ``servo``, frequency).

        Returns ``(voltages, frequencies, iterations)`` where frequencies
        are continuous (not grid-quantized) in servo mode.

        One fused kernel over :meth:`PowerModel.chip_power` and
        :meth:`PowerDeliveryPath.deliver`: everything that is constant
        across iterations is hoisted, and the loop runs on plain floats.
        It must stay bit-identical to composing those two calls (the
        settle caches and event-log digests hash exact floats), so it
        keeps their left-associative operand order, libm ``pow`` for
        leakage, numpy's pairwise reductions for the total current and
        the mean voltage, the BLAS matvec for local IR drop, and every
        check and fault hook, once per iteration.
        """
        chip = self.chip
        n = chip.n_cores
        cfg = chip.power_model.config
        tcfg = chip.timing.config
        intercept, slope = tcfg.vmin_intercept, tcfg.vmin_slope
        f_min, f_ceiling = tcfg.f_min, tcfg.f_ceiling
        path = self.path
        activities = occupancy.activities
        gated = occupancy.gated
        for act, g in zip(activities, gated):
            if not g and act < 0:
                raise ValueError(f"activity must be >= 0, got {act}")
        ceff_act = [cfg.core_ceff * act for act in activities]
        ungated = [i for i in range(n) if not gated[i]]
        n_busy = sum(1 for i in ungated if activities[i] > cfg.idle_activity)
        k = cfg.leakage_voltage_exponent
        t_scale = max(
            1.0 + cfg.leakage_temp_coeff * (temperature - cfg.leakage_temp_ref),
            0.1,
        )
        core_leak0 = cfg.core_leakage_nominal
        residual = cfg.power_gate_residual
        unc_ceff_act = cfg.uncore_ceff * (
            cfg.uncore_activity_idle + cfg.uncore_activity_per_core * n_busy
        )
        unc_leak0 = cfg.uncore_leakage_nominal

        vrm = path.vrm
        rail = path.rail
        r_loadline = vrm.config.r_loadline
        r_ir_shared = path.ir.config.r_ir_shared
        matrix = path.ir.local_matrix
        ripple = path.noise.typical_ripple(occupancy.n_active)
        setpoint = path.setpoint
        injector = fault_injector()

        voltages = [setpoint - 0.02] * n
        freqs = list(chip.frequencies())
        f_uncore = _ungated_mean(freqs, ungated, cfg.f_min)
        delta = float("inf")
        for iteration in range(1, MAX_ITERATIONS + 1):
            if servo:
                # TimingModel.frequency_for_margin, then clamp_frequency.
                freqs = []
                for v in voltages:
                    target = (v - servo_margin - intercept) / slope
                    target = min(max(target, f_min), f_ceiling)
                    if frequency_cap is not None:
                        target = min(target, frequency_cap)
                    freqs.append(target)
                f_uncore = _ungated_mean(freqs, ungated, cfg.f_min)
            # chip_power + per-core current, fused.
            currents = []
            negative = False
            for v, f, a, g in zip(voltages, freqs, ceff_act, gated):
                leak = core_leak0 * (v / LEAKAGE_VREF) ** k * t_scale
                if g:
                    power = leak * residual
                else:
                    power = a * v * v * f + leak
                current = power / (0.3 if v < 0.3 else v)
                negative = negative or current < 0
                currents.append(current)
            if ungated:
                # An explicit left-to-right loop: chip_power summed numpy
                # scalars, which builtin sum() never compensates, while
                # Python >= 3.12 compensates a sum of plain floats.
                v_uncore = 0.0
                for i in ungated:
                    v_uncore += voltages[i]
                v_uncore = v_uncore / len(ungated)
            else:
                v_uncore = max(voltages)
            uncore_power = unc_ceff_act * v_uncore * v_uncore * f_uncore + (
                unc_leak0 * (v_uncore / LEAKAGE_VREF) ** k * t_scale
            )
            v_mean = float(np.add.reduce(np.array(voltages))) / n
            uncore_current = uncore_power / (0.3 if v_mean < 0.3 else v_mean)
            # deliver(), fused.
            if uncore_current < 0:
                raise ValueError(
                    f"uncore_current must be >= 0, got {uncore_current}"
                )
            core_currents = np.array(currents)
            total = float(np.add.reduce(core_currents)) + uncore_current
            vrm.record_current(rail, total)
            loadline = r_loadline * total
            injected_droop = 0.0
            if injector.enabled:
                scale = injector.loadline_scale(rail)
                if scale != 1.0:
                    loadline *= scale
                injected_droop = injector.rail_droop(rail)
            prefix = setpoint - injected_droop - loadline - r_ir_shared * total
            if negative:
                raise ValueError("core currents must be >= 0")
            local = (matrix @ core_currents).tolist()
            # Damped update; a NaN delta must never read as converged.
            delta = 0.0
            for i in range(n):
                v = voltages[i]
                step = prefix - local[i] - ripple - v
                d = abs(step)
                if d > delta or d != d:
                    delta = d
                v = v + DAMPING * step
                # A diverging iterate (pathological delivery resistance)
                # must stay inside the power model's physical domain so
                # the loop reaches the iteration cap and raises
                # ConvergenceError instead of feeding negative voltages
                # into the leakage model.
                voltages[i] = 0.2 if v < 0.2 else v
            if delta < TOLERANCE:
                return np.array(voltages), freqs, iteration
        raise ConvergenceError(
            f"socket {self.socket_id}: electrical fixed point did not converge "
            f"in {MAX_ITERATIONS} iterations "
            f"(setpoint={setpoint:.3f} V, last delta={delta:.2e} V)"
        )

    def _evaluate(
        self, occupancy: "_Occupancy", voltages: np.ndarray, temperature: float
    ) -> tuple:
        """One forward evaluation of (drops, power, current) at settled voltages."""
        chip = self.chip
        power = chip.power_model.chip_power(
            activities=occupancy.activities,
            voltages=list(voltages),
            frequencies=chip.frequencies(),
            gated=occupancy.gated,
            temperature=temperature,
        )
        core_currents = [
            power.core_power(i) / max(float(v), 0.3)
            for i, v in enumerate(voltages)
        ]
        uncore_power = power.uncore_dynamic + power.uncore_leakage
        uncore_current = uncore_power / max(float(np.mean(voltages)), 0.3)
        drops = self.path.deliver(core_currents, uncore_current, occupancy.n_active)
        total_current = float(sum(core_currents)) + uncore_current
        return drops, power, total_current

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessorSocket(id={self.socket_id}, chip={self.chip!r})"


def _ungated_mean(values: list, ungated: list, default: float) -> float:
    """Mean over the ungated cores with builtin ``sum``, as chip_power's."""
    if not ungated:
        return default
    return sum(values[i] for i in ungated) / len(ungated)


@dataclass(frozen=True)
class _Occupancy:
    """Frozen occupancy snapshot used across solver iterations."""

    activities: list
    gated: list
    n_active: int
