"""Series builders for the characterization figures (Sec. 3 and 4).

Each ``figNN_*`` function reproduces one figure's measurement procedure on
the simulated platform and returns plain data.  Benchmarks print these
series next to the paper's values; EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import ServerConfig
from ..guardband import GuardbandMode
from ..pdn import DidtNoiseModel, DropDecomposer
from ..sim.batch import (
    SweepRunner,
    SweepTask,
    core_scaling_tasks,
    default_runner,
    derive_seed,
)
from ..sim.run import build_server
from ..workloads import get_profile
from .fitting import LinearFit, fit_linear

#: The five workloads the paper highlights in Figs. 5 and 7.
FIG5_WORKLOADS = ("lu_cb", "raytrace", "swaptions", "radix", "ocean_cp")

#: The ten benchmarks decomposed in Fig. 9.
FIG9_WORKLOADS = (
    "raytrace",
    "barnes",
    "blackscholes",
    "bodytrack",
    "ferret",
    "lu_ncb",
    "ocean_cp",
    "swaptions",
    "vips",
    "water_nsquared",
)


# ----------------------------------------------------------------------
# Fig. 3 — power and EDP vs active cores (raytrace, undervolting mode)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoreScalingSeries:
    """One workload's static-vs-adaptive sweep over active core counts."""

    workload: str
    mode: GuardbandMode
    core_counts: tuple
    static_power: tuple
    adaptive_power: tuple
    static_edp: tuple
    adaptive_edp: tuple
    static_time: tuple
    adaptive_time: tuple
    static_frequency: tuple
    adaptive_frequency: tuple

    def power_saving_percent(self, index: int) -> float:
        """Power saving (%) of the adaptive mode at one sweep point."""
        return (1.0 - self.adaptive_power[index] / self.static_power[index]) * 100.0

    def frequency_boost_percent(self, index: int) -> float:
        """Frequency gain (%) of the adaptive mode at one sweep point."""
        return (
            self.adaptive_frequency[index] / self.static_frequency[index] - 1.0
        ) * 100.0

    def speedup_percent(self, index: int) -> float:
        """Execution-time reduction (%) of the adaptive mode."""
        return (1.0 - self.adaptive_time[index] / self.static_time[index]) * 100.0


def _sweep(
    runner: SweepRunner,
    workload: str,
    mode: GuardbandMode,
    core_counts: Sequence[int],
    config: Optional[ServerConfig] = None,
) -> CoreScalingSeries:
    """Run the consolidated core-scaling sweep and package the series.

    Powers are the focal (socket 0) chip's Vdd rail power, matching the
    paper's single-processor measurements in Sec. 3.
    """
    profile = get_profile(workload)
    results = runner.run_results(
        core_scaling_tasks(profile, mode, core_counts), config
    )
    return _series_from_results(workload, mode, core_counts, results)


def _series_from_results(
    workload: str,
    mode: GuardbandMode,
    core_counts: Sequence[int],
    results: Sequence,
) -> CoreScalingSeries:
    """Package one workload's sweep results into a series."""
    return CoreScalingSeries(
        workload=workload,
        mode=mode,
        core_counts=tuple(core_counts),
        static_power=tuple(
            r.static.point.socket_point(0).chip_power for r in results
        ),
        adaptive_power=tuple(
            r.adaptive.point.socket_point(0).chip_power for r in results
        ),
        static_edp=tuple(
            r.static.point.socket_point(0).chip_power * r.static.execution_time**2
            for r in results
        ),
        adaptive_edp=tuple(
            r.adaptive.point.socket_point(0).chip_power
            * r.adaptive.execution_time**2
            for r in results
        ),
        static_time=tuple(r.static.execution_time for r in results),
        adaptive_time=tuple(r.adaptive.execution_time for r in results),
        static_frequency=tuple(r.static.active_frequency for r in results),
        adaptive_frequency=tuple(r.adaptive.active_frequency for r in results),
    )


def fig3_core_scaling_power(
    config: Optional[ServerConfig] = None,
    workload: str = "raytrace",
    core_counts: Sequence[int] = range(1, 9),
    runner: Optional[SweepRunner] = None,
) -> CoreScalingSeries:
    """Fig. 3: chip power and EDP vs active cores under undervolting."""
    runner = runner or default_runner()
    return _sweep(runner, workload, GuardbandMode.UNDERVOLT, core_counts, config)


def fig4_core_scaling_frequency(
    config: Optional[ServerConfig] = None,
    workload: str = "lu_cb",
    core_counts: Sequence[int] = range(1, 9),
    runner: Optional[SweepRunner] = None,
) -> CoreScalingSeries:
    """Fig. 4: frequency and execution time vs cores under overclocking."""
    runner = runner or default_runner()
    return _sweep(runner, workload, GuardbandMode.OVERCLOCK, core_counts, config)


# ----------------------------------------------------------------------
# Fig. 5 — workload heterogeneity of the improvements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HeterogeneitySeries:
    """Per-workload improvement (%) versus active core count."""

    mode: GuardbandMode
    core_counts: tuple
    #: workload name -> tuple of improvement percentages per core count.
    improvements: Dict[str, tuple]

    def average(self, index: int) -> float:
        """Mean improvement (%) across workloads at one core count."""
        return float(
            np.mean([series[index] for series in self.improvements.values()])
        )

    def spread(self, index: int) -> float:
        """Max-min improvement spread (%) at one core count."""
        values = [series[index] for series in self.improvements.values()]
        return max(values) - min(values)


def fig5_workload_heterogeneity(
    mode: GuardbandMode,
    config: Optional[ServerConfig] = None,
    workloads: Sequence[str] = FIG5_WORKLOADS,
    core_counts: Sequence[int] = range(1, 9),
    runner: Optional[SweepRunner] = None,
) -> HeterogeneitySeries:
    """Fig. 5: improvement vs cores for several workloads, one mode."""
    runner = runner or default_runner()
    # One batch covering every workload, so the tasks fan out together.
    tasks = [
        task
        for workload in workloads
        for task in core_scaling_tasks(get_profile(workload), mode, core_counts)
    ]
    results = runner.run_results(tasks, config)
    width = len(tuple(core_counts))
    improvements: Dict[str, tuple] = {}
    for slot, workload in enumerate(workloads):
        series = _series_from_results(
            workload, mode, core_counts, results[slot * width : (slot + 1) * width]
        )
        if mode is GuardbandMode.UNDERVOLT:
            values = tuple(
                series.power_saving_percent(i) for i in range(len(core_counts))
            )
        else:
            values = tuple(
                series.frequency_boost_percent(i) for i in range(len(core_counts))
            )
        improvements[workload] = values
    return HeterogeneitySeries(
        mode=mode, core_counts=tuple(core_counts), improvements=improvements
    )


# ----------------------------------------------------------------------
# Fig. 6 — CPM-to-voltage mapping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CpmMappingResult:
    """The Fig. 6a sweep plus its linear calibration."""

    #: Frequency of each sweep line (Hz).
    frequencies: tuple

    #: frequency -> (voltages tuple, mean CPM codes tuple).
    lines: Dict[float, tuple]

    #: Linear fit of voltage vs mean code at the nominal frequency.
    nominal_fit: LinearFit

    #: Millivolts of supply represented by one CPM step at peak frequency.
    mv_per_bit: float

    #: Per-core mV/bit at peak frequency (Fig. 6b's sensitivity spread).
    core_sensitivity_mv: tuple


def fig6_cpm_voltage_mapping(
    config: Optional[ServerConfig] = None,
    n_frequencies: int = 6,
    n_voltages: int = 12,
    seed: int = 7,
) -> CpmMappingResult:
    """Fig. 6: sweep voltage under each frequency and read the CPMs.

    Mirrors Sec. 4.1's procedure: adaptive guardbanding disabled (fixed
    frequency, fixed setpoint), cores throttled to near-idle activity, CPM
    codes averaged over the die per operating point.  ``seed`` picks the
    die instance (process variation draw).
    """
    server = build_server(config, seed=seed)
    socket = server.sockets[0]
    chip = socket.chip
    cfg = server.config.chip
    frequencies = np.linspace(cfg.f_min, cfg.f_nominal, n_frequencies)
    lines: Dict[float, tuple] = {}
    for frequency in frequencies:
        v_low = cfg.vmin(frequency) + 0.02
        v_high = min(server.config.static_vdd, v_low + 0.28)
        voltages = np.linspace(v_low, v_high, n_voltages)
        codes = []
        for setpoint in voltages:
            socket.path.set_voltage(float(setpoint))
            solution = socket.solve(
                frequencies=[float(frequency)] * chip.n_cores,
                settle_thermal=False,
            )
            per_core = chip.cpm_codes(solution.core_voltages)
            codes.append(float(np.mean([c for core in per_core for c in core])))
        lines[float(frequency)] = (tuple(float(v) for v in voltages), tuple(codes))

    nominal = float(frequencies[-1])
    voltages, codes = lines[nominal]
    # Fit only the unsaturated detector range.
    pairs = [(v, c) for v, c in zip(voltages, codes) if 0.5 < c < 10.5]
    fit = fit_linear([c for _, c in pairs], [v for v, _ in pairs])
    core_sensitivity = tuple(
        float(
            np.mean(
                [cpm.volts_per_bit(nominal) * 1000 for cpm in chip.cpm_bank.core_cpms(i)]
            )
        )
        for i in range(chip.n_cores)
    )
    return CpmMappingResult(
        frequencies=tuple(float(f) for f in frequencies),
        lines=lines,
        nominal_fit=fit,
        mv_per_bit=fit.slope * 1000.0,
        core_sensitivity_mv=core_sensitivity,
    )


# ----------------------------------------------------------------------
# Fig. 7 — per-core voltage drop vs active cores
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VoltageDropSeries:
    """Per-core drop (%) for one workload as cores activate in order."""

    workload: str
    core_counts: tuple
    #: core id -> tuple of drop percentages per active-core count.
    drops_percent: Dict[int, tuple]


def fig7_voltage_drop_scaling(
    config: Optional[ServerConfig] = None,
    workloads: Sequence[str] = FIG5_WORKLOADS,
    core_counts: Sequence[int] = range(1, 9),
    runner: Optional[SweepRunner] = None,
) -> Dict[str, VoltageDropSeries]:
    """Fig. 7: on-chip voltage drop per core, AG disabled (static mode).

    Cores are activated in succession from core 0; the drop at *every*
    core (active or not) is recorded relative to the static setpoint —
    reproducing the paper's observation of global plus localized behavior.
    Only the static halves are consumed here, so the batch shares all its
    operating points with the Fig. 5 undervolt sweep.
    """
    runner = runner or default_runner()
    cfg = config or ServerConfig()
    tasks = [
        task
        for workload in workloads
        for task in core_scaling_tasks(
            get_profile(workload), GuardbandMode.UNDERVOLT, core_counts
        )
    ]
    results = runner.run_results(tasks, cfg)
    width = len(tuple(core_counts))
    out: Dict[str, VoltageDropSeries] = {}
    for slot, workload in enumerate(workloads):
        per_core: Dict[int, List[float]] = {
            c: [] for c in range(cfg.chip.n_cores)
        }
        for result in results[slot * width : (slot + 1) * width]:
            solution = result.static.point.socket_point(0).solution
            setpoint = solution.drops.setpoint
            for core_id, voltage in enumerate(solution.core_voltages):
                per_core[core_id].append((1.0 - voltage / setpoint) * 100.0)
        out[workload] = VoltageDropSeries(
            workload=workload,
            core_counts=tuple(core_counts),
            drops_percent={c: tuple(v) for c, v in per_core.items()},
        )
    return out


# ----------------------------------------------------------------------
# Fig. 9 — voltage drop decomposition
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DecompositionSeries:
    """Stacked drop components (% of nominal) vs active cores, core 0."""

    workload: str
    core_counts: tuple
    loadline: tuple
    ir_drop: tuple
    typical_didt: tuple
    worst_didt: tuple

    def total(self, index: int) -> float:
        """Total decomposed drop (%) at one core count."""
        return (
            self.loadline[index]
            + self.ir_drop[index]
            + self.typical_didt[index]
            + self.worst_didt[index]
        )


def fig9_drop_decomposition(
    config: Optional[ServerConfig] = None,
    workloads: Sequence[str] = FIG9_WORKLOADS,
    core_counts: Sequence[int] = range(1, 9),
    n_windows: int = 60,
    seed: int = 41,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, DecompositionSeries]:
    """Fig. 9: decompose core 0's drop using the Sec. 4.3 measurement path.

    Loadline and IR come from the VRM current sensor through the heuristic
    equation; typical di/dt from sample-mode CPM drop minus the passive
    part; worst-case di/dt from the sticky-vs-sample difference, averaged
    over ``n_windows`` 32 ms sticky windows (deep aligned droops are rare,
    so many windows record none — exactly why the paper's measured
    worst-case slice stays small even though the firmware must reserve the
    full depth).

    Each workload samples its droop windows from its own random stream,
    derived from ``seed`` and the workload's identity — so a workload's
    series does not depend on which other workloads (or how many) were
    decomposed before it.
    """
    runner = runner or default_runner()
    cfg = config or ServerConfig()
    decomposer = DropDecomposer(cfg.pdn)
    tasks = [
        task
        for workload in workloads
        for task in core_scaling_tasks(
            get_profile(workload), GuardbandMode.UNDERVOLT, core_counts
        )
    ]
    results = runner.run_results(tasks, cfg)
    width = len(tuple(core_counts))
    out: Dict[str, DecompositionSeries] = {}
    for slot, workload in enumerate(workloads):
        profile = get_profile(workload)
        # The settled points carry no live server, so rebuild the socket's
        # di/dt model the same way placement does: a uniform single-workload
        # occupancy scales ripple and droop by the profile's own traits.
        noise = DidtNoiseModel(
            cfg.pdn.didt,
            ripple_scale=profile.ripple_scale,
            droop_scale=profile.droop_scale,
        )
        rng = np.random.default_rng(derive_seed(seed, {"fig9": workload}))
        rows = {"loadline": [], "ir_drop": [], "typical_didt": [], "worst_didt": []}
        for offset, n in enumerate(core_counts):
            result = results[slot * width + offset]
            solution = result.static.point.socket_point(0).solution
            setpoint = solution.drops.setpoint
            sample_drop = setpoint - solution.core_voltages[0]
            window = cfg.guardband.control_interval
            observed = [
                noise.worst_in_window(n, window, rng) for _ in range(n_windows)
            ]
            sticky_drop = sample_drop + float(np.mean(observed))
            decomposed = decomposer.decompose(
                chip_current=solution.total_current,
                sample_mode_drop=sample_drop,
                sticky_mode_drop=sticky_drop,
                local_ir=solution.drops.ir_local[0],
            ).as_percent_of(setpoint)
            rows["loadline"].append(decomposed.loadline)
            rows["ir_drop"].append(decomposed.ir_drop)
            rows["typical_didt"].append(decomposed.typical_didt)
            rows["worst_didt"].append(decomposed.worst_didt)
        out[workload] = DecompositionSeries(
            workload=workload,
            core_counts=tuple(core_counts),
            loadline=tuple(rows["loadline"]),
            ir_drop=tuple(rows["ir_drop"]),
            typical_didt=tuple(rows["typical_didt"]),
            worst_didt=tuple(rows["worst_didt"]),
        )
    return out


# ----------------------------------------------------------------------
# Fig. 10 — passive drop vs the two optimization modes, full catalog
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PassiveDropCorrelation:
    """One workload's row in the Fig. 10 scatter plots."""

    workload: str
    chip_power: float
    passive_drop_mv: float
    undervolt_mv: float
    vdd_selected_mv: float
    energy_saving_percent: float
    frequency_increase_percent: float


@dataclass(frozen=True)
class Fig10Result:
    """All workloads' rows plus the headline correlations."""

    rows: tuple
    power_vs_drop: LinearFit
    drop_vs_undervolt: LinearFit

    def column(self, name: str) -> List[float]:
        """Extract one column across workloads."""
        return [getattr(row, name) for row in self.rows]


def fig10_passive_drop_correlation(
    config: Optional[ServerConfig] = None,
    workloads: Optional[Sequence[str]] = None,
    runner: Optional[SweepRunner] = None,
) -> Fig10Result:
    """Fig. 10: power → passive drop → undervolt/boost, at eight cores."""
    from ..workloads import profile_names

    runner = runner or default_runner()
    names = list(workloads) if workloads is not None else profile_names()
    tasks = []
    for workload in names:
        profile = get_profile(workload)
        tasks.append(SweepTask.consolidated(profile, 8, GuardbandMode.UNDERVOLT))
        tasks.append(SweepTask.consolidated(profile, 8, GuardbandMode.OVERCLOCK))
    results = runner.run_results(tasks, config)
    rows = []
    for slot, workload in enumerate(names):
        uv, oc = results[2 * slot], results[2 * slot + 1]
        static_solution = uv.static.point.socket_point(0).solution
        adaptive_point = uv.adaptive.point.socket_point(0)
        worst = static_solution.drops.worst_core
        rows.append(
            PassiveDropCorrelation(
                workload=workload,
                chip_power=static_solution.chip_power,
                passive_drop_mv=static_solution.drops.passive_at(worst) * 1000,
                undervolt_mv=adaptive_point.undervolt * 1000,
                vdd_selected_mv=adaptive_point.setpoint * 1000,
                energy_saving_percent=uv.energy_saving_fraction * 100,
                frequency_increase_percent=oc.frequency_boost_fraction * 100,
            )
        )
    result_rows = tuple(rows)
    power = [r.chip_power for r in result_rows]
    drop = [r.passive_drop_mv for r in result_rows]
    undervolt = [r.undervolt_mv for r in result_rows]
    return Fig10Result(
        rows=result_rows,
        power_vs_drop=fit_linear(power, drop),
        drop_vs_undervolt=fit_linear(drop, undervolt),
    )
