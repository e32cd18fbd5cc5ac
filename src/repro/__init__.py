"""repro — a simulated-POWER7+ reproduction of *Adaptive Guardband
Scheduling to Improve System-Level Efficiency of the POWER7+* (MICRO 2015).

The package layers, bottom-up:

* :mod:`repro.pdn` — VRM, loadline, on-chip IR drop, di/dt noise.
* :mod:`repro.chip` — the eight-core die: CPMs, DPLLs, power, thermal.
* :mod:`repro.guardband` — static / undervolting / overclocking firmware.
* :mod:`repro.workloads` — calibrated benchmark catalog and runtime models.
* :mod:`repro.sim` — socket and two-socket-server electrical solving.
* :mod:`repro.core` — the paper's contribution: adaptive guardband
  scheduling (loadline borrowing and adaptive mapping).
* :mod:`repro.telemetry` — AMESTER-style sensor sampling.
* :mod:`repro.analysis` — metric/figure builders for the evaluation.
* :mod:`repro.obs` — zero-perturbation metrics and span tracing.
* :mod:`repro.faults` — deterministic fault injection and chaos reports.
* :mod:`repro.api` — the unified ``measure``/``sweep`` facade.

Quickstart::

    from repro import GuardbandMode, measure

    result = measure("raytrace", n_threads=1, mode=GuardbandMode.UNDERVOLT)
    print(f"power saving: {result.power_saving_fraction:.1%}")
"""

from .api import measure, sweep
from .config import (
    ChipConfig,
    DidtConfig,
    GuardbandConfig,
    PdnConfig,
    ServerConfig,
)
from .faults import FaultInjector, FaultPlan, chaos_plan, injected, run_chaos
from .guardband import GuardbandController, GuardbandMode
from .sim import Power720Server, RunResult, SteadyState
from .sim.run import build_server
from .workloads import (
    SCALABLE_BENCHMARKS,
    WorkloadProfile,
    all_profiles,
    get_profile,
    profile_names,
)

__version__ = "1.0.0"

__all__ = [
    "ChipConfig",
    "DidtConfig",
    "FaultInjector",
    "FaultPlan",
    "GuardbandConfig",
    "GuardbandController",
    "GuardbandMode",
    "PdnConfig",
    "Power720Server",
    "RunResult",
    "SCALABLE_BENCHMARKS",
    "ServerConfig",
    "SteadyState",
    "WorkloadProfile",
    "__version__",
    "all_profiles",
    "build_server",
    "chaos_plan",
    "get_profile",
    "injected",
    "measure",
    "profile_names",
    "run_chaos",
    "sweep",
]
