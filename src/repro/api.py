"""The public measurement facade: one ``measure``, one ``sweep``.

Every result of the paper is a static-vs-adaptive settle of one of three
placements, and :func:`measure` selects which with keyword-only
selectors::

    from repro import GuardbandMode, measure, sweep

    # Consolidated (all threads on socket 0, socket 1 idle):
    result = measure("raytrace", n_threads=4, mode=GuardbandMode.UNDERVOLT)

    # An explicit two-socket placement (loadline borrowing):
    result = measure("raytrace", placement=(2, 2), mode="undervolt")

    # A full scheduling decision with contention-adjusted activity:
    result = measure("fft", schedule=placement_obj, mode="undervolt")

    # The Figs. 3/4 core-scaling sweep, batched through the shared runner:
    results = sweep("raytrace", mode="undervolt")

Both settle through the placer/settler pair the batch executor uses
(:func:`repro.sim.batch.place_task` / :func:`~repro.sim.batch.settle_placed`),
so a facade result and a batch result of the same task agree.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .chip.dvfs import DvfsTable
from .config import ServerConfig
from .core.placement import Placement
from .errors import SchedulingError
from .faults.injector import injected
from .faults.plan import FaultPlan
from .guardband import GuardbandMode
from .sim.batch import (
    SweepRunner,
    SweepTask,
    core_scaling_tasks,
    default_runner,
    place_task,
    settle_placed,
)
from .sim.cache import OperatingPointCache
from .sim.results import RunResult
from .sim.server import Power720Server
from .workloads import get_profile
from .workloads.profile import WorkloadProfile
from .workloads.scaling import RuntimeModel, SocketShare

#: What ``measure(..., placement=...)`` accepts: a SocketShare or a plain
#: per-socket thread-count sequence.
PlacementSpec = Union[SocketShare, Sequence[int]]


def _resolve_profile(workload: Union[str, WorkloadProfile]) -> WorkloadProfile:
    if isinstance(workload, WorkloadProfile):
        return workload
    return get_profile(workload)


def _resolve_mode(mode: Union[str, GuardbandMode]) -> GuardbandMode:
    if isinstance(mode, GuardbandMode):
        return mode
    return GuardbandMode(mode)


def _resolve_server(
    server: Optional[Power720Server],
    config: Optional[ServerConfig],
    seed: int,
) -> Power720Server:
    if server is not None:
        return server
    return Power720Server(config=config, seed=seed)


def _resolve_backend_config(
    config: Optional[ServerConfig],
    pdn_backend: Optional[str],
    server: Optional[Power720Server] = None,
) -> Optional[ServerConfig]:
    """Fold a ``pdn_backend=`` selection into the server config."""
    if pdn_backend is None:
        return config
    if server is not None:
        raise SchedulingError(
            "pass pdn_backend= or a prebuilt server=, not both — the "
            "server was already built against a backend"
        )
    base = config or ServerConfig()
    if base.pdn_backend == pdn_backend:
        return base
    return dataclasses.replace(base, pdn_backend=pdn_backend)


def _cap_frequencies(config: Optional[ServerConfig]) -> Tuple[float, ...]:
    """DVFS table frequencies, fastest first — the cap-walk candidates."""
    cfg = config or ServerConfig()
    table = DvfsTable(cfg.chip, cfg.guardband)
    return tuple(p.frequency for p in reversed(table.points))


def _check_cap(power_cap: float, f_target: Optional[float]) -> None:
    if f_target is not None:
        raise SchedulingError(
            "pass power_cap= or f_target=, not both — the cap walk "
            "chooses the frequency"
        )
    if power_cap <= 0:
        raise SchedulingError(f"power_cap must be positive, got {power_cap}")


def _fit_cap(
    settle: Callable[[float], RunResult],
    result: RunResult,
    power_cap: float,
    config: Optional[ServerConfig],
    where: str = "",
) -> RunResult:
    """Walk ``settle`` down the DVFS table from the uncapped ``result``
    until the adaptive server power fits ``power_cap``."""
    if result.adaptive.point.server_power <= power_cap:
        return result
    for frequency in _cap_frequencies(config):
        if frequency >= result.adaptive.point.min_frequency:
            continue  # no slower than the current settle
        result = settle(frequency)
        if result.adaptive.point.server_power <= power_cap:
            return result
    raise SchedulingError(
        f"power cap of {power_cap:.1f} W is below the floor{where}: even "
        f"the lowest DVFS point draws "
        f"{result.adaptive.point.server_power:.1f} W"
    )


def measure(
    workload: Union[str, WorkloadProfile],
    *,
    mode: Union[str, GuardbandMode] = GuardbandMode.UNDERVOLT,
    n_threads: int = 1,
    placement: Optional[PlacementSpec] = None,
    schedule: Optional[Placement] = None,
    keep_on: Optional[Sequence[int]] = None,
    threads_per_core: int = 1,
    server: Optional[Power720Server] = None,
    config: Optional[ServerConfig] = None,
    seed: int = 7,
    runtime_model: Optional[RuntimeModel] = None,
    f_target: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    power_cap: Optional[float] = None,
    pdn_backend: Optional[str] = None,
) -> RunResult:
    """Measure one workload under one guardband mode, any way it can run.

    Exactly one measurement variant applies, selected by keyword:

    * neither ``placement`` nor ``schedule`` — **consolidated**: all
      ``n_threads`` on socket 0, socket 1 idle (the paper's Sec. 3
      characterization setup);
    * ``placement=`` — an explicit per-socket thread split (a
      :class:`~repro.workloads.scaling.SocketShare` or a plain sequence
      like ``(2, 2)``), optionally with ``keep_on`` core gating;
    * ``schedule=`` — a full :class:`~repro.core.placement.Placement`
      realized with contention-adjusted thread activity (what the AGS
      schedulers measure).

    Every variant settles the placement twice — under the static guardband
    and under ``mode`` — and returns the
    :class:`~repro.sim.results.RunResult` pair.  ``server`` reuses an
    existing machine (it is cleared first); otherwise a fresh one is built
    from ``config`` and ``seed``.

    ``fault_plan`` runs the measurement under an installed
    :class:`~repro.faults.injector.FaultInjector` seeded from the plan;
    with the default ``None`` the fault layer is never touched and the
    result is bit-identical to a build without it.

    ``pdn_backend`` selects a registered power-delivery backend by name
    (see :mod:`repro.pdn.backends`); the server is built against it.
    ``power_cap`` enforces a whole-server power budget (W): the DVFS
    table is walked down from the uncapped point until the measured
    ``adaptive`` server power fits, raising
    :class:`~repro.errors.SchedulingError` when even the lowest point
    exceeds the budget.
    """
    config = _resolve_backend_config(config, pdn_backend, server)
    if power_cap is not None:
        _check_cap(power_cap, f_target)
    profile = _resolve_profile(workload)
    guardband_mode = _resolve_mode(mode)
    if placement is not None and schedule is not None:
        raise SchedulingError(
            "measure() takes placement= or schedule=, not both"
        )
    runtime = runtime_model or RuntimeModel()

    if schedule is not None:
        task = SweepTask.scheduled(
            schedule, profile, guardband_mode, f_target=f_target
        )
    elif placement is not None:
        share = (
            placement
            if isinstance(placement, SocketShare)
            else SocketShare(tuple(placement))
        )
        task = SweepTask.placement(
            profile,
            share.threads_per_socket,
            guardband_mode,
            keep_on=keep_on,
            threads_per_core=threads_per_core,
            f_target=f_target,
        )
    elif keep_on is not None:
        raise SchedulingError(
            "keep_on= only applies to the placement= variant"
        )
    else:
        task = SweepTask.consolidated(
            profile,
            n_threads,
            guardband_mode,
            threads_per_core=threads_per_core,
            f_target=f_target,
        )

    def settle(measured: SweepTask) -> RunResult:
        # One placement, two settles on the same server: STATIC, then mode.
        box = _resolve_server(server, config, seed)
        share, settle_tpc = place_task(box, measured, runtime)
        static, adaptive = (
            settle_placed(box, measured, settle_mode, share, runtime, settle_tpc)
            for settle_mode in (GuardbandMode.STATIC, guardband_mode)
        )
        return RunResult(
            profile=profile,
            n_active_cores=static.n_active_cores,
            static=static,
            adaptive=adaptive,
        )

    with injected(fault_plan) if fault_plan is not None else nullcontext():
        if power_cap is None:
            return settle(task)
        return _fit_cap(
            lambda frequency: settle(
                dataclasses.replace(task, f_target=frequency)
            ),
            settle(task),
            power_cap,
            config,
        )


# ----------------------------------------------------------------------
# The sweep facade
# ----------------------------------------------------------------------
def sweep(
    workload: Union[str, WorkloadProfile],
    *,
    mode: Union[str, GuardbandMode] = GuardbandMode.UNDERVOLT,
    core_counts: Sequence[int] = range(1, 9),
    threads_per_core: int = 1,
    f_target: Optional[float] = None,
    runtime_params: Optional[Tuple[float, float]] = None,
    config: Optional[ServerConfig] = None,
    runner: Optional[SweepRunner] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    power_cap: Optional[float] = None,
    pdn_backend: Optional[str] = None,
) -> List[RunResult]:
    """The 1→``n`` active-core scaling sweep, batched and cached.

    Wraps :class:`~repro.sim.batch.SweepRunner`: points fan out over
    ``workers`` processes (when > 1) and settle through the keyed
    operating-point cache, optionally persisted under ``cache_dir``.
    With neither ``runner`` nor ``workers``/``cache_dir`` given, the
    process-wide default runner (and its shared cache) is used — the same
    substrate the figure builders run on.

    ``fault_plan`` installs a seeded fault injector for the whole batch
    (forcing in-process execution — pool workers cannot see the
    injector); ``None`` leaves the fault layer untouched.  Unless a
    ``runner`` is passed explicitly, a faulted sweep gets a private
    runner so corrupted operating points never land in the shared
    process-wide cache.

    ``pdn_backend`` selects a registered power-delivery backend for
    every point of the sweep; ``power_cap`` enforces a whole-server
    budget (W) per point by walking that point down the DVFS table
    until the measured adaptive server power fits (see ``measure``).
    """
    config = _resolve_backend_config(config, pdn_backend)
    if power_cap is not None:
        _check_cap(power_cap, f_target)
    profile = _resolve_profile(workload)
    guardband_mode = _resolve_mode(mode)
    if runner is None:
        if workers is None and cache_dir is None:
            runner = (
                default_runner()
                if fault_plan is None
                else SweepRunner(cache=OperatingPointCache())
            )
        else:
            runner = SweepRunner(
                max_workers=1 if workers is None else workers,
                cache=OperatingPointCache(disk_dir=cache_dir),
            )
    elif workers is not None or cache_dir is not None:
        raise SchedulingError(
            "pass runner= or workers=/cache_dir=, not both"
        )
    tasks = core_scaling_tasks(
        profile,
        guardband_mode,
        core_counts,
        threads_per_core=threads_per_core,
        f_target=f_target,
        runtime_params=runtime_params,
    )
    with injected(fault_plan) if fault_plan is not None else nullcontext():
        results = runner.run_results(tasks, config)
        if power_cap is None:
            return results
        return [
            _fit_cap(
                lambda frequency, task=task: runner.run_results(
                    [dataclasses.replace(task, f_target=frequency)], config
                )[0],
                result,
                power_cap,
                config,
                where=f" for {profile.name} on {task.n_threads} threads",
            )
            for task, result in zip(tasks, results)
        ]
