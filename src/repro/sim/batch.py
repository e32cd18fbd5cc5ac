"""Batch execution of independent sweep measurements.

Every figure and benchmark replays the paper's measurement procedures as
grids of *independent* settled points: core-scaling sweeps, two-socket
placements, scheduler comparisons.  :class:`SweepRunner` is the substrate
that executes such grids

* **in parallel** over a :class:`concurrent.futures.ProcessPoolExecutor`
  (with a deterministic in-process fallback when ``max_workers == 1`` or
  the platform cannot fork a pool), and
* **memoized** through a keyed :class:`~repro.sim.cache.OperatingPointCache`
  — the figure grids overlap heavily, so most points are settled once and
  replayed from cache everywhere else.

Determinism
-----------
A task is a pure function of ``(server config, task coordinates, mode,
seed)``: the executor always builds a *fresh* server (same die seed for
every task — the paper measures one physical machine) and settles the
requested mode on it, so results are bit-identical whether tasks run
serially, in any parallel interleaving, or from cache.  Tasks that need
their own random stream (e.g. the Fig. 9 droop-window sampling) derive it
with :func:`derive_seed` — ``seed_root`` plus a stable task hash — so the
stream no longer depends on execution order.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..config import ServerConfig
from ..errors import SweepError
from ..faults.injector import fault_injector
from ..guardband import GuardbandMode
from ..obs import observability
from ..workloads.profile import WorkloadProfile
from ..workloads.scaling import RuntimeModel, SocketShare
from .cache import CacheStats, OperatingPointCache, fingerprint
from .results import RunResult, SteadyState
from .run import active_mean_frequency, build_server

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..core.placement import Placement
    from .server import Power720Server

#: Default die seed, matching :func:`repro.sim.run.build_server`.
DEFAULT_SEED_ROOT = 7

#: Environment knob for the default runner's worker count.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Environment knob for the default runner's disk-cache directory.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE_DIR"


#: Config-object → fingerprint memo.  :class:`~repro.config.ServerConfig`
#: is a frozen dataclass, so the same object (or an equal one) always maps
#: to the same fingerprint; hashing it is orders of magnitude cheaper than
#: re-canonicalizing the whole nested config on every batch.  Only a
#: handful of distinct configs ever exist per process, so the memo stays
#: tiny and is never evicted.
_cfg_fp_memo: Dict[Any, str] = {}


def config_fingerprint(cfg: ServerConfig) -> str:
    """Memoized :func:`~repro.sim.cache.fingerprint` of a server config."""
    try:
        cached = _cfg_fp_memo.get(cfg)
    except TypeError:  # unhashable subclass — compute every time
        return fingerprint(cfg)
    if cached is None:
        cached = fingerprint(cfg)
        _cfg_fp_memo[cfg] = cached
    return cached


def derive_seed(seed_root: int, token: Any) -> int:
    """``seed_root`` plus a stable hash of ``token`` (order-independent).

    Use this wherever a batch task needs its own random stream: the
    derived seed depends only on the task's identity, never on how many
    tasks ran before it, so parallel and serial schedules consume
    identical streams.
    """
    return seed_root + int(fingerprint(token), 16) % (2**31)


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepTask:
    """One independent static-vs-adaptive measurement.

    Construct through :meth:`consolidated`, :meth:`placement` or
    :meth:`scheduled` — the three measurement procedures the figures use.
    """

    #: ``"consolidated"`` | ``"placement"`` | ``"scheduled"``.
    kind: str

    #: Workload whose runtime/energy metrics the result carries.
    profile: WorkloadProfile

    #: Adaptive mode paired against the static guardband.
    mode: GuardbandMode

    n_threads: int = 0
    threads_per_core: int = 1

    #: Per-socket thread counts (``placement`` kind).
    share: Optional[Tuple[int, ...]] = None

    #: Per-socket powered-core counts (``placement`` kind; ``None`` = no gating).
    keep_on: Optional[Tuple[int, ...]] = None

    #: Full scheduling decision (``scheduled`` kind).  Named to avoid
    #: colliding with the :meth:`placement` constructor.
    placement_plan: Optional["Placement"] = None

    #: Frequency target handed to the guardband policies.
    f_target: Optional[float] = None

    #: ``(socket_bandwidth, cross_socket_penalty)`` of the runtime model;
    #: ``None`` uses the calibrated defaults.
    runtime_params: Optional[Tuple[float, float]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def consolidated(
        cls,
        profile: WorkloadProfile,
        n_threads: int,
        mode: GuardbandMode,
        threads_per_core: int = 1,
        f_target: Optional[float] = None,
        runtime_params: Optional[Tuple[float, float]] = None,
    ) -> "SweepTask":
        """All threads on socket 0 (the Sec. 3 characterization setup)."""
        return cls(
            kind="consolidated",
            profile=profile,
            mode=mode,
            n_threads=n_threads,
            threads_per_core=threads_per_core,
            f_target=f_target,
            runtime_params=runtime_params,
        )

    @classmethod
    def placement(
        cls,
        profile: WorkloadProfile,
        share: Sequence[int],
        mode: GuardbandMode,
        keep_on: Optional[Sequence[int]] = None,
        threads_per_core: int = 1,
        f_target: Optional[float] = None,
        runtime_params: Optional[Tuple[float, float]] = None,
    ) -> "SweepTask":
        """An arbitrary two-socket placement (loadline-borrowing figures)."""
        return cls(
            kind="placement",
            profile=profile,
            mode=mode,
            n_threads=sum(share),
            threads_per_core=threads_per_core,
            share=tuple(share),
            keep_on=None if keep_on is None else tuple(keep_on),
            f_target=f_target,
            runtime_params=runtime_params,
        )

    @classmethod
    def scheduled(
        cls,
        placement: "Placement",
        profile: WorkloadProfile,
        mode: GuardbandMode,
        f_target: Optional[float] = None,
        runtime_params: Optional[Tuple[float, float]] = None,
    ) -> "SweepTask":
        """A scheduler decision with contention-adjusted activity."""
        return cls(
            kind="scheduled",
            profile=profile,
            mode=mode,
            n_threads=placement.total_threads,
            threads_per_core=placement.threads_per_core,
            placement_plan=placement,
            f_target=f_target,
            runtime_params=runtime_params,
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def coordinates(self) -> Dict[str, Any]:
        """The placement coordinates of the task — everything *except* the
        adaptive mode, so the shared static half keys identically across
        tasks that differ only in the mode they pair against it."""
        return {
            "kind": self.kind,
            "profile": self.profile,
            "n_threads": self.n_threads,
            "threads_per_core": self.threads_per_core,
            "share": None if self.share is None else list(self.share),
            "keep_on": None if self.keep_on is None else list(self.keep_on),
            "placement": self.placement_plan,
            "f_target": self.f_target,
            "runtime_params": (
                None if self.runtime_params is None else list(self.runtime_params)
            ),
        }

    def task_hash(self) -> str:
        """Stable identity of the task, including its adaptive mode."""
        return fingerprint({"coords": self.coordinates(), "mode": self.mode.value})

    def derived_seed(self, seed_root: int = DEFAULT_SEED_ROOT) -> int:
        """Per-task seed for stochastic post-processing (see module docs)."""
        return derive_seed(seed_root, {"coords": self.coordinates()})

    def label(self) -> str:
        """Short display label for timing tables."""
        if self.kind == "consolidated":
            where = f"n{self.n_threads}"
        elif self.kind == "placement":
            where = "+".join(str(t) for t in (self.share or ()))
        else:
            where = f"sched{self.n_threads}"
        return f"{self.profile.name}:{where}:{self.mode.value}"


def core_scaling_tasks(
    profile: WorkloadProfile,
    mode: GuardbandMode,
    core_counts: Sequence[int] = range(1, 9),
    threads_per_core: int = 1,
    f_target: Optional[float] = None,
    runtime_params: Optional[Tuple[float, float]] = None,
) -> List[SweepTask]:
    """The 1→8 active-core sweep (Figs. 3–5) as independent tasks."""
    return [
        SweepTask.consolidated(
            profile,
            n,
            mode,
            threads_per_core=threads_per_core,
            f_target=f_target,
            runtime_params=runtime_params,
        )
        for n in core_counts
    ]


# ----------------------------------------------------------------------
# Pure task execution (runs in worker processes)
# ----------------------------------------------------------------------
def _runtime_model(params: Optional[Tuple[float, float]]) -> RuntimeModel:
    if params is None:
        return RuntimeModel()
    return RuntimeModel(socket_bandwidth=params[0], cross_socket_penalty=params[1])


def place_task(
    server: "Power720Server", task: SweepTask, runtime: RuntimeModel
) -> Tuple[SocketShare, int]:
    """Realize ``task``'s placement on ``server`` (which is cleared first).

    Covers the three measurement procedures — consolidated, placement
    and scheduled.  Returns the socket share and the threads-per-core
    figure the runtime model prices the settle with.
    """
    if task.kind == "consolidated":
        server.clear()
        server.place(
            0, task.profile, task.n_threads, threads_per_core=task.threads_per_core
        )
        return SocketShare.consolidated(task.n_threads, server.n_sockets), 1
    if task.kind == "placement":
        server.clear()
        for sid, n_threads in enumerate(task.share):
            if n_threads:
                server.place(
                    sid,
                    task.profile,
                    n_threads,
                    threads_per_core=task.threads_per_core,
                )
        if task.keep_on is not None:
            server.gate_unused(list(task.keep_on))
        return SocketShare(task.share), 1
    if task.kind == "scheduled":
        from ..core.evaluate import apply_with_contention

        plan = task.placement_plan
        apply_with_contention(server, plan, runtime)
        return plan.share_of(task.profile.name), plan.threads_per_core
    raise ValueError(f"unknown task kind {task.kind!r}")


def settle_placed(
    server: "Power720Server",
    task: SweepTask,
    mode: GuardbandMode,
    share: SocketShare,
    runtime: RuntimeModel,
    threads_per_core: int,
) -> SteadyState:
    """Settle ``mode`` on a server :func:`place_task` already placed."""
    n_active = sum(s.chip.n_active_cores() for s in server.sockets)
    point = server.operate(mode, task.f_target)
    frequency = active_mean_frequency(point)
    execution_time = runtime.execution_time(
        task.profile,
        share,
        frequency=frequency,
        reference_frequency=server.config.chip.f_nominal,
        threads_per_core=threads_per_core,
    )
    return SteadyState(
        workload=task.profile.name,
        mode=mode,
        n_active_cores=n_active,
        point=point,
        execution_time=execution_time,
        active_frequency=frequency,
    )


def _execute_task(
    payload: Tuple[ServerConfig, int, SweepTask, Tuple[GuardbandMode, ...]],
) -> Tuple[Dict[str, SteadyState], float]:
    """Worker entry point: settle the missing modes of one task.

    Each mode settles on a fresh server, so every state is a pure
    function of its cache key — the property the cache and the parallel
    schedule both rely on.  Module-level (not a closure) so
    :class:`ProcessPoolExecutor` can pickle it; also the in-process
    fallback path, which guarantees the two schedules produce
    bit-identical results.
    """
    config, seed, task, modes = payload
    start = time.perf_counter()
    runtime = _runtime_model(task.runtime_params)
    states = {}
    for mode in modes:
        server = build_server(config, seed=seed)
        share, threads_per_core = place_task(server, task, runtime)
        states[mode.value] = settle_placed(
            server, task, mode, share, runtime, threads_per_core
        )
    return states, time.perf_counter() - start


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskTiming:
    """Wall time of one task within a sweep."""

    label: str
    wall_time: float
    from_cache: bool

    #: Whether the task ultimately failed (its result slot holds ``None``).
    failed: bool = False


@dataclass(frozen=True)
class TaskFailure:
    """One task that exhausted its attempts — the failure manifest entry.

    The batch never aborts on a poisoned task: the exception is captured
    per key, successful siblings are still settled and cached, and the
    failure surfaces here (and as ``error: ...`` strings in strict-mode
    :class:`~repro.errors.SweepError`)."""

    #: Position of the task in the input batch.
    index: int

    #: ``SweepTask.label()`` of the failed task.
    label: str

    #: Exception class name (e.g. ``"ConvergenceError"``).
    error_type: str

    #: Stringified exception message.
    error: str

    #: Total attempts made (1 + retries).
    attempts: int

    def describe(self) -> str:
        """One-line rendering for summaries and error messages."""
        suffix = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return f"{self.label}: {self.error_type}: {self.error}{suffix}"


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one :meth:`SweepRunner.run` call."""

    #: Results in input-task order.
    results: Tuple[RunResult, ...]

    #: Per-task wall time (cache replays report ~0).
    timings: Tuple[TaskTiming, ...]

    #: End-to-end wall time of the batch (s).
    wall_time: float

    #: Whether a process pool actually executed tasks (``False`` for the
    #: in-process fallback, all-cache batches, and pool bring-up failures).
    used_processes: bool

    #: Snapshot of the cache counters *after* the batch.
    cache_stats: CacheStats

    #: Failure manifest: tasks whose result slot is ``None`` (non-strict
    #: runners) or that a strict runner's :class:`SweepError` carries.
    failures: Tuple[TaskFailure, ...] = ()

    @property
    def n_tasks(self) -> int:
        """Number of tasks in the batch."""
        return len(self.results)

    @property
    def n_from_cache(self) -> int:
        """Tasks fully replayed from the operating-point cache."""
        return sum(1 for t in self.timings if t.from_cache)

    @property
    def n_failed(self) -> int:
        """Tasks that exhausted their attempts (see :attr:`failures`)."""
        return len(self.failures)

    @property
    def n_executed(self) -> int:
        """Tasks that settled at least one fresh operating point."""
        return self.n_tasks - self.n_from_cache - self.n_failed

    def summary(self) -> str:
        """Multi-line human-readable timing summary (CLI ``--timings``)."""
        lines = [
            f"sweep: {self.n_tasks} task(s) in {self.wall_time:.2f}s "
            f"({self.n_executed} executed, {self.n_from_cache} from cache, "
            f"{self.n_failed} failed, "
            f"{'process pool' if self.used_processes else 'in-process'})",
            f"cache: {self.cache_stats.summary()}",
        ]
        for failure in self.failures:
            lines.append(f"  FAILED {failure.describe()}")
        executed = sorted(
            (t for t in self.timings if not t.from_cache and not t.failed),
            key=lambda t: t.wall_time,
            reverse=True,
        )
        for timing in executed[:10]:
            lines.append(f"  {timing.wall_time:7.3f}s  {timing.label}")
        if len(executed) > 10:
            lines.append(f"  ... {len(executed) - 10} more")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class SweepRunner:
    """Fan independent sweep tasks out over workers, through the cache.

    Parameters
    ----------
    max_workers:
        Process-pool width.  ``1`` (the default) runs tasks in-process —
        deterministically identical to the parallel schedule, without the
        pool overhead.  ``None`` uses ``os.cpu_count()``.
    cache:
        The operating-point cache; one is created when omitted.  Pass a
        shared instance to reuse settled points across figure builders.
    seed_root:
        Die seed every task's server is built with (one simulated machine
        for the whole campaign, like the paper's test box).  Per-task
        random streams derive from it via :func:`derive_seed`.
    task_timeout:
        Per-task wall-clock budget in seconds on the process-pool path
        (``None`` = unlimited).  A task that overruns counts as one failed
        attempt.  The in-process path cannot preempt a running task, so
        the timeout applies only when a pool executes.
    max_retries:
        Bounded retry count per failing task (default 0: one attempt).
        Retries matter under fault injection, where a failure can clear
        with time; deterministic failures simply fail ``max_retries + 1``
        times.
    strict:
        ``True`` (default) raises :class:`~repro.errors.SweepError` after
        the batch completes when any task failed — successful siblings
        are still settled and cached first, and the error carries the
        failure manifest.  ``False`` returns the report with ``None``
        placeholders in ``results`` and the manifest on
        ``report.failures``.
    """

    def __init__(
        self,
        max_workers: Optional[int] = 1,
        cache: Optional[OperatingPointCache] = None,
        seed_root: int = DEFAULT_SEED_ROOT,
        task_timeout: Optional[float] = None,
        max_retries: int = 0,
        strict: bool = True,
    ) -> None:
        self.max_workers = os.cpu_count() if max_workers is None else max_workers
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.cache = cache if cache is not None else OperatingPointCache()
        self.seed_root = seed_root
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.strict = strict
        #: The most recent batch's report (observability).  Older reports
        #: are not kept: each pins its batch's results.
        self.last_report: Optional[SweepReport] = None
        # Running totals behind :meth:`timings_summary`.
        self._n_batches = 0
        self._n_tasks = 0
        self._n_executed = 0
        self._wall_time = 0.0

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[SweepTask],
        config: Optional[ServerConfig] = None,
        seed_root: Optional[int] = None,
    ) -> SweepReport:
        """Execute a batch of tasks; results come back in input order.

        ``seed_root`` overrides the runner's die seed for this batch only
        (cache keys include the effective seed, so differently-seeded
        batches never alias).  Callers measuring a specific server should
        pass that server's seed so results stay bit-identical to settling
        on the server directly.
        """
        with observability().span("sweep.batch", n_tasks=len(tasks)) as span:
            report = self._run_batch(tasks, config, seed_root)
            span.annotate(
                executed=report.n_executed,
                cached=report.n_from_cache,
                used_processes=report.used_processes,
            )
        return report

    def _run_batch(
        self,
        tasks: Sequence[SweepTask],
        config: Optional[ServerConfig],
        seed_root: Optional[int],
    ) -> SweepReport:
        start = time.perf_counter()
        cfg = config or ServerConfig()
        cfg_fp = config_fingerprint(cfg)
        seed = self.seed_root if seed_root is None else seed_root

        # Resolve from cache; collect the modes each task still needs.
        states: List[Dict[str, SteadyState]] = []
        pending: List[Tuple[int, Tuple[GuardbandMode, ...]]] = []
        for index, task in enumerate(tasks):
            have: Dict[str, SteadyState] = {}
            missing: List[GuardbandMode] = []
            for mode in self._modes_of(task):
                cached = self.cache.get(self._point_key(cfg_fp, task, mode, seed))
                if cached is not None:
                    have[mode.value] = cached
                else:
                    missing.append(mode)
            states.append(have)
            if missing:
                pending.append((index, tuple(missing)))

        # Settle what the cache could not answer.  Worker exceptions are
        # captured per task: one poisoned point never aborts the batch.
        used_processes = False
        fresh_wall: Dict[int, float] = {}
        failures: List[TaskFailure] = []
        if pending:
            payloads = [
                (cfg, seed, tasks[index], modes)
                for index, modes in pending
            ]
            outcomes, used_processes = self._execute(payloads)
            for (index, _), (fresh, wall, error) in zip(pending, outcomes):
                if error is not None:
                    error_type, message, attempts = error
                    failures.append(
                        TaskFailure(
                            index=index,
                            label=tasks[index].label(),
                            error_type=error_type,
                            error=message,
                            attempts=attempts,
                        )
                    )
                    continue
                fresh_wall[index] = wall
                for mode_value, state in fresh.items():
                    mode = GuardbandMode(mode_value)
                    self.cache.put(
                        self._point_key(cfg_fp, tasks[index], mode, seed), state
                    )
                    states[index][mode_value] = state

        # Assemble results and the report, in input order.  Failed tasks
        # hold a ``None`` placeholder so sibling indices stay aligned.
        failed_indices = {failure.index for failure in failures}
        results: List[Optional[RunResult]] = []
        timings = []
        for index, task in enumerate(tasks):
            if index in failed_indices:
                results.append(None)
                timings.append(
                    TaskTiming(
                        label=task.label(),
                        wall_time=0.0,
                        from_cache=False,
                        failed=True,
                    )
                )
                continue
            static = states[index][GuardbandMode.STATIC.value]
            adaptive = states[index][task.mode.value]
            results.append(
                RunResult(
                    profile=task.profile,
                    n_active_cores=static.n_active_cores,
                    static=static,
                    adaptive=adaptive,
                )
            )
            timings.append(
                TaskTiming(
                    label=task.label(),
                    wall_time=fresh_wall.get(index, 0.0),
                    from_cache=index not in fresh_wall,
                )
            )
        report = SweepReport(
            results=tuple(results),
            timings=tuple(timings),
            wall_time=time.perf_counter() - start,
            used_processes=used_processes,
            cache_stats=dataclasses.replace(self.cache.stats),
            failures=tuple(failures),
        )
        self.last_report = report
        self._n_batches += 1
        self._n_tasks += report.n_tasks
        self._n_executed += report.n_executed
        self._wall_time += report.wall_time
        self._record_report(report)
        if failures and self.strict:
            first = failures[0]
            raise SweepError(
                f"{len(failures)} of {len(tasks)} sweep task(s) failed "
                f"(first: {first.describe()}); successful tasks were "
                "cached — rerun with strict=False for partial results",
                failures=failures,
            )
        return report

    def _record_report(self, report: SweepReport) -> None:
        """Mirror one batch's outcome into the observability layer.

        Pure observation after the fact: nothing here feeds back into
        task scheduling, caching, or results.
        """
        obs = observability()
        if not obs.enabled:
            return
        obs.count(
            "sweep_batches_total", help_text="Sweep batches executed."
        )
        obs.count(
            "sweep_tasks_total",
            amount=report.n_from_cache,
            help_text="Sweep tasks by outcome.",
            outcome="cached",
        )
        obs.count(
            "sweep_tasks_total",
            amount=report.n_executed,
            help_text="Sweep tasks by outcome.",
            outcome="executed",
        )
        if report.n_failed:
            obs.count(
                "sweep_tasks_total",
                amount=report.n_failed,
                help_text="Sweep tasks by outcome.",
                outcome="failed",
            )
        obs.observe(
            "sweep_batch_seconds",
            report.wall_time,
            help_text="End-to-end wall time per batch.",
        )
        executed_wall = 0.0
        for timing in report.timings:
            if not timing.from_cache:
                executed_wall += timing.wall_time
                obs.observe(
                    "sweep_task_seconds",
                    timing.wall_time,
                    help_text="Per-task settle wall time (fresh points).",
                )
        if report.n_executed and report.wall_time > 0:
            # An in-process batch ran on one worker, whatever the pool width.
            workers = self.max_workers if report.used_processes else 1
            obs.gauge(
                "sweep_worker_utilization",
                executed_wall / (report.wall_time * workers),
                help_text=(
                    "Busy fraction of the workers that ran the last "
                    "executing batch (task wall time / batch wall time "
                    "/ workers)."
                ),
            )

    def run_results(
        self,
        tasks: Sequence[SweepTask],
        config: Optional[ServerConfig] = None,
        seed_root: Optional[int] = None,
    ) -> List[RunResult]:
        """:meth:`run`, returning just the results."""
        return list(self.run(tasks, config, seed_root=seed_root).results)

    def timings_summary(self) -> str:
        """Cumulative summary across every batch this runner executed."""
        lines = [
            f"runner: {self._n_batches} batch(es), {self._n_tasks} task(s), "
            f"{self._n_executed} executed, {self._wall_time:.2f}s total",
            f"cache: {self.cache.stats.summary()}",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _modes_of(task: SweepTask) -> Tuple[GuardbandMode, ...]:
        if task.mode is GuardbandMode.STATIC:
            return (GuardbandMode.STATIC,)
        return (GuardbandMode.STATIC, task.mode)

    def _point_key(
        self,
        cfg_fp: str,
        task: SweepTask,
        mode: GuardbandMode,
        seed: Optional[int] = None,
    ) -> str:
        return fingerprint(
            {
                "config": cfg_fp,
                "coords": task.coordinates(),
                "mode": mode.value,
                "seed": self.seed_root if seed is None else seed,
            }
        )

    def _execute(
        self, payloads: List[tuple]
    ) -> Tuple[List[tuple], bool]:
        """Run payloads through the pool, or in-process when unavailable.

        Returns ``(outcomes, used_processes)`` where each outcome is
        ``(states, wall, None)`` on success or ``(None, 0.0,
        (error_type, message, attempts))`` after the task exhausted its
        attempts.  Worker exceptions never propagate — they land in the
        failure manifest.

        Pool workers are separate processes and cannot see this process's
        installed fault injector, so batches running under injection are
        forced in-process to keep the faults (and the results) coherent.
        """
        use_pool = (
            self.max_workers > 1
            and len(payloads) > 1
            and not fault_injector().enabled
        )
        if use_pool:
            try:
                return self._execute_pool(payloads), True
            except (OSError, PermissionError, NotImplementedError):
                # Sandboxes and exotic platforms may refuse process pools;
                # the in-process path produces bit-identical results.
                pass
        return [self._execute_inline(p) for p in payloads], False

    def _execute_pool(self, payloads: List[tuple]) -> List[tuple]:
        """Pool path: per-future timeout, capped resubmission on failure."""
        outcomes: List[Optional[tuple]] = [None] * len(payloads)
        attempts = {i: 0 for i in range(len(payloads))}
        remaining = list(range(len(payloads)))
        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            while remaining:
                futures = {
                    i: pool.submit(_execute_task, payloads[i])
                    for i in remaining
                }
                retry: List[int] = []
                for i, future in futures.items():
                    attempts[i] += 1
                    try:
                        states, wall = future.result(timeout=self.task_timeout)
                        outcomes[i] = (states, wall, None)
                    except FuturesTimeoutError:
                        future.cancel()
                        self._handle_attempt_failure(
                            i,
                            "TimeoutError",
                            f"task exceeded {self.task_timeout}s",
                            attempts,
                            retry,
                            outcomes,
                        )
                    except Exception as exc:  # noqa: BLE001 - manifest capture
                        self._handle_attempt_failure(
                            i,
                            type(exc).__name__,
                            str(exc),
                            attempts,
                            retry,
                            outcomes,
                        )
                remaining = retry
        return outcomes

    def _execute_inline(self, payload: tuple) -> tuple:
        """In-process path: bounded retries, exception capture."""
        attempts = 0
        while True:
            attempts += 1
            try:
                states, wall = _execute_task(payload)
                return (states, wall, None)
            except Exception as exc:  # noqa: BLE001 - manifest capture
                if attempts <= self.max_retries:
                    self._count_retry()
                    continue
                return (None, 0.0, (type(exc).__name__, str(exc), attempts))

    def _handle_attempt_failure(
        self,
        index: int,
        error_type: str,
        message: str,
        attempts: Dict[int, int],
        retry: List[int],
        outcomes: List[Optional[tuple]],
    ) -> None:
        if attempts[index] <= self.max_retries:
            self._count_retry()
            retry.append(index)
        else:
            outcomes[index] = (
                None,
                0.0,
                (error_type, message, attempts[index]),
            )

    @staticmethod
    def _count_retry() -> None:
        observability().count(
            "tasks_retried_total",
            help_text="Task retry attempts by layer.",
            layer="sweep",
        )


# ----------------------------------------------------------------------
# Process-wide default runner
# ----------------------------------------------------------------------
_default_runner: Optional[SweepRunner] = None


def default_runner() -> SweepRunner:
    """The process-wide runner the figure builders share.

    Created lazily from the environment: ``REPRO_SWEEP_WORKERS`` sets the
    pool width (default 1 — in-process), ``REPRO_SWEEP_CACHE_DIR`` enables
    the JSON disk cache.  Sharing one runner means one shared cache, so a
    figure's points settle once per process no matter how many builders
    need them.
    """
    global _default_runner
    if _default_runner is None:
        workers = int(os.environ.get(WORKERS_ENV, "1") or "1")
        disk_dir = os.environ.get(CACHE_DIR_ENV) or None
        _default_runner = SweepRunner(
            max_workers=workers,
            cache=OperatingPointCache(disk_dir=disk_dir),
        )
    return _default_runner


def set_default_runner(runner: Optional[SweepRunner]) -> Optional[SweepRunner]:
    """Swap the process-wide runner; returns the previous one.

    Pass ``None`` to reset to lazy re-creation from the environment.
    """
    global _default_runner
    previous, _default_runner = _default_runner, runner
    return previous
