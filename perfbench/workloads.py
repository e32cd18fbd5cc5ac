"""The benchmark's three workloads, each a closed loop in one process.

``paper_figures``
    All 13 paper figures through the printers ``repro figure`` uses, on
    one fresh in-process ``SweepRunner``, then ``run_selfcheck()``.  The
    reproduction itself: cold electrical solves, 20% sweep-cache hits,
    no fleet layers.
``scenario_catalog``
    ``check_scenario`` semantics (run, then adjudicate the ``[golden]``
    block) over the catalog's non-``slow`` scenarios at 1 shard, every
    fleet memo cleared before each one.  The fleet path when cold: one
    single-task ``SweepRunner`` batch per distinct settle, power-cap
    bisection probes, fault plans and aged silicon.
``fleet_warm``
    A homogeneous AGS fleet day replayed against a settle-cache disk
    directory that set-up filled with one cold run.  The replay does no
    solves, so it measures the cache reads, the event loop and the
    merge, and leaves the electrical solver out.

The seed is the only input the benchmark varies.  For ``paper_figures``
and ``scenario_catalog`` it shuffles the order of the operations (seed
0 keeps the catalog order); every figure and scenario keeps its own
pinned inputs, so the golden blocks and self-check bands hold at every
seed.  Re-seeding the scenarios themselves moves the cold catalog's
cost by 15-20% from seed to seed, more than any bound the benchmark can
keep.  For ``fleet_warm`` the seed is the fleet's seed, so it changes
the trace and the silicon.

An operation is one figure or self-check, one scenario check, or one
fleet day.  It fails on any exception, golden or digest mismatch, or
watchdog violation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import cli  # noqa: E402
from repro.analysis import figures as figure_builders  # noqa: E402
from repro.analysis import selfcheck  # noqa: E402
from repro.faults.watchdog import watched  # noqa: E402
from repro.fleet.engine import FleetConfig, clear_fleet_memos  # noqa: E402
from repro.fleet.settle_cache import (  # noqa: E402
    configure_fleet_settle_cache,
    fleet_settle_cache,
)
from repro.fleet.shard import run_sharded  # noqa: E402
from repro.fleet.traffic import TrafficConfig  # noqa: E402
from repro.scenarios.catalog import load_catalog  # noqa: E402
from repro.scenarios.runner import check_result, run_scenario  # noqa: E402
from repro.sim.batch import SweepRunner, set_default_runner  # noqa: E402
from repro.sim.cache import OperatingPointCache  # noqa: E402
from tracer import FIGURE_BUILDERS  # noqa: E402

#: The seed at which the benchmark keeps its inputs in catalog order.
DEFAULT_SEED = 0

#: Where runs keep scratch state inside the checkout (settle-cache
#: directories, recorded output digests, span files).
STATE_DIR = os.path.join(REPO_ROOT, ".bench_build", "perfbench")

#: How long one set-up child may take before the run gives up (s).
SETUP_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One operation's outcome: its output digest, or why it failed."""

    name: str
    digest: Optional[str] = None
    error: Optional[str] = None


@dataclass
class PassResult:
    """One timed pass: its operations, its walls and what it measured.

    ``wall_s`` is the host seconds its operations took; ``scaled_s`` is
    the same time at the nominal host speed (see :class:`SpeedClock`).
    """

    ops: List[Op]
    wall_s: float
    scaled_s: float
    facts: Dict[str, float] = field(default_factory=dict)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _attempt(name: str, fn: Callable[[], str]) -> Op:
    """Run one operation; any exception is that operation's failure."""
    try:
        return Op(name, digest=fn())
    except Exception as exc:  # noqa: BLE001 - an operation's failure is data
        return Op(name, error=f"{type(exc).__name__}: {exc}")


#: Host seconds :func:`reference_kernel` takes at the nominal host speed.
REFERENCE_S = 0.1


def reference_kernel() -> float:
    """Fixed work shaped like the electrical solve; returns its host seconds.

    Small numpy vectors, transcendental ufuncs, reductions and Python
    tuples and dicts, as the solver's inner loops use them.  It calls no
    code of the program, so a change to the program never moves it.
    """
    start = time.perf_counter()
    table: Dict[tuple, int] = {}
    base = np.linspace(0.9, 1.1, 8)
    for i in range(7000):
        f = base * (1.0 + 1e-4 * (i % 7))
        p = np.power(f, 2.2) * 0.35 + np.exp(-f) * 0.1
        m = np.maximum(p - 0.3, 0.0)
        key = (i % 97, round(float(np.sum(m)) + float(np.max(p)), 3))
        table[key] = table.get(key, 0) + 1
        tuple(float(x) for x in p[:4])
    return time.perf_counter() - start


class SpeedClock:
    """Times operations and scales each one to the nominal host speed.

    The host this benchmark was tuned on drifts by up to 40% in speed
    over minutes, which no number of passes averages out.  Around every
    operation the clock runs :func:`reference_kernel`; the operation's
    wall times ``REFERENCE_S`` over the mean of the two kernel walls
    beside it is its time at the nominal speed.  With ``scale=False``
    the kernel does not run and scaled time equals wall time.
    """

    def __init__(self, scale: bool = True) -> None:
        self.scale = scale
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._reference = reference_kernel() if scale else REFERENCE_S

    def attempt(self, name: str, fn: Callable[[], str]) -> Op:
        start = time.perf_counter()
        op = _attempt(name, fn)
        wall = time.perf_counter() - start
        reference = reference_kernel() if self.scale else REFERENCE_S
        self.wall_s += wall
        self.scaled_s += wall * REFERENCE_S / ((self._reference + reference) / 2)
        self._reference = reference
        return op


def _shuffled(items: Sequence, seed: int) -> list:
    ordered = list(items)
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(ordered)
    return ordered


def anchor_error(report: "selfcheck.SelfCheckReport") -> float:
    """Mean over the self-check anchors of |measured - expected| / tolerance."""
    checks = report.checks
    return sum(
        abs(c.measured - c.expected) / c.tolerance for c in checks
    ) / len(checks)


def selfcheck_op(
    attempt: Callable[[str, Callable[[], str]], Op] = _attempt,
) -> Tuple[Op, float]:
    """The self-check as one operation, and its anchor error."""
    found: List[float] = []

    def check() -> str:
        report = selfcheck.run_selfcheck()
        found.append(anchor_error(report))
        if not report.passed:
            raise AssertionError(
                "anchors out of band: "
                + "; ".join(str(c) for c in report.failures())
            )
        return _digest(repr([(c.name, c.measured) for c in report.checks]))

    op = attempt("selfcheck", check)
    return op, (found[0] if found else float("nan"))


class Workload:
    """Base: set-up, timed passes, and the entry points a pass must reach."""

    name = ""

    #: Entry points (tracer keys) every traced pass must call.
    required_calls: Tuple[str, ...] = ()

    #: Whether the self-check must run after the timed passes to give
    #: ``anchor_error`` (``paper_figures`` runs it inside each pass).
    needs_selfcheck = True

    def __init__(self, seed: int, **params: object) -> None:
        self.seed = seed
        #: The constructor's arguments, so a set-up child can rebuild
        #: the same workload.
        self.params: Dict[str, object] = dict(seed=seed, **params)

    def describe(self) -> str:
        """The input size of one pass, in one line."""
        raise NotImplementedError

    def setup_in_child(self, workdir: str) -> Dict[str, object]:
        """Set-up work done in a fresh process; returns JSON-able facts."""
        return {}

    def accept_setup(self, workdir: str, facts: Dict[str, object]) -> List[Op]:
        """Take one child's set-up; returns the set-up's operations."""
        return []

    def check_trace(self, counters: Dict[str, int]) -> List[str]:
        """Failures a traced pass's counters reveal (none by default)."""
        return []

    def run_pass(self, scale: bool = True) -> PassResult:
        """One timed pass; ``scale`` runs the :class:`SpeedClock` kernel."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever set-up left on disk."""


class PaperFigures(Workload):
    name = "paper_figures"
    required_calls = (
        "sim.batch.run",
        "sim.run.build_server",
        "sim.cache.get",
        "sim.cache.put",
        "sim.server.operate",
        "sim.socket.solve",
    )

    needs_selfcheck = False

    def __init__(self, seed: int,
                 figures: Sequence[str] = cli.FIGURES) -> None:
        super().__init__(seed, figures=list(figures))
        self.figures = _shuffled(figures, seed)
        self.required_calls = PaperFigures.required_calls + tuple(
            f"analysis.{builder}"
            for builder in FIGURE_BUILDERS
            if builder.split("_", 1)[0] in self.figures
        ) + ("analysis.run_selfcheck",)

    def describe(self) -> str:
        return (
            f"{len(self.figures)} figures + self-check, order "
            + " ".join(self.figures)
        )

    def _figure(self, name: str) -> str:
        printer = getattr(cli, f"_print_{name}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            printer(figure_builders)
        return _digest(out.getvalue())

    def run_pass(self, scale: bool = True) -> PassResult:
        runner = SweepRunner(max_workers=1, cache=OperatingPointCache())
        previous = set_default_runner(runner)
        facts: Dict[str, float] = {}
        clock = SpeedClock(scale)
        try:
            ops = [
                clock.attempt(name, lambda name=name: self._figure(name))
                for name in self.figures
            ]
            op, facts["anchor_error"] = selfcheck_op(clock.attempt)
            ops.append(op)
        finally:
            set_default_runner(previous)
        return PassResult(ops, clock.wall_s, clock.scaled_s, facts)


class ScenarioCatalog(Workload):
    name = "scenario_catalog"
    required_calls = (
        "scenarios.runner.lower",
        "fleet.traffic.generate",
        "fleet.engine.run",
        "fleet.shard.merge",
        "fleet.settle_cache.get",
        "fleet.settle_cache.put",
        "fleet.powercap.tick",
        "sim.batch.run",
        "sim.run.build_server",
        "sim.cache.get",
        "sim.cache.put",
        "sim.server.operate",
        "sim.socket.solve",
    )

    def __init__(self, seed: int,
                 names: Optional[Sequence[str]] = None) -> None:
        super().__init__(seed, names=None if names is None else list(names))
        catalog = [s for s in load_catalog() if "slow" not in s.tags]
        if names is not None:
            catalog = [s for s in catalog if s.name in names]
        self.scenarios = _shuffled(catalog, seed)

    def describe(self) -> str:
        return (
            f"{len(self.scenarios)} scenarios at 1 shard, order "
            + " ".join(s.name for s in self.scenarios)
        )

    def setup_in_child(self, workdir: str) -> Dict[str, object]:
        return {"scenarios": len(self.scenarios)}

    def _check(self, scenario, facts: Dict[str, float]) -> str:
        if scenario.golden.is_empty:
            raise AssertionError(f"{scenario.name} has no [golden] block")
        clear_fleet_memos()
        with watched(strict=True):
            result = run_scenario(scenario, n_shards=1, keep_events=True)
        fleet = result.fleet
        if fleet.cap_budget_w > 0:
            facts["cap_overshoot_w"] += max(
                0.0, fleet.cap_measured_steady_w - fleet.cap_budget_w
            )
        verdict = check_result(result)
        if not verdict.passed:
            raise AssertionError("; ".join(verdict.failures))
        return fleet.event_log_hash

    def run_pass(self, scale: bool = True) -> PassResult:
        configure_fleet_settle_cache()
        facts = {"cap_overshoot_w": 0.0}
        clock = SpeedClock(scale)
        ops = [
            clock.attempt(s.name, lambda s=s: self._check(s, facts))
            for s in self.scenarios
        ]
        stats = fleet_settle_cache().stats
        facts.update(settle_disk_hits=stats.disk_hits, settle_corrupt=stats.corrupt)
        return PassResult(ops, clock.wall_s, clock.scaled_s, facts)


class FleetWarm(Workload):
    name = "fleet_warm"
    required_calls = (
        "fleet.traffic.generate",
        "fleet.engine.run",
        "fleet.shard.merge",
        "fleet.settle_cache.get",
    )

    def __init__(self, seed: int, n_servers: int = 32, cell_servers: int = 16,
                 hours: float = 24.0, jobs_per_hour: float = 200.0) -> None:
        super().__init__(seed, n_servers=n_servers, cell_servers=cell_servers,
                         hours=hours, jobs_per_hour=jobs_per_hour)
        # One profile per job class keeps the full-size day's distinct
        # settles near 80, so the cold fill that set-up repeats stays a
        # few seconds while the replay still walks every job of the day.
        self.config = FleetConfig(
            n_servers=n_servers,
            traffic=TrafficConfig(
                duration_seconds=hours * 3600.0,
                jobs_per_hour=jobs_per_hour,
                lc_fraction=0.2,
                lc_profiles=("perl",),
                batch_profiles=("raytrace",),
                lc_threads=(1,),
                batch_threads=(2, 4),
            ),
            seed=seed,
        )
        self.cell_servers = cell_servers
        self.settle_dir: Optional[str] = None
        self.cold_digest: Optional[str] = None
        self.n_jobs = 0
        self._dirs: List[str] = []

    def describe(self) -> str:
        traffic = self.config.traffic
        return (
            f"{self.config.n_servers} servers in {self.cell_servers}-server "
            f"cells, {traffic.duration_seconds / 3600:g} h at "
            f"{traffic.jobs_per_hour:g} jobs/h ({self.n_jobs} jobs), "
            f"fleet seed {self.config.seed}, 1 shard"
        )

    def _day(self):
        return run_sharded(
            self.config, n_shards=1, cell_servers=self.cell_servers,
            keep_events=False,
        )

    def setup_in_child(self, workdir: str) -> Dict[str, object]:
        configure_fleet_settle_cache(disk_dir=workdir)
        clear_fleet_memos()
        with watched(strict=True):
            result = self._day()
        stats = fleet_settle_cache().stats
        return {
            "digest": result.event_log_hash,
            "jobs": result.n_arrivals,
            "stores": stats.stores,
        }

    def accept_setup(self, workdir: str, facts: Dict[str, object]) -> List[Op]:
        self._dirs.append(workdir)
        self.settle_dir = workdir
        self.n_jobs = int(facts["jobs"])
        op = Op("cold_fill", digest=str(facts["digest"]))
        if self.cold_digest is None:
            self.cold_digest = op.digest
        elif op.digest != self.cold_digest:
            op.error = (
                f"cold fills disagree: {op.digest} != {self.cold_digest}"
            )
        return [op]

    def _replay(self, facts: Dict[str, float]) -> str:
        configure_fleet_settle_cache(disk_dir=self.settle_dir)
        clear_fleet_memos()
        with watched(strict=True):
            result = self._day()
        stats = fleet_settle_cache().stats
        facts.update(settle_disk_hits=stats.disk_hits, settle_corrupt=stats.corrupt)
        if stats.misses or stats.stores:
            raise AssertionError(
                f"replay was not warm: {stats.misses} settle-cache misses, "
                f"{stats.stores} stores"
            )
        if result.event_log_hash != self.cold_digest:
            raise AssertionError(
                f"replay digest {result.event_log_hash} != cold fill "
                f"{self.cold_digest}"
            )
        return result.event_log_hash

    def check_trace(self, counters: Dict[str, int]) -> List[str]:
        executed = counters.get("sim.batch.executed", 0)
        return [f"warm replay executed {executed} sweep tasks"] if executed else []

    def run_pass(self, scale: bool = True) -> PassResult:
        if self.settle_dir is None:
            raise RuntimeError("fleet_warm needs its set-up before a pass")
        facts: Dict[str, float] = {}
        clock = SpeedClock(scale)
        op = clock.attempt("fleet_day", lambda: self._replay(facts))
        configure_fleet_settle_cache()
        return PassResult([op], clock.wall_s, clock.scaled_s, facts)

    def close(self) -> None:
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()


WORKLOADS = {
    cls.name: cls for cls in (PaperFigures, ScenarioCatalog, FleetWarm)
}


def timed_setup(workload: Workload, repeats: int) -> Tuple[List[float], List[Op]]:
    """Run set-up ``repeats`` times, each in a fresh process; time each.

    A set-up's time is the child's whole wall (interpreter start,
    imports and the workload's own set-up work), scaled to the nominal
    host speed by the reference kernel run before and after it, as
    :class:`SpeedClock` scales a pass's operations.
    """
    times: List[float] = []
    ops: List[Op] = []
    os.makedirs(STATE_DIR, exist_ok=True)
    reference = reference_kernel()
    for attempt in range(repeats):
        workdir = os.path.join(
            STATE_DIR, f"setup-{workload.name}-{workload.seed}-{attempt}"
        )
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), workload.name,
             json.dumps(workload.params), workdir],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            cwd=REPO_ROOT,
        )
        wall = time.perf_counter() - start
        after = reference_kernel()
        times.append(wall * REFERENCE_S / ((reference + after) / 2))
        reference = after
        if child.returncode != 0:
            raise RuntimeError(
                f"{workload.name} set-up exited {child.returncode}:\n"
                + child.stderr[-2000:]
            )
        facts = json.loads(child.stdout.strip().splitlines()[-1])
        ops.extend(workload.accept_setup(workdir, facts))
    return times, ops


def _setup_child(argv: Sequence[str]) -> int:
    name, params, workdir = argv
    workload = WORKLOADS[name](**json.loads(params))
    print(json.dumps(workload.setup_in_child(workdir)))
    return 0


if __name__ == "__main__":
    sys.exit(_setup_child(sys.argv[1:]))
