"""The gated benchmark suites: fleet day, Fig. 13 sweep, and a scenario.

``bench_fleet_day`` times the same simulated day twice — once as the
monolithic, single-process baseline and once sharded over fixed cells —
checks that every shard count yields the *same* event-log SHA-256, and
appends both wall times (plus the speedup ratio) to ``BENCH_fleet.json``.

``bench_fleet_region`` is the region-scale variant: ≥1k servers and
≥100k jobs sharded over fixed cells with the shared settle-cache disk
layer engaged — one cold run, a shard-count digest-identity sweep, and
a warm rerun against the now-hot cache, all folded into a single
``fleet_day_region`` entry whose metadata carries the cache's hit/miss
counters.  ``profile_fleet_day`` (the ``--profile`` flag) runs one
cold, in-process day under cProfile and writes the top-N cumulative
report next to the trend file.

``bench_fig13_sweep`` times the Fig. 13 borrowing figure build from a
cold sweep runner and appends it to ``BENCH_sweep.json``.

``bench_scenario`` times one catalog scenario end to end — TOML parse,
lowering, sharded execution — verifies shard-count digest identity, and
appends to ``BENCH_scenario.json``, which puts the scenario path on the
same perf-trajectory gate as the raw engine.

``bench_cap`` does the same for the power-capped path: it times the
``rack_power_budget`` scenario (coordinator ticks, per-server cap
walks, budget decomposition across cells) into ``BENCH_cap.json``, so
a regression in the capping hot path fails the gate like any other.
"""

import cProfile
import io
import os
import pstats
import tempfile
import time
from typing import Any, Dict, Optional, Sequence

from ..errors import SchedulingError
from ..fleet.engine import FleetConfig, FleetSimulation, clear_fleet_memos
from ..fleet.settle_cache import configure_fleet_settle_cache, fleet_settle_cache
from ..fleet.shard import CellLayout, run_sharded
from ..fleet.traffic import TrafficConfig
from .trend import record

#: Default trend files, relative to the invoking directory (repo root in
#: CI); committed alongside the code so the trend survives checkouts.
FLEET_BENCH_FILE = "BENCH_fleet.json"
SWEEP_BENCH_FILE = "BENCH_sweep.json"
SCENARIO_BENCH_FILE = "BENCH_scenario.json"
CAP_BENCH_FILE = "BENCH_cap.json"

#: Catalog scenario the scenario suite times by default — the
#: heterogeneous-generations study, because it exercises the widest
#: slice of the lowering path (aging, per-group die seeds, mixed cells).
DEFAULT_BENCH_SCENARIO = "heterogeneous_aging"

#: Catalog scenario the cap suite times — the rack budget study, which
#: keeps the coordinator ticking and the cap walk throttling all day.
DEFAULT_CAP_BENCH_SCENARIO = "rack_power_budget"


def _timed(fn) -> "tuple":
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def bench_fleet_day(
    n_servers: int = 8,
    duration_seconds: float = 2 * 3600.0,
    jobs_per_hour: float = 200.0,
    lc_fraction: float = 0.2,
    cell_servers: Optional[int] = None,
    shard_counts: Sequence[int] = (1, 2),
    seed: int = 7,
    baseline: bool = True,
    out_path: str = FLEET_BENCH_FILE,
) -> Dict[str, Any]:
    """Time the fleet day, verify shard-count SHA identity, record trend.

    The baseline runs first, cold, on the monolithic (single-cell,
    single-process) engine — the "before" configuration.  The sharded
    runs follow; any memo warmth they inherit from the baseline is part
    of the "after" story, since a long-lived process is exactly where
    the memos pay off.
    """
    config = FleetConfig(
        n_servers=n_servers,
        traffic=TrafficConfig(
            duration_seconds=duration_seconds,
            jobs_per_hour=jobs_per_hour,
            lc_fraction=lc_fraction,
        ),
        seed=seed,
    )
    layout = CellLayout(
        n_servers=n_servers, cell_servers=cell_servers or n_servers
    )
    scale = (
        f"servers={n_servers},rate={jobs_per_hour:g},"
        f"duration={duration_seconds:g},cell={layout.cell_servers},"
        f"seed={seed}"
    )
    report: Dict[str, Any] = {
        "n_servers": n_servers,
        "cell_servers": layout.cell_servers,
        "n_cells": layout.n_cells,
        "shard_counts": list(shard_counts),
        "scale": scale,
    }

    baseline_wall = None
    if baseline:
        clear_fleet_memos()  # the baseline must be genuinely cold
        base_result, baseline_wall = _timed(
            lambda: FleetSimulation(config).run()
        )
        report["baseline_wall_seconds"] = baseline_wall
        report["baseline_digest"] = base_result.event_log_hash
        report["n_jobs"] = base_result.n_arrivals
        record(
            out_path,
            "fleet_day_scalar_baseline",
            baseline_wall,
            meta={
                "scale": scale,
                "n_servers": n_servers,
                "n_jobs": base_result.n_arrivals,
                "digest": base_result.event_log_hash,
            },
        )

    digests = {}
    walls = {}
    sharded_result = None
    for n_shards in shard_counts:
        sharded_result, wall = _timed(
            lambda shards=n_shards: run_sharded(
                config,
                n_shards=shards,
                cell_servers=layout.cell_servers,
                keep_events=False,
            )
        )
        digests[n_shards] = sharded_result.event_log_hash
        walls[n_shards] = wall
    if len(set(digests.values())) != 1:
        raise SchedulingError(
            f"shard counts disagree on the event-log digest: {digests}"
        )
    report["sharded_digest"] = next(iter(digests.values()))
    report["sharded_wall_seconds"] = dict(walls)
    report.setdefault("n_jobs", sharded_result.n_arrivals)

    best_wall = min(walls.values())
    speedup = None
    if baseline_wall is not None and best_wall > 0:
        speedup = baseline_wall / best_wall
        report["speedup"] = speedup
    record(
        out_path,
        "fleet_day_sharded",
        best_wall,
        meta={
            "scale": scale,
            "n_servers": n_servers,
            "n_jobs": report["n_jobs"],
            "cell_servers": layout.cell_servers,
            "digest": report["sharded_digest"],
            "digest_identical_across_shards": True,
            "walls_by_shards": {str(k): v for k, v in walls.items()},
            "speedup_vs_scalar_baseline": speedup,
        },
    )
    return report


def bench_fleet_region(
    n_servers: int = 1024,
    duration_seconds: float = 24 * 3600.0,
    jobs_per_hour: float = 4400.0,
    lc_fraction: float = 0.2,
    cell_servers: int = 16,
    shard_counts: Sequence[int] = (1, 2, 4),
    seed: int = 7,
    out_path: str = FLEET_BENCH_FILE,
    settle_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Time a region-scale fleet day with the shared settle cache.

    Three measurements, one trend entry (``fleet_day_region``):

    1. **cold** — a fresh (empty) shared settle-cache directory, every
       fleet memo cleared, sharded at ``shard_counts[0]``;
    2. **shard invariance** — the remaining shard counts re-run the same
       day (warm disk is irrelevant to identity) and every count must
       produce the same event-log SHA-256;
    3. **warm** — the memory layer and every other fleet memo are
       dropped but the settle-cache *disk* directory is kept, and the
       day re-runs at ``shard_counts[0]``: the speedup of a region
       rerun against a warm shared cache, with the cache's hit/miss
       counters recorded alongside.

    The recorded ``wall_seconds`` is the cold wall (the stable
    definition the >20% gate compares); the warm wall, per-shard walls
    and settle-cache stats ride in the entry's metadata.
    """
    config = FleetConfig(
        n_servers=n_servers,
        traffic=TrafficConfig(
            duration_seconds=duration_seconds,
            jobs_per_hour=jobs_per_hour,
            lc_fraction=lc_fraction,
        ),
        seed=seed,
    )
    layout = CellLayout(n_servers=n_servers, cell_servers=cell_servers)
    scale = (
        f"servers={n_servers},rate={jobs_per_hour:g},"
        f"duration={duration_seconds:g},cell={layout.cell_servers},"
        f"seed={seed}"
    )
    owned_dir = None
    if settle_dir is None:
        owned_dir = tempfile.TemporaryDirectory(prefix="repro-settle-")
        settle_dir = owned_dir.name
    try:
        configure_fleet_settle_cache(disk_dir=settle_dir)
        clear_fleet_memos()
        first = shard_counts[0]
        cold_result, cold_wall = _timed(
            lambda: run_sharded(
                config,
                n_shards=first,
                cell_servers=cell_servers,
                keep_events=False,
            )
        )
        digests = {first: cold_result.event_log_hash}
        walls = {first: cold_wall}
        for n_shards in shard_counts[1:]:
            result, wall = _timed(
                lambda shards=n_shards: run_sharded(
                    config,
                    n_shards=shards,
                    cell_servers=cell_servers,
                    keep_events=False,
                )
            )
            digests[n_shards] = result.event_log_hash
            walls[n_shards] = wall
        if len(set(digests.values())) != 1:
            raise SchedulingError(
                f"shard counts disagree on the event-log digest: {digests}"
            )
        # Warm rerun: fresh stats, cold memory, warm shared disk.
        configure_fleet_settle_cache(disk_dir=settle_dir)
        clear_fleet_memos()
        warm_result, warm_wall = _timed(
            lambda: run_sharded(
                config,
                n_shards=first,
                cell_servers=cell_servers,
                keep_events=False,
            )
        )
        if warm_result.event_log_hash != cold_result.event_log_hash:
            raise SchedulingError(
                "warm settle-cache rerun changed the event-log digest: "
                f"{cold_result.event_log_hash} != {warm_result.event_log_hash}"
            )
        stats = fleet_settle_cache().stats
        meta = {
            "scale": scale,
            "n_servers": n_servers,
            "n_jobs": cold_result.n_arrivals,
            "cell_servers": cell_servers,
            "digest": cold_result.event_log_hash,
            "digest_identical_across_shards": True,
            "shard_counts": list(shard_counts),
            "walls_by_shards": {str(k): v for k, v in walls.items()},
            "cold_wall_seconds": cold_wall,
            "warm_wall_seconds": warm_wall,
            "warm_speedup": (cold_wall / warm_wall) if warm_wall > 0 else None,
            "settle_cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "disk_hits": stats.disk_hits,
                "evictions": stats.evictions,
                "hit_rate": stats.hit_rate,
                "summary": stats.summary(),
            },
        }
        record(out_path, "fleet_day_region", cold_wall, meta=meta)
        return {
            "n_servers": n_servers,
            "n_jobs": cold_result.n_arrivals,
            "digest": cold_result.event_log_hash,
            "wall_seconds": dict(walls),
            "cold_wall_seconds": cold_wall,
            "warm_wall_seconds": warm_wall,
            "settle_cache_summary": stats.summary(),
            "scale": scale,
        }
    finally:
        configure_fleet_settle_cache()
        if owned_dir is not None:
            owned_dir.cleanup()


def profile_path_for(out_path: str) -> str:
    """Where ``--profile`` writes, next to the trend file."""
    return os.path.splitext(out_path)[0] + ".profile.txt"


def profile_fleet_day(
    n_servers: int = 8,
    duration_seconds: float = 2 * 3600.0,
    jobs_per_hour: float = 200.0,
    lc_fraction: float = 0.2,
    cell_servers: Optional[int] = None,
    seed: int = 7,
    out_path: str = FLEET_BENCH_FILE,
    top_n: int = 40,
) -> Dict[str, Any]:
    """Profile one cold fleet day, write cProfile top-N next to the trend.

    The profiled run is single-shard and in-process (a process pool
    would hide every worker from the parent's profiler) and is *not*
    recorded in the trend file — profiling overhead must never gate.
    """
    config = FleetConfig(
        n_servers=n_servers,
        traffic=TrafficConfig(
            duration_seconds=duration_seconds,
            jobs_per_hour=jobs_per_hour,
            lc_fraction=lc_fraction,
        ),
        seed=seed,
    )
    clear_fleet_memos()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_sharded(
            config,
            n_shards=1,
            cell_servers=cell_servers,
            keep_events=False,
        )
    finally:
        profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top_n)
    path = profile_path_for(out_path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# cProfile (top {top_n} by cumulative time) — fleet day "
            f"servers={n_servers} rate={jobs_per_hour:g} "
            f"duration={duration_seconds:g} seed={seed}\n"
        )
        fh.write(stream.getvalue())
    return {
        "profile_path": path,
        "digest": result.event_log_hash,
        "n_jobs": result.n_arrivals,
        "top_n": top_n,
    }


def bench_scenario(
    name: str = DEFAULT_BENCH_SCENARIO,
    shard_counts: Sequence[int] = (1, 2),
    out_path: str = SCENARIO_BENCH_FILE,
    catalog_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Time one catalog scenario end to end, record its trend entry.

    Runs cold (fleet memos cleared) so the entry times the whole
    scenario loop a fresh process would pay: parse, lower, simulate,
    merge.  Every shard count must produce one digest — the scenario
    path inherits the sharded executor's identity guarantee, and the
    bench asserts it stays that way.
    """
    from ..scenarios import find_scenario, run_scenario

    scenario = find_scenario(name, directory=catalog_dir)
    walls: Dict[int, float] = {}
    digests: Dict[int, str] = {}
    result = None
    for n_shards in shard_counts:
        clear_fleet_memos()
        result, wall = _timed(
            lambda shards=n_shards: run_scenario(
                scenario, n_shards=shards, keep_events=False
            )
        )
        walls[n_shards] = wall
        digests[n_shards] = result.fleet.event_log_hash
    if len(set(digests.values())) != 1:
        raise SchedulingError(
            f"shard counts disagree on the scenario digest: {digests}"
        )
    scale = (
        f"scenario={scenario.name},servers={scenario.topology.n_servers},"
        f"duration={scenario.traffic.duration_seconds:g},"
        f"seed={scenario.seed}"
    )
    best_wall = min(walls.values())
    record(
        out_path,
        f"scenario_{scenario.name}",
        best_wall,
        meta={
            "scale": scale,
            "n_servers": scenario.topology.n_servers,
            "n_jobs": result.fleet.n_arrivals,
            "digest": result.fleet.event_log_hash,
            "digest_identical_across_shards": True,
            "walls_by_shards": {str(k): v for k, v in walls.items()},
        },
    )
    return {
        "scenario": scenario.name,
        "n_servers": scenario.topology.n_servers,
        "n_jobs": result.fleet.n_arrivals,
        "digest": result.fleet.event_log_hash,
        "wall_seconds": dict(walls),
        "best_wall_seconds": best_wall,
    }


def bench_cap(
    name: str = DEFAULT_CAP_BENCH_SCENARIO,
    shard_counts: Sequence[int] = (1, 2),
    out_path: str = CAP_BENCH_FILE,
    catalog_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Time the power-capped scenario path, record its trend entry.

    Identical harness to :func:`bench_scenario`, pointed at the
    rack-budget scenario so the timed loop includes every capping hot
    path: coordinator ticks, cap redistribution, the per-server DVFS
    walk, and budget decomposition across cells.  Also asserts the
    coordinator actually engaged (a cap bench that never throttles is
    timing the wrong thing) and that the digest is shard-invariant.
    """
    from ..scenarios import find_scenario, run_scenario

    scenario = find_scenario(name, directory=catalog_dir)
    if scenario.policy.fleet_power_budget_w is None:
        raise SchedulingError(
            f"scenario {scenario.name!r} has no fleet_power_budget_w; "
            "the cap bench must time a budgeted run"
        )
    walls: Dict[int, float] = {}
    digests: Dict[int, str] = {}
    result = None
    for n_shards in shard_counts:
        clear_fleet_memos()
        result, wall = _timed(
            lambda shards=n_shards: run_scenario(
                scenario, n_shards=shards, keep_events=False
            )
        )
        walls[n_shards] = wall
        digests[n_shards] = result.fleet.event_log_hash
    if len(set(digests.values())) != 1:
        raise SchedulingError(
            f"shard counts disagree on the cap-bench digest: {digests}"
        )
    if result.fleet.cap_throttle_epochs == 0:
        raise SchedulingError(
            f"cap bench scenario {scenario.name!r} never throttled — "
            "the budget is not binding and the bench is meaningless"
        )
    scale = (
        f"scenario={scenario.name},servers={scenario.topology.n_servers},"
        f"budget={scenario.policy.fleet_power_budget_w:g},"
        f"duration={scenario.traffic.duration_seconds:g},"
        f"seed={scenario.seed}"
    )
    best_wall = min(walls.values())
    record(
        out_path,
        f"cap_{scenario.name}",
        best_wall,
        meta={
            "scale": scale,
            "n_servers": scenario.topology.n_servers,
            "n_jobs": result.fleet.n_arrivals,
            "budget_w": scenario.policy.fleet_power_budget_w,
            "throttle_epochs": result.fleet.cap_throttle_epochs,
            "powercap_ticks": result.fleet.powercap_ticks,
            "tracking_error": result.fleet.cap_tracking_error,
            "digest": result.fleet.event_log_hash,
            "digest_identical_across_shards": True,
            "walls_by_shards": {str(k): v for k, v in walls.items()},
        },
    )
    return {
        "scenario": scenario.name,
        "n_servers": scenario.topology.n_servers,
        "n_jobs": result.fleet.n_arrivals,
        "budget_w": scenario.policy.fleet_power_budget_w,
        "throttle_epochs": result.fleet.cap_throttle_epochs,
        "tracking_error": result.fleet.cap_tracking_error,
        "digest": result.fleet.event_log_hash,
        "wall_seconds": dict(walls),
        "best_wall_seconds": best_wall,
    }


def bench_fig13_sweep(
    out_path: str = SWEEP_BENCH_FILE,
) -> Dict[str, Any]:
    """Time the Fig. 13 borrowing build from a cold runner, record trend."""
    from ..analysis.figures_scheduling import fig13_borrowing_all_workloads
    from ..sim.batch import SweepRunner
    from ..sim.cache import OperatingPointCache

    runner = SweepRunner(cache=OperatingPointCache())
    series, wall = _timed(
        lambda: fig13_borrowing_all_workloads(runner=runner)
    )
    n_points = sum(
        len(points) for points in series.borrowing.values()
    ) + sum(len(points) for points in series.baseline.values())
    record(
        out_path,
        "fig13_borrowing_all_workloads",
        wall,
        meta={"scale": "default", "n_points": n_points},
    )
    return {"wall_seconds": wall, "n_points": n_points}
