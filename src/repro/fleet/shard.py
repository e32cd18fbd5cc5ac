"""Sharded fleet execution: fixed cells, deterministic cross-shard merge.

Scaling the fleet day past a few hundred servers needs process
parallelism, but the event-log SHA-256 is the run's identity — it must
not depend on how many processes happened to execute.  The decomposition
therefore has two independent axes:

* **cells** — the *semantic* unit.  The fleet is partitioned into fixed
  cells of ``cell_servers`` servers; every job is routed to the cell
  ``job_id % n_cells``.  Each cell runs a completely independent
  :class:`~repro.fleet.engine.FleetSimulation` over its own sub-trace.
  The cell layout is a pure function of ``(n_servers, cell_servers)`` —
  it never changes with the process count.
* **shards** — the *execution* unit.  Cells are distributed over
  ``n_shards`` worker processes.  Because cells share nothing, any
  assignment of cells to shards computes bit-identical per-cell results;
  the canonical merged log (and its SHA-256) is therefore invariant
  across ``n_shards`` by construction.  This is enforced by test.

The canonical merged stream orders entries by ``(time_ns, cell_id,
seq)`` where ``seq`` is the entry's position in its cell's log — a
stable k-way merge of already-ordered streams.  Per-cell server ids are
remapped to global ids (cell offset + local id) *before* rendering, so
the merged log reads as one coherent fleet.

A single-cell layout (``cell_servers >= n_servers``) routes every job to
cell 0, which simulates exactly :class:`FleetSimulation` over the full
trace — so the sharded digest degenerates to the plain one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import FaultError, SchedulingError
from ..faults.plan import FaultPlan
from ..faults.spec import CacheCorruptionFault, JobKillFault
from ..obs import observability
from ..sim.batch import SweepRunner
from ..sim.cache import canonical_json
from .engine import FleetConfig, FleetSimulation
from .metrics import FleetComparison, FleetResult, JobRecord
from .powercap import decompose_budget
from .settle_cache import ensure_settle_cache_dir, fleet_settle_cache
from .scheduler import (
    AGS_POLICY,
    CONSOLIDATION_POLICY,
    UNGATED_AGS_POLICY,
    FleetPolicy,
)
from .traffic import generate_trace


@dataclass(frozen=True)
class CellLayout:
    """The fixed cell partition of one fleet."""

    n_servers: int
    cell_servers: int

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise SchedulingError(
                f"n_servers must be >= 1, got {self.n_servers}"
            )
        if self.cell_servers < 1:
            raise SchedulingError(
                f"cell_servers must be >= 1, got {self.cell_servers}"
            )

    @property
    def n_cells(self) -> int:
        """Number of cells (the last one may be smaller)."""
        return -(-self.n_servers // self.cell_servers)

    def cell_of_job(self, job_id: int) -> int:
        """The cell a job is routed to."""
        return job_id % self.n_cells

    def cell_of_server(self, server_id: int) -> int:
        """The cell owning a global server id."""
        if not 0 <= server_id < self.n_servers:
            raise SchedulingError(
                f"server_id must be in [0, {self.n_servers}), got {server_id}"
            )
        return server_id // self.cell_servers

    def offset(self, cell_id: int) -> int:
        """Global id of a cell's first server."""
        return cell_id * self.cell_servers

    def size(self, cell_id: int) -> int:
        """Number of servers in one cell."""
        if not 0 <= cell_id < self.n_cells:
            raise SchedulingError(
                f"cell_id must be in [0, {self.n_cells}), got {cell_id}"
            )
        return (
            min(self.n_servers, self.offset(cell_id) + self.cell_servers)
            - self.offset(cell_id)
        )


def _split_fault_plan(
    plan: FaultPlan, layout: CellLayout
) -> Dict[int, FaultPlan]:
    """Route a fault plan's specs to the cells that own their targets.

    Standalone specs (``server_id is None`` socket faults) configure the
    *process-wide* injector; under a multi-cell layout they would apply
    to every cell at once — silently different semantics from the
    unsharded run — so they are rejected outright.
    """
    if layout.n_cells == 1:
        return {0: plan}
    if plan.standalone_specs():
        raise FaultError(
            "standalone (non-server-scoped) fault specs cannot run under "
            "a multi-cell sharded fleet; scope each spec with server_id "
            "or run unsharded"
        )
    per_cell: Dict[int, List] = {}
    for spec in plan.specs:
        if isinstance(spec, CacheCorruptionFault):
            # Settle-cache tearing is a process-wide condition, not a
            # server's: every cell (hence every worker process) arms its
            # own cache.  Corruption only forces recomputation, so the
            # merged digest stays invariant regardless of which worker
            # tears which write.
            for cell_id in range(layout.n_cells):
                per_cell.setdefault(cell_id, []).append(spec)
            continue
        if isinstance(spec, JobKillFault):
            cell_id = layout.cell_of_job(spec.job_id)
            local = spec
        else:
            server_id = getattr(spec, "server_id", None)
            if server_id is None:
                raise FaultError(
                    f"{spec.kind}: spec has no server scope; cannot route "
                    "to a cell"
                )
            cell_id = layout.cell_of_server(server_id)
            local = dataclasses.replace(
                spec, server_id=server_id - layout.offset(cell_id)
            )
        per_cell.setdefault(cell_id, []).append(local)
    return {
        cell_id: FaultPlan(specs=tuple(specs), seed=plan.seed)
        for cell_id, specs in per_cell.items()
    }


# ----------------------------------------------------------------------
# Per-cell execution (runs in worker processes)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One independently simulated cell of a (possibly mixed) fleet.

    The homogeneous sharded fleet derives its cells from a
    :class:`CellLayout`; the scenario runner builds them directly, which
    is what lets server *groups* carry different configurations (aged
    silicon, distinct die seeds, different sizes) inside one merged run.
    Jobs route to the cell whose ``index`` equals ``job_id % n_cells`` —
    the same modular routing the layout uses, so a layout-derived spec
    list reproduces the layout semantics exactly.
    """

    #: Global cell index — the routing key.
    index: int

    #: Global server id of the cell's first server.
    offset: int

    #: Cell-local fleet configuration: ``n_servers`` is the cell size and
    #: ``seed`` the cell's die seed; ``traffic`` must be shared by every
    #: cell of one run (it defines the horizon and the global trace).
    config: FleetConfig

    #: Cell-local fault plan (server ids already rebased to the cell).
    fault_plan: Optional[FaultPlan] = None

    #: Human-facing tag (scenario server-group name); never hashed.
    label: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise SchedulingError(f"cell index must be >= 0, got {self.index}")
        if self.offset < 0:
            raise SchedulingError(
                f"cell offset must be >= 0, got {self.offset}"
            )


def _simulate_cell(
    cell: CellSpec,
    policy: FleetPolicy,
    trace: Tuple,
) -> Tuple[FleetResult, List[Tuple[int, str]]]:
    """Simulate one cell; returns its result and canonical log lines.

    Log entries are remapped to global server ids and rendered to
    canonical JSON here, so the parent only merges strings.
    """
    offset = cell.offset
    runner = SweepRunner(seed_root=cell.config.seed)
    sim = FleetSimulation(
        cell.config,
        policy,
        runner=runner,
        trace=trace,
        fault_plan=cell.fault_plan,
    )
    result = sim.run()
    lines: List[Tuple[int, str]] = []
    for entry in result.events:
        if "server_id" in entry:
            entry = dict(entry)
            entry["server_id"] += offset
        lines.append((entry["time_ns"], canonical_json(entry)))
    records = tuple(
        dataclasses.replace(
            record,
            server_id=(
                None if record.server_id is None else record.server_id + offset
            ),
        )
        for record in result.job_records
    )
    fallback = tuple(
        (server_id + offset, socket_id, seconds)
        for server_id, socket_id, seconds in result.fallback_seconds
    )
    result = dataclasses.replace(
        result, events=(), job_records=records, fallback_seconds=fallback
    )
    return result, lines


#: Environment hook for deterministic worker-death tests:
#: ``kill:cell=<index>,attempt=<n>`` makes the pool worker about to
#: simulate that cell on that execution attempt die with ``os._exit``.
#: Retries carry higher attempt numbers, so the kill fires exactly once
#: and the recovery path is exercised deterministically.  The hook never
#: fires in the parent process (the in-process last resort stays safe).
ENV_SHARD_FAULT = "REPRO_SHARD_FAULT"

#: Fresh-pool re-execution rounds before the in-process last resort.
MAX_SHARD_RETRIES = 2


def _maybe_inject_worker_fault(cell_index: int, attempt: int) -> None:
    """Honor :data:`ENV_SHARD_FAULT` (pool workers only)."""
    spec = os.environ.get(ENV_SHARD_FAULT)
    if not spec:
        return
    if multiprocessing.parent_process() is None:
        return
    action, _, params = spec.partition(":")
    try:
        fields = dict(
            item.split("=", 1) for item in params.split(",") if item
        )
        target_cell = int(fields.get("cell", -1))
        target_attempt = int(fields.get("attempt", 0))
    except ValueError:
        return
    if (
        action == "kill"
        and cell_index == target_cell
        and attempt == target_attempt
    ):
        os._exit(17)


def _run_spec_batch(
    payload: tuple,
) -> Tuple[List[Tuple[int, FleetResult, list]], Dict[str, int]]:
    """Worker entry point: run a batch of cell specs sequentially.

    Module-level so :class:`ProcessPoolExecutor` can pickle it; also the
    in-process path, which guarantees shard counts cannot change results.
    The trace is regenerated from ``(traffic, trace_seed)`` rather than
    shipped across the process boundary, then bucketed by modular
    routing — a 625-cell fleet regenerates its million-job trace once
    per *shard*, not once per cell.  Also returns how far the batch
    moved this process's settle-cache counters, so the parent can count
    a pool worker's lookups as its own.
    """
    (
        traffic,
        trace_seed,
        policy,
        cells,
        n_cells,
        settle_dir,
        attempt,
    ) = payload
    # Point this process's settle cache at the parent's shared directory:
    # a pool worker starts cold and rebuilds against it; the in-process
    # path already matches and keeps its warm memory layer.
    stats = ensure_settle_cache_dir(settle_dir).stats
    before = dataclasses.asdict(stats)
    by_index: Dict[int, List] = {cell.index: [] for cell in cells}
    for job in generate_trace(traffic, trace_seed):
        index = job.job_id % n_cells
        if index in by_index:
            by_index[index].append(job)
    out = []
    for cell in cells:
        _maybe_inject_worker_fault(cell.index, attempt)
        result, lines = _simulate_cell(
            cell, policy, tuple(by_index.pop(cell.index))
        )
        out.append((cell.index, result, lines))
    moved = {
        name: count - before[name]
        for name, count in dataclasses.asdict(stats).items()
    }
    return out, moved


def _fold_settle_counts(moved: Dict[str, int]) -> None:
    """Add a pool worker's settle-cache counter deltas to this process's."""
    stats = fleet_settle_cache().stats
    for name, count in moved.items():
        setattr(stats, name, getattr(stats, name) + count)


# ----------------------------------------------------------------------
# The merge
# ----------------------------------------------------------------------
def _merged_stream(
    cell_lines: Dict[int, List[Tuple[int, str]]],
) -> Iterator[Tuple[int, int, int, str]]:
    """K-way merge of per-cell logs, keyed ``(time_ns, cell_id, seq)``.

    Each cell's stream is already time-ordered, so the merge is stable
    and linear; the key makes simultaneous cross-cell events rank by
    cell id, then by each cell's own event order.
    """
    def stream(cell_id: int, lines: List[Tuple[int, str]]):
        for seq, (time_ns, line) in enumerate(lines):
            yield (time_ns, cell_id, seq, line)

    return heapq.merge(
        *(stream(cell_id, lines) for cell_id, lines in sorted(cell_lines.items()))
    )


def merge_cell_results(
    config: FleetConfig,
    policy: FleetPolicy,
    cell_results: Dict[int, FleetResult],
    cell_lines: Dict[int, List[Tuple[int, str]]],
    keep_events: bool = True,
) -> FleetResult:
    """Fold per-cell outcomes into one fleet-level :class:`FleetResult`.

    The merged ``event_log_hash`` is the SHA-256 over the canonically
    merged JSONL stream — the sharded run's identity.  ``keep_events``
    retains the merged entries on the result (parse of the canonical
    lines); large benchmark runs pass ``False`` to keep memory flat.
    """
    hasher = hashlib.sha256()
    merged_events: List[dict] = []
    for _, _, _, line in _merged_stream(cell_lines):
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
        if keep_events:
            merged_events.append(json.loads(line))
    results = [cell_results[cell_id] for cell_id in sorted(cell_results)]
    records: List[JobRecord] = []
    for result in results:
        records.extend(result.job_records)
    records.sort(key=lambda record: record.job_id)
    fallback: List[Tuple[int, int, float]] = []
    for result in results:
        fallback.extend(result.fallback_seconds)
    return FleetResult(
        policy=policy.name,
        horizon_ns=config.horizon_ns,
        adaptive_energy_joules=sum(
            r.adaptive_energy_joules for r in results
        ),
        static_energy_joules=sum(r.static_energy_joules for r in results),
        n_arrivals=sum(r.n_arrivals for r in results),
        n_completions=sum(r.n_completions for r in results),
        n_running=sum(r.n_running for r in results),
        n_queued=sum(r.n_queued for r in results),
        qos_violations=sum(r.qos_violations for r in results),
        n_epochs=sum(r.n_epochs for r in results),
        event_log_hash=hasher.hexdigest(),
        job_records=tuple(records),
        events=tuple(merged_events),
        n_requeues=sum(r.n_requeues for r in results),
        n_server_crashes=sum(r.n_server_crashes for r in results),
        n_job_kills=sum(r.n_job_kills for r in results),
        fallback_seconds=tuple(sorted(fallback)),
        # Budgets decompose across cells, so sums roll the fleet totals
        # back up; each cell's steady-state window is the same trailing
        # quarter, so the measured sums are comparable.
        cap_budget_w=sum(r.cap_budget_w for r in results),
        cap_measured_steady_w=sum(
            r.cap_measured_steady_w for r in results
        ),
        cap_throttle_epochs=sum(r.cap_throttle_epochs for r in results),
        powercap_ticks=sum(r.powercap_ticks for r in results),
    )


# ----------------------------------------------------------------------
# Crash-safe pool execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardRetry:
    """One recovered re-execution of a failed shard cell.

    A worker process dying (OOM kill, segfault, node reboot) surfaces as
    :class:`BrokenProcessPool`; a wedged worker as a timeout.  Either
    way the failed cells are re-executed deterministically — per-cell
    results are pure functions of the cell spec, so the recovered merged
    digest is bit-identical to an unfaulted run (enforced by test).
    """

    #: The cell whose batch failed and was re-executed.
    cell_index: int

    #: Re-execution attempt number (1-based; attempt 0 is the original).
    attempt: int

    #: Why the original execution failed: ``broken_pool`` | ``timeout``.
    reason: str

    #: How the retry ran: ``fresh_pool`` | ``in_process``.
    recovered_via: str


def _record_shard_retry(reason: str, via: str) -> None:
    observability().count(
        "fleet_shard_retries_total",
        help_text="Failed shard batches re-executed deterministically.",
        reason=reason,
        via=via,
    )


def _run_pool_round(
    items: Sequence[Tuple[list, int]],
    payload_for: Callable[[list, int], tuple],
    timeout: Optional[float],
) -> Tuple[List[Tuple[int, FleetResult, list]], List[Tuple[list, int, str]]]:
    """Run one round of batches on a fresh pool, isolating failures.

    Returns ``(outcomes, failed)`` where ``failed`` holds
    ``(batch, attempt, reason)`` for every batch whose worker died or
    timed out.  Sandbox-level refusals (``OSError`` etc.) propagate to
    the caller — those mean "no pools here", not "this batch failed".
    """
    outcomes: List[Tuple[int, FleetResult, list]] = []
    failed: List[Tuple[list, int, str]] = []
    pool = ProcessPoolExecutor(max_workers=len(items))
    try:
        futures = []
        for batch, attempt in items:
            try:
                future = pool.submit(_run_spec_batch, payload_for(batch, attempt))
            except BrokenProcessPool:
                failed.append((batch, attempt, "broken_pool"))
                continue
            futures.append((batch, attempt, future))
        for batch, attempt, future in futures:
            try:
                batch_out, moved = future.result(timeout=timeout)
                outcomes.extend(batch_out)
                _fold_settle_counts(moved)
            except BrokenProcessPool:
                failed.append((batch, attempt, "broken_pool"))
            except FuturesTimeoutError:
                future.cancel()
                failed.append((batch, attempt, "timeout"))
    finally:
        # Not ``with``: a wedged worker must not deadlock shutdown, and
        # cancel_futures sheds anything still queued behind a failure.
        pool.shutdown(wait=False, cancel_futures=True)
    return outcomes, failed


# ----------------------------------------------------------------------
# The entry points
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardedOutcome:
    """A merged fleet result plus the per-cell results that built it.

    ``by_cell`` keeps the per-cell ledgers (events stripped, ids already
    global) so callers — notably the scenario runner's per-group
    rollups — can attribute energy and QoS to individual cells without
    re-running anything.  ``retries`` is the recovery manifest: one
    entry per re-executed cell, empty on a clean run.
    """

    merged: FleetResult
    by_cell: Dict[int, FleetResult]
    retries: Tuple[ShardRetry, ...] = ()


def run_cell_specs(
    cells: Sequence[CellSpec],
    policy: FleetPolicy,
    n_shards: int = 1,
    keep_events: bool = True,
    trace_seed: Optional[int] = None,
    shard_timeout: Optional[float] = None,
) -> ShardedOutcome:
    """Run an explicit cell list — homogeneous or mixed — and merge.

    Every cell must share one traffic config (it defines the horizon and
    the global trace); ``cells[i].index`` must cover ``0..len(cells)-1``
    exactly, because modular job routing assumes a dense index space.
    ``trace_seed`` seeds the shared arrival stream and defaults to cell
    0's config seed — heterogeneous runs whose cells carry per-group die
    seeds pass the scenario seed explicitly so the traffic stream does
    not couple to any one group's silicon.  The merged event log (and
    SHA-256) is invariant across ``n_shards`` by construction, exactly
    as in the homogeneous case.

    Worker death (:class:`BrokenProcessPool`) or a per-batch timeout
    (``shard_timeout`` seconds, ``None`` = wait forever) never fails the
    run: the failed cells are split into single-cell batches and
    re-executed on a fresh pool for up to :data:`MAX_SHARD_RETRIES`
    rounds, then in-process as a last resort.  Each re-execution is
    recorded on :attr:`ShardedOutcome.retries`.
    """
    if n_shards < 1:
        raise SchedulingError(f"n_shards must be >= 1, got {n_shards}")
    if not cells:
        raise SchedulingError("run_cell_specs needs at least one cell")
    ordered = sorted(cells, key=lambda cell: cell.index)
    if [cell.index for cell in ordered] != list(range(len(ordered))):
        raise SchedulingError(
            "cell indices must be exactly 0..n_cells-1; got "
            f"{[cell.index for cell in cells]}"
        )
    traffics = {id(cell.config.traffic): cell.config.traffic for cell in ordered}
    if len({repr(t) for t in traffics.values()}) > 1:
        raise SchedulingError(
            "every cell of one run must share the same traffic config"
        )
    traffic = ordered[0].config.traffic
    if trace_seed is None:
        trace_seed = ordered[0].config.seed
    n_cells = len(ordered)
    # Contiguous round-robin assignment; any assignment yields the same
    # merged log, this one just balances cell counts.
    batches = [
        ordered[shard::n_shards]
        for shard in range(min(n_shards, n_cells))
    ]
    settle_dir = fleet_settle_cache().disk_dir

    def payload_for(batch: list, attempt: int) -> tuple:
        return (
            traffic, trace_seed, policy, batch, n_cells, settle_dir,
            attempt,
        )

    outcomes: List[Tuple[int, FleetResult, list]] = []
    retries: List[ShardRetry] = []
    pending: List[Tuple[list, int]] = [(b, 0) for b in batches if b]
    if len(pending) > 1:
        round_no = 0
        while pending and round_no <= MAX_SHARD_RETRIES:
            try:
                round_out, failed = _run_pool_round(
                    pending, payload_for, shard_timeout
                )
            except (OSError, PermissionError, NotImplementedError):
                # Sandboxes may refuse process pools; the in-process path
                # is bit-identical by construction.  Not a recovery event.
                break
            outcomes.extend(round_out)
            round_no += 1
            # Failed batches are split to single cells so one poisoned
            # cell cannot drag its batch-mates through every retry round.
            via = "in_process" if round_no > MAX_SHARD_RETRIES else "fresh_pool"
            pending = []
            for batch, attempt, reason in failed:
                for cell in batch:
                    pending.append(([cell], attempt + 1))
                    retries.append(
                        ShardRetry(
                            cell_index=cell.index,
                            attempt=attempt + 1,
                            reason=reason,
                            recovered_via=via,
                        )
                    )
                    _record_shard_retry(reason, via)
    # Whatever is left — the single-batch case, the sandbox fallback, or
    # cells that exhausted their fresh-pool rounds — runs in-process.
    # (The kill hook only fires in pool workers, so this always finishes.)
    for batch, attempt in pending:
        outcomes.extend(_run_spec_batch(payload_for(batch, attempt))[0])
    cell_results = {cell_id: result for cell_id, result, _ in outcomes}
    cell_lines = {cell_id: lines for cell_id, _, lines in outcomes}
    merged = merge_cell_results(
        ordered[0].config, policy, cell_results, cell_lines,
        keep_events=keep_events,
    )
    return ShardedOutcome(
        merged=merged, by_cell=cell_results, retries=tuple(retries)
    )


def run_sharded(
    config: FleetConfig,
    policy: FleetPolicy = AGS_POLICY,
    n_shards: int = 1,
    cell_servers: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    keep_events: bool = True,
    shard_timeout: Optional[float] = None,
) -> FleetResult:
    """One policy's sharded run over the homogeneous fleet day.

    Parameters
    ----------
    n_shards:
        Worker-process count.  Pure execution parallelism: any value
        produces the identical merged log and SHA-256.
    cell_servers:
        Cell width in servers.  ``None`` puts the whole fleet in one
        cell (the plain, unsharded semantics).  The cell layout — not
        the shard count — defines the run's scheduling topology, so it
        is part of the run's identity.
    keep_events:
        Retain the merged event stream on the result (see
        :func:`merge_cell_results`).
    """
    layout = CellLayout(
        n_servers=config.n_servers,
        cell_servers=(
            config.n_servers if cell_servers is None else cell_servers
        ),
    )
    plans = _split_fault_plan(
        fault_plan if fault_plan is not None else FaultPlan(), layout
    )
    # Any fleet power budget is decomposed proportionally to cell size;
    # each cell's coordinator then tracks its share independently, so
    # the merged log is invariant across shard counts.
    budget_shares = decompose_budget(
        config.fleet_power_budget_w,
        [layout.size(cell_id) for cell_id in range(layout.n_cells)],
    )
    cells = tuple(
        CellSpec(
            index=cell_id,
            offset=layout.offset(cell_id),
            config=dataclasses.replace(
                config,
                n_servers=layout.size(cell_id),
                fleet_power_budget_w=budget_shares[cell_id],
            ),
            fault_plan=plans.get(cell_id),
        )
        for cell_id in range(layout.n_cells)
    )
    return run_cell_specs(
        cells, policy, n_shards=n_shards, keep_events=keep_events,
        shard_timeout=shard_timeout,
    ).merged


def run_comparison(
    config: FleetConfig,
    advisor_gate: bool = True,
    n_shards: int = 1,
    cell_servers: Optional[int] = None,
    keep_events: bool = True,
) -> FleetComparison:
    """AGS vs. static guardband vs. consolidation over one fleet day.

    The static-guardband baseline rides along with the AGS run (every
    placement settles both guardbands), so two sharded runs cover all
    three regimes.  ``n_shards`` and ``cell_servers`` mean what they do
    in :func:`run_sharded`.
    """
    ags_policy = AGS_POLICY if advisor_gate else UNGATED_AGS_POLICY
    options = dict(
        n_shards=n_shards, cell_servers=cell_servers, keep_events=keep_events
    )
    return FleetComparison(
        ags=run_sharded(config, ags_policy, **options),
        consolidation=run_sharded(config, CONSOLIDATION_POLICY, **options),
    )


def default_shards() -> int:
    """A sensible shard count for the local machine."""
    return max(1, (os.cpu_count() or 2) - 1)
