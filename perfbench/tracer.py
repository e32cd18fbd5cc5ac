"""Outside-in tracing shim: spans around the calls into each module.

The benchmark does not edit the program.  While a traced pass runs, the
:class:`Shim` replaces a fixed list of public entry points (class
methods and module attributes, looked up where their callers look them
up) with wrappers that record one span per call: name, start, end,
parent span and run id, kept in memory.  Leaving the ``with`` block puts
every original attribute back.

A layer's self time is its spans' duration minus the time their child
spans cover.  Calls nest on one thread, so children never overlap and
the self times of all spans plus the traced wall not covered by any
top-level span (``unattributed``) add up to the traced wall exactly, in
integer nanoseconds.

Every entry point is named by the attribute it wraps.  A renamed or
moved function makes :meth:`Shim.__enter__` raise instead of reading as
zero cost, and :func:`require_calls` raises when an entry point a
workload must reach was never called.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)


class TracingError(RuntimeError):
    """The shim could not wrap an entry point, or one was never called."""


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped attribute and the layer its spans belong to.

    ``span_name`` maps the call's arguments to the span name (the
    server's rail split); ``observe`` sees the call's arguments and
    result after the span closes and returns counters to add.
    """

    key: str
    layer: str
    module: str
    owner: str
    attribute: str
    span_name: Optional[Callable[[tuple, dict], str]] = None
    observe: Optional[Callable[[tuple, Any], Dict[str, int]]] = None


def _operate_rail(args: tuple, kwargs: dict) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else None)
    rail = "static" if getattr(mode, "value", None) == "static" else "adaptive"
    return f"sim.server.operate_{rail}"


def _batch_counts(args: tuple, report: Any) -> Dict[str, int]:
    return {
        "sim.batch.tasks": report.n_tasks,
        "sim.batch.executed": report.n_executed,
    }


def _hit_counts(prefix: str) -> Callable[[tuple, Any], Dict[str, int]]:
    def observe(args: tuple, result: Any) -> Dict[str, int]:
        return {f"{prefix}.hits": int(result is not None)}

    return observe


#: The builder behind each paper figure (``fig3`` -> ``fig3_...``).
FIGURE_BUILDERS: Tuple[str, ...] = (
    "fig3_core_scaling_power",
    "fig4_core_scaling_frequency",
    "fig5_workload_heterogeneity",
    "fig6_cpm_voltage_mapping",
    "fig7_voltage_drop_scaling",
    "fig9_drop_decomposition",
    "fig10_passive_drop_correlation",
    "fig12_borrowing_scaling",
    "fig13_borrowing_all_workloads",
    "fig14_borrowing_energy",
    "fig15_colocation_frequency",
    "fig16_mips_predictor",
    "fig17_websearch_qos",
)

#: Every entry point the shim wraps, by the name its spans carry.
#: Module functions are wrapped in the namespace their caller reads
#: them from (``build_server`` as ``sim.batch`` sees it), so the span
#: covers exactly the calls that layer makes.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("sim.server.operate", "sim.server", "repro.sim.server",
               "Power720Server", "operate", span_name=_operate_rail),
    EntryPoint("sim.socket.solve", "sim.socket", "repro.sim.socket",
               "ProcessorSocket", "solve"),
    EntryPoint("sim.run.build_server", "sim.run", "repro.sim.batch",
               "", "build_server"),
    EntryPoint("sim.batch.run", "sim.batch", "repro.sim.batch",
               "SweepRunner", "run", observe=_batch_counts),
    EntryPoint("sim.cache.get", "sim.cache", "repro.sim.cache",
               "OperatingPointCache", "get",
               observe=_hit_counts("sim.cache")),
    EntryPoint("sim.cache.put", "sim.cache", "repro.sim.cache",
               "OperatingPointCache", "put"),
    EntryPoint("fleet.settle_cache.get", "fleet.settle_cache",
               "repro.fleet.settle_cache", "FleetSettleCache", "get",
               observe=_hit_counts("fleet.settle_cache")),
    EntryPoint("fleet.settle_cache.put", "fleet.settle_cache",
               "repro.fleet.settle_cache", "FleetSettleCache", "put"),
    EntryPoint("fleet.engine.run", "fleet.engine", "repro.fleet.engine",
               "FleetSimulation", "run"),
    EntryPoint("fleet.powercap.tick", "fleet.powercap",
               "repro.fleet.powercap", "PowerCapCoordinator", "tick"),
    EntryPoint("fleet.shard.merge", "fleet.shard", "repro.fleet.shard",
               "", "merge_cell_results"),
    EntryPoint("fleet.traffic.generate", "fleet.traffic", "repro.fleet.shard",
               "", "generate_trace"),
    EntryPoint("scenarios.runner.lower", "scenarios.runner",
               "repro.scenarios.runner", "", "lower_scenario"),
    EntryPoint("analysis.run_selfcheck", "analysis",
               "repro.analysis.selfcheck", "", "run_selfcheck"),
) + tuple(
    # The figure builders, as ``repro figure``'s printers reach them
    # through the ``repro.analysis.figures`` namespace.
    EntryPoint(f"analysis.{builder}", "analysis", "repro.analysis.figures",
               "", builder)
    for builder in FIGURE_BUILDERS
)

#: The layers, in the order the ledger prints them.
LAYERS: Tuple[str, ...] = (
    "analysis",
    "scenarios.runner",
    "fleet.traffic",
    "fleet.engine",
    "fleet.powercap",
    "fleet.settle_cache",
    "fleet.shard",
    "sim.batch",
    "sim.run",
    "sim.cache",
    "sim.server",
    "sim.socket",
)

def _resolve(entry: EntryPoint) -> Tuple[Any, Any]:
    """The object holding the attribute, and the attribute itself.

    The attribute must be defined on that object itself (not inherited),
    so that restoring it puts back exactly what was there.
    """
    try:
        holder: Any = importlib.import_module(entry.module)
        if entry.owner:
            holder = getattr(holder, entry.owner)
        return holder, vars(holder)[entry.attribute]
    except (ImportError, AttributeError, KeyError) as exc:
        where = ".".join(p for p in (entry.module, entry.owner, entry.attribute) if p)
        raise TracingError(
            f"entry point {entry.key!r} not found at {where}: {exc!r}"
        ) from exc


class Span(NamedTuple):
    """One recorded call."""

    index: int
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int
    run_id: str

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Shim:
    """Wraps :data:`ENTRY_POINTS` for the duration of a ``with`` block.

    The block's own start and end are the traced wall.  Spans and
    counters stay on the shim after the block ends.
    """

    def __init__(self, run_id: str,
                 entries: Sequence[EntryPoint] = ENTRY_POINTS) -> None:
        self.run_id = run_id
        self.entries = tuple(entries)
        self.spans: List[Optional[Span]] = []
        self.calls: Dict[str, int] = {entry.key: 0 for entry in self.entries}
        self.counters: Dict[str, int] = {}
        self.wall_ns = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self._start_ns = 0

    def __enter__(self) -> "Shim":
        resolved = [(entry, *_resolve(entry)) for entry in self.entries]
        for entry, holder, original in resolved:
            self._saved.append((holder, entry.attribute, original))
            setattr(holder, entry.attribute, self._wrap(entry, original))
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.wall_ns = time.perf_counter_ns() - self._start_ns
        self.restore()

    def restore(self) -> None:
        """Put every wrapped attribute back (idempotent)."""
        while self._saved:
            holder, attribute, original = self._saved.pop()
            setattr(holder, attribute, original)

    def _wrap(self, entry: EntryPoint, original: Any) -> Callable[..., Any]:
        spans, stack, calls, counters = (
            self.spans, self._stack, self.calls, self.counters,
        )
        run_id, key, layer = self.run_id, entry.key, entry.layer
        span_name, observe = entry.span_name, entry.observe
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            name = span_name(args, kwargs) if span_name else key
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(
                    index, name, layer, start, end, parent, run_id
                )
            calls[key] += 1
            if observe is not None:
                for counter, value in observe(args, result).items():
                    counters[counter] = counters.get(counter, 0) + value
            return result

        return traced

    def finished_spans(self) -> List[Span]:
        """Every closed span, in call order."""
        return [span for span in self.spans if span is not None]

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.finished_spans():
                fh.write(json.dumps({
                    "run": span.run_id,
                    "id": span.index,
                    "parent": span.parent,
                    "name": span.name,
                    "start_ns": span.start_ns - self._start_ns,
                    "end_ns": span.end_ns - self._start_ns,
                }) + "\n")


def require_calls(shim: Shim, keys: Sequence[str]) -> None:
    """Raise unless every entry point in ``keys`` was called at least once."""
    missing = [key for key in keys if shim.calls.get(key, 0) == 0]
    if missing:
        raise TracingError(
            "entry points never called on this workload: " + ", ".join(missing)
        )


@dataclass(frozen=True)
class Ledger:
    """Self time per layer plus the unattributed rest of the traced wall."""

    wall_ns: int
    self_ns: Dict[str, int]
    inclusive_ns: Dict[str, int]
    durations_ns: Dict[str, List[int]]
    unattributed_ns: int

    @property
    def closes(self) -> bool:
        """Whether self times plus unattributed equal the traced wall."""
        return sum(self.self_ns.values()) + self.unattributed_ns == self.wall_ns


def ledger(shim: Shim) -> Ledger:
    """Fold the shim's spans into per-layer and per-span-name times."""
    spans = shim.finished_spans()
    child_ns = [0] * len(shim.spans)
    top_ns = 0
    for span in spans:
        if span.parent < 0:
            top_ns += span.duration_ns
        else:
            child_ns[span.parent] += span.duration_ns
    self_ns = {layer: 0 for layer in LAYERS}
    inclusive_ns: Dict[str, int] = {}
    durations_ns: Dict[str, List[int]] = {}
    for span in spans:
        self_ns[span.layer] += span.duration_ns - child_ns[span.index]
        inclusive_ns[span.name] = inclusive_ns.get(span.name, 0) + span.duration_ns
        durations_ns.setdefault(span.name, []).append(span.duration_ns)
    return Ledger(
        wall_ns=shim.wall_ns,
        self_ns=self_ns,
        inclusive_ns=inclusive_ns,
        durations_ns=durations_ns,
        unattributed_ns=shim.wall_ns - top_ns,
    )


def percentile_ms(durations_ns: Sequence[int], q: int) -> float:
    """The ``q``-th percentile of span durations in ms (0 when none)."""
    if not durations_ns:
        return 0.0
    if len(durations_ns) == 1:
        return durations_ns[0] / 1e6
    cuts = statistics.quantiles(durations_ns, n=100, method="inclusive")
    return cuts[q - 1] / 1e6
