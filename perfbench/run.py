"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_figures --seed 0 --seconds 10 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics: set-up is run several times in fresh processes and reported as
its median; the timed passes repeat until the next one would overrun
``--seconds`` (at least one pass) and ``wall_s`` is their median, each
pass's operations scaled to the nominal host speed by
``workloads.SpeedClock``.

``--trace 1`` runs one untraced pass, then one pass under the tracing
shim, and prints the per-layer metrics: each layer's self time, the
counts at its boundary, the unattributed rest of the traced wall, and
the tracing overhead against the untraced pass.

Every run checks the outputs.  Each operation's output digest must
match the digest recorded for the same workload and seed by earlier
operations and runs in this checkout.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)

#: How many fresh-process set-ups a timed run measures for ``setup_s``.
SETUP_REPEATS = 3

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
    "anchor_error": "ratio",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "tracing.overhead_pct": "%",
    "sim.server.operate_adaptive_s": "s",
    "sim.server.operate_static_s": "s",
    "sim.server.operate_adaptive_calls": "count",
    "sim.server.operate_static_calls": "count",
    "sim.server.operate_adaptive_p50_ms": "ms",
    "sim.server.operate_adaptive_p95_ms": "ms",
    "sim.socket.solves": "count",
    "sim.socket.solve_s": "s",
    "sim.run.build_server_s": "s",
    "sim.run.build_servers": "count",
    "sim.batch.run_s": "s",
    "sim.batch.batches": "count",
    "sim.batch.tasks": "count",
    "sim.batch.executed": "count",
    "sim.cache.lookups": "count",
    "sim.cache.hit_ratio": "ratio",
    "fleet.settle_cache.get_s": "s",
    "fleet.settle_cache.gets": "count",
    "fleet.settle_cache.hit_ratio": "ratio",
    "fleet.settle_cache.disk_hits": "count",
    "fleet.settle_cache.put_s": "s",
    "fleet.settle_cache.puts": "count",
    "fleet.settle_cache.corrupt": "count",
    "fleet.engine.run_s": "s",
    "fleet.powercap.tick_s": "s",
    "fleet.powercap.ticks": "count",
    "fleet.powercap.overshoot_w": "W",
    "fleet.shard.merge_s": "s",
    "fleet.traffic.generate_s": "s",
    "scenarios.runner.lower_s": "s",
}


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _digest_file(workload) -> str:
    from workloads import STATE_DIR

    key = hashlib.sha256(
        json.dumps(workload.params, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    return os.path.join(STATE_DIR, f"digests-{workload.name}-{key}.json")


def check_digests(ops: List, path: str) -> None:
    """Fail every operation whose digest differs from the recorded one.

    The first digest seen for an operation name is recorded in ``path``;
    later passes and later runs with the same inputs must reproduce it.
    """
    recorded: Dict[str, str] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            recorded = json.load(fh)
    for op in ops:
        if op.error is not None:
            continue
        expected = recorded.setdefault(op.name, op.digest)
        if op.digest != expected:
            op.error = f"output digest {op.digest} != recorded {expected}"
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def timed_run(workload, seconds: float) -> Tuple[Dict[str, float], List, str]:
    """Set-up several times, then timed passes; the end-to-end metrics."""
    from workloads import selfcheck_op, timed_setup

    setup_times, ops = timed_setup(workload, SETUP_REPEATS)
    passes = []
    elapsed = 0.0
    while True:
        result = workload.run_pass()
        passes.append(result)
        ops.extend(result.ops)
        elapsed += result.wall_s
        if elapsed + result.wall_s > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload.needs_selfcheck:
        op, anchor = selfcheck_op()
        ops.append(op)
    else:
        anchor = statistics.median(p.facts["anchor_error"] for p in passes)
    walls = [p.wall_s for p in passes]
    scaled = [p.scaled_s for p in passes]
    metrics = {
        "wall_s": statistics.median(scaled),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "anchor_error": anchor,
    }
    note = (
        f"wall_s: median of {len(walls)} pass(es) at nominal host speed "
        f"[{', '.join(f'{w:.3f}' for w in scaled)}], host seconds "
        f"[{', '.join(f'{w:.3f}' for w in walls)}]; "
        f"setup_s: median of {len(setup_times)} fresh-process set-ups "
        f"[{', '.join(f'{t:.3f}' for t in setup_times)}]"
    )
    return metrics, ops, note


def layer_metrics(shim, facts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    from tracer import ledger, percentile_ms

    book = ledger(shim)
    if not book.closes:
        raise AssertionError("layer self times do not sum to the traced wall")
    inclusive = book.inclusive_ns
    calls, counters = shim.calls, shim.counters

    def secs(name: str) -> float:
        return inclusive.get(name, 0) / 1e9

    def ratio(hits: str, lookups: str) -> float:
        return counters.get(hits, 0) / calls[lookups] if calls[lookups] else 0.0

    adaptive = book.durations_ns.get("sim.server.operate_adaptive", [])
    static = book.durations_ns.get("sim.server.operate_static", [])
    metrics = {f"{layer}.self_s": book.self_ns[layer] / 1e9 for layer in LAYERS}
    metrics.update({
        "unattributed_s": book.unattributed_ns / 1e9,
        "traced_wall_s": book.wall_ns / 1e9,
        "sim.server.operate_adaptive_s": secs("sim.server.operate_adaptive"),
        "sim.server.operate_static_s": secs("sim.server.operate_static"),
        "sim.server.operate_adaptive_calls": len(adaptive),
        "sim.server.operate_static_calls": len(static),
        "sim.server.operate_adaptive_p50_ms": percentile_ms(adaptive, 50),
        "sim.server.operate_adaptive_p95_ms": percentile_ms(adaptive, 95),
        "sim.socket.solves": calls["sim.socket.solve"],
        "sim.socket.solve_s": secs("sim.socket.solve"),
        "sim.run.build_server_s": secs("sim.run.build_server"),
        "sim.run.build_servers": calls["sim.run.build_server"],
        "sim.batch.run_s": secs("sim.batch.run"),
        "sim.batch.batches": calls["sim.batch.run"],
        "sim.batch.tasks": counters.get("sim.batch.tasks", 0),
        "sim.batch.executed": counters.get("sim.batch.executed", 0),
        "sim.cache.lookups": calls["sim.cache.get"],
        "sim.cache.hit_ratio": ratio("sim.cache.hits", "sim.cache.get"),
        "fleet.settle_cache.get_s": secs("fleet.settle_cache.get"),
        "fleet.settle_cache.gets": calls["fleet.settle_cache.get"],
        "fleet.settle_cache.hit_ratio": ratio(
            "fleet.settle_cache.hits", "fleet.settle_cache.get"
        ),
        "fleet.settle_cache.disk_hits": facts.get("settle_disk_hits", 0),
        "fleet.settle_cache.put_s": secs("fleet.settle_cache.put"),
        "fleet.settle_cache.puts": calls["fleet.settle_cache.put"],
        "fleet.settle_cache.corrupt": facts.get("settle_corrupt", 0),
        "fleet.engine.run_s": secs("fleet.engine.run"),
        "fleet.powercap.tick_s": secs("fleet.powercap.tick"),
        "fleet.powercap.ticks": calls["fleet.powercap.tick"],
        "fleet.powercap.overshoot_w": facts.get("cap_overshoot_w", 0.0),
        "fleet.shard.merge_s": secs("fleet.shard.merge"),
        "fleet.traffic.generate_s": secs("fleet.traffic.generate"),
        "scenarios.runner.lower_s": secs("scenarios.runner.lower"),
    })
    return metrics


def traced_run(workload, seed: int) -> Tuple[Dict[str, float], List, str]:
    """One untraced pass, then one traced pass; the per-layer metrics."""
    from tracer import Shim, require_calls
    from workloads import STATE_DIR, Op, timed_setup

    _, ops = timed_setup(workload, 1)
    # Unscaled passes: the speed clock's kernel would read as
    # unattributed time in the traced wall.
    untraced = workload.run_pass(scale=False)
    shim = Shim(run_id=f"{workload.name}-seed{seed}-pid{os.getpid()}")
    with shim:
        traced = workload.run_pass(scale=False)
    require_calls(shim, workload.required_calls)
    ops.extend(untraced.ops + traced.ops)
    ops.extend(
        Op("trace_check", error=error)
        for error in workload.check_trace(shim.counters)
    )
    metrics = layer_metrics(shim, traced.facts)
    metrics["tracing.overhead_pct"] = (
        100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s
    )
    spans_path = os.path.join(
        STATE_DIR, f"spans-{workload.name}-seed{seed}.jsonl"
    )
    shim.write_spans(spans_path)
    note = (
        f"untraced pass {untraced.wall_s:.3f} s, traced pass "
        f"{traced.wall_s:.3f} s, {len(shim.finished_spans())} spans "
        f"written to {os.path.relpath(spans_path, REPO_ROOT)}"
    )
    return metrics, ops, note


def main(argv: Sequence[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "repro", "__init__.py")):
        print(
            "perfbench: the repro sources (src/repro) are not in this "
            "checkout; nothing to measure",
            file=sys.stderr,
        )
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            + ", ".join(WORKLOADS),
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            metrics, ops, note = traced_run(workload, args.seed)
        else:
            metrics, ops, note = timed_run(workload, args.seconds)
    finally:
        workload.close()
    check_digests(ops, _digest_file(workload))
    failed = [op for op in ops if op.error is not None]
    if not args.trace:
        metrics["pass_rate"] = (len(ops) - len(failed)) / len(ops)
    units = PER_LAYER if args.trace else END_TO_END

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{workload.describe()}")
    print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")
    names = sorted({op.name for op in ops})
    print("  verdicts: " + ", ".join(
        f"{name} {'FAIL' if any(o.error for o in ops if o.name == name) else 'ok'}"
        for name in names
    ))
    for op in failed:
        print(f"  FAIL {op.name}: {op.error}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
