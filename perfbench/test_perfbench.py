"""Self-tests of the benchmark: metric names, shim, ledger, smoke runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

BENCHMARK_JSON = os.path.join(workloads.REPO_ROOT, "BENCHMARK.json")


def _benchmark() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_counts_and_units_match_the_code():
    spec = _benchmark()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    for name in list(end_to_end) + list(per_layer):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("fail", [False, True], ids=["normal", "raising"])
def test_shim_restores_every_wrapped_attribute(fail):
    originals = [tracer._resolve(entry) for entry in tracer.ENTRY_POINTS]
    with pytest.raises(ZeroDivisionError) if fail else contextlib.nullcontext():
        with tracer.Shim("restore-test"):
            for entry, (holder, original) in zip(tracer.ENTRY_POINTS, originals):
                assert vars(holder)[entry.attribute] is not original
            if fail:
                1 / 0
    for entry, (holder, original) in zip(tracer.ENTRY_POINTS, originals):
        assert vars(holder)[entry.attribute] is original, entry.key


def test_a_renamed_entry_point_fails_loudly_and_wraps_nothing():
    solve = next(e for e in tracer.ENTRY_POINTS if e.key == "sim.socket.solve")
    renamed = dataclasses.replace(solve, attribute="solve_renamed")
    original = tracer._resolve(solve)[1]
    with pytest.raises(tracer.TracingError, match="solve_renamed"):
        with tracer.Shim("rename-test", (solve, renamed)):
            pass
    assert tracer._resolve(solve)[1] is original


def test_an_entry_point_never_called_fails_loudly():
    shim = tracer.Shim("uncalled-test")
    with pytest.raises(tracer.TracingError, match="fleet.powercap.tick"):
        tracer.require_calls(shim, ("fleet.powercap.tick",))


def test_digest_changes_fail_the_operation(tmp_path):
    path = str(tmp_path / "digests.json")
    first = [workloads.Op("fig3", digest="a")]
    run.check_digests(first, path)
    again = [workloads.Op("fig3", digest="a"), workloads.Op("fig3", digest="b")]
    run.check_digests(again, path)
    assert first[0].error is None and again[0].error is None
    assert "!= recorded a" in again[1].error


def test_default_seed_keeps_catalog_order_and_others_shuffle_reproducibly():
    names = list("abcdefgh")
    assert workloads._shuffled(names, workloads.DEFAULT_SEED) == names
    assert workloads._shuffled(names, 5) == workloads._shuffled(names, 5)
    assert sorted(workloads._shuffled(names, 5)) == names


def test_speed_clock_scales_each_operation_by_the_reference_kernel():
    unscaled = workloads.SpeedClock(scale=False)
    unscaled.attempt("noop", lambda: "d")
    assert unscaled.scaled_s == unscaled.wall_s > 0
    scaled = workloads.SpeedClock()
    op = scaled.attempt("noop", lambda: "d")
    assert op.digest == "d" and scaled.scaled_s > 0
    failed = scaled.attempt("boom", lambda: 1 / 0)
    assert failed.error.startswith("ZeroDivisionError")


SMOKE = [
    ("paper_figures", dict(figures=("fig3", "fig7"))),
    ("scenario_catalog", dict(names=("rack_power_budget",))),
    ("fleet_warm", dict(n_servers=4, cell_servers=2, hours=2.0,
                        jobs_per_hour=60.0)),
]


@pytest.mark.parametrize("name,params", SMOKE, ids=[s[0] for s in SMOKE])
def test_smoke_run_passes_and_its_layer_ledger_closes(name, params):
    workload = workloads.WORKLOADS[name](3, **params)
    try:
        metrics, ops, _ = run.traced_run(workload, seed=3)
    finally:
        workload.close()
    assert ops and all(op.error is None for op in ops), [
        (op.name, op.error) for op in ops if op.error
    ]
    assert set(metrics) == set(run.PER_LAYER)
    self_total = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert self_total + metrics["unattributed_s"] == pytest.approx(
        metrics["traced_wall_s"], abs=1e-6
    )
    if name == "fleet_warm":
        assert metrics["sim.batch.executed"] == 0
        assert metrics["fleet.settle_cache.hit_ratio"] == 1.0


def test_exits_nonzero_without_result_when_the_sources_are_absent(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for entry in os.listdir(os.path.dirname(run.__file__)):
        if entry.endswith(".py") or entry.endswith(".md"):
            shutil.copy(os.path.join(os.path.dirname(run.__file__), entry), bench)
    shutil.copy(BENCHMARK_JSON, tmp_path)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_figures",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
