"""The unified measurement facade: ``repro.measure`` / ``repro.sweep``."""

import pytest

import repro
from repro import GuardbandMode, build_server, measure, sweep
from repro.core.evaluate import measure_scheduled
from repro.core.placement import Placement, ThreadGroup
from repro.errors import SchedulingError
from repro.sim.batch import SweepRunner, SweepTask
from repro.sim.cache import OperatingPointCache
from repro.sim.run import measure_consolidated, measure_placement
from repro.workloads.scaling import SocketShare


class TestResolution:
    def test_workload_accepts_name_or_profile(self, raytrace):
        by_name = measure("raytrace", n_threads=1)
        by_profile = measure(raytrace, n_threads=1)
        assert (
            by_name.adaptive.point.chip_power
            == by_profile.adaptive.point.chip_power
        )

    def test_mode_accepts_string_or_enum(self):
        by_str = measure("raytrace", mode="overclock")
        by_enum = measure("raytrace", mode=GuardbandMode.OVERCLOCK)
        assert (
            by_str.adaptive.active_frequency
            == by_enum.adaptive.active_frequency
        )

    def test_unknown_mode_string_raises(self):
        with pytest.raises(ValueError):
            measure("raytrace", mode="turbo")

    def test_facade_is_reexported_from_package_root(self):
        assert repro.measure is measure
        assert repro.sweep is sweep
        assert "measure" in repro.__all__
        assert "sweep" in repro.__all__


class TestVariantEquivalence:
    """The facade is the canonical implementation; the legacy entry points
    delegate to it.  Same seed + same placement must give bit-identical
    results through either path."""

    def test_consolidated_matches_legacy(self, raytrace):
        legacy = measure_consolidated(
            build_server(), raytrace, 4, GuardbandMode.UNDERVOLT
        )
        unified = measure("raytrace", n_threads=4, mode="undervolt")
        assert legacy.adaptive.point.chip_power == unified.adaptive.point.chip_power
        assert legacy.static.execution_time == unified.static.execution_time
        assert legacy.n_active_cores == unified.n_active_cores

    def test_placement_matches_legacy(self, raytrace):
        legacy = measure_placement(
            build_server(), raytrace, SocketShare((2, 2)),
            GuardbandMode.UNDERVOLT, keep_on=(2, 2),
        )
        unified = measure("raytrace", placement=(2, 2), keep_on=(2, 2))
        assert legacy.adaptive.point.chip_power == unified.adaptive.point.chip_power
        assert legacy.adaptive.active_frequency == unified.adaptive.active_frequency

    def test_schedule_matches_legacy(self, raytrace):
        plan = Placement(
            groups=((ThreadGroup(raytrace, 2),), (ThreadGroup(raytrace, 2),))
        )
        legacy = measure_scheduled(
            build_server(), plan, raytrace, GuardbandMode.UNDERVOLT
        )
        unified = measure(raytrace, schedule=plan)
        assert legacy.adaptive.point.chip_power == unified.adaptive.point.chip_power
        assert legacy.adaptive.execution_time == unified.adaptive.execution_time

    def test_seed_is_plumbed_to_the_server_build(self, raytrace):
        legacy = measure_consolidated(
            build_server(seed=11), raytrace, 4, GuardbandMode.UNDERVOLT
        )
        unified = measure("raytrace", n_threads=4, seed=11)
        assert (
            legacy.adaptive.point.socket_point(0).solution
            == unified.adaptive.point.socket_point(0).solution
        )

    def test_server_reuse_matches_legacy_reuse(self, raytrace):
        # Reused servers keep thermal state across clear(); the facade must
        # mirror the legacy path exactly under the same call sequence.
        legacy_server, unified_server = build_server(), build_server()
        measure_consolidated(
            legacy_server, raytrace, 8, GuardbandMode.UNDERVOLT
        )
        legacy = measure_consolidated(
            legacy_server, raytrace, 1, GuardbandMode.UNDERVOLT
        )
        measure("raytrace", n_threads=8, server=unified_server)
        unified = measure("raytrace", n_threads=1, server=unified_server)
        assert legacy.adaptive.point.chip_power == unified.adaptive.point.chip_power

    @pytest.mark.parametrize("variant", ["consolidated", "placement", "schedule"])
    def test_static_mode_static_half_is_the_first_settle(self, raytrace, variant):
        # mode="static" settles STATIC twice; ``static`` is the first
        # settle on the fresh server, i.e. a one-settle STATIC batch task.
        plan = Placement(
            groups=((ThreadGroup(raytrace, 2),), (ThreadGroup(raytrace, 1),))
        )
        selector, task = {
            "consolidated": (
                dict(n_threads=3),
                SweepTask.consolidated(raytrace, 3, GuardbandMode.STATIC),
            ),
            "placement": (
                dict(placement=(2, 1)),
                SweepTask.placement(raytrace, (2, 1), GuardbandMode.STATIC),
            ),
            "schedule": (
                dict(schedule=plan),
                SweepTask.scheduled(plan, raytrace, GuardbandMode.STATIC),
            ),
        }[variant]
        result = measure(raytrace, mode="static", **selector)
        (reference,) = SweepRunner(cache=OperatingPointCache()).run_results([task])
        assert result.static.point == reference.static.point


class TestSelectorValidation:
    def test_placement_and_schedule_conflict(self, raytrace):
        plan = Placement(groups=((ThreadGroup(raytrace, 1),), ()))
        with pytest.raises(SchedulingError):
            measure("raytrace", placement=(1, 0), schedule=plan)

    def test_keep_on_requires_placement(self):
        with pytest.raises(SchedulingError):
            measure("raytrace", keep_on=(2, 0))

    def test_selectors_are_keyword_only(self):
        with pytest.raises(TypeError):
            measure("raytrace", GuardbandMode.UNDERVOLT)  # noqa


class TestSweepFacade:
    def test_sweep_matches_legacy_runner_path(self, raytrace):
        unified = sweep(
            "raytrace",
            core_counts=range(1, 4),
            runner=SweepRunner(max_workers=1, cache=OperatingPointCache()),
        )
        legacy_runner = SweepRunner(max_workers=1, cache=OperatingPointCache())
        legacy = legacy_runner.core_scaling_sweep(
            raytrace, GuardbandMode.UNDERVOLT, range(1, 4)
        )
        assert len(unified) == 3
        for mine, theirs in zip(unified, legacy):
            assert (
                mine.adaptive.point.chip_power
                == theirs.adaptive.point.chip_power
            )
            assert mine.n_active_cores == theirs.n_active_cores

    def test_sweep_with_workers_and_cache_dir(self, tmp_path):
        results = sweep(
            "raytrace", core_counts=[1, 2], cache_dir=str(tmp_path / "cache")
        )
        assert len(results) == 2
        assert (tmp_path / "cache").is_dir()

    def test_runner_conflicts_with_runner_knobs(self):
        runner = SweepRunner(max_workers=1, cache=OperatingPointCache())
        with pytest.raises(SchedulingError):
            sweep("raytrace", runner=runner, workers=2)
        with pytest.raises(SchedulingError):
            sweep("raytrace", runner=runner, cache_dir="/tmp/x")
