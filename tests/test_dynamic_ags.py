"""Trace-driven AGS: diurnal traces and the replay driver."""

import pytest

from repro.core import DynamicAgsDriver, diurnal_trace
from repro.core.evaluate import apply_with_contention
from repro.errors import SchedulingError
from repro.guardband import GuardbandMode
from repro.sim.batch import SweepRunner
from repro.sim.cache import OperatingPointCache
from repro.workloads.scaling import RuntimeModel


@pytest.fixture
def driver(server, raytrace):
    return DynamicAgsDriver(server, raytrace, interval_seconds=60.0)


class TestDiurnalTrace:
    def test_length(self):
        assert len(diurnal_trace(24)) == 24

    def test_bounds(self):
        trace = diurnal_trace(24, low=1, high=8)
        assert min(trace) == 1
        assert max(trace) == 8

    def test_peak_in_the_middle(self):
        trace = diurnal_trace(24, low=1, high=8)
        assert trace.index(max(trace)) in range(8, 16)

    def test_starts_and_ends_low(self):
        trace = diurnal_trace(24, low=2, high=7)
        assert trace[0] == 2

    def test_rejects_bad_bounds(self):
        with pytest.raises(SchedulingError):
            diurnal_trace(24, low=5, high=3)
        with pytest.raises(SchedulingError):
            diurnal_trace(1)


class TestReplay:
    def test_interval_per_trace_entry(self, driver):
        result = driver.replay([1, 2, 3])
        assert len(result.intervals) == 3
        assert [i.demand for i in result.intervals] == [1, 2, 3]

    def test_hysteresis_skips_flat_segments(self, driver):
        result = driver.replay([2, 2, 2, 4, 4])
        rescheduled = [i.rescheduled for i in result.intervals]
        assert rescheduled == [True, False, False, True, False]

    def test_flat_segments_reuse_power(self, driver):
        result = driver.replay([3, 3, 3])
        powers = {i.ags_power for i in result.intervals}
        assert len(powers) == 1

    def test_ags_saves_power_every_interval(self, driver):
        result = driver.replay(diurnal_trace(8, low=1, high=8))
        for interval in result.intervals:
            assert interval.ags_power <= interval.baseline_power + 0.5

    def test_energy_integral(self, driver):
        result = driver.replay([2, 2])
        expected = sum(i.ags_power for i in result.intervals) * 60.0
        assert result.ags_energy == pytest.approx(expected)

    def test_diurnal_day_saves_energy(self, driver):
        result = driver.replay(diurnal_trace(12, low=1, high=8))
        assert result.energy_saving_fraction > 0.01

    def test_reschedule_count(self, driver):
        result = driver.replay([1, 1, 2, 2, 1])
        assert result.n_reschedules == 3

    def test_rejects_empty_trace(self, driver):
        with pytest.raises(SchedulingError):
            driver.replay([])

    def test_rejects_zero_demand(self, driver):
        with pytest.raises(SchedulingError):
            driver.replay([1, 0, 2])

    def test_rejects_bad_interval(self, server, raytrace):
        with pytest.raises(SchedulingError):
            DynamicAgsDriver(server, raytrace, interval_seconds=0.0)


class TestRunnerRouting:
    """The driver's measurements route through the batch runner/cache."""

    def test_bit_identical_to_direct_settling(
        self, server, server_config, raytrace
    ):
        """Cache-routed powers equal settling an identical fresh server."""
        from repro.sim.run import build_server

        driver = DynamicAgsDriver(
            server,
            raytrace,
            runner=SweepRunner(cache=OperatingPointCache()),
        )
        result = driver.replay([2, 5])
        runtime = RuntimeModel()
        for interval in result.intervals:
            placement = driver.ags.schedule_batch(
                raytrace, interval.demand, driver.total_cores_on
            )
            fresh = build_server(server_config, seed=server.seed)
            apply_with_contention(fresh, placement, runtime)
            point = fresh.operate(GuardbandMode.UNDERVOLT)
            assert interval.ags_power == point.chip_power

    def test_repeated_demand_levels_hit_the_cache(self, server, raytrace):
        runner = SweepRunner(cache=OperatingPointCache())
        driver = DynamicAgsDriver(server, raytrace, runner=runner)
        driver.replay([3, 4, 3, 4, 3])
        stats = runner.last_report.cache_stats
        # 2 distinct demand levels x (AGS + baseline) x (static + adaptive
        # halves): everything beyond the first 8 settles is a replay.
        assert stats.hits > 0
        assert stats.misses <= 8

    def test_distinct_seeds_never_alias(self, server_config, raytrace):
        """Two different die seeds must not share cache entries."""
        from repro.sim.server import Power720Server

        runner = SweepRunner(cache=OperatingPointCache())
        for seed, expect_misses in ((7, True), (7, False), (8, True)):
            driver = DynamicAgsDriver(
                Power720Server(server_config, seed=seed),
                raytrace,
                runner=runner,
            )
            before = runner.cache.stats.misses
            driver.replay([4])
            missed = runner.cache.stats.misses - before
            # Same seed replays from cache; a new seed settles afresh.
            assert (missed > 0) is expect_misses
