"""Fleet-level chaos: crashes, kills, fallback windows, determinism.

Every test here carries the ``chaos`` marker so CI can run the fault
suite on its own (``pytest -m chaos``).
"""

import pytest

from repro.errors import FaultError
from repro.faults import (
    CpmStuckFault,
    FaultPlan,
    JobKillFault,
    ServerCrashFault,
    chaos_plan,
    run_chaos,
)
from repro.fleet import FleetConfig, TrafficConfig
from repro.fleet.engine import FleetSimulation
from repro.fleet.scheduler import AGS_POLICY
from repro.fleet.traffic import generate_trace
from repro.obs import Observability, install
from repro.sim.batch import SweepRunner

pytestmark = pytest.mark.chaos

DURATION = 3600.0


@pytest.fixture(scope="module")
def runner():
    """One shared operating-point cache across the whole module."""
    return SweepRunner()


@pytest.fixture(scope="module")
def config():
    return FleetConfig(
        n_servers=2,
        traffic=TrafficConfig(duration_seconds=DURATION, jobs_per_hour=12.0),
        seed=7,
    )


class TestBitIdentity:
    def test_empty_plan_run_matches_no_plan_run(self, config, runner):
        trace = generate_trace(config.traffic, config.seed)
        plain = FleetSimulation(
            config, AGS_POLICY, runner=runner, trace=trace
        ).run()
        empty = FleetSimulation(
            config, AGS_POLICY, runner=runner, trace=trace,
            fault_plan=FaultPlan(),
        ).run()
        assert plain.event_log_hash == empty.event_log_hash
        assert plain.adaptive_energy_joules == empty.adaptive_energy_joules
        assert empty.n_server_crashes == 0
        assert empty.fallback_seconds == ()

    def test_instrumented_run_is_bit_identical(self, config, runner):
        """The observability layer and the disabled fault layer together
        must not move a single event — the zero-perturbation contract."""
        trace = generate_trace(config.traffic, config.seed)
        plain = FleetSimulation(
            config, AGS_POLICY, runner=runner, trace=trace
        ).run()
        previous = install(Observability(enabled=True))
        try:
            instrumented = FleetSimulation(
                config, AGS_POLICY, runner=runner, trace=trace,
                fault_plan=FaultPlan(),
            ).run()
        finally:
            install(previous)
        assert instrumented.event_log_hash == plain.event_log_hash


class TestChaosScenario:
    @pytest.fixture(scope="class")
    def report(self, config):
        plan = chaos_plan(
            DURATION,
            crash_server=1,
            corrupt_server=0,
            corrupt_socket=0,
            seed=3,
        )
        return run_chaos(config, plan)

    def test_completes_without_crashing(self, report):
        assert report.degraded.n_server_crashes == 1
        assert report.degraded.event_log_hash != report.baseline.event_log_hash

    def test_zero_job_loss(self, report):
        assert report.zero_job_loss
        assert report.degraded.conserved

    def test_fallback_time_is_bounded(self, report, config):
        # The corruption window is 20% of the horizon; the engine re-arms
        # after the window plus the configured hysteresis dwell.
        bound = 0.2 * DURATION + config.fallback_rearm_seconds
        assert 0.0 < report.fallback_seconds <= bound

    def test_reports_energy_and_qos_cost(self, report):
        assert report.baseline.adaptive_energy_joules > 0
        assert isinstance(report.energy_delta_joules, float)
        assert isinstance(report.qos_delta, int)
        rendered = report.render()
        assert "degraded:" in rendered
        assert "static fallback" in rendered
        assert "conserved" in rendered

    def test_two_runs_are_identical(self, report, config):
        plan = chaos_plan(
            DURATION,
            crash_server=1,
            corrupt_server=0,
            corrupt_socket=0,
            seed=3,
        )
        again = run_chaos(config, plan)
        assert again.render() == report.render()
        assert again.degraded.event_log_hash == (
            report.degraded.event_log_hash
        )


class TestJobKill:
    def test_killed_job_requeues_and_conserves(self, config, runner):
        trace = generate_trace(config.traffic, config.seed)
        baseline = FleetSimulation(
            config, AGS_POLICY, runner=runner, trace=trace
        ).run()
        victim = next(
            r for r in baseline.job_records
            if r.completed and r.completion_ns - r.start_ns > 0
        )
        kill_at = (victim.start_ns + victim.completion_ns) / 2 / 1e9
        plan = FaultPlan(
            specs=(
                JobKillFault(start_seconds=kill_at, job_id=victim.job_id),
            )
        )
        degraded = FleetSimulation(
            config, AGS_POLICY, runner=runner, trace=trace, fault_plan=plan
        ).run()
        assert degraded.n_job_kills == 1
        assert degraded.n_requeues >= 1
        assert degraded.conserved
        assert degraded.n_arrivals == baseline.n_arrivals

    def test_kill_of_idle_job_is_noop(self, config, runner):
        trace = generate_trace(config.traffic, config.seed)
        plan = FaultPlan(
            specs=(JobKillFault(start_seconds=1.0, job_id=10_000),)
        )
        degraded = FleetSimulation(
            config, AGS_POLICY, runner=runner, trace=trace, fault_plan=plan
        ).run()
        assert degraded.n_job_kills == 0
        assert degraded.conserved


class TestPlanValidation:
    def test_out_of_range_crash_server_rejected(self, config, runner):
        plan = FaultPlan(
            specs=(ServerCrashFault(start_seconds=1.0, server_id=9),)
        )
        with pytest.raises(FaultError):
            FleetSimulation(config, AGS_POLICY, runner=runner, fault_plan=plan)

    def test_out_of_range_corrupt_server_rejected(self, config, runner):
        plan = FaultPlan(
            specs=(
                CpmStuckFault(
                    start_seconds=1.0, socket_id=0, server_id=5, code=0
                ),
            )
        )
        with pytest.raises(FaultError):
            FleetSimulation(config, AGS_POLICY, runner=runner, fault_plan=plan)


class TestUnrepairedCrash:
    def test_permanent_crash_still_conserves(self, config, runner):
        trace = generate_trace(config.traffic, config.seed)
        plan = FaultPlan(
            specs=(ServerCrashFault(start_seconds=900.0, server_id=1),)
        )
        degraded = FleetSimulation(
            config, AGS_POLICY, runner=runner, trace=trace, fault_plan=plan
        ).run()
        assert degraded.n_server_crashes == 1
        assert degraded.conserved


class TestHeapCompaction:
    """Mid-run heap compaction must never move an event."""

    def _run(self, config, runner, trace, plan):
        return FleetSimulation(
            config, AGS_POLICY, runner=runner, trace=trace, fault_plan=plan
        )

    def test_digest_is_unchanged_by_compaction(
        self, config, runner, monkeypatch
    ):
        """Force a compaction sweep on every loop iteration and compare
        against a run with compaction disabled: the event-log hash (the
        run's identity) must be bit-identical despite heavy crash/requeue
        churn orphaning completion events all run long."""
        import repro.fleet.events as events_mod

        trace = generate_trace(config.traffic, config.seed)
        plan = chaos_plan(
            DURATION,
            crash_server=1,
            corrupt_server=0,
            corrupt_socket=0,
            seed=3,
        )

        monkeypatch.setattr(
            events_mod.EventQueue,
            "maybe_compact",
            lambda self, is_stale: 0,
        )
        lazy_sim = self._run(config, runner, trace, plan)
        lazy = lazy_sim.run()
        monkeypatch.undo()

        monkeypatch.setattr(
            events_mod.EventQueue,
            "maybe_compact",
            events_mod.EventQueue.compact,
        )
        eager_sim = self._run(config, runner, trace, plan)
        eager = eager_sim.run()

        assert eager_sim.events.compactions > 0  # sweeps actually ran
        assert eager.event_log_hash == lazy.event_log_hash
        assert eager.adaptive_energy_joules == lazy.adaptive_energy_joules
        assert eager.n_requeues == lazy.n_requeues
        assert eager.conserved

    def test_default_thresholds_match_the_lazy_baseline(
        self, config, runner
    ):
        trace = generate_trace(config.traffic, config.seed)
        plan = chaos_plan(
            DURATION,
            crash_server=1,
            corrupt_server=0,
            corrupt_socket=0,
            seed=3,
        )
        first = self._run(config, runner, trace, plan).run()
        second = self._run(config, runner, trace, plan).run()
        assert first.event_log_hash == second.event_log_hash
