"""Placement evaluation with contention-adjusted activity."""

import pytest

from repro import measure
from repro.core import ConsolidationScheduler, LoadlineBorrowingScheduler
from repro.core.evaluate import apply_with_contention
from repro.guardband import GuardbandMode
from repro.workloads import get_profile
from repro.workloads.scaling import RuntimeModel


class TestApplyWithContention:
    def test_uncontended_placement_keeps_profile_activity(self, server, raytrace):
        placement = ConsolidationScheduler(server.config).schedule(raytrace, 4, 8)
        apply_with_contention(server, placement, RuntimeModel())
        thread = server.sockets[0].chip.cores[0].threads[0]
        assert thread.activity == pytest.approx(raytrace.activity)

    def test_saturated_placement_reduces_activity(self, server):
        radix = get_profile("radix")
        placement = ConsolidationScheduler(server.config).schedule(
            radix, 32, 8, threads_per_core=4
        )
        apply_with_contention(server, placement, RuntimeModel())
        thread = server.sockets[0].chip.cores[0].threads[0]
        assert thread.activity < radix.activity

    def test_gating_applied(self, server, raytrace):
        placement = LoadlineBorrowingScheduler(server.config).schedule(raytrace, 4, 8)
        apply_with_contention(server, placement, RuntimeModel())
        for socket in server.sockets:
            assert sum(1 for c in socket.chip.cores if not c.gated) == 4


class TestMeasureScheduled:
    def test_returns_paired_measurement(self, server, raytrace):
        placement = ConsolidationScheduler(server.config).schedule(raytrace, 4, 8)
        result = measure(
            raytrace, schedule=placement, mode=GuardbandMode.UNDERVOLT, server=server
        )
        assert result.static.mode is GuardbandMode.STATIC
        assert result.adaptive.mode is GuardbandMode.UNDERVOLT
        assert result.power_saving_fraction > 0

    def test_borrowing_beats_consolidation_at_eight_cores(self, server, raytrace):
        cons = ConsolidationScheduler(server.config).schedule(raytrace, 8, 8)
        borr = LoadlineBorrowingScheduler(server.config).schedule(raytrace, 8, 8)
        p_cons = measure(
            raytrace, schedule=cons, mode=GuardbandMode.UNDERVOLT, server=server
        ).adaptive.chip_power
        p_borr = measure(
            raytrace, schedule=borr, mode=GuardbandMode.UNDERVOLT, server=server
        ).adaptive.chip_power
        assert p_borr < p_cons

    def test_sharing_heavy_kernel_slower_when_split(self, server):
        lu_ncb = get_profile("lu_ncb")
        cons = ConsolidationScheduler(server.config).schedule(lu_ncb, 8, 8)
        borr = LoadlineBorrowingScheduler(server.config).schedule(lu_ncb, 8, 8)
        t_cons = measure(
            lu_ncb, schedule=cons, mode=GuardbandMode.UNDERVOLT, server=server
        ).adaptive.execution_time
        t_borr = measure(
            lu_ncb, schedule=borr, mode=GuardbandMode.UNDERVOLT, server=server
        ).adaptive.execution_time
        assert t_borr > t_cons * 1.15

    def test_bandwidth_bound_rate_runs_faster_when_split(self, server):
        lbm = get_profile("lbm")
        cons = ConsolidationScheduler(server.config).schedule(lbm, 8, 8)
        borr = LoadlineBorrowingScheduler(server.config).schedule(lbm, 8, 8)
        t_cons = measure(
            lbm, schedule=cons, mode=GuardbandMode.UNDERVOLT, server=server
        ).adaptive.execution_time
        t_borr = measure(
            lbm, schedule=borr, mode=GuardbandMode.UNDERVOLT, server=server
        ).adaptive.execution_time
        assert t_borr < t_cons * 0.8
