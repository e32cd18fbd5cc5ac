"""Failure injection: pathological configurations must fail loudly.

The solver and firmware assert convergence and safety rather than
producing silently wrong figures; these tests pin those failure modes.
"""

import dataclasses

import pytest

from repro import measure
from repro.config import (
    ChipConfig,
    DidtConfig,
    GuardbandConfig,
    PdnConfig,
    ServerConfig,
)
from repro.errors import ConvergenceError
from repro.guardband import GuardbandMode
from repro.sim.run import build_server
from repro.workloads import get_profile


class TestSolverFailures:
    def test_monster_loadline_cannot_converge(self):
        """A delivery path so resistive the chip starves must raise, not
        return a bogus operating point."""
        pdn = dataclasses.replace(PdnConfig(), r_loadline=0.050)  # 50 mOhm
        config = ServerConfig(pdn=pdn)
        server = build_server(config)
        server.place(0, get_profile("lu_cb"), 8)
        socket = server.sockets[0]
        socket.path.set_voltage(config.static_vdd)
        with pytest.raises(ConvergenceError):
            socket.solve(frequencies=[4.2e9] * 8)

    def test_reasonable_configs_always_converge(self):
        """2x resistance scaling stays inside the validated envelope."""
        base = PdnConfig()
        pdn = dataclasses.replace(
            base,
            r_loadline=base.r_loadline * 2,
            r_ir_shared=base.r_ir_shared * 2,
            r_ir_local=base.r_ir_local * 2,
        )
        server = build_server(ServerConfig(pdn=pdn))
        server.place(0, get_profile("lu_cb"), 8)
        socket = server.sockets[0]
        socket.path.set_voltage(server.config.static_vdd)
        solution = socket.solve(frequencies=[4.2e9] * 8)
        assert solution.iterations < 300


class TestFirmwareDegradedModes:
    def test_undervolt_pins_at_rail_when_guardband_exhausted(self):
        """With droops deeper than the whole guardband, the firmware can
        only sit at the static rail — zero undervolt, no crash."""
        didt = dataclasses.replace(DidtConfig(), droop_single_core=0.200)
        config = ServerConfig(pdn=dataclasses.replace(PdnConfig(), didt=didt))
        result = measure(
            "raytrace", n_threads=4, mode=GuardbandMode.UNDERVOLT, config=config
        )
        assert result.adaptive.point.socket_point(0).undervolt == 0.0

    def test_overclock_clamps_at_floor_under_huge_noise(self):
        didt = dataclasses.replace(DidtConfig(), droop_single_core=0.200)
        config = ServerConfig(pdn=dataclasses.replace(PdnConfig(), didt=didt))
        result = measure(
            "raytrace", n_threads=8, mode=GuardbandMode.OVERCLOCK, config=config
        )
        freqs = result.adaptive.point.socket_point(0).solution.frequencies
        assert min(freqs) >= config.chip.f_min

    def test_tiny_guardband_yields_no_saving(self):
        """A 50 mV static guardband leaves nothing to harvest at load."""
        config = ServerConfig(guardband=GuardbandConfig(static_guardband=0.050))
        result = measure(
            "lu_cb", n_threads=8, mode=GuardbandMode.UNDERVOLT, config=config
        )
        assert result.adaptive.point.socket_point(0).undervolt == 0.0


class TestReducedPlatforms:
    def test_four_core_chip_works(self):
        chip = dataclasses.replace(ChipConfig(), n_cores=4)
        config = ServerConfig(chip=chip)
        result = measure(
            "raytrace", n_threads=4, mode=GuardbandMode.UNDERVOLT, config=config
        )
        assert 0 < result.power_saving_fraction < 0.3

    def test_single_socket_server_works(self):
        config = ServerConfig(n_sockets=1)
        result = measure(
            "raytrace", n_threads=2, mode=GuardbandMode.UNDERVOLT, config=config
        )
        assert result.adaptive.chip_power < result.static.chip_power

    def test_single_cpm_per_core_works(self):
        chip = dataclasses.replace(ChipConfig(), cpms_per_core=1)
        result = measure(
            "raytrace",
            n_threads=2,
            mode=GuardbandMode.OVERCLOCK,
            config=ServerConfig(chip=chip),
        )
        assert result.frequency_boost_fraction > 0
