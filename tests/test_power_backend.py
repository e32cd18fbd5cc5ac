"""Settled operating points: the fused socket kernel against the reference.

The operating-point cache and the fleet event-log SHA-256 both hash exact
float values, so a settle through ``ProcessorSocket._iterate`` must agree
to the last bit with one through the reference composition it fused
(``tests/test_socket_kernel.py``) — not just to a tolerance.  Every
assertion here uses ``==`` on raw floats on purpose.
"""

import pytest

from repro.api import measure
from repro.config import ChipConfig, ServerConfig
from repro.sim.server import Power720Server
from repro.sim.socket import ProcessorSocket

from .test_socket_kernel import _reference_iterate


class TestSettledStateBitIdentity:
    """End-to-end: settled operating points agree with the reference."""

    @pytest.mark.parametrize("mode", ["undervolt", "overclock"])
    @pytest.mark.parametrize("n_threads", [1, 5, 8])
    def test_default_width_solutions_match(self, mode, n_threads, monkeypatch):
        kernel = measure("raytrace", n_threads=n_threads, mode=mode, seed=11)
        monkeypatch.setattr(ProcessorSocket, "_iterate", _reference_iterate)
        reference = measure("raytrace", n_threads=n_threads, mode=mode, seed=11)
        assert kernel.static == reference.static
        assert kernel.adaptive == reference.adaptive

    def test_sixteen_core_die_solves(self):
        config = ServerConfig(chip=ChipConfig(n_cores=16))
        result = measure(
            "raytrace", n_threads=12, mode="undervolt", config=config, seed=3
        )
        point = result.adaptive.point
        assert point.chip_power > 0
        voltages = [
            v for s in point.sockets for v in s.solution.core_voltages
        ]
        assert len(voltages) == 16 * len(point.sockets)

    def test_wide_die_builds_and_solves(self):
        """Widths past the 2x4 POWER7+ grid grow the floorplan columns."""
        config = ServerConfig(chip=ChipConfig(n_cores=24))
        server = Power720Server(config=config, seed=5)
        result = measure(
            "raytrace", n_threads=20, mode="overclock", server=server
        )
        point = result.adaptive.point
        assert point.chip_power > 0
        voltages = [
            v for s in point.sockets for v in s.solution.core_voltages
        ]
        assert len(voltages) == 24 * len(point.sockets)
