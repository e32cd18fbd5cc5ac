"""The fused socket kernel against the reference composition, to the bit.

``ProcessorSocket._iterate`` fuses ``PowerModel.chip_power`` →
per-core current → ``PowerDeliveryPath.deliver`` into one loop on plain
floats.  The operating-point caches and the fleet event-log SHA-256 hash
exact floats, so the kernel must agree with the composition it replaced
to the last bit, not to a tolerance.  That composition is kept here as
the oracle, and every assertion uses ``==`` on raw floats on purpose.
"""

import dataclasses

import numpy as np
import pytest

from repro.chip.aging import AgingModel, aged_server_config
from repro.chip.core import HardwareThread
from repro.config import ChipConfig, PdnConfig, ServerConfig
from repro.errors import ConvergenceError
from repro.faults import FaultPlan
from repro.faults.injector import injected
from repro.faults.spec import LoadlineExcursionFault, VrmDroopFault
from repro.guardband.calibration import calibrated_margin
from repro.sim.server import Power720Server
from repro.sim.socket import (
    DAMPING,
    MAX_ITERATIONS,
    TOLERANCE,
    ProcessorSocket,
    _Occupancy,
)


def _reference_iterate(
    self, occupancy, temperature, servo, servo_margin=0.0, frequency_cap=None
):
    """The per-iteration composition the kernel fused (the oracle)."""
    chip = self.chip
    n = chip.n_cores
    setpoint = self.path.setpoint
    voltages = np.full(n, setpoint - 0.02)
    freqs = list(chip.frequencies())
    delta = float("inf")
    for iteration in range(1, MAX_ITERATIONS + 1):
        if servo:
            freqs = []
            for v in voltages:
                target = chip.timing.frequency_for_margin(float(v), servo_margin)
                target = chip.timing.clamp_frequency(target)
                if frequency_cap is not None:
                    target = min(target, frequency_cap)
                freqs.append(target)
        power = chip.power_model.chip_power(
            activities=occupancy.activities,
            voltages=list(voltages),
            frequencies=freqs,
            gated=occupancy.gated,
            temperature=temperature,
        )
        core_currents = [
            power.core_power(i) / max(float(voltages[i]), 0.3) for i in range(n)
        ]
        uncore_power = power.uncore_dynamic + power.uncore_leakage
        uncore_current = uncore_power / max(float(np.mean(voltages)), 0.3)
        drops = self.path.deliver(core_currents, uncore_current, occupancy.n_active)
        new_voltages = np.asarray(drops.core_voltages)
        delta = float(np.max(np.abs(new_voltages - voltages)))
        voltages = voltages + DAMPING * (new_voltages - voltages)
        voltages = np.clip(voltages, 0.2, None)
        if delta < TOLERANCE:
            return voltages, freqs, iteration
    raise ConvergenceError(
        f"socket {self.socket_id}: electrical fixed point did not converge "
        f"in {MAX_ITERATIONS} iterations "
        f"(setpoint={setpoint:.3f} V, last delta={delta:.2e} V)"
    )


WIDTHS = [1, 7, 8, 16, 24]
OCCUPANCIES = ["idle", "partial", "smt", "mixed_gated", "all_gated"]
MODES = ["fixed", "servo", "servo_capped"]
TEMPERATURES = [28.0, 88.0]
#: Setpoints from deep undervolt to the static rail (V).
SETPOINTS = [0.95, 1.1, 1.25]


def _server(width, aged):
    config = ServerConfig(chip=ChipConfig(n_cores=width))
    if aged:
        config = aged_server_config(config, AgingModel(), years=7.0)
    return Power720Server(config=config, seed=width)


def _occupy(chip, occupancy, rng):
    """Place a seeded thread mix on ``chip`` in one of the named shapes."""
    chip.ungate_all()
    chip.clear_threads()
    n = chip.n_cores

    def thread():
        return HardwareThread(
            workload="w",
            activity=float(rng.uniform(0.2, 1.3)),
            ipc=float(rng.uniform(0.5, 2.5)),
        )

    if occupancy == "partial":
        for core_id in range(0, n, 2):
            chip.place_thread(core_id, thread())
    elif occupancy == "smt":
        for core_id in range(max(1, n // 2)):
            for _ in range(1 + core_id % 4):
                chip.place_thread(core_id, thread())
    elif occupancy == "mixed_gated":
        busy = max(1, n // 3)
        for core_id in range(busy):
            chip.place_thread(core_id, thread())
        chip.gate_unused(keep_on=busy + (n - busy) // 2)
    elif occupancy == "all_gated":
        chip.gate_unused(keep_on=0)


def _snapshot(chip):
    states = chip.core_states()
    return _Occupancy(
        activities=[s.activity for s in states],
        gated=[s.gated for s in states],
        n_active=sum(1 for s in states if s.active),
    )


def _mode_kwargs(mode, config):
    if mode == "fixed":
        return dict(servo=False)
    margin = calibrated_margin(config.chip, config.guardband)
    cap = config.chip.f_nominal if mode == "servo_capped" else None
    return dict(servo=True, servo_margin=margin, frequency_cap=cap)


def _run(socket, iterate, occupancy, temperature, kwargs):
    """One settle through ``iterate``; the outcome, errors included."""
    try:
        voltages, freqs, iterations = iterate(
            socket, occupancy, temperature, **kwargs
        )
    except (ConvergenceError, ValueError) as exc:
        return type(exc), str(exc)
    sensed = socket.path.vrm.sensed_current(socket.path.rail)
    return list(voltages), list(freqs), iterations, sensed


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("aged", [False, True], ids=["fresh", "aged"])
@pytest.mark.parametrize("width", WIDTHS)
def test_kernel_matches_reference_to_the_bit(width, aged, mode):
    server = _server(width, aged)
    socket = server.sockets[0]
    rng = np.random.default_rng(width)
    kwargs = _mode_kwargs(mode, server.config)
    for occupancy in OCCUPANCIES:
        _occupy(socket.chip, occupancy, rng)
        snapshot = _snapshot(socket.chip)
        for frequency in (socket.chip.config.f_min, socket.chip.config.f_nominal):
            socket.chip.set_all_frequencies(frequency)
            for setpoint in SETPOINTS:
                socket.path.set_voltage(setpoint)
                for temperature in TEMPERATURES:
                    reference = _run(
                        socket, _reference_iterate, snapshot, temperature, kwargs
                    )
                    kernel = _run(
                        socket,
                        ProcessorSocket._iterate,
                        snapshot,
                        temperature,
                        kwargs,
                    )
                    assert kernel == reference, (
                        f"width={width} aged={aged} mode={mode} "
                        f"occupancy={occupancy} f={frequency} "
                        f"setpoint={setpoint} T={temperature}"
                    )


def _fault_plan():
    return FaultPlan(
        specs=(
            LoadlineExcursionFault(socket_id=0, factor=1.7),
            VrmDroopFault(socket_id=0, depth_volts=0.02),
            VrmDroopFault(socket_id=1, depth_volts=0.05),
        ),
        seed=3,
    )


def _faulted_grid(iterate, width, aged, mode):
    """The grid's outcomes through ``iterate`` under a fresh injector."""
    with injected(_fault_plan()) as injector:
        server = _server(width, aged)
        socket = server.sockets[0]
        kwargs = _mode_kwargs(mode, server.config)
        rng = np.random.default_rng(width)
        outcomes = []
        for occupancy in OCCUPANCIES:
            _occupy(socket.chip, occupancy, rng)
            snapshot = _snapshot(socket.chip)
            for setpoint in SETPOINTS:
                socket.path.set_voltage(setpoint)
                for temperature in TEMPERATURES:
                    outcomes.append(
                        _run(socket, iterate, snapshot, temperature, kwargs)
                    )
    return outcomes, injector.counts


@pytest.mark.chaos
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("aged", [False, True], ids=["fresh", "aged"])
@pytest.mark.parametrize("width", WIDTHS)
def test_kernel_matches_reference_under_faults(width, aged, mode):
    """Same grid with live delivery faults: equal outcomes and equal
    hook tallies (they feed ``faults_injected_total``)."""
    reference, reference_counts = _faulted_grid(
        _reference_iterate, width, aged, mode
    )
    kernel, kernel_counts = _faulted_grid(
        ProcessorSocket._iterate, width, aged, mode
    )
    assert kernel == reference
    assert kernel_counts == reference_counts
    assert kernel_counts["loadline_excursion"] > 0
    assert kernel_counts["vrm_droop"] > 0


def test_divergence_raises_the_same_convergence_error():
    """Pathological delivery resistance: the clipped iterate runs to the
    cap on both paths and reports the same last delta."""
    pdn = dataclasses.replace(PdnConfig(), r_loadline=0.050)
    server = Power720Server(config=ServerConfig(pdn=pdn), seed=7)
    socket = server.sockets[0]
    _occupy(socket.chip, "smt", np.random.default_rng(0))
    socket.path.set_voltage(1.25)
    kwargs = _mode_kwargs("fixed", server.config)
    snapshot = _snapshot(socket.chip)
    reference = _run(socket, _reference_iterate, snapshot, 60.0, kwargs)
    assert reference[0] is ConvergenceError
    assert _run(socket, ProcessorSocket._iterate, snapshot, 60.0, kwargs) == reference


def test_negative_activity_on_an_ungated_core_is_rejected():
    server = Power720Server(seed=7)
    socket = server.sockets[0]
    snapshot = _Occupancy(
        activities=[-0.1] + [0.5] * 7, gated=[False] * 8, n_active=8
    )
    with pytest.raises(ValueError, match="activity"):
        socket._iterate(snapshot, 60.0, servo=False)
    gated = _Occupancy(
        activities=[-0.1] + [0.5] * 7, gated=[True] + [False] * 7, n_active=7
    )
    kwargs = _mode_kwargs("fixed", server.config)
    assert _run(socket, ProcessorSocket._iterate, gated, 60.0, kwargs) == _run(
        socket, _reference_iterate, gated, 60.0, kwargs
    )


@pytest.mark.parametrize("mode", ["fixed", "servo"])
def test_full_solve_matches_reference(mode, monkeypatch):
    """End to end through solve(): thermal loop, servo re-settle and
    the final evaluation see identical iterates."""

    def solve(iterate):
        monkeypatch.setattr(ProcessorSocket, "_iterate", iterate)
        server = _server(8, aged=False)
        socket = server.sockets[0]
        _occupy(socket.chip, "smt", np.random.default_rng(5))
        socket.path.set_voltage(1.15)
        if mode == "fixed":
            return socket.solve(frequencies=[4.2e9] * 8)
        margin = calibrated_margin(server.config.chip, server.config.guardband)
        return socket.solve(servo_margin=margin)

    kernel = solve(ProcessorSocket._iterate)
    assert solve(_reference_iterate) == kernel
