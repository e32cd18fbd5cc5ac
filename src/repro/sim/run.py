"""High-level measurement helpers used by examples and benchmarks.

These functions reproduce the paper's experimental procedures:

* :func:`measure_consolidated` — one workload consolidated on socket 0 with
  socket 1 idle (the Sec. 3 characterization setup), settled under the
  static guardband and one adaptive mode.
* :func:`core_scaling_sweep` — the 1→8 active-core sweep behind
  Figs. 3, 4, 5 and 7.
* :func:`measure_placement` — an arbitrary two-socket placement (used by
  the AGS schedulers and the loadline-borrowing figures).

Single-socket experiments report the focal socket's power (the paper
measures one processor's Vdd rail); two-socket scheduling experiments
report the sum.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import ServerConfig
from ..guardband import GuardbandMode
from ..workloads.profile import WorkloadProfile
from ..workloads.scaling import RuntimeModel, SocketShare
from .results import RunResult
from .server import Power720Server, ServerOperatingPoint


def build_server(config: Optional[ServerConfig] = None, seed: int = 7) -> Power720Server:
    """A fresh default server (two POWER7+ sockets behind one VRM)."""
    return Power720Server(config=config, seed=seed)


def active_mean_frequency(point: ServerOperatingPoint) -> float:
    """Mean clock over the cores that ran threads when ``point`` settled.

    Contract
    --------
    * At least one active core: the mean clock of exactly those cores, as
      recorded in each solution's ``active_core_ids`` at solve time.
    * Fully idle server: there is no active core to average, so the
      explicit idle frequency is returned — the mean clock of every parked
      core across *all* sockets.  (Earlier versions silently substituted
      the socket-0 mean, which mislabelled idle-placement results whenever
      the sockets parked at different clocks.)

    The operating point is self-contained: no live server state is
    consulted, so the function is valid for cached or deserialized points
    whose server has since been re-placed.
    """
    active: List[float] = []
    everything: List[float] = []
    for socket_point in point.sockets:
        solution = socket_point.solution
        everything.extend(solution.frequencies)
        active.extend(
            solution.frequencies[i] for i in solution.active_core_ids
        )
    if not active:
        return sum(everything) / len(everything)
    return sum(active) / len(active)


def _active_mean_frequency(
    server: Power720Server, point: ServerOperatingPoint
) -> float:
    """Back-compat shim: ``server`` is no longer consulted (see above)."""
    return active_mean_frequency(point)


def measure_consolidated(
    server: Power720Server,
    profile: WorkloadProfile,
    n_threads: int,
    mode: GuardbandMode,
    threads_per_core: int = 1,
    runtime_model: Optional[RuntimeModel] = None,
    f_target: Optional[float] = None,
) -> RunResult:
    """Static-vs-adaptive pair for a consolidated single-socket placement.

    All threads go to socket 0 (cores activated in succession from core 0,
    as in the paper's Sec. 4.2 procedure); socket 1 idles.  The server is
    cleared first.

    Thin wrapper over :func:`repro.api.measure` (the canonical
    implementation); kept for backwards compatibility.
    """
    from ..api import measure

    return measure(
        profile,
        mode=mode,
        n_threads=n_threads,
        threads_per_core=threads_per_core,
        server=server,
        runtime_model=runtime_model,
        f_target=f_target,
    )


def core_scaling_sweep(
    server: Power720Server,
    profile: WorkloadProfile,
    mode: GuardbandMode,
    core_counts: Sequence[int] = range(1, 9),
    runtime_model: Optional[RuntimeModel] = None,
) -> List[RunResult]:
    """The 1→8 active-core characterization sweep (Figs. 3–5)."""
    return [
        measure_consolidated(
            server, profile, n, mode, runtime_model=runtime_model
        )
        for n in core_counts
    ]


def measure_placement(
    server: Power720Server,
    profile: WorkloadProfile,
    share: SocketShare,
    mode: GuardbandMode,
    keep_on: Optional[Sequence[int]] = None,
    threads_per_core: int = 1,
    runtime_model: Optional[RuntimeModel] = None,
    f_target: Optional[float] = None,
) -> RunResult:
    """Static-vs-adaptive pair for an arbitrary two-socket placement.

    Parameters
    ----------
    share:
        How many threads land on each socket.
    keep_on:
        Per-socket count of cores to keep powered (others are gated); when
        omitted no core is gated — the Sec. 3 configuration.

    Thin wrapper over :func:`repro.api.measure` (the canonical
    implementation); kept for backwards compatibility.
    """
    from ..api import measure

    return measure(
        profile,
        mode=mode,
        placement=share,
        keep_on=keep_on,
        threads_per_core=threads_per_core,
        server=server,
        runtime_model=runtime_model,
        f_target=f_target,
    )
