"""Server construction and the active-core clock reading.

* :func:`build_server` — a fresh default two-socket server; the batch
  executor builds every settle's server through it.
* :func:`active_mean_frequency` — the mean clock of the cores that ran
  threads, the frequency every runtime estimate is evaluated at.

The measurement procedures themselves (Sec. 3 consolidated
characterization, two-socket placements, scheduler decisions) live
behind :func:`repro.api.measure` and :func:`repro.api.sweep`.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import ServerConfig
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
