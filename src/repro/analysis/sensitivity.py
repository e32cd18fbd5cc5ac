"""One-at-a-time parameter sensitivity of the headline metrics.

Which model parameters actually drive the reproduced results?  The
sensitivity sweep perturbs each calibrated parameter by a relative factor
(default ±25%), re-measures a headline metric, and reports the swing — a
tornado analysis.  Useful both as documentation (what the calibration in
DESIGN.md §4 really pins down) and as a regression tripwire: a parameter
whose influence collapses usually means a code path stopped consuming it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..api import measure
from ..config import DidtConfig, PdnConfig, ServerConfig
from ..errors import ReproError
from ..guardband import GuardbandMode

#: The PDN/noise parameters the tornado sweeps, with access paths.
SWEPT_PARAMETERS = (
    "r_loadline",
    "r_ir_shared",
    "r_ir_local",
    "ripple_single_core",
    "droop_single_core",
    "droop_alignment_gain",
)


@dataclass(frozen=True)
class SensitivityRow:
    """One parameter's tornado entry."""

    parameter: str

    #: Metric value with the parameter scaled down.
    low: float

    #: Metric value at the calibrated default.
    nominal: float

    #: Metric value with the parameter scaled up.
    high: float

    @property
    def swing(self) -> float:
        """Total metric range across the perturbation."""
        return abs(self.high - self.low)


def _perturbed_config(parameter: str, scale: float) -> ServerConfig:
    """A default server config with one parameter scaled."""
    pdn = PdnConfig()
    didt_fields = {f.name for f in dataclasses.fields(DidtConfig)}
    if parameter in didt_fields:
        value = getattr(pdn.didt, parameter) * scale
        return ServerConfig(
            pdn=dataclasses.replace(
                pdn, didt=dataclasses.replace(pdn.didt, **{parameter: value})
            )
        )
    pdn_fields = {f.name for f in dataclasses.fields(PdnConfig)}
    if parameter in pdn_fields:
        value = getattr(pdn, parameter) * scale
        return ServerConfig(pdn=dataclasses.replace(pdn, **{parameter: value}))
    raise ReproError(f"unknown swept parameter {parameter!r}")


def saving_metric(n_threads: int) -> Callable[[ServerConfig], float]:
    """Metric factory: raytrace undervolt saving (%) at ``n_threads``."""

    def metric(config: ServerConfig) -> float:
        result = measure(
            "raytrace",
            n_threads=n_threads,
            mode=GuardbandMode.UNDERVOLT,
            config=config,
        )
        s0s = result.static.point.socket_point(0)
        s0a = result.adaptive.point.socket_point(0)
        return (1 - s0a.chip_power / s0s.chip_power) * 100

    return metric


def tornado(
    metric: Optional[Callable[[ServerConfig], float]] = None,
    parameters: tuple = SWEPT_PARAMETERS,
    scale: float = 0.25,
) -> List[SensitivityRow]:
    """Run the one-at-a-time sweep, largest swing first.

    Parameters
    ----------
    metric:
        Callable from a :class:`ServerConfig` to the metric value; defaults
        to the eight-core raytrace undervolt saving.
    scale:
        Relative perturbation (0.25 = ±25%).
    """
    if not 0 < scale < 1:
        raise ReproError(f"scale must be in (0, 1), got {scale}")
    metric = metric or saving_metric(8)
    nominal = metric(ServerConfig())
    rows = []
    for parameter in parameters:
        low = metric(_perturbed_config(parameter, 1.0 - scale))
        high = metric(_perturbed_config(parameter, 1.0 + scale))
        rows.append(
            SensitivityRow(parameter=parameter, low=low, nominal=nominal, high=high)
        )
    rows.sort(key=lambda r: r.swing, reverse=True)
    return rows


def tornado_table(rows: List[SensitivityRow]) -> str:
    """Render tornado rows as a fixed-width text table."""
    lines = [f"{'parameter':>22} {'-25%':>8} {'nominal':>8} {'+25%':>8} {'swing':>7}"]
    for row in rows:
        lines.append(
            f"{row.parameter:>22} {row.low:>8.2f} {row.nominal:>8.2f} "
            f"{row.high:>8.2f} {row.swing:>7.2f}"
        )
    return "\n".join(lines)
