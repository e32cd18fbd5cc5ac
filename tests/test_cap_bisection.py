"""`_settle_capped` bisection vs the reference linear DVFS walk.

The capped settle used to walk the DVFS table linearly from the top; it
now bisects (O(log n) settles per capped epoch).  Equivalence is not
obvious — the linear walk had a dynamic skip rule (candidates at or
above the current settle's slowest clock were passed over unprobed) and
a best-effort floor when nothing fits — so this suite sweeps caps across
the *entire* table for both adaptive guardband modes and demands the
exact same selected operating point, epoch for epoch.
"""

import pytest

from repro.fleet import FleetConfig, TrafficConfig
from repro.fleet.engine import FleetSimulation, clear_fleet_memos
from repro.fleet.settle_cache import configure_fleet_settle_cache
from repro.guardband import GuardbandMode
from repro.core.placement import Placement, ThreadGroup
from repro.workloads import get_profile


@pytest.fixture(autouse=True)
def _fresh_cache():
    configure_fleet_settle_cache()
    clear_fleet_memos()
    yield
    configure_fleet_settle_cache()
    clear_fleet_memos()


@pytest.fixture(scope="module")
def sim() -> FleetSimulation:
    config = FleetConfig(
        n_servers=1,
        traffic=TrafficConfig(duration_seconds=3600.0, jobs_per_hour=10.0),
        seed=7,
    )
    return FleetSimulation(config)


@pytest.fixture(scope="module")
def placement() -> Placement:
    """A busy two-socket placement (the shape the scheduler emits)."""
    return Placement(
        groups=(
            (ThreadGroup(get_profile("lu_cb"), 6),),
            (ThreadGroup(get_profile("raytrace"), 4),),
        ),
        keep_on=(6, 4),
        threads_per_core=1,
    )


def _settle_capped_linear(sim, placement, mode, cap_w):
    """Reference linear descending cap walk (pre-bisection semantics).

    The adjudicator for the equivalence property below:
    ``sim._settle_capped`` must select the exact same point for every
    cap and mode.
    """
    result = sim._settle(placement, mode)
    if cap_w is None or result.adaptive.point.server_power <= cap_w:
        return result, False
    for frequency in sim._cap_walk_frequencies():
        if frequency >= result.adaptive.point.min_frequency:
            continue  # not slower than the current settle
        result = sim._settle(placement, mode, frequency)
        if result.adaptive.point.server_power <= cap_w:
            break
    return result, True


def _sweep_caps(sim, placement, mode):
    """Cap values probing every decision boundary of the DVFS table."""
    uncapped = sim._settle(placement, mode)
    powers = [uncapped.adaptive.point.server_power]
    for frequency in sim._cap_walk_frequencies():
        settled = sim._settle(placement, mode, frequency)
        powers.append(settled.adaptive.point.server_power)
    caps = []
    for power in powers:
        caps.extend([power - 1e-6, power, power + 1e-6])
    caps.append(min(powers) * 0.5)   # nothing fits: best-effort floor
    caps.append(max(powers) * 2.0)   # everything fits: uncapped path
    return caps


@pytest.mark.parametrize(
    "mode", [GuardbandMode.UNDERVOLT, GuardbandMode.OVERCLOCK]
)
class TestBisectionMatchesLinearWalk:
    def test_full_table_sweep(self, sim, placement, mode):
        for cap_w in _sweep_caps(sim, placement, mode):
            fast, fast_throttled = sim._settle_capped(placement, mode, cap_w)
            ref, ref_throttled = _settle_capped_linear(
                sim, placement, mode, cap_w
            )
            assert fast_throttled == ref_throttled, f"cap={cap_w}"
            # Settles are cached by coordinate, so "the same selected
            # point" means the very same result object.
            assert fast is ref, (
                f"cap={cap_w}: bisection selected "
                f"{fast.adaptive.point.min_frequency / 1e6:.0f} MHz "
                f"({fast.adaptive.point.server_power:.2f} W), linear "
                f"{ref.adaptive.point.min_frequency / 1e6:.0f} MHz "
                f"({ref.adaptive.point.server_power:.2f} W)"
            )

    def test_uncapped_is_untouched(self, sim, placement, mode):
        result, throttled = sim._settle_capped(placement, mode, None)
        assert not throttled
        assert result is sim._settle(placement, mode)

    def test_floor_when_nothing_fits(self, sim, placement, mode):
        floor_freq = sim._cap_walk_frequencies()[-1]
        floor = sim._settle(placement, mode, floor_freq)
        impossible = floor.adaptive.point.server_power * 0.5
        result, throttled = sim._settle_capped(placement, mode, impossible)
        assert throttled
        assert result.adaptive.point.server_power > impossible
        assert result is floor

    def test_bisection_settles_fewer_points(self, sim, placement, mode):
        """O(log n): a mid-table cap must not settle the whole menu."""
        table = sim._cap_walk_frequencies()
        mid = sim._settle(placement, mode, table[len(table) // 2])
        cap_w = mid.adaptive.point.server_power
        configure_fleet_settle_cache()
        clear_fleet_memos()
        before = sim.settle_seconds
        counted = []
        original = sim._settle

        def counting(placement_, mode_, f_target=None):
            counted.append(f_target)
            return original(placement_, mode_, f_target)

        sim._settle = counting
        try:
            sim._settle_capped(placement, mode, cap_w)
        finally:
            sim._settle = original
            sim.settle_seconds = before
        # 1 uncapped + ceil(log2(n)) probes + 1 cached re-settle.
        n = len(table)
        assert len(counted) <= 2 + n.bit_length()
