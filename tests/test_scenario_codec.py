"""The scenario codec: strict loading and default-omitting dumping.

The malformed-document table pins every loader error byte for byte, so
a schema refactor cannot quietly reword (or reorder) what a user sees.
The round-trip grid sets every field of every spec to a non-default
value, one at a time, and requires ``loads(dumps(s)) == s``; its
coverage check fails when a spec grows a field the grid does not set.
"""

import dataclasses

import pytest

from repro.errors import ScenarioError
from repro.scenarios import (
    FaultPlanSpec,
    FaultWindowSpec,
    GoldenSpec,
    PolicySpec,
    Scenario,
    ServerGroupSpec,
    TopologySpec,
    TrafficSpec,
    WorkloadMixSpec,
    dumps,
    loads,
    scenario_to_document,
)

HEAD = '[scenario]\nname = "x"\n'

MALFORMED = [
    ("", "scenario file needs a [scenario] table"),
    ("[traffic]\njobs_per_hour = 5.0\n",
     "scenario file needs a [scenario] table"),
    ("scenario = 3\n", "[scenario] must be a table, got int"),
    (HEAD + "nme = \"y\"\n", "unknown key(s) in [scenario]: nme"),
    (HEAD + "[extra]\nx = 1\n", "unknown key(s): extra"),
    (HEAD + "[traffic]\njob_per_hour = 5.0\nzeta = 1\n",
     "unknown key(s) in [traffic]: job_per_hour, zeta"),
    (HEAD + "[traffic.extra]\nx = 1\n",
     "unknown key(s) in [traffic]: extra"),
    (HEAD + "[traffic.jobs_per_hour]\nx = 1\n",
     "traffic.jobs_per_hour must be int/float, got dict"),
    (HEAD + '[[topology.groups]]\nname = "a"\nservrs = 2\n',
     "unknown key(s) in [topology.groups[0]]: servrs"),
    (HEAD + '[[faults.windows]]\nkind = "cpm_drop"\n'
     "[[faults.windows]]\nkidn = 1\n",
     "unknown key(s) in [faults.windows[1]]: kidn"),
    (HEAD + "[traffic]\njobs_per_hour = true\n",
     "traffic.jobs_per_hour must not be a boolean"),
    (HEAD + '[traffic]\njobs_per_hour = "fast"\n',
     "traffic.jobs_per_hour must be int/float, got str"),
    (HEAD + "[policy]\nserver_power_cap_w = false\n",
     "policy.server_power_cap_w must not be a boolean"),
    (HEAD + "[golden]\nsaving_fraction_min = \"0.1\"\n",
     "golden.saving_fraction_min must be int/float, got str"),
    (HEAD + "[[topology.groups]]\nservers = 2.5\n",
     "topology.groups[0].servers must be int, got float"),
    (HEAD + "[golden]\nn_arrivals = 3.0\n",
     "golden.n_arrivals must be int, got float"),
    ('[scenario]\nseed = 1.5\n', "scenario.seed must be int, got float"),
    ("[scenario]\nname = 5\n", "scenario.name must be str, got int"),
    ("[scenario]\nseed = true\n", "scenario.seed must not be a boolean"),
    (HEAD + "[[topology.groups]]\ncell_servers = 2.0\n",
     "topology.groups[0].cell_servers must be int, got float"),
    (HEAD + "[[faults.windows]]\nall_servers = 1\n",
     "faults.windows[0].all_servers must be bool, got int"),
    (HEAD + "[[faults.windows]]\ngroup = true\n",
     "faults.windows[0].group must not be a boolean"),
    (HEAD + '[mix]\nlc_profiles = "perl"\n',
     "mix.lc_profiles must be an array, got str"),
    (HEAD + "[scenario.tags]\nx = 1\n",
     "scenario.tags must be an array, got dict"),
    ('[scenario]\ntags = "slow"\n', "scenario.tags must be an array, got str"),
    (HEAD + "[faults]\nwindows = 3\n",
     "faults.windows must be an array of tables"),
    (HEAD + "[faults]\nwindows = [1, 2]\n",
     "[faults.windows[0]] must be a table, got int"),
    ("traffic = 5\n" + HEAD, "[traffic] must be a table, got int"),
    # The spec validates before its leftover keys are reported.
    (HEAD + "[traffic]\njobs_per_hour = -1.0\nbogus = 1\n",
     "traffic.jobs_per_hour must be positive"),
    (HEAD + "[traffic]\nduration_seconds = 60.0\n"
     "[[faults.windows]]\nstart_seconds = 120.0\n[extra]\n",
     "fault server_crash at t=120s opens at or beyond the 60s "
     "scenario horizon"),
    ("[scenario\n",
     "invalid scenario TOML: line 1: malformed [table] header"),
]


class TestStrictLoader:
    @pytest.mark.parametrize(
        "text, message", MALFORMED, ids=[m for _, m in MALFORMED]
    )
    def test_malformed_document_message(self, text, message):
        with pytest.raises(ScenarioError) as caught:
            loads(text)
        assert str(caught.value) == message

    def test_ints_are_accepted_for_float_keys(self):
        scenario = loads(HEAD + "[traffic]\njobs_per_hour = 30\n")
        assert scenario.traffic.jobs_per_hour == 30

    def test_empty_group_array_keeps_the_default_topology(self):
        scenario = loads(HEAD + "[topology]\ngroups = []\n")
        assert scenario.topology == TopologySpec()


_TABLE_OF = {
    TrafficSpec: "traffic",
    WorkloadMixSpec: "mix",
    TopologySpec: "topology",
    PolicySpec: "policy",
    FaultPlanSpec: "faults",
    GoldenSpec: "golden",
}


def _scenario_with(cls, kwargs) -> Scenario:
    """A default scenario with one spec built from ``kwargs``."""
    if cls is Scenario:
        return Scenario(**kwargs)
    if cls is ServerGroupSpec:
        groups = (ServerGroupSpec(**kwargs),)
        return Scenario(topology=TopologySpec(groups=groups))
    if cls is FaultWindowSpec:
        windows = (FaultWindowSpec(**kwargs),)
        return Scenario(faults=FaultPlanSpec(windows=windows))
    return Scenario(**{_TABLE_OF[cls]: cls(**kwargs)})


#: ``(spec class, non-default field values)`` — one field at a time,
#: plus the companion ``kind`` a kind-specific window field needs.
ROUND_TRIP = [
    (Scenario, {"name": "other"}),
    (Scenario, {"description": "a study"}),
    (Scenario, {"seed": 8}),
    (Scenario, {"tags": ("slow", "x")}),
    (TrafficSpec, {"duration_seconds": 7200.0}),
    (TrafficSpec, {"jobs_per_hour": 30.0}),
    (TrafficSpec, {"diurnal_amplitude": 0.3}),
    (TrafficSpec, {"peak_time_seconds": 3600.0}),
    (TrafficSpec, {"lc_fraction": 0.4}),
    (TrafficSpec, {"surges": ((600.0, 60.0, 2.0), (900.0, 30.0, 0.5))}),
    (WorkloadMixSpec, {"lc_profiles": ("perl",)}),
    (WorkloadMixSpec, {"batch_profiles": ("fft",)}),
    (WorkloadMixSpec, {"lc_threads": (1,)}),
    (WorkloadMixSpec, {"batch_threads": (4,)}),
    (WorkloadMixSpec, {"lc_service_mean": 100.0}),
    (WorkloadMixSpec, {"batch_service_mean": 200.0}),
    (WorkloadMixSpec, {"service_floor": 30.0}),
    (ServerGroupSpec, {"name": "g"}),
    (ServerGroupSpec, {"servers": 3}),
    (ServerGroupSpec, {"age_years": 2.0}),
    (ServerGroupSpec, {"cell_servers": 2}),
    (ServerGroupSpec, {"cap_gain": 0.7}),
    (TopologySpec, {"groups": (ServerGroupSpec(name="a"),
                               ServerGroupSpec(name="b", servers=1))}),
    (TopologySpec, {"aging_end_of_life_shift": 0.03}),
    (TopologySpec, {"aging_lifetime_years": 8.0}),
    (TopologySpec, {"aging_exponent": 0.5}),
    (PolicySpec, {"policy": "consolidation"}),
    (PolicySpec, {"qos_frequency_fraction": 1.0}),
    (PolicySpec, {"power_off_hysteresis_seconds": 60.0}),
    (PolicySpec, {"utilization_threshold": 0.7}),
    (PolicySpec, {"server_power_cap_w": 200.0}),
    (PolicySpec, {"fleet_power_budget_w": 500.0}),
    (PolicySpec, {"power_cap_interval_seconds": 30.0}),
    (PolicySpec, {"power_cap_gain": 0.8}),
    (PolicySpec, {"pdn_backend": "flexwatts"}),
    (FaultWindowSpec, {}),
    (FaultWindowSpec, {"kind": "cpm_drop"}),
    (FaultWindowSpec, {"start_seconds": 100.0}),
    (FaultWindowSpec, {"duration_seconds": 60.0}),
    (FaultWindowSpec, {"group": "fleet"}),
    (FaultWindowSpec, {"server": 1}),
    (FaultWindowSpec, {"all_servers": True}),
    (FaultWindowSpec, {"socket": 1}),
    (FaultWindowSpec, {"repair_seconds": 30.0}),
    (FaultWindowSpec, {"kind": "job_kill", "job_id": 3}),
    (FaultWindowSpec, {"kind": "cpm_stuck", "code": 5}),
    (FaultWindowSpec, {"kind": "cpm_noise", "amplitude_bits": 8}),
    (FaultWindowSpec, {"kind": "vrm_droop", "depth_volts": 0.05}),
    (FaultWindowSpec, {"kind": "loadline_excursion", "factor": 3.0}),
    # Fields that do not belong to the window's kind still round-trip.
    (FaultWindowSpec, {"kind": "cpm_stuck", "amplitude_bits": 8}),
    (FaultWindowSpec, {"kind": "job_kill", "job_id": 0, "socket": 1}),
    (FaultWindowSpec, {"kind": "vrm_droop", "code": 5}),
    (FaultPlanSpec, {"windows": (FaultWindowSpec(kind="cpm_drop"),
                                 FaultWindowSpec(start_seconds=50.0))}),
    (FaultPlanSpec, {"seed": 9}),
    (GoldenSpec, {"event_log_hash": "ab" * 32}),
    (GoldenSpec, {"n_arrivals": 5}),
    (GoldenSpec, {"n_completions": 5}),
    (GoldenSpec, {"qos_violations_max": 0}),
    (GoldenSpec, {"n_server_crashes": 1}),
    (GoldenSpec, {"n_job_kills": 1}),
    (GoldenSpec, {"n_requeues_min": 2}),
    (GoldenSpec, {"saving_fraction_min": 0.1}),
    (GoldenSpec, {"saving_fraction_max": 0.3}),
    (GoldenSpec, {"total_fallback_seconds_min": 10.0}),
    (GoldenSpec, {"total_fallback_seconds_max": 20.0}),
    (GoldenSpec, {"adaptive_energy_kwh_min": 1.0}),
    (GoldenSpec, {"adaptive_energy_kwh_max": 2.0}),
    (GoldenSpec, {"cap_exceeded_epochs_max": 0}),
    (GoldenSpec, {"cap_tracking_error_max": 0.05}),
]


def _case_id(case) -> str:
    cls, kwargs = case
    return f"{cls.__name__}." + "+".join(kwargs or ["default"])


class TestRoundTrip:
    @pytest.mark.parametrize("cls, kwargs", ROUND_TRIP,
                             ids=[_case_id(c) for c in ROUND_TRIP])
    def test_loads_dumps_is_identity(self, cls, kwargs):
        scenario = _scenario_with(cls, kwargs)
        text = dumps(scenario)
        assert loads(text) == scenario
        assert dumps(loads(text)) == text

    def test_grid_sets_every_field(self):
        specs = (Scenario, ServerGroupSpec, FaultWindowSpec) + tuple(_TABLE_OF)
        for cls in specs:
            covered = {
                name for case_cls, kwargs in ROUND_TRIP
                if case_cls is cls for name in kwargs
            }
            declared = {f.name for f in dataclasses.fields(cls)}
            missing = declared - covered - set(_TABLE_OF.values())
            assert not missing, f"{cls.__name__}: {sorted(missing)}"

    def test_default_scenario_dumps_to_its_header(self):
        assert dumps(Scenario()) == "[scenario]\n"

    def test_keys_equal_to_their_defaults_are_omitted(self):
        scenario = Scenario(
            name="s",
            traffic=TrafficSpec(jobs_per_hour=30.0),
            policy=PolicySpec(pdn_backend="power7"),
        )
        assert scenario_to_document(scenario) == {
            "scenario": {"name": "s"},
            "traffic": {"jobs_per_hour": 30.0},
        }
