"""The package's public surface: sdcap.__all__."""

import sdcap

# Every public name, sorted. A name added to or removed from the package
# shows up here as a deliberate diff.
PUBLIC = [
    "And",
    "Atom",
    "BrakeTrigger",
    "CapacityBoundReport",
    "CapacityReport",
    "ConfigError",
    "DeviationSet",
    "EvaluationError",
    "Finally",
    "Formula",
    "FormulaError",
    "Globally",
    "Implies",
    "InfoSource",
    "InvalidDeviationError",
    "InvalidInputError",
    "InvalidParameterError",
    "KMH_TO_MPS",
    "LATENCY_PRESETS",
    "LatencyModel",
    "Not",
    "Or",
    "OracleError",
    "Regime",
    "RoadSpec",
    "Run",
    "ScenarioConfig",
    "SdcapError",
    "SpawnSpec",
    "SweepGrid",
    "Trace",
    "TraceFlags",
    "VehicleParams",
    "VehicleState",
    "capacity_report",
    "check_capacity_bound",
    "corrected_params",
    "corrected_safe_distance",
    "effective_response_time",
    "evaluate",
    "expected_safe_distance",
    "max_speed_after_response",
    "min_safe_gap_oracle",
    "parse_formula",
    "read_traces_csv",
    "road_safe",
    "run_scenario",
    "safe_longitudinal_distance",
    "sample_latency",
    "scenario_from_file",
    "scenario_from_text",
    "scenario_summary",
    "sdc",
    "sdc_per_lane",
    "sdt",
    "time_to_stop_front",
    "time_to_stop_rear",
    "vehicle_safe",
    "write_traces_csv",
]


def test_all_is_sorted_unique_and_resolves():
    assert sdcap.__all__ == sorted(set(sdcap.__all__))
    missing = [name for name in sdcap.__all__ if not hasattr(sdcap, name)]
    assert not missing, missing


def test_all_is_the_listed_surface():
    assert sdcap.__all__ == PUBLIC
