"""Sudden-brake scenario execution: collisions, blame, determinism, config files."""

import pytest

from sdcap import (
    BrakeTrigger,
    ConfigError,
    DeviationSet,
    InvalidInputError,
    InvalidParameterError,
    LatencyModel,
    RoadSpec,
    ScenarioConfig,
    SpawnSpec,
    Trace,
    VehicleParams,
    corrected_safe_distance,
    road_safe,
    run_scenario,
    safe_longitudinal_distance,
    scenario_from_text,
    scenario_summary,
    sdt,
)
from sdcap.ltl import traces_to_csv
from sdcap.simulator import info_source_labels, link_resolutions
from conftest import REFERENCE

D_SAFE = safe_longitudinal_distance(REFERENCE, REFERENCE, 0.5)


def single_lane(gaps, *, params=REFERENCE, triggers=((0, 0, 0.0),), dt=1e-3,
                mode="pbv", dev=None, latency=None, seed=0, delays=()):
    delay_map = dict(delays)
    spawns = [SpawnSpec(params, None, delay_map.get(0, 0.0))]
    for k, gap in enumerate(gaps, start=1):
        spawns.append(SpawnSpec(params, gap, delay_map.get(k, 0.0)))
    return ScenarioConfig(
        road=RoadSpec(10.0, 1, 100.0),
        lanes=(tuple(spawns),),
        triggers=tuple(BrakeTrigger(*t) for t in triggers),
        mode=mode,
        dev=dev if dev is not None else DeviationSet(),
        latency=latency if latency is not None else LatencyModel.constant(0.0),
        dt=dt,
        rng_seed=seed,
    )


def min_pair_gap(summary):
    return min(summary["min_gaps_m"].values())


def test_two_vehicles_at_safe_distance_never_collide():
    cfg = single_lane([D_SAFE])
    traces = run_scenario(cfg)
    summary = scenario_summary(traces, cfg)
    assert summary["collisions"] == []
    assert summary["road_safe"] is True
    assert summary["sdt"] == 2
    tolerance = max(1e-2, REFERENCE.speed * cfg.dt)
    assert abs(min_pair_gap(summary) - REFERENCE.length) <= tolerance


def test_two_vehicles_below_safe_distance_collide_with_rear_blamed():
    cfg = single_lane([0.9 * D_SAFE])
    traces = run_scenario(cfg)
    summary = scenario_summary(traces, cfg)
    assert len(summary["collisions"]) == 1
    assert summary["responsible"] == ["l0v1"]
    assert summary["road_safe"] is False
    assert summary["sdt"] == 1
    rear = next(t for t in traces if t.vehicle_id == "l0v1")
    hit = next(k for k, s in enumerate(rear.steps) if s.collided)
    assert all(s.responsible for s in rear.steps[hit:])
    assert not any(s.responsible for s in rear.steps[:hit])


def test_single_vehicle_is_trivially_safe():
    cfg = single_lane([])
    traces = run_scenario(cfg)
    summary = scenario_summary(traces, cfg)
    assert summary["sdt"] == 1
    assert summary["road_safe"] is True
    assert traces[0].steps[-1].velocity == 0.0


def test_chain_at_safe_spacing_stays_safe():
    cfg = single_lane([D_SAFE, D_SAFE, D_SAFE])
    traces = run_scenario(cfg)
    summary = scenario_summary(traces, cfg)
    assert summary["collisions"] == []
    assert summary["sdt"] == 4
    # interior pairs keep extra margin: each predecessor accelerates away
    # during its response window before braking
    gaps = summary["min_gaps_m"]
    assert gaps["l0v0->l0v1"] == pytest.approx(REFERENCE.length, abs=1e-2)
    assert gaps["l0v1->l0v2"] > REFERENCE.length + 1.0


def test_chain_with_deeply_shrunk_interior_gap_collides():
    cfg = single_lane([D_SAFE, 0.5 * D_SAFE, D_SAFE])
    traces = run_scenario(cfg)
    summary = scenario_summary(traces, cfg)
    assert any(c["rear"] == "l0v2" for c in summary["collisions"])
    assert "l0v2" in summary["responsible"]


def test_delayed_braking_at_safe_spacing_is_blamed():
    # Spacing is exactly safe, but the follower brakes 0.2 s late while
    # still accelerating: it must collide and carry the blame.
    cfg = single_lane([D_SAFE], delays=((1, 0.2),))
    traces = run_scenario(cfg)
    summary = scenario_summary(traces, cfg)
    assert len(summary["collisions"]) == 1
    assert summary["responsible"] == ["l0v1"]


def test_front_vehicle_of_a_collision_is_not_blamed():
    cfg = single_lane([0.9 * D_SAFE])
    traces = run_scenario(cfg)
    lead = next(t for t in traces if t.vehicle_id == "l0v0")
    assert not any(s.responsible for s in lead.steps)
    assert any(s.collided for s in lead.steps)


def test_identical_seeds_give_byte_identical_csv():
    cfg = single_lane([D_SAFE, 0.95 * D_SAFE], mode="cbv",
                      latency=LatencyModel.uniform(0.0, 0.05), seed=1234)
    first = traces_to_csv(run_scenario(cfg), info_source_labels(cfg))
    second = traces_to_csv(run_scenario(cfg), info_source_labels(cfg))
    assert first == second


def test_different_seeds_may_change_latency_draws():
    model = LatencyModel.uniform(0.0, 0.09)
    cfg_a = single_lane([D_SAFE], mode="cbv", latency=model, seed=1)
    cfg_b = single_lane([D_SAFE], mode="cbv", latency=model, seed=2)
    eta_a = link_resolutions(cfg_a)[(0, 1)][1]
    eta_b = link_resolutions(cfg_b)[(0, 1)][1]
    assert eta_a != eta_b


def test_dt_refinement_keeps_verdicts_off_the_critical_gap():
    for factor, expect_safe in ((1.05, True), (0.9, False)):
        verdicts = []
        for dt in (1e-3, 5e-4):
            cfg = single_lane([factor * D_SAFE], dt=dt)
            summary = scenario_summary(run_scenario(cfg), cfg)
            verdicts.append(summary["road_safe"])
        assert verdicts[0] == verdicts[1] == expect_safe


def test_cbv_timing_matches_corrected_distance():
    # response ratio 0.95 on a 0.4 s response plus 0.02 s latency gives an
    # effective 0.4 s; spacing at the corrected distance just touches.
    params = REFERENCE.with_response_time(0.4)
    dev = DeviationSet(response=0.95)
    eta = 0.02
    d_corr = corrected_safe_distance(params, params, dev, eta)
    cfg = single_lane([d_corr], params=params, mode="cbv", dev=dev,
                      latency=LatencyModel.constant(eta))
    summary = scenario_summary(run_scenario(cfg), cfg)
    assert summary["collisions"] == []
    assert abs(min_pair_gap(summary) - params.length) <= 1e-2

    cfg_tight = single_lane([0.9 * d_corr], params=params, mode="cbv", dev=dev,
                            latency=LatencyModel.constant(eta))
    summary_tight = scenario_summary(run_scenario(cfg_tight), cfg_tight)
    assert len(summary_tight["collisions"]) == 1
    assert summary_tight["responsible"] == ["l0v1"]


def test_cbv_latency_beyond_timeout_falls_back_to_defaults():
    params = REFERENCE.with_response_time(0.4)
    cfg = single_lane([D_SAFE], params=params, mode="cbv",
                      latency=LatencyModel.constant(0.5))
    labels = info_source_labels(cfg)
    assert labels["l0v1"] == "defaults"
    resolution, _ = link_resolutions(cfg)[(0, 1)]
    assert resolution.effective_tau == params.response_time


def test_cbv_response_provenance_recorded():
    cfg = single_lane([D_SAFE], mode="cbv", latency=LatencyModel.constant(0.01))
    labels = info_source_labels(cfg)
    assert labels == {"l0v0": "none", "l0v1": "response"}


def test_per_step_acceleration_stays_within_vehicle_limits():
    # Outside the instant collision stop, the velocity change per step never
    # exceeds what the strongest actuator could produce.
    for gaps in ([D_SAFE, D_SAFE], [0.9 * D_SAFE]):
        cfg = single_lane(gaps)
        limit = max(REFERENCE.max_accel, REFERENCE.max_brake) * cfg.dt + 1e-9
        for trace in run_scenario(cfg):
            for before, after in zip(trace.steps, trace.steps[1:]):
                if after.collided:
                    continue
                assert abs(after.velocity - before.velocity) <= limit


def test_delayed_trigger_cruises_first():
    cfg = single_lane([D_SAFE], triggers=((0, 0, 1.0),))
    traces = run_scenario(cfg)
    lead = next(t for t in traces if t.vehicle_id == "l0v0")
    settle = int(1.0 / cfg.dt)
    assert all(s.velocity == REFERENCE.speed for s in lead.steps[:settle])
    assert not any(s.ber_active for s in lead.steps[:settle])
    assert lead.steps[-1].velocity == 0.0
    summary = scenario_summary(traces, cfg)
    assert summary["road_safe"] is True


def test_triggered_mid_chain_leaves_vehicles_ahead_cruising():
    cfg = single_lane([D_SAFE, D_SAFE], triggers=((0, 1, 0.0),))
    traces = run_scenario(cfg)
    summary = scenario_summary(traces, cfg)
    lead = next(t for t in traces if t.vehicle_id == "l0v0")
    assert all(s.velocity == REFERENCE.speed for s in lead.steps)
    assert not any(s.ber_active for s in lead.steps)
    assert summary["road_safe"] is True


def test_config_validation_errors():
    with pytest.raises(InvalidParameterError):
        single_lane([4.0])  # spawn gap below a body length
    with pytest.raises(InvalidParameterError):
        single_lane([D_SAFE], triggers=())
    with pytest.raises(InvalidParameterError):
        single_lane([D_SAFE], triggers=((0, 5, 0.0),))
    with pytest.raises(InvalidParameterError):
        single_lane([D_SAFE], triggers=((0, 0, -1.0),))
    other = VehicleParams(5.0, 9.0, 3.0, 20.0, 0.5)
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(
            road=RoadSpec(10.0, 1, 100.0),
            lanes=((SpawnSpec(REFERENCE), SpawnSpec(other, D_SAFE)),),
            triggers=(BrakeTrigger(0, 0, 0.0),),
        )
    with pytest.raises(InvalidParameterError):
        ScenarioConfig(
            road=RoadSpec(10.0, 2, 100.0),
            lanes=((SpawnSpec(REFERENCE),),),  # lane count mismatch
            triggers=(BrakeTrigger(0, 0, 0.0),),
        )


CONFIG_TEXT = f"""
# two lanes at the computed safe spacing
mode = pbv
dt = 0.001
seed = 11
road.length_km = 10
road.lanes = 2
road.min_speed_kmh = 100
vehicle.length = 5
vehicle.max_brake = 9
vehicle.max_accel = 3
vehicle.speed = 27.78
vehicle.response_time = 0.5
lane.0.gaps = {D_SAFE!r}
lane.1.gaps = {D_SAFE!r}
trigger = 0, 0, 0.0
trigger = 1, 0, 0.0
"""


def test_scenario_config_file_round_trip():
    cfg = scenario_from_text(CONFIG_TEXT)
    assert cfg.mode == "pbv"
    assert cfg.rng_seed == 11
    assert len(cfg.lanes) == 2
    assert cfg.lanes[0][1].gap_to_predecessor == pytest.approx(D_SAFE)
    traces = run_scenario(cfg)
    assert road_safe(traces) is True
    assert sdt(traces) == 4


@pytest.mark.parametrize(
    "mutation, message",
    [
        ("vehicle.max_brake = 9", "duplicate key"),
        ("no equals sign here", "line"),
        ("latency = warp", "unknown latency"),
        ("trigger = 0, 0", "expected 3"),
        ("lane.zero.gaps = 10", "bad lane key"),
    ],
)
def test_config_file_errors_carry_line_diagnostics(mutation, message):
    with pytest.raises(ConfigError, match=message):
        scenario_from_text(CONFIG_TEXT + mutation + "\n")


def test_config_file_missing_required_key():
    broken = CONFIG_TEXT.replace("mode = pbv", "")
    with pytest.raises(ConfigError, match="mode"):
        scenario_from_text(broken)


def test_config_file_rejects_both_speed_spellings():
    with pytest.raises(ConfigError, match="not both"):
        scenario_from_text(CONFIG_TEXT + "vehicle.speed_kmh = 100\n")


def test_config_file_lane_must_exist():
    broken = CONFIG_TEXT.replace("lane.1.gaps", "lane.2.gaps")
    with pytest.raises(ConfigError, match="lane.1.gaps"):
        scenario_from_text(broken)


def test_summary_parameter_echo():
    cfg = single_lane([D_SAFE])
    summary = scenario_summary(run_scenario(cfg), cfg)
    assert summary["omega"] == 2
    assert summary["parameters"]["max_brake_mps2"] == 9.0
    assert summary["parameters"]["rng_seed"] == 0
    assert summary["info_sources"]["l0v1"] == "perception"


def test_summary_evaluates_the_safety_formula_once_per_vehicle(monkeypatch):
    import sdcap.ltl

    cfg = single_lane([0.9 * D_SAFE, D_SAFE])
    traces = run_scenario(cfg)
    calls = []
    original = sdcap.ltl.vehicle_safe
    monkeypatch.setattr(sdcap.ltl, "vehicle_safe",
                        lambda trace: calls.append(trace.vehicle_id) or original(trace))
    summary = scenario_summary(traces, cfg)
    assert sorted(calls) == ["l0v0", "l0v1", "l0v2"]
    assert summary["sdt"] == 2 and summary["road_safe"] is False
    assert summary["unsafe_vehicles"] == ["l0v1"]


def test_summary_rejects_traces_of_different_horizons():
    cfg = single_lane([D_SAFE])
    lead, rear = run_scenario(cfg)
    short = Trace(rear.vehicle_id, rear.steps[:-1], rear.dt)
    with pytest.raises(InvalidInputError, match="horizon"):
        scenario_summary([lead, short], cfg)
