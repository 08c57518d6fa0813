"""Sudden-brake scenario execution: collisions, blame, determinism, config files."""

import gc
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdcap import (
    BrakeTrigger,
    ConfigError,
    DeviationSet,
    InvalidInputError,
    InvalidParameterError,
    LatencyModel,
    Regime,
    RoadSpec,
    Run,
    ScenarioConfig,
    SdcapError,
    SpawnSpec,
    Trace,
    VehicleParams,
    corrected_safe_distance,
    road_safe,
    run_scenario,
    scenario_from_text,
    scenario_summary,
    sdt,
    vehicle_safe,
)
from sdcap.capacity import safe_distance
from sdcap.ltl import first_bad_sample
from sdcap.protocol import InfoSource
from sdcap.simulator import Link, info_source_labels, link_resolutions
from conftest import (
    D_SAFE,
    REFERENCE,
    dense_chains,
    rear_end_pairs,
    reference_assign_responsibility,
    reference_run_scenario,
    scenarios,
    shared_lanes,
    trace_from_states,
    traces_to_csv,
)


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
    eta_a = link_resolutions(cfg_a)[(0, 1)].eta
    eta_b = link_resolutions(cfg_b)[(0, 1)].eta
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
    link = link_resolutions(cfg)[(0, 1)]
    assert link.source is InfoSource.DEFAULTS
    assert link.effective_tau == params.response_time


def test_cbv_response_provenance_recorded():
    cfg = single_lane([D_SAFE], mode="cbv", latency=LatencyModel.constant(0.01))
    labels = info_source_labels(cfg)
    assert labels == {"l0v0": "none", "l0v1": "response"}


def test_link_resolutions_cover_perception_response_and_timeout():
    params = REFERENCE.with_response_time(0.4)
    dev = DeviationSet(response=0.95)
    pbv = single_lane([D_SAFE, D_SAFE], params=params)
    assert link_resolutions(pbv) == {
        (0, 1): Link(InfoSource.PERCEPTION, 0.4, 0.0),
        (0, 2): Link(InfoSource.PERCEPTION, 0.4, 0.0),
    }
    # A uniform draw on [0, 0.2] against the 0.1 s timeout: seed 3 draws
    # one latency on each side of it.
    cbv = single_lane([D_SAFE, D_SAFE], params=params, mode="cbv", dev=dev,
                      latency=LatencyModel.uniform(0.0, 0.2), seed=3)
    links = link_resolutions(cbv)
    response = next(link for link in links.values() if link.eta <= 0.1)
    timeout = next(link for link in links.values() if link.eta > 0.1)
    assert response.source is InfoSource.RESPONSE
    assert response.effective_tau == 0.95 * 0.4 + response.eta
    assert timeout.source is InfoSource.DEFAULTS
    assert timeout.effective_tau == 0.4
    assert info_source_labels(cbv) == {
        "l0v0": "none",
        **{f"l0v{idx}": link.source.value for (_, idx), link in links.items()},
    }


@pytest.mark.parametrize("dt", [1e-3, 1e-2])
@pytest.mark.parametrize(
    "mode, tau0, e_tau, eta",
    [("pbv", 0.5, 1.0, 0.0)]
    + [("cbv", 0.4, e_tau, eta) for e_tau in (0.9, 1.0) for eta in (0.001, 0.02, 0.09)],
)
def test_lane_packed_at_the_safe_distance_closes_without_contact(mode, tau0, e_tau, eta, dt):
    # The check behind the SDC count: a 12-car lane spaced at safe_distance
    # whose lead brakes ends with no contact and every car safe, and each
    # follower stops about one length behind its front car. A link that
    # planned with too short a response time would stop farther back.
    params = REFERENCE.with_response_time(tau0)
    dev = DeviationSet(response=e_tau)
    gap = safe_distance(params, params, mode, dev, eta)
    cfg = single_lane([gap] * 11, params=params, dt=dt, mode=mode, dev=dev,
                      latency=LatencyModel.constant(eta))
    summary = scenario_summary(run_scenario(cfg), cfg)
    assert summary["collisions"] == []
    assert summary["sdt"] == summary["omega"] == 12
    assert abs(min_pair_gap(summary) - params.length) <= 1e-2


def test_cbv_blame_refuses_a_corrected_front_speed_that_overflows():
    # The cars never move with e_v, but blame's corrected distance does.
    dev = DeviationSet(front_speed=1e308, regime=Regime.UNCHECKED)
    cfg = single_lane([0.9 * D_SAFE], mode="cbv", dev=dev,
                      latency=LatencyModel.constant(0.001))
    with pytest.raises(InvalidParameterError, match="front stopping time is inf"):
        run_scenario(cfg)


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


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_blame_at_contact_time_matches_the_trace_scan_reference(cfg):
    traces = run_scenario(cfg)
    cleared = [
        Trace(
            t.vehicle_id,
            t.dt,
            position=t.position,
            velocity=t.velocity,
            ber=t.ber,
            collided=t.collided,
            responsible=np.zeros(len(t), dtype=bool),
        )
        for t in traces
    ]
    assert traces == reference_assign_responsibility(cleared, cfg)
    assert traces.contacts == rear_end_pairs(cleared, cfg)


def assert_bit_identical(traces, expected):
    assert [t.vehicle_id for t in traces] == [t.vehicle_id for t in expected]
    for got, want in zip(traces, expected):
        assert got.dt == want.dt
        for name in ("position", "velocity", "ber", "collided", "responsible"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(a, b), (got.vehicle_id, name)
            assert a.tobytes() == b.tobytes(), (got.vehicle_id, name)  # -0.0 too


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_time_axis_engine_matches_the_stepping_loop(cfg):
    run, reference = run_scenario(cfg), reference_run_scenario(cfg)
    assert_bit_identical(run, reference)
    assert run.contacts == reference.contacts
    assert run.info_sources == reference.info_sources


def test_chain_crash_of_a_dense_lane_matches_the_stepping_loop():
    # Every follower hits its predecessor, one contact after another: each
    # contact reschedules the rest of the lane.
    cfg = single_lane([0.5 * D_SAFE] * 29, dt=0.01)
    traces = run_scenario(cfg)
    assert_bit_identical(traces, reference_run_scenario(cfg))
    assert len(scenario_summary(traces, cfg)["collisions"]) == 29


def test_braking_past_a_short_halt_estimate_matches_the_scalar_steps():
    # A span row whose first span (1 s) is longer than the rest (10 ms).
    # The halt's estimate reads the first span alone, v / (brake * 1 s) + 2
    # steps, so the first accumulate of the speeds ends short of the halt
    # and a second one carries them on. Every sample must still be the
    # scalar `_advance`'s, stepped one step at a time, bit for bit.
    from sdcap.simulator import _VehicleRT, _advance, _brake

    times = np.concatenate(([0.0], 1.0 + 0.01 * np.arange(300)))
    spans = np.diff(times, prepend=0.0)
    hi = len(times) - 1
    vehicle = _VehicleRT(SpawnSpec(REFERENCE), None)
    vehicle.cause = vehicle.onset = 0.0  # braking from the first sample
    x, v = np.zeros(hi + 1), np.zeros(hi + 1)
    v[0] = REFERENCE.speed
    _brake(vehicle, x, v, 0, hi, spans, times)

    stepped = [(0.0, REFERENCE.speed)]
    for k in range(1, hi + 1):
        stepped.append(_advance(vehicle, *stepped[-1], float(times[k - 1]), float(times[k]), None))
    expected_x, expected_v = np.array(stepped).T
    estimate = int(REFERENCE.speed / (REFERENCE.max_brake * spans[1]) + 2)
    halt = int(np.flatnonzero(expected_v == 0)[0])
    assert estimate < halt < hi  # the second accumulate runs, and halts
    assert x.tobytes() == expected_x.tobytes()
    assert v.tobytes() == expected_v.tobytes()


def run_in_blocks(cfg, block):
    """run_scenario(cfg) computed in blocks of `block` steps."""
    import sdcap.simulator

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdcap.simulator, "_BLOCK_STEPS", block)
        return run_scenario(cfg)


def assert_block_sizes_match_the_stepping_loop(cfg):
    # Blocks of 1-3 steps put contacts, halts, speed caps and straddled
    # switches on block edges.
    reference = reference_run_scenario(cfg)
    summary = scenario_summary(reference, cfg)
    for block in (1, 2, 3, 64):
        run = run_in_blocks(cfg, block)
        assert_bit_identical(run, reference)
        assert run.contacts == reference.contacts
        assert scenario_summary(run, cfg) == summary


@settings(max_examples=12, deadline=None)
@given(scenarios())
def test_runs_in_any_block_size_match_the_stepping_loop(cfg):
    assert_block_sizes_match_the_stepping_loop(cfg)


@settings(max_examples=12, deadline=None)
@given(dense_chains())
def test_dense_chain_crashes_in_any_block_size_match_the_stepping_loop(cfg):
    assert_block_sizes_match_the_stepping_loop(cfg)


def assert_shared_lanes_match_the_stepping_loop(cfg):
    # A lane whose cars enter a block as an earlier lane's leading cars did
    # takes their facts: in blocks of 1-3 steps the shared prefixes change
    # from block to block, and the default block holds the whole run.
    assert_block_sizes_match_the_stepping_loop(cfg)
    reference, run = reference_run_scenario(cfg), run_scenario(cfg)
    assert_bit_identical(run, reference)
    assert run.contacts == reference.contacts
    assert (scenario_summary(run, cfg)["min_gaps_m"]
            == scenario_summary(reference, cfg)["min_gaps_m"])
    assert traces_to_csv(run, run.info_sources) == traces_to_csv(reference,
                                                                 reference.info_sources)


@settings(max_examples=25, deadline=None)
@given(shared_lanes())
def test_lanes_that_share_cars_match_the_stepping_loop(cfg):
    assert_shared_lanes_match_the_stepping_loop(cfg)


def lane_of(cars, gap=D_SAFE):
    """A lane of `cars` REFERENCE cars `gap` apart."""
    return (SpawnSpec(REFERENCE),) + (SpawnSpec(REFERENCE, gap),) * (cars - 1)


def road_of(*lanes, triggers=None, dt=0.01):
    """A PBV road of the given lanes, every lead braking at t = 0 unless
    `triggers` are given: the headline road's shape."""
    if triggers is None:
        triggers = [(lane, 0, 0.0) for lane in range(len(lanes))]
    return ScenarioConfig(road=RoadSpec(10.0, len(lanes), 100.0), lanes=lanes,
                          triggers=tuple(BrakeTrigger(*t) for t in triggers), dt=dt)


@pytest.mark.parametrize("cfg", [
    pytest.param(road_of(lane_of(6), lane_of(6), triggers=[(0, 0, 0.0), (1, 0, -0.0)]),
                 id="trigger-times-0.0-and-minus-0.0"),
    pytest.param(road_of(lane_of(6, 0.5 * D_SAFE), lane_of(6, 0.5 * D_SAFE)),
                 id="identical-lanes-that-collide-in-the-same-block"),
    pytest.param(road_of(lane_of(8), lane_of(7)), id="n-and-n-1-cars"),
    pytest.param(road_of(lane_of(7), lane_of(8)), id="n-1-and-n-cars"),
    pytest.param(road_of(lane_of(8), lane_of(2)), id="short-lane-halts-blocks-before"),
    pytest.param(road_of(lane_of(2), lane_of(8)), id="short-lane-first-halts-blocks-before"),
])
def test_shared_lane_examples_match_the_stepping_loop(cfg):
    assert_shared_lanes_match_the_stepping_loop(cfg)


def trajectory_calls(cfg, monkeypatch) -> Counter:
    """The `_trajectory` calls of run_scenario(cfg), by (lane, index)."""
    import sdcap.simulator

    start_run, trajectory = sdcap.simulator._start_run, sdcap.simulator._trajectory
    cars, calls = {}, Counter()

    def started(cfg):
        lanes, *rest = start_run(cfg)
        cars.update({id(veh): (lane_idx, idx)
                     for lane_idx, lane in enumerate(lanes) for idx, veh in enumerate(lane)})
        return (lanes, *rest)

    def counted(veh, *args):
        calls[cars.get(id(veh), "replayed")] += 1
        return trajectory(veh, *args)

    with monkeypatch.context() as patch:
        patch.setattr(sdcap.simulator, "_start_run", started)
        patch.setattr(sdcap.simulator, "_trajectory", counted)
        run_scenario(cfg)
    return calls


def test_a_lane_that_enters_each_block_as_another_computes_no_row(monkeypatch):
    # The second lane's cars enter each block as the first lane's leading
    # cars do, so it takes their facts and fills no row: two identical
    # 20-car lanes (the road_verify road), and lanes of 20 and 19 cars (the
    # headline road's shape), cost what the first lane alone does. Lanes
    # that differ only by a -0.0 trigger time differ in their keys' bits,
    # and share nothing.
    alone = trajectory_calls(road_of(lane_of(20), dt=1e-3), monkeypatch)
    assert sum(alone.values()) > 40
    for second in (20, 19):
        calls = trajectory_calls(road_of(lane_of(20), lane_of(second), dt=1e-3), monkeypatch)
        assert calls == alone
    signed = road_of(lane_of(20), lane_of(20), triggers=[(0, 0, 0.0), (1, 0, -0.0)], dt=1e-3)
    assert sum(trajectory_calls(signed, monkeypatch).values()) == 2 * sum(alone.values())


@pytest.mark.parametrize("change", ["gap", "delay", "trigger", "longer"])
def test_a_lane_changed_at_one_car_fills_rows_from_the_car_ahead_of_it_on(change, monkeypatch):
    # Lane 1 is lane 0 changed at car j. Its cars before j enter each block
    # as lane 0's do, so it fills only the rows of car j - 1 (the front of
    # car j) and on, in each block where they move: the rows it fills alone.
    # "longer" is lane 0 with a car added behind, in second place.
    j, gap = 7, 1.5 * D_SAFE
    base, changed, triggers = list(lane_of(12, gap)), list(lane_of(12, gap)), None
    if change == "gap":
        changed[j] = SpawnSpec(REFERENCE, 2.0 * D_SAFE)
    elif change == "delay":
        changed[j] = SpawnSpec(REFERENCE, gap, 0.2)
    elif change == "trigger":
        triggers = [(0, 0, 0.0), (1, 0, 0.0), (1, j, 1.0)]  # before its cause
    else:
        base, j = base[:-1], 11
    road = road_of(tuple(base), tuple(changed), triggers=triggers, dt=1e-3)
    calls = trajectory_calls(road, monkeypatch)
    first = trajectory_calls(road_of(tuple(base), dt=1e-3), monkeypatch)
    second = trajectory_calls(replace(road, road=RoadSpec(10.0, 1, 100.0), lanes=road.lanes[1:],
                                      triggers=[replace(t, lane=0) for t in road.triggers
                                                if t.lane == 1]), monkeypatch)
    assert not run_scenario(road).contacts
    assert {i: n for (lane, i), n in calls.items() if lane == 0} == {
        i: n for (_, i), n in first.items()}
    assert {i: n for (lane, i), n in calls.items() if lane == 1} == {
        i: n for (_, i), n in second.items() if i >= j - 1}
    assert all(second[(0, i)] for i in range(j - 1, 12))



def test_cars_standing_from_step_0_are_searched_for_contacts_in_the_first_block():
    # Three parked cars braking at t = 0, the last one spawned one body
    # length behind a car 1e8 m back: rounding its position leaves a gap
    # 6e-9 m short of a body length, which the stepping loop finds at step
    # 1. A pair standing still is skipped only once the block before has
    # searched its gap.
    fleet = replace(REFERENCE, speed=0.0, length=5.1)
    lane = (SpawnSpec(fleet), SpawnSpec(fleet, 1e8 + 0.1), SpawnSpec(fleet, 5.1))
    cfg = ScenarioConfig(road=RoadSpec(10.0, 1, 100.0), lanes=(lane,),
                         triggers=tuple(BrakeTrigger(0, i, 0.0) for i in range(3)), dt=0.01)
    assert run_scenario(cfg).contacts == [(0, 2, 1)]
    assert_block_sizes_match_the_stepping_loop(cfg)


def test_a_lane_whose_lead_does_not_brake_is_cut_at_the_run_s_last_step():
    # Lane 1 cruises past the run's last step, and its gap moves by rounding
    # alone, so its smallest gap is the stepping loop's only if its last
    # block's facts are retaken up to that step from replayed rows. A lane
    # whose lead brakes stands still from its halt on, and needs none.
    lanes = ((SpawnSpec(REFERENCE), SpawnSpec(REFERENCE, 10.0)),
             (SpawnSpec(REFERENCE), SpawnSpec(REFERENCE, 37.99)))
    cfg = ScenarioConfig(road=RoadSpec(10.0, 2, 100.0), lanes=lanes,
                         triggers=(BrakeTrigger(0, 0, 0.0),), dt=0.02)
    reference = reference_run_scenario(cfg)
    assert scenario_summary(run_scenario(cfg), cfg) == scenario_summary(reference, cfg)
    assert_block_sizes_match_the_stepping_loop(cfg)


def standing_and_moving_road(dt):
    """Lane 0: the lead brakes at t = 0 and car 5 at 0.2 s, so the lead
    stands still while car 1 closes on it, and cars 5-7 stand behind cars
    1-4 that still brake. Lane 1: car 2 brakes at 0.3 s behind two cars
    that cruise on. Lane 2: the lead brakes at t = 0, and its last car
    brakes 0.5 s late and hits the car ahead after the lead has halted
    (the block of the contact is computed in full rows)."""
    lanes = (
        (SpawnSpec(REFERENCE), *[SpawnSpec(REFERENCE, D_SAFE)] * 7),
        (SpawnSpec(REFERENCE), *[SpawnSpec(REFERENCE, D_SAFE)] * 4),
        (SpawnSpec(REFERENCE), *[SpawnSpec(REFERENCE, D_SAFE)] * 2,
         SpawnSpec(REFERENCE, D_SAFE, 0.5)),
    )
    triggers = (BrakeTrigger(0, 0, 0.0), BrakeTrigger(0, 5, 0.2), BrakeTrigger(1, 2, 0.3),
                BrakeTrigger(2, 0, 0.0))
    return ScenarioConfig(road=RoadSpec(10.0, 3, 100.0), lanes=lanes, triggers=triggers, dt=dt)


@pytest.mark.parametrize("dt, blocks", [(0.01, (1, 2, 3, 64)), (1e-3, (None,))])
def test_cars_standing_ahead_of_and_behind_moving_ones_match_the_stepping_loop(
        dt, blocks, monkeypatch):
    # A car standing still at a block's start is given to the pass as its
    # column 0 alone (None: the default block size). Its pairs' gaps, its
    # last sample and the halt must still be the stepping loop's.
    import sdcap.simulator

    cfg = standing_and_moving_road(dt)
    reference = reference_run_scenario(cfg)
    summary = scenario_summary(reference, cfg)
    assert summary["road_safe"] is False and len(summary["collisions"]) == 1
    text = traces_to_csv(reference, reference.info_sources)
    ring, standing = sdcap.simulator._Lane._ring, []

    def counted(self, *args):
        for x, v in ring(self, *args):
            standing.append(len(x) == 1)
            yield x, v

    monkeypatch.setattr(sdcap.simulator._Lane, "_ring", counted)
    for block in blocks:
        standing.clear()
        run = run_scenario(cfg) if block is None else run_in_blocks(cfg, block)
        assert any(standing) and not all(standing)
        assert_bit_identical(run, reference)
        assert run.contacts == reference.contacts
        assert scenario_summary(run, cfg) == summary  # min_gaps_m too
        assert traces_to_csv(run, run.info_sources) == text


_ODD_SAMPLES = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, 5e-324,
                                1e308, -1e308])


@st.composite
def sample_rows(draw):
    """Position and speed rows of 1-40 samples a trace accepts, with up to
    three samples replaced by odd or arbitrary floats."""
    n = draw(st.integers(1, 40))
    x = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    v = draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from((x, v)))
        row[draw(st.integers(0, n - 1))] = draw(st.one_of(_ODD_SAMPLES, st.floats()))
    return x, v


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(sample_rows())
@example(([1e308, 1e308], [0.0, 0.0]))  # rows whose sums overflow
@example(([0.0, 0.0], [1e308, 1e308]))
@example(([math.inf, -math.inf], [0.0, 0.0]))  # whose sum is NaN
@example(([0.0, -math.inf], [1.0, 1.0]))  # one refused sample each
@example(([0.0, math.inf], [1.0, 1.0]))
@example(([0.0, math.nan], [1.0, 1.0]))
@example(([0.0, 0.0], [1.0, math.inf]))
@example(([0.0, 0.0], [1.0, math.nan]))
@example(([0.0, 0.0], [1.0, -5e-324]))
@example(([0.0], [-0.0]))  # accepted
def test_the_fault_trigger_fires_on_every_row_with_a_refused_sample(rows):
    # A row the trigger passes is never searched for refused samples, so it
    # must not pass one that holds any; nor may it warn on huge or
    # non-finite samples. It passes every other row.
    from sdcap.simulator import _clean

    x, v = map(np.array, rows)
    assert bool(_clean(x, v)) is (first_bad_sample(x, v) is None)


_HUGE = st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 1e300, -1e300])


def cruise_row(x0, v0, dt, steps):
    """A car's rows through a block of `steps` steps of dt that it coasts
    through, from (x0, v0): `_trajectory` under a schedule that
    `_cruising` admits."""
    from sdcap.simulator import _VehicleRT, _cruising, _trajectory

    times = np.arange(steps + 1) * dt
    x, v = np.full(steps + 1, x0), np.full(steps + 1, v0)
    vehicle = _VehicleRT(SpawnSpec(REFERENCE), None)
    assert _cruising(vehicle, times[-1])
    with np.errstate(all="ignore"):
        _trajectory(vehicle, x, v, 0, steps, times, np.diff(times, prepend=0.0), None)
    return x, v


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(st.one_of(st.floats(-1e3, 1e3), _HUGE, _ODD_SAMPLES, st.floats()),
       st.one_of(st.floats(0.0, 1e3), _HUGE, _ODD_SAMPLES, st.floats()),
       st.floats(1e-3, 1e3), st.integers(1, 40))
@example(1.7e308, 1e306, 1.0, 40)  # the positions overflow partway through
@example(1e308, 1e308, 10.0, 3)  # so does the first increment
@example(0.0, -0.0, 1.0, 5)  # accepted
@example(-math.inf, 1.0, 1.0, 5)  # a refused x0
@example(math.nan, 1.0, 1.0, 5)
@example(0.0, -5e-324, 1.0, 5)  # a refused v0
@example(0.0, math.inf, 1.0, 5)
@example(0.0, math.nan, 1.0, 5)
def test_the_cruise_trigger_fires_on_every_cruise_row_with_a_refused_sample(x0, v0, dt, steps):
    # A row its car coasts through all block is checked in O(1), from x0,
    # v0 and the last position alone: the positions never decrease, so all
    # are finite if those are. It must fire whenever the row holds a
    # refused sample, without a warning, and pass every other row.
    from sdcap.simulator import _cruise_clean

    x, v = cruise_row(x0, v0, dt, steps)
    assert bool(_cruise_clean(x, v)) is (first_bad_sample(x, v) is None)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block", [1, 3, 64, 4096])
def test_a_run_whose_samples_overflow_is_refused_as_its_trace_would_be(block):
    # Lane 1's lead cruises, and its position overflows first; lane 0's
    # lead starts braking 0.3 s before that and overflows some steps
    # later. The run names the first vehicle in lane-major order, at its
    # first bad step, as Trace does the stepping loop's.
    fleet = VehicleParams(5.0, 1e308, 3.0, 1e308, 0.5)
    cfg = ScenarioConfig(road=RoadSpec(10.0, 2, 100.0),
                         lanes=((SpawnSpec(fleet),), (SpawnSpec(fleet), SpawnSpec(fleet, 5.0))),
                         triggers=(BrakeTrigger(0, 0, 1.5), BrakeTrigger(1, 1, 0.0)), dt=0.01)
    with pytest.raises(InvalidInputError) as expected:
        reference_run_scenario(cfg)
    assert str(expected.value).startswith("trace l0v0: step 18")
    with pytest.raises(InvalidInputError) as refused:
        run_in_blocks(cfg, block)
    assert str(refused.value) == str(expected.value)


def test_summary_lists_only_the_contacts_the_run_recorded():
    # The second car starts exactly one length behind the lead and brakes
    # with it, so the two touch but never overlap. The third car, at 0.7 x
    # the PBV gap, hits the second: the only contact, and the only blame.
    cfg = single_lane([REFERENCE.length, 0.7 * D_SAFE],
                      triggers=((0, 0, 0.0), (0, 1, 0.0)), dt=0.01)
    run = run_scenario(cfg)
    summary = scenario_summary(run, cfg)
    assert summary["collisions"] == [
        {"lane": 0, "rear": "l0v2", "front": "l0v1", "time_s": 222 * cfg.dt}
    ]
    assert summary["responsible"] == ["l0v2"]
    assert run.contacts == [(0, 2, 222)]


def test_contacts_on_consecutive_steps_match_the_stepping_loop():
    # Without acceleration the third car keeps its 5.01 m gap until the
    # second one stops dead at contact; it closes the last centimetre in the
    # very next step, so the contact search must resume right after one.
    cfg = single_lane([5.5, 5.01], params=replace(REFERENCE, max_accel=0.0))
    traces = run_scenario(cfg)
    assert_bit_identical(traces, reference_run_scenario(cfg))
    times = [c["time_s"] for c in scenario_summary(traces, cfg)["collisions"]]
    assert times == [334 * cfg.dt, 335 * cfg.dt]


@pytest.mark.parametrize("cap_above_cruise", [0.0, 0.4, 1.0, 5.0])
@pytest.mark.parametrize("dt", [1e-3, 7e-3])
def test_speed_cap_bounds_every_sample_and_matches_the_stepping_loop(cap_above_cruise, dt):
    # The followers accelerate for 0.5 s at 3 m/s^2 before braking, 1.5 m/s
    # above cruise when uncapped: a cap within that binds, one above does not.
    cap = REFERENCE.speed + cap_above_cruise
    cfg = replace(
        single_lane([D_SAFE, 0.8 * D_SAFE, D_SAFE], triggers=((0, 0, 0.3 + dt / 3),), dt=dt,
                    delays=((2, 0.2),)),
        speed_cap=cap,
    )
    traces = run_scenario(cfg)
    assert_bit_identical(traces, reference_run_scenario(cfg))
    peak = max(float(t.velocity.max()) for t in traces)
    assert peak <= cap
    if cap_above_cruise < 1.5:
        uncapped = run_scenario(replace(cfg, speed_cap=None))
        assert peak == cap < max(float(t.velocity.max()) for t in uncapped)


def test_oversized_run_is_refused_before_it_starts(monkeypatch):
    import sdcap.simulator

    cfg = single_lane([D_SAFE])
    _, _, max_steps = sdcap.simulator._start_run(cfg)
    monkeypatch.setattr(sdcap.simulator, "MAX_VEHICLE_STEPS", 2 * (max_steps + 2))
    run_scenario(cfg)  # exactly at the cap
    monkeypatch.setattr(sdcap.simulator, "MAX_VEHICLE_STEPS", 2 * (max_steps + 2) - 1)
    with pytest.raises(SdcapError, match="exceeds the cap of"):
        run_scenario(cfg)


def test_run_over_the_memory_cap_is_refused_before_it_starts(monkeypatch):
    import sdcap.simulator

    # The lanes take turns through one block of scratch rows, so two equal
    # lanes need the bytes of one.
    one = single_lane([D_SAFE])
    two = replace(one, road=RoadSpec(10.0, 2, 100.0), lanes=one.lanes * 2)
    _, _, max_steps = sdcap.simulator._start_run(one)
    size = sdcap.simulator._run_bytes(len(one.lanes[0]), max_steps + 2)
    for cfg in (one, two):
        monkeypatch.setattr(sdcap.simulator, "MAX_RUN_BYTES", size)
        run_scenario(cfg)  # exactly at the cap
        monkeypatch.setattr(sdcap.simulator, "MAX_RUN_BYTES", size - 1)
        with monkeypatch.context() as patch:
            patch.setattr(sdcap.simulator, "_Lane", lambda *args: pytest.fail("lane allocated"))
            with pytest.raises(SdcapError, match=f"bytes of arrays, over the cap of {size - 1};"):
                run_scenario(cfg)


def test_work_cap_admits_the_headline_road_at_1_ms_and_refuses_ten_times_that():
    import sdcap.simulator

    # The paper's road: 833 cars in two lanes at the safe gap, about 176M
    # vehicle-steps at dt = 1 ms. Only the vehicles are made here.
    lane = (SpawnSpec(REFERENCE),) + (SpawnSpec(REFERENCE, D_SAFE),) * 416
    cfg = ScenarioConfig(road=RoadSpec(10.0, 2, 100.0), lanes=(lane, lane[:-1]),
                         triggers=(BrakeTrigger(0, 0, 0.0), BrakeTrigger(1, 0, 0.0)))
    _, _, max_steps = sdcap.simulator._start_run(cfg)
    assert 175e6 < (max_steps + 2) * 833 < 177e6
    with pytest.raises(SdcapError, match="exceeds the cap of 1000000000 vehicle-steps"):
        sdcap.simulator._start_run(replace(cfg, dt=1e-4))


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


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("seed = 11", "seed = 3.9", "seed must be an integer"),
        ("road.lanes = 2", "road.lanes = 2.7", "road.lanes must be an integer"),
        ("trigger = 1, 0, 0.0", "trigger = 0.9, 0, 0", "lane must be an integer"),
        ("trigger = 1, 0, 0.0", "trigger = 1, 0.5, 0", "vehicle index must be"),
        (None, "ber_delay = 0.5, 1, 0.3", "lane must be an integer"),
        (None, "ber_delay = 0, 1.6, 0.3", "vehicle index must be"),
    ],
)
def test_config_file_refuses_non_integral_counts_and_indices(old, new, message):
    text = CONFIG_TEXT.replace(old, new) if old else CONFIG_TEXT + new + "\n"
    lineno = text.splitlines().index(new) + 1
    with pytest.raises(ConfigError, match=f"line {lineno}: {message}"):
        scenario_from_text(text)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_config_file_refuses_non_finite_timeout(value):
    with pytest.raises(ConfigError, match="request_timeout must be finite"):
        scenario_from_text(CONFIG_TEXT + f"timeout = {value}\n")


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


def config_text(cfg, data):
    """cfg written as a config file: keys in a drawn order, with comments
    and blank lines, and the trigger lines in their relative order."""
    fleet = cfg.lanes[0][0].params
    lines = [
        f"mode = {data.draw(st.sampled_from((cfg.mode, cfg.mode.upper())))}",
        f"dt = {cfg.dt!r}",
        f"seed = {cfg.rng_seed}",
        f"timeout = {cfg.request_timeout!r}",
        f"latency = uniform: {cfg.latency.lo!r}, {cfg.latency.hi!r}",
        f"road.length_km = {cfg.road.length_km!r}",
        f"road.lanes = {cfg.road.lanes}",
        f"road.min_speed_kmh = {cfg.road.min_speed_kmh!r}",
        f"vehicle.length = {fleet.length!r}",
        f"vehicle.max_brake = {fleet.max_brake!r}",
        f"vehicle.max_accel = {fleet.max_accel!r}",
        f"vehicle.speed = {fleet.speed!r}",
        f"vehicle.response_time = {fleet.response_time!r}",
        f"dev.e_l = {cfg.dev.length!r}",
        f"dev.e_v = {cfg.dev.front_speed!r}",
        f"dev.e_brake = {cfg.dev.brake!r}",
        f"dev.e_tau = {cfg.dev.response!r}",
    ]
    if cfg.speed_cap is not None:
        lines.append(f"speed_cap = {cfg.speed_cap!r}")
    for lane_no, lane in enumerate(cfg.lanes):
        gaps = ", ".join(repr(spawn.gap_to_predecessor) for spawn in lane[1:])
        lines.append(f"lane.{lane_no}.gaps = {gaps}")
        lines += [f"ber_delay = {lane_no}, {idx}, {spawn.ber_delay!r}"
                  for idx, spawn in enumerate(lane) if spawn.ber_delay]
    triggers = [f"trigger = {t.lane}, {t.index}, {t.time!r}" for t in cfg.triggers]
    lines = data.draw(st.permutations(lines + triggers))
    in_order = iter(triggers)
    lines = [next(in_order) if line.startswith("trigger") else line for line in lines]
    text = []
    for line in lines:
        text += data.draw(st.lists(st.sampled_from(("", "# a comment", "   ")), max_size=2))
        text.append(line + data.draw(st.sampled_from(("", "  # why", "\t"))))
    return "\n".join(text)


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.data())
def test_config_text_round_trips_every_scenario(cfg, data):
    # The parser builds deviations in the unchecked regime.
    expected = replace(cfg, dev=replace(cfg.dev, regime=Regime.UNCHECKED))
    assert scenario_from_text(config_text(cfg, data)) == expected


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Scenario config files", 1)[1].split("```", 2)[1]
    cfg = scenario_from_text(example)
    assert [len(lane) for lane in cfg.lanes] == [3, 1]
    assert cfg.lanes[0][1].ber_delay == 0.2 and cfg.speed_cap == 30.0


def test_summary_parameter_echo():
    cfg = single_lane([D_SAFE])
    summary = scenario_summary(run_scenario(cfg), cfg)
    assert summary["omega"] == 2
    assert summary["parameters"]["max_brake_mps2"] == 9.0
    assert summary["parameters"]["rng_seed"] == 0
    assert summary["info_sources"]["l0v1"] == "perception"


def test_summary_echoes_the_fleet_when_lane_zero_is_empty():
    cfg = ScenarioConfig(
        road=RoadSpec(10.0, 2, 100.0),
        lanes=((), (SpawnSpec(REFERENCE),)),
        triggers=(BrakeTrigger(1, 0, 0.0),),
    )
    parameters = scenario_summary(run_scenario(cfg), cfg)["parameters"]
    assert (
        parameters["vehicle_length_m"],
        parameters["max_brake_mps2"],
        parameters["max_accel_mps2"],
        parameters["cruise_speed_mps"],
        parameters["response_time_s"],
    ) == (REFERENCE.length, REFERENCE.max_brake, REFERENCE.max_accel, REFERENCE.speed,
          REFERENCE.response_time)


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


def test_run_columns_are_replayed_read_only_and_flags_are_views_of_one_ramp():
    cfg = single_lane([0.9 * D_SAFE, D_SAFE])
    run = run_scenario(cfg)
    reference = reference_run_scenario(cfg)
    for trace, want in zip(run, reference):
        for got, expected in zip(trace._columns(), want._columns()):
            assert not got.flags.writeable
            assert got.tobytes() == expected.tobytes()
        # Each read replays afresh: no column is kept.
        assert trace.position is not trace.position
    # The rear of the contact has every flag on; each flag that never
    # turns on is one array shared by the whole run.
    assert run[1].ber[-1] and run[1].collided[-1] and run[1].responsible[-1]
    flags = [flag for trace in run for flag in trace._columns()[2:]]
    never = [flag for flag in flags if not flag.any()]
    assert len(never) > 1 and all(flag is never[0] for flag in never)
    # Every flag is a view of one run-wide array.
    assert all(flag.base is never[0].base is not None for flag in flags)


def test_length_verdicts_and_summary_replay_no_samples(monkeypatch):
    import sdcap.simulator

    cfg = single_lane([0.9 * D_SAFE, D_SAFE])
    run = run_scenario(cfg)
    replays = []
    original = sdcap.simulator._replay
    monkeypatch.setattr(sdcap.simulator, "_replay",
                        lambda *args: replays.append(args) or original(*args))
    assert [len(trace) for trace in run] == [len(trace.steps) for trace in run]
    assert [vehicle_safe(trace) for trace in run] == [True, False, True]
    assert scenario_summary(run, cfg)["sdt"] == 2
    assert not replays
    run[1].velocity
    assert len(replays) == 1
    # The trace CSV writer replays each vehicle once, for both columns.
    traces_to_csv(run, run.info_sources)
    assert len(replays) == 1 + len(run)


def safe_road(per_lane, dt=1e-3):
    """2 lanes of `per_lane` cars at the safe gap, both leads braking at 0."""
    lane = (SpawnSpec(REFERENCE, None),) + (SpawnSpec(REFERENCE, D_SAFE),) * (per_lane - 1)
    return replace(single_lane([], dt=dt), road=RoadSpec(10.0, 2, 100.0), lanes=(lane, lane),
                   triggers=(BrakeTrigger(0, 0, 0.0), BrakeTrigger(1, 0, 0.0)))


def summary_peak(cfg):
    """The Run of cfg and the tracemalloc peak of making it and its
    summary."""
    gc.collect()
    tracemalloc.start()
    try:
        run = run_scenario(cfg)
        scenario_summary(run, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return run, peak


@pytest.mark.parametrize("per_lane", [20, 40])
def test_run_and_summary_peak_at_most_2_bytes_per_vehicle_step(per_lane):
    # 2 lanes at the safe gap, dt = 1 ms (about 510k and 2M vehicle-steps).
    # A run keeps no samples, and a block without a contact is computed in
    # a ring of two rows: its peak is a few arrays of its step count and a
    # few small arrays per car. About 1 B per vehicle-step was measured at
    # 20 cars per lane; full rows of a lane per block took 3.2.
    # Holding the samples would take 16 B per vehicle-step.
    run, peak = summary_peak(safe_road(per_lane))
    vehicle_steps = sum(len(trace) for trace in run)
    assert vehicle_steps > 400_000 and not run.contacts
    assert peak <= 2 * vehicle_steps, peak / vehicle_steps


def test_a_two_lane_run_peaks_about_as_one_of_its_lanes_alone():
    # The lanes take turns through one scratch buffer, so a second lane of
    # 20 cars adds its few samples and facts, not a second buffer. A block
    # per lane made the peak 1.82 times that of one lane.
    road = safe_road(20)
    lane = replace(road, road=RoadSpec(10.0, 1, 100.0), lanes=road.lanes[:1],
                   triggers=road.triggers[:1])
    _, alone = summary_peak(lane)
    _, both = summary_peak(road)
    assert both <= 1.25 * alone, both / alone


def test_run_peak_grows_little_with_the_step_count():
    # Four times the steps: only the arrays of the step count grow, the
    # grid and its spans (16 B a step), the flag ramp (2 B) and the
    # summary's bool temporaries. 19.7 B per added step was measured;
    # keeping the samples would take 640 B per step on this 40-car road.
    coarse_run, coarse = summary_peak(safe_road(20))
    fine_run, fine = summary_peak(safe_road(20, dt=2.5e-4))
    added = len(fine_run[0]) - len(coarse_run[0])
    assert added > 35_000
    assert fine - coarse <= 24 * added, (fine - coarse) / added


def test_safe_run_peak_grows_little_with_the_car_count():
    # Every car brakes at t = 0, so the step count does not depend on the
    # cars. A safe block is computed in a ring of two rows, so a car adds
    # its samples at the block's edges, its restart, its trace and its
    # summary entries, not rows of the block. 0.8 KB per added car was
    # measured; full rows of a lane per block took 27 KB.
    def road(per_lane):
        cfg = safe_road(per_lane)
        return replace(cfg, triggers=tuple(BrakeTrigger(lane, i, 0.0)
                                           for lane in range(2) for i in range(per_lane)))

    small_run, small = summary_peak(road(20))
    large_run, large = summary_peak(road(200))
    assert len(small_run[0]) == len(large_run[0])
    assert not small_run.contacts and not large_run.contacts
    assert large - small <= 2048 * 2 * (200 - 20), (large - small) / (2 * (200 - 20))


def test_summary_rejects_traces_of_different_horizons():
    cfg = single_lane([D_SAFE])
    run = run_scenario(cfg)
    lead, rear = run
    short = trace_from_states(rear.vehicle_id, rear.steps[:-1], rear.dt)
    with pytest.raises(InvalidInputError, match="horizon"):
        scenario_summary(Run([lead, short], run.contacts, run.info_sources, run.min_gaps), cfg)


def test_summary_refuses_a_plain_list_or_reordered_traces():
    # The collisions and info sources come from the Run, and min_gaps_m
    # pairs its traces by position: traces without them, or out of lane
    # order, are refused rather than summarised wrongly.
    cfg = single_lane([0.9 * D_SAFE, D_SAFE])
    run = run_scenario(cfg)
    for traces in (list(run), Run(run[::-1], run.contacts, run.info_sources, run.min_gaps),
                   Run(run[:2], run.contacts, run.info_sources, run.min_gaps)):
        with pytest.raises(InvalidInputError, match="needs the Run of run_scenario"):
            scenario_summary(traces, cfg)
