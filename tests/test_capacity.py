"""Capacity formulas, reports, and the cooperative-vs-perception bound sweep."""

import math
import random
from dataclasses import replace

import pytest

from sdcap import (
    DeviationSet,
    InvalidInputError,
    InvalidParameterError,
    Regime,
    RoadSpec,
    SweepGrid,
    VehicleParams,
    capacity_report,
    check_capacity_bound,
    effective_response_time,
    expected_safe_distance,
    safe_longitudinal_distance,
    sdc,
    sdc_per_lane,
)
from sdcap.capacity import safe_distance
from conftest import REFERENCE


def test_road_defaults():
    road = RoadSpec()
    assert (road.length_km, road.lanes, road.min_speed_kmh) == (10.0, 2, 100.0)
    assert road.length_m == 10_000.0
    assert road.min_speed_mps == pytest.approx(100.0 / 3.6)


def test_road_rejects_zero_speed_floor():
    with pytest.raises(InvalidParameterError):
        RoadSpec(min_speed_kmh=0.0)


def test_road_rejects_bad_lanes_and_length():
    with pytest.raises(InvalidParameterError):
        RoadSpec(lanes=0)
    with pytest.raises(InvalidParameterError):
        RoadSpec(length_km=-1.0)


def test_sdc_reference_point():
    assert sdc(RoadSpec(), 24.02, 5.0) == 833


def test_sdc_exact_packing_single_lane():
    # all values exactly representable: 1250 m - 5 m = 10 spacings of 124.5 m
    road = RoadSpec(length_km=1.25, lanes=1)
    assert sdc(road, 124.5, 5.0) == 11


def test_sdc_huge_spacing_still_fits_one_vehicle():
    road = RoadSpec()
    assert sdc(road, 1e9, 5.0) == 1


def test_sdc_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        sdc(RoadSpec(), 0.0, 5.0)
    with pytest.raises(InvalidParameterError):
        sdc(RoadSpec(), -3.0, 5.0)
    with pytest.raises(InvalidParameterError):
        sdc(RoadSpec(), 20.0, 20_000.0)


def test_sdc_answers_a_quotient_just_below_2_pow_53_and_refuses_2_pow_53():
    # 1250 m less a 226 m car is 1024 m, packed at 1024 m: the quotient is
    # the lane count, exactly.
    road = RoadSpec(length_km=1.25, lanes=2 ** 53 - 1)
    assert sdc(road, 1024.0, 226.0) == 2 ** 53
    with pytest.raises(InvalidParameterError,
                       match=r"packing quotient is 9007199254740992\.0: at or past 2\*\*53"):
        sdc(replace(road, lanes=2 ** 53), 1024.0, 226.0)


def test_sdc_per_lane_variant_differs_by_packing_remainder():
    road = RoadSpec()
    d = expected_safe_distance(REFERENCE, road, "pbv")
    assert sdc(road, d, 5.0) == 833
    assert sdc_per_lane(road, d, 5.0) == 834


def test_sdc_monotonicity():
    road = RoadSpec()
    values = [sdc(road, d, 5.0) for d in (10.0, 20.0, 30.0, 40.0)]
    assert values == sorted(values, reverse=True)
    assert sdc(RoadSpec(lanes=3), 24.0, 5.0) >= sdc(RoadSpec(lanes=2), 24.0, 5.0)
    assert sdc(RoadSpec(length_km=12.0), 24.0, 5.0) >= sdc(RoadSpec(), 24.0, 5.0)


def test_expected_safe_distance_matches_kinematics_at_the_floor():
    road = RoadSpec()
    d = expected_safe_distance(REFERENCE, road, "pbv")
    at_floor = REFERENCE.with_speed(road.min_speed_mps)
    assert d == safe_longitudinal_distance(at_floor, at_floor, 0.5)
    assert d == pytest.approx(24.02, abs=5e-3)


def test_expected_safe_distance_cbv_collapse():
    road = RoadSpec()
    cbv = REFERENCE.with_response_time(0.4)
    d = expected_safe_distance(cbv, road, "cbv", DeviationSet(), 0.1)
    assert d == pytest.approx(expected_safe_distance(REFERENCE, road, "pbv"), abs=1e-9)


def test_expected_safe_distance_guards():
    for distance in (
        lambda *args: expected_safe_distance(REFERENCE, RoadSpec(), *args),
        lambda *args: safe_distance(REFERENCE, REFERENCE, *args),
    ):
        with pytest.raises(InvalidInputError, match="cbv mode requires a DeviationSet"):
            distance("cbv")
        with pytest.raises(InvalidInputError, match="mode must be 'pbv' or 'cbv', got 'quantum'"):
            distance("quantum")


def test_capacity_report_default_point():
    report = capacity_report(REFERENCE, RoadSpec(), DeviationSet(), 0.1, 0.4)
    assert report.sdc_pbv == 833
    assert report.sdc_cbv == 833
    assert report.parameters["e_tau"] == 1.0


def test_capacity_report_bound_holds_on_conservative_draws():
    rng = random.Random(17)
    road = RoadSpec()
    for _ in range(200):
        e_tau = rng.uniform(0.9, 1.0)
        dev = DeviationSet(
            length=rng.uniform(0.9, 1.0),
            front_speed=rng.uniform(1.0, 1.1),
            brake=rng.uniform(0.9, 1.0),
            response=e_tau,
        )
        eta = rng.uniform(0.0, 0.5 - e_tau * 0.4)
        report = capacity_report(REFERENCE, road, dev, eta, 0.4)
        assert report.sdc_pbv <= report.sdc_cbv


def test_cbv_capacity_non_increasing_in_latency():
    road = RoadSpec()
    dev = DeviationSet(response=0.95)
    etas = [0.0, 0.02, 0.05, 0.08, 0.1]
    capacities = [
        capacity_report(REFERENCE, road, dev, eta, 0.4).sdc_cbv for eta in etas
    ]
    assert capacities == sorted(capacities, reverse=True)


def test_check_capacity_bound_small_grid_holds():
    grid = SweepGrid(
        e_tau=(0.95, 1.0), e_brake=(0.95, 1.0), e_v=(1.0, 1.05), eta=(0.001, 0.05)
    )
    report = check_capacity_bound(grid, REFERENCE, 0.4)
    assert report.holds
    assert len(report.rows) == 16
    assert all(row.sdc_cbv >= row.sdc_pbv for row in report.rows)


def test_check_capacity_bound_degenerate_point_equality():
    grid = SweepGrid(e_tau=(1.0,), e_brake=(1.0,), e_v=(1.0,), eta=(0.1,))
    report = check_capacity_bound(grid, REFERENCE, 0.4)
    assert report.holds
    row = report.rows[0]
    assert row.sdc_pbv == row.sdc_cbv
    assert row.d_cbv == pytest.approx(row.d_pbv, abs=1e-9)


def test_check_capacity_bound_rejects_out_of_regime_points():
    grid = SweepGrid(e_tau=(1.0,), e_brake=(1.0,), e_v=(0.9, 1.0), eta=(0.05,))
    report = check_capacity_bound(grid, REFERENCE, 0.4)
    assert len(report.rejected) == 1
    assert "e_v=0.9" in report.rejected[0]
    assert len(report.rows) == 1  # the bad point is not counted


def test_check_capacity_bound_rejects_delay_side_condition():
    grid = SweepGrid(e_tau=(1.0,), e_brake=(1.0,), e_v=(1.0,), eta=(0.2,))
    report = check_capacity_bound(grid, REFERENCE, 0.4)
    assert not report.rows
    assert "side condition" in report.rejected[0]


@pytest.mark.parametrize("axis", ["e_tau", "e_brake", "e_v", "eta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_axis_value_is_a_rejected_point(axis, value):
    # Not an exception that loses the whole report: the finite point
    # (1, 1, 1, 0.05) stays a row. A nan eta used to raise.
    axes = dict(e_tau=(1.0,), e_brake=(1.0,), e_v=(1.0,), eta=(0.05,))
    axes[axis] += (value,)
    report = check_capacity_bound(SweepGrid(**axes), REFERENCE, 0.4)
    assert [(row.e_tau, row.e_brake, row.e_v, row.eta) for row in report.rows] == [
        (1.0, 1.0, 1.0, 0.05)
    ]
    assert len(report.rejected) == 1
    assert f"{axis}={value}" in report.rejected[0]


@pytest.mark.parametrize(
    "eta, kept", [(0.1, True), (0.1 + 0.5e-12, True), (0.1 + 2e-12, False), (math.inf, False)]
)
def test_side_condition_boundary_is_inclusive_to_1e12(eta, kept):
    # 1.0 * 0.4 + 0.1 is 0.5, the PBV response time, exactly: the side
    # condition keeps a point up to 1e-12 s past it and rejects one beyond.
    assert effective_response_time(1.0, 0.4, 0.1) == REFERENCE.response_time == 0.5
    grid = SweepGrid(e_tau=(1.0,), e_brake=(1.0,), e_v=(1.0,), eta=(eta,))
    report = check_capacity_bound(grid, REFERENCE, 0.4)
    assert len(report.rows) == kept
    assert ["side condition" in r for r in report.rejected] == ([] if kept else [True])


def test_sweep_rows_equal_capacity_report_at_each_point():
    rng = random.Random(2024)
    tau0 = rng.uniform(0.3, 0.8)
    cbv_tau0 = rng.uniform(0.5, 0.9) * tau0
    fleet = VehicleParams(
        length=rng.uniform(3.0, 6.0),
        max_brake=rng.uniform(6.0, 10.0),
        max_accel=rng.uniform(1.0, 4.0),
        speed=rng.uniform(0.0, 40.0),
        response_time=tau0,
    )
    floor = RoadSpec(lanes=rng.randint(1, 4), min_speed_kmh=rng.uniform(40.0, 130.0))
    e_length = rng.uniform(0.85, 0.95)
    # Put the PBV packing half a (1 - e_length) body length short of a whole
    # number of spacings, so packing at any other length changes SDC_pbv.
    d_pbv = expected_safe_distance(fleet, floor, "pbv")
    length_m = rng.randint(200, 600) * d_pbv / floor.lanes + fleet.length
    length_m -= 0.5 * (1.0 - e_length) * fleet.length
    road = RoadSpec(length_m / 1000.0, floor.lanes, floor.min_speed_kmh)

    def axis(lo, hi, bad=None):
        values = [rng.uniform(lo, hi) for _ in range(3)]
        if bad is not None:
            values.insert(rng.randrange(4), bad)
        return tuple(values)

    out_of_regime_e_v, late_eta = 0.97, tau0
    grid = SweepGrid(
        e_tau=axis(0.85, 1.0),
        e_brake=axis(0.85, 1.0),
        e_v=axis(1.0, 1.1, bad=out_of_regime_e_v),
        eta=axis(0.0, tau0 - cbv_tau0, bad=late_eta),
        e_length=e_length,
    )
    report = check_capacity_bound(grid, fleet, cbv_tau0, road)

    rows, rejected = [], []
    for e_tau, e_brake, e_v, eta in grid.points():
        point = f"point (e_tau={e_tau}, e_brake={e_brake}, e_v={e_v}, eta={eta}): "
        if e_v == out_of_regime_e_v:
            rejected.append(
                point + f"deviation front_speed={e_v} violates the conservative regime "
                "(must be >= 1)"
            )
        elif eta == late_eta:
            rejected.append(
                point + "delay side condition violated "
                f"(e_tau*{cbv_tau0} + eta > {tau0})"
            )
        else:
            dev = DeviationSet(e_length, e_v, e_brake, e_tau)
            at_point = capacity_report(fleet, road, dev, eta, cbv_tau0)
            rows.append((e_tau, e_brake, e_v, eta, at_point))
    assert list(report.rejected) == rejected
    assert len(report.rows) == len(rows) == 81
    for row, (e_tau, e_brake, e_v, eta, at_point) in zip(report.rows, rows):
        assert (row.e_tau, row.e_brake, row.e_v, row.eta) == (e_tau, e_brake, e_v, eta)
        assert row.d_pbv == at_point.expected_distance_pbv
        assert row.d_cbv == at_point.expected_distance_cbv
        assert row.sdc_pbv == at_point.sdc_pbv
        assert row.sdc_cbv == at_point.sdc_cbv
    assert report.violations == tuple(r for r in report.rows if r.sdc_cbv < r.sdc_pbv)
    assert report.rows[0].sdc_pbv == sdc(road, d_pbv, fleet.length)
    assert report.rows[0].sdc_pbv != sdc(road, d_pbv, e_length * fleet.length)


def test_sweep_grid_rejects_empty_axis():
    with pytest.raises(InvalidInputError):
        SweepGrid(e_tau=(), e_brake=(1.0,), e_v=(1.0,), eta=(0.0,))


def test_deviation_regime_misuse_raises_at_construction():
    # Out-of-regime points cannot silently enter conservative-regime APIs.
    with pytest.raises(Exception):
        DeviationSet(front_speed=0.8, regime=Regime.CONSERVATIVE)
