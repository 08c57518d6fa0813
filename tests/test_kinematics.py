"""Closed-form braking kinematics against trivial cases, the exact oracle and
the trajectory oracle."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdcap import (
    DeviationSet,
    InvalidParameterError,
    OracleError,
    VehicleParams,
    max_speed_after_response,
    min_safe_gap_oracle,
    safe_longitudinal_distance,
    time_to_stop_front,
    time_to_stop_rear,
)
from sdcap.capacity import safe_distance
from conftest import REFERENCE, exact_safe_distance, random_pair, travel_ulp


@pytest.mark.parametrize("speed", [1e16, 1e20])
def test_response_time_lost_to_rounding_is_refused_but_zero_is_not(speed):
    fast = REFERENCE.with_speed(speed)
    with pytest.raises(InvalidParameterError, match="response-time travel is lost to rounding"):
        safe_longitudinal_distance(fast, fast, 0.5)
    # No response-time travel, or one far below the contact distance, has
    # nothing to lose: equal speeds then need the contact distance.
    for tau in (0.0, 5e-324):
        assert safe_longitudinal_distance(fast, fast, tau) == REFERENCE.length


def test_max_speed_after_response_reference_point():
    assert max_speed_after_response(REFERENCE, 0.5) == pytest.approx(29.28)


def test_max_speed_zero_acceleration():
    v = VehicleParams(5.0, 9.0, 0.0, 10.0, 0.5)
    assert max_speed_after_response(v, 5.0) == 10.0


def test_max_speed_zero_response_time():
    v = VehicleParams(5.0, 9.0, 2.2, 0.0, 0.5)
    assert max_speed_after_response(v, 0.0) == 0.0


def test_max_speed_rejects_bad_tau():
    with pytest.raises(InvalidParameterError):
        max_speed_after_response(REFERENCE, -0.1)
    with pytest.raises(InvalidParameterError):
        max_speed_after_response(REFERENCE, math.nan)
    with pytest.raises(InvalidParameterError):
        max_speed_after_response(REFERENCE, math.inf)


def test_time_to_stop_rear_reference_point():
    # 0.5 + 29.28 / 9
    assert time_to_stop_rear(REFERENCE, 0.5) == pytest.approx(3.753333, abs=1e-5)


def test_time_to_stop_rear_already_stopped():
    v = VehicleParams(5.0, 9.0, 0.0, 0.0, 0.0)
    assert time_to_stop_rear(v, 0.0) == 0.0


def test_time_to_stop_rear_simple_ratio():
    v = VehicleParams(5.0, 9.0, 0.0, 9.0, 1.0)
    assert time_to_stop_rear(v, 1.0) == pytest.approx(2.0)


def test_time_to_stop_front_reference_point():
    assert time_to_stop_front(REFERENCE) == pytest.approx(27.78 / 9.0)
    exact = REFERENCE.with_speed(100.0 / 3.6)
    assert time_to_stop_front(exact) == pytest.approx(3.08642, abs=1e-5)


def test_time_to_stop_front_stopped():
    assert time_to_stop_front(REFERENCE.with_speed(0.0)) == 0.0


def test_time_to_stop_front_simple_ratio():
    assert time_to_stop_front(REFERENCE.with_speed(18.0)) == pytest.approx(2.0)


def test_safe_distance_reference_point():
    d = safe_longitudinal_distance(REFERENCE, REFERENCE, 0.5)
    assert d == pytest.approx(24.02, abs=1e-9)


def test_safe_distance_trivial_when_rear_stopped():
    rear = VehicleParams(5.0, 9.0, 0.0, 0.0, 0.5)
    front = VehicleParams(5.0, 9.0, 0.0, 27.78, 0.5)
    assert safe_longitudinal_distance(rear, front, 0.0) == 5.0


def test_safe_distance_trivial_branch_exact():
    # Whenever the front car needs at least as long to halt, exactly one
    # body length is required.
    rng = random.Random(1)
    hits = 0
    while hits < 50:
        rear, front, tau = random_pair(rng)
        if time_to_stop_front(front) >= time_to_stop_rear(rear, tau):
            assert safe_longitudinal_distance(rear, front, tau) == rear.length
            hits += 1


def test_safe_distance_clamped_at_length_near_branch_boundary():
    # Just inside the non-trivial branch the raw two-branch expression dips
    # below one body length; the result must floor there.
    rear = VehicleParams(5.0, 8.0, 2.0, 10.0, 0.5)
    t_rear = time_to_stop_rear(rear, 1.0)
    front = rear.with_speed(8.0 * t_rear - 0.05)
    assert time_to_stop_front(front) < t_rear
    assert safe_longitudinal_distance(rear, front, 1.0) == rear.length


@pytest.mark.parametrize("mode", ["pbv", "cbv"])
def test_safe_distance_length_mismatch_rejected(mode):
    # The closed form and the corrected distance share one refusal, which
    # names both lengths.
    other = VehicleParams(4.0, 9.0, 3.0, 27.78, 0.5)
    with pytest.raises(InvalidParameterError, match=re.escape("(5.0 vs 4.0)")):
        safe_distance(REFERENCE, other, mode, DeviationSet(), 0.0)


def test_safe_distance_brake_mismatch_rejected():
    # The front car brakes at half the rear car's rate, so it halts later
    # (6.4 s against 4.0 s), yet the rear car closes in until their speeds
    # meet: the exact distance is past the contact distance the stopping
    # times alone would give.
    rear = VehicleParams(5.0, 9.0, 3.0, 30.0, 0.5)
    front = VehicleParams(5.0, 4.5, 3.0, 29.0, 0.5)
    assert time_to_stop_front(front) >= time_to_stop_rear(rear, 0.5)
    assert exact_safe_distance(rear, front, 0.5) > 8.0
    with pytest.raises(InvalidParameterError, match=re.escape("max_brake differ (9.0 vs 4.5)")):
        safe_longitudinal_distance(rear, front, 0.5)


def test_closed_form_matches_exact_oracle():
    # 3.65 ulp was the worst of 20,000 draws (seed 2024), 2.21 of these.
    cases = [(REFERENCE, REFERENCE, 0.5)]
    rng = random.Random(2024)
    cases += [random_pair(rng) for _ in range(2000)]
    for rear, front, tau in cases:
        exact = exact_safe_distance(rear, front, tau)
        error = Fraction(safe_longitudinal_distance(rear, front, tau)) - exact
        assert abs(error) <= 4 * travel_ulp(rear, tau, exact), (rear, front, tau)


def test_oracle_refuses_a_simulation_that_overflows():
    # Steps of 1e300 s at 1e200 m/s: every travel is inf, and the gap nan.
    fast = REFERENCE.with_speed(1e200)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OracleError, match="nan"):
        min_safe_gap_oracle(fast, fast, 0.5, dt=1e300)


def test_oracle_reference_point():
    got = min_safe_gap_oracle(REFERENCE, REFERENCE, 0.5, dt=1e-3)
    assert got == pytest.approx(24.02, abs=0.03)


def test_oracle_rear_never_moves():
    rear = VehicleParams(5.0, 9.0, 0.0, 0.0, 0.5)
    front = VehicleParams(5.0, 9.0, 0.0, 20.0, 0.5)
    assert min_safe_gap_oracle(rear, front, 2.0) == 5.0


def test_oracle_matches_closed_form_random_draws():
    rng = random.Random(7)
    dt = 1e-3
    for _ in range(250):
        rear, front, tau = random_pair(rng)
        expected = safe_longitudinal_distance(rear, front, tau)
        got = min_safe_gap_oracle(rear, front, tau, dt=dt)
        assert abs(got - expected) <= max(1e-2, rear.speed * dt)


_speeds = st.floats(0.0, 40.0)
_taus = st.floats(0.0, 1.5)
_brakes = st.floats(1.0, 10.0)
_accels = st.floats(0.0, 4.0)
_bumps = st.floats(0.01, 5.0)


def _pair(speed_rear, speed_front, brake, accel):
    rear = VehicleParams(5.0, brake, accel, speed_rear, 0.5)
    front = VehicleParams(5.0, brake, 0.0, speed_front, 0.5)
    return rear, front


@settings(max_examples=200)
@given(_speeds, _speeds, _brakes, _accels, _taus, _bumps)
def test_distance_monotone_in_rear_speed(vr, vf, brake, accel, tau, bump):
    rear, front = _pair(vr, vf, brake, accel)
    d0 = safe_longitudinal_distance(rear, front, tau)
    d1 = safe_longitudinal_distance(rear.with_speed(vr + bump), front, tau)
    assert d1 >= d0 - 1e-9


@settings(max_examples=200)
@given(_speeds, _speeds, _brakes, _accels, _taus, _bumps)
def test_distance_monotone_in_front_speed(vr, vf, brake, accel, tau, bump):
    rear, front = _pair(vr, vf, brake, accel)
    d0 = safe_longitudinal_distance(rear, front, tau)
    d1 = safe_longitudinal_distance(rear, front.with_speed(vf + bump), tau)
    assert d1 <= d0 + 1e-9


@settings(max_examples=200)
@given(_speeds, _speeds, _brakes, _accels, _taus, st.floats(0.01, 1.0))
def test_distance_monotone_in_response_time(vr, vf, brake, accel, tau, bump):
    rear, front = _pair(vr, vf, brake, accel)
    d0 = safe_longitudinal_distance(rear, front, tau)
    d1 = safe_longitudinal_distance(rear, front, tau + bump)
    assert d1 >= d0 - 1e-9


@settings(max_examples=200)
@given(_speeds, _speeds, _brakes, _accels, _taus, st.floats(0.01, 2.0))
def test_distance_monotone_in_acceleration(vr, vf, brake, accel, tau, bump):
    rear, front = _pair(vr, vf, brake, accel)
    d0 = safe_longitudinal_distance(rear, front, tau)
    bumped = VehicleParams(5.0, brake, accel + bump, vr, 0.5)
    assert safe_longitudinal_distance(bumped, front, tau) >= d0 - 1e-9


@settings(max_examples=200)
@given(_speeds, _speeds, _brakes, _accels, _taus, st.floats(0.01, 2.0))
def test_distance_monotone_in_length(vr, vf, brake, accel, tau, bump):
    rear, front = _pair(vr, vf, brake, accel)
    d0 = safe_longitudinal_distance(rear, front, tau)
    rear2 = VehicleParams(5.0 + bump, brake, accel, vr, 0.5)
    front2 = VehicleParams(5.0 + bump, brake, 0.0, vf, 0.5)
    assert safe_longitudinal_distance(rear2, front2, tau) >= d0 - 1e-9


@settings(max_examples=200)
@given(_speeds, _brakes, _accels, st.floats(0.05, 1.5), _bumps)
def test_equal_speed_fleet_distance_strictly_grows_with_speed(v, brake, accel, tau, bump):
    lo = VehicleParams(5.0, brake, accel, v, tau)
    hi = lo.with_speed(v + bump)
    d_lo = safe_longitudinal_distance(lo, lo, tau)
    d_hi = safe_longitudinal_distance(hi, hi, tau)
    assert d_hi > d_lo


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_distance_never_below_length(seed):
    rear, front, tau = random_pair(random.Random(seed))
    assert safe_longitudinal_distance(rear, front, tau) >= rear.length
