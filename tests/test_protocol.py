"""Effective response time, latency models, corrected distance."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sdcap import (
    DeviationSet,
    InvalidParameterError,
    KMH_TO_MPS,
    LATENCY_PRESETS,
    LatencyModel,
    VehicleParams,
    corrected_safe_distance,
    effective_response_time,
    safe_longitudinal_distance,
    sample_latency,
)
from conftest import REFERENCE, exact_safe_distance, random_pair, travel_ulp


def test_effective_response_time_scales_then_adds():
    # e_tau * tau0 + eta in that operation order; at e_tau = 1 it is the
    # plain sum tau0 + eta bit for bit, as 1.0 * x is exact.
    assert effective_response_time(1.0, 0.4, 0.1) == 0.4 + 0.1 == 0.5
    assert effective_response_time(1.0, 0.5, 0.0) == 0.5
    assert effective_response_time(1.0, 0.4, 0.01) == 0.4 + 0.01
    assert effective_response_time(0.95, 0.4, 0.02) == 0.95 * 0.4 + 0.02
    assert effective_response_time(0.95, 0.4, 0.02) == pytest.approx(0.4)


@pytest.mark.parametrize(
    "args",
    [
        (-0.1, 0.4, 0.0),
        (1.0, -0.1, 0.0),
        (1.0, 0.1, -0.01),
        (math.nan, 0.4, 0.0),
        (1.0, math.inf, 0.0),
        (1.0, 0.4, math.nan),
    ],
)
def test_effective_response_time_rejects_negative_or_non_finite(args):
    with pytest.raises(InvalidParameterError):
        effective_response_time(*args)


def test_corrected_distance_plans_with_the_effective_response_time():
    # The corrected distance at (dev, eta) is the closed form at the same
    # effective response time once every ratio but e_tau is 1.
    rng = random.Random(5)
    for _ in range(100):
        rear, front, _ = random_pair(rng)
        dev = DeviationSet(response=rng.uniform(0.5, 1.0))
        eta = rng.uniform(0.0, 0.2)
        tau_eff = effective_response_time(dev.response, rear.response_time, eta)
        assert corrected_safe_distance(rear, front, dev, eta) == pytest.approx(
            safe_longitudinal_distance(rear, front, tau_eff), abs=1e-9
        )


def test_corrected_distance_reference_point():
    rear = REFERENCE.with_response_time(0.4)
    d = corrected_safe_distance(rear, REFERENCE, DeviationSet(), 0.1)
    assert d == pytest.approx(24.02, abs=1e-9)


def test_unit_deviation_collapse_matches_baseline():
    # With exact perception and the delays matched, the corrected distance
    # is the perception-mode distance.
    rng = random.Random(3)
    for _ in range(100):
        rear, front, tau = random_pair(rng)
        eta = rng.uniform(0.0, tau)
        rear_cbv = rear.with_response_time(tau - eta)
        d_cbv = corrected_safe_distance(rear_cbv, front, DeviationSet(), eta)
        d_pbv = safe_longitudinal_distance(rear, front, tau)
        assert d_cbv == pytest.approx(d_pbv, abs=1e-9)


def test_corrected_distance_trivial_branch_contact_floor():
    rear = VehicleParams(5.0, 9.0, 0.0, 0.0, 0.4)
    front = VehicleParams(5.0, 9.0, 0.0, 30.0, 0.4)
    dev = DeviationSet(length=0.9)
    assert corrected_safe_distance(rear, front, dev, 0.0) == pytest.approx(
        5.0 * (1 + 0.9) / 2
    )


def _cooperative_draw(rng):
    """A random_pair, ratios anywhere in the conservative regime and a
    latency of 0-0.2 s."""
    rear, front, _ = random_pair(rng)
    dev = DeviationSet(
        length=rng.uniform(0.05, 1.0),
        front_speed=rng.uniform(1.0, 1.5),
        brake=rng.uniform(0.05, 1.0),
        response=rng.uniform(0.05, 1.0),
    )
    return rear, front, dev, rng.uniform(0.0, 0.2)


def test_corrected_distance_never_below_contact_floor():
    rng = random.Random(11)
    for _ in range(300):
        rear, front, dev, eta = _cooperative_draw(rng)
        d = corrected_safe_distance(rear, front, dev, eta)
        assert d >= 0.5 * rear.length * (1 + dev.length) - 1e-12


def _exact_corrected(rear, front, dev, eta):
    """The corrected distance, the exact one and one ulp of its travel
    scale, at the effective response time."""
    tau = effective_response_time(dev.response, rear.response_time, eta)
    exact = exact_safe_distance(rear, front, tau, dev)
    return corrected_safe_distance(rear, front, dev, eta), exact, travel_ulp(rear, tau, exact)


def test_corrected_distance_above_the_contact_floor_matches_exact_oracle():
    # Wherever the closed form answers more than the contact distance, it is
    # the exact distance: 1.91 ulp of the travel scale was the worst of
    # 1,250 such draws in 5,000. At the floor it can be short (below).
    rng = random.Random(11)
    above = 0
    for _ in range(2000):
        rear, front, dev, eta = _cooperative_draw(rng)
        d, exact, ulp = _exact_corrected(rear, front, dev, eta)
        if d > 0.5 * rear.length * (1 + dev.length):
            above += 1
            assert abs(Fraction(d) - exact) <= 4 * ulp, (rear, front, dev, eta)
    assert above >= 400


def _cli_fleet(speed):
    """The CLI's default fleet at its cooperative response time."""
    return VehicleParams(5.0, 9.0, 3.0, speed, 0.4)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "with e_brake < 1 and t_front >= t_rear the corrected distance returns "
    "the contact distance, though the rear car closes in until the speeds "
    "meet; the fix moves pinned outputs (ROADMAP item 10)"))
@pytest.mark.parametrize("case", ["distance", "sdc", "draws"])
def test_corrected_distance_covers_the_exact_distance(case):
    if case == "distance":  # sdcap distance --mode cbv --vr 30 --vf 29 --e-brake 0.7
        cases = [(_cli_fleet(30.0), _cli_fleet(29.0), DeviationSet(brake=0.7), 0.1)]
    elif case == "sdc":  # sdcap sdc --e-brake 0.5, at the 100 km/h speed floor
        fleet = _cli_fleet(100.0 * KMH_TO_MPS)
        cases = [(fleet, fleet, DeviationSet(brake=0.5), 0.1)]
    else:
        rng = random.Random(11)
        cases = [_cooperative_draw(rng) for _ in range(2000)]
    for rear, front, dev, eta in cases:
        d, exact, ulp = _exact_corrected(rear, front, dev, eta)
        assert d >= exact - 4 * ulp, (rear, front, dev, eta, d, float(exact))


_ratio_down = st.floats(0.05, 1.0)
_ratio_up = st.floats(1.0, 1.5)


@settings(max_examples=400)
@given(
    st.integers(0, 10_000_000),
    _ratio_down,
    _ratio_up,
    _ratio_down,
    _ratio_down,
    st.floats(0.0, 1.0),
)
def test_corrected_distance_never_exceeds_baseline(seed, e_l, e_v, e_brake, e_tau, frac):
    # Conservative regime plus the delay side condition: the corrected
    # response time with latency never exceeds the perception response time.
    rear, front, tau_pbv = random_pair(random.Random(seed))
    dev = DeviationSet(length=e_l, front_speed=e_v, brake=e_brake, response=e_tau)
    tau0_cbv = rear.response_time
    room = tau_pbv - e_tau * tau0_cbv
    if room < 0:
        tau0_cbv = tau_pbv
        room = tau_pbv - e_tau * tau0_cbv
    eta = frac * room
    d_cbv = corrected_safe_distance(
        rear.with_response_time(tau0_cbv), front, dev, eta
    )
    d_pbv = safe_longitudinal_distance(rear, front, tau_pbv)
    assert d_cbv <= d_pbv + 1e-9


@settings(max_examples=200)
@given(st.integers(0, 10_000_000), st.floats(0.0, 0.2), st.floats(0.001, 0.2))
def test_corrected_distance_monotone_in_latency(seed, eta, bump):
    rear, front, _ = random_pair(random.Random(seed))
    dev = DeviationSet()
    d0 = corrected_safe_distance(rear, front, dev, eta)
    d1 = corrected_safe_distance(rear, front, dev, eta + bump)
    assert d1 >= d0 - 1e-12


def test_corrected_distance_rejects_negative_latency():
    with pytest.raises(InvalidParameterError):
        corrected_safe_distance(REFERENCE, REFERENCE, DeviationSet(), -0.01)


def test_latency_presets():
    assert LATENCY_PRESETS["dsrc"].lo == pytest.approx(0.010)
    assert LATENCY_PRESETS["5g"].lo == pytest.approx(0.001)
    assert LATENCY_PRESETS["4g"].lo == pytest.approx(0.050)
    for preset in LATENCY_PRESETS.values():
        assert preset.lo == preset.hi


def test_sample_latency_constant_and_degenerate_range():
    rng = random.Random(0)
    constant = LatencyModel.constant(0.01)
    assert all(sample_latency(constant, rng) == 0.01 for _ in range(10))
    degenerate = LatencyModel.uniform(0.001, 0.001)
    assert sample_latency(degenerate, rng) == 0.001


def test_sample_latency_seeded_reproducible_within_bounds():
    model = LatencyModel.uniform(0.0, 0.1)
    first = [sample_latency(model, random.Random(42)) for _ in range(1)]
    runs = [
        [sample_latency(model, rng) for _ in range(50)]
        for rng in (random.Random(42), random.Random(42))
    ]
    assert runs[0] == runs[1]
    assert all(0.0 <= x <= 0.1 for x in runs[0])
    assert runs[0][0] == first[0]


def test_latency_model_rejects_bad_bounds():
    with pytest.raises(InvalidParameterError):
        LatencyModel.uniform(-0.1, 0.1)
    with pytest.raises(InvalidParameterError):
        LatencyModel.uniform(0.2, 0.1)
