"""Deviation regimes and the corrected parameters they imply."""

import pytest
from hypothesis import given, settings, strategies as st

from sdcap import (
    DeviationSet,
    InvalidDeviationError,
    Regime,
    VehicleParams,
    corrected_params,
)


def test_corrected_params_identity_at_unit_deviations():
    params = VehicleParams(5.0, 9.0, 3.0, 27.78, 0.5)
    assert corrected_params(params, DeviationSet()) == params


def test_corrected_params_scales_length():
    params = VehicleParams(5.0, 9.0, 3.0, 27.78, 0.5)
    out = corrected_params(params, DeviationSet(length=0.96))
    assert out.length == pytest.approx(4.8)


def test_corrected_params_scales_response_time():
    params = VehicleParams(5.0, 9.0, 3.0, 27.78, 0.4)
    out = corrected_params(params, DeviationSet(response=0.95))
    assert out.response_time == pytest.approx(0.38)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(front_speed=0.99), "front_speed"),
        (dict(length=1.01), "length"),
        (dict(brake=1.2), "brake"),
        (dict(response=1.0001), "response"),
    ],
)
def test_conservative_regime_violations_name_the_field(kwargs, field):
    with pytest.raises(InvalidDeviationError, match=field):
        DeviationSet(**kwargs)


def test_good_perception_regime_is_tighter():
    DeviationSet(length=0.95, front_speed=1.05, brake=0.97, response=1.0,
                 regime=Regime.GOOD_PERCEPTION)
    with pytest.raises(InvalidDeviationError, match="brake"):
        DeviationSet(brake=0.94, regime=Regime.GOOD_PERCEPTION)
    with pytest.raises(InvalidDeviationError, match="front_speed"):
        DeviationSet(front_speed=1.06, regime=Regime.GOOD_PERCEPTION)


def test_unchecked_regime_allows_out_of_regime_points():
    dev = DeviationSet(front_speed=0.9, regime=Regime.UNCHECKED)
    assert dev.front_speed == 0.9
    with pytest.raises(InvalidDeviationError):
        DeviationSet(front_speed=-1.0, regime=Regime.UNCHECKED)


_ratio_down = st.floats(0.05, 1.0)
_ratio_up = st.floats(1.0, 1.5)


@settings(max_examples=300)
@given(_ratio_down, _ratio_up, _ratio_down, _ratio_down)
def test_conservative_regime_biases_point_the_safe_way(e_l, e_v, e_brake, e_tau):
    # Corrected front speed is never below its conservative estimate;
    # corrected length, braking and response never above theirs.
    dev = DeviationSet(length=e_l, front_speed=e_v, brake=e_brake, response=e_tau)
    conservative = VehicleParams(5.0, 9.0, 3.0, 27.78, 0.5)
    actual = corrected_params(conservative, dev)
    assert actual.speed >= conservative.speed
    assert actual.length <= conservative.length
    assert actual.max_brake <= conservative.max_brake
    assert actual.response_time <= conservative.response_time
