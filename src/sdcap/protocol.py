"""Cooperative front-car information and the corrected safe distance.

A cooperative rear car requests the front car's parameters over V2V. On a
response it plans with the communicated actual values and the effective
response time e_tau * tau0 + eta (response ratio times machine response
time, plus latency), formed in `effective_response_time` alone. On a
timeout it takes predefined conservative defaults at its own machine
response time, with no communication latency.
"""

import random
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParameterError
from .params import (
    VehicleParams,
    require_closed_form,
    require_equal_lengths,
    require_finite,
    require_response_kept,
)
from .perception import DeviationSet


@dataclass(frozen=True)
class LatencyModel:
    """Message latency in seconds: constant when lo == hi, else uniform."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = require_finite("lo", self.lo)
        hi = require_finite("hi", self.hi)
        if lo < 0 or hi < lo:
            raise InvalidParameterError(
                f"latency bounds must satisfy 0 <= lo <= hi, got [{lo}, {hi}]"
            )

    @classmethod
    def constant(cls, value: float) -> "LatencyModel":
        return cls(value, value)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "LatencyModel":
        return cls(lo, hi)


# Defaults per V2V technology; real deployments tend to beat these numbers.
LATENCY_PRESETS = {
    "dsrc": LatencyModel.constant(0.010),
    "5g": LatencyModel.constant(0.001),
    "4g": LatencyModel.constant(0.050),
}

DEFAULT_REQUEST_TIMEOUT = 0.1


def sample_latency(model: LatencyModel, rng: random.Random) -> float:
    """Draw one latency value; deterministic given the caller's RNG state."""
    if model.lo == model.hi:
        return model.lo
    return rng.uniform(model.lo, model.hi)


def effective_response_time(e_tau: float, tau0: float, eta: float) -> float:
    """The cooperative effective response time: the machine response time
    tau0 scaled by the response ratio e_tau, plus the latency eta (delays
    add). The one place the sum is formed, so the simulator's links, the
    corrected distance and the capacity sweep's side condition all get the
    same double."""
    e_tau = require_finite("e_tau", e_tau)
    tau0 = require_finite("tau0", tau0)
    eta = require_finite("eta", eta)
    if e_tau < 0 or tau0 < 0 or eta < 0:
        raise InvalidParameterError("e_tau, tau0 and eta must be >= 0")
    return e_tau * tau0 + eta


class InfoSource(Enum):
    RESPONSE = "response"
    PERCEPTION = "perception"
    DEFAULTS = "defaults"


def corrected_safe_distance(
    rear: VehicleParams,
    front_conservative: VehicleParams,
    dev: DeviationSet,
    eta: float,
) -> float:
    """Safe gap for a cooperative rear car that learned the actual values.

    front_conservative holds the conservative estimates; dev maps them to
    the communicated actuals. The rear car's own braking stays at its own
    max_brake. Floored at the mixed contact distance, the mean of the rear
    car's own length and the communicated front length.
    """
    eta = require_finite("eta", eta)
    if eta < 0:
        raise InvalidParameterError(f"eta must be >= 0, got {eta}")
    require_equal_lengths(rear, front_conservative)
    tau_eff = effective_response_time(dev.response, rear.response_time, eta)
    v_peak = rear.speed + tau_eff * rear.max_accel
    t_rear = require_closed_form("rear stopping time", tau_eff + v_peak / rear.max_brake)

    front_speed = dev.front_speed * front_conservative.speed
    front_brake = dev.brake * front_conservative.max_brake
    t_front = require_closed_form("front stopping time", front_speed / front_brake)

    contact = 0.5 * rear.length * (1.0 + dev.length)
    response_travel = 0.5 * (rear.speed + v_peak) * tau_eff
    braking_travel = 0.5 * v_peak * v_peak / rear.max_brake
    require_response_kept(response_travel, response_travel + braking_travel, contact)
    if t_front >= t_rear:
        return contact
    distance = 0.5 * (
        (rear.length + rear.length * dev.length)
        - front_speed * t_front
        + (rear.speed + v_peak) * tau_eff
        + v_peak * v_peak / rear.max_brake
    )
    return max(contact, require_closed_form("safe distance", distance))

