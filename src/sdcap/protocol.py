"""Cooperative front-car information resolution and corrected safe distance.

A cooperative rear car requests the front car's parameters over V2V. On a
response it plans with the communicated actual values and an effective
response time of (response ratio * machine response time + latency). On a
timeout a simulated run takes predefined conservative defaults, while
resolve_front_info models the full chain: perception observations first,
then the defaults. The fallback paths carry no communication latency.
"""

import random
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .errors import InvalidParameterError
from .params import (
    VehicleParams,
    require_closed_form,
    require_finite,
    require_response_kept,
)
from .perception import (
    DeviationSet,
    MetricKind,
    ObservationSet,
    params_from_observations,
)


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


def effective_response_time(tau0: float, eta: float) -> float:
    """Machine response time plus communication latency (delays add)."""
    tau0 = require_finite("tau0", tau0)
    eta = require_finite("eta", eta)
    if tau0 < 0 or eta < 0:
        raise InvalidParameterError("tau0 and eta must be >= 0")
    return tau0 + eta


class InfoSource(Enum):
    RESPONSE = "response"
    PERCEPTION = "perception"
    DEFAULTS = "defaults"


@dataclass(frozen=True)
class FrontInfoResolution:
    """Outcome of the information-request round for one leader/follower pair."""

    source: InfoSource
    params: VehicleParams
    effective_tau: float


def resolve_front_info(
    response: Optional[VehicleParams],
    perception: Optional[Mapping[MetricKind, ObservationSet]],
    defaults: VehicleParams,
    response_time: float,
    response_ratio: float = 1.0,
    eta: float = 0.0,
) -> FrontInfoResolution:
    """Resolve the front car's parameters through the fallback chain.

    response -- communicated parameters, or None on timeout.
    perception -- per-metric observation sets, or None/empty if the
        perception system is down.
    defaults -- predefined most-conservative parameters.
    response_time -- the rear car's machine response time; the communicated
        path scales it by response_ratio and adds eta, the fallback paths
        use it as-is (no communication latency there).
    """
    if response is not None:
        return FrontInfoResolution(
            source=InfoSource.RESPONSE,
            params=response,
            effective_tau=response_ratio * response_time + eta,
        )
    if perception:
        return FrontInfoResolution(
            source=InfoSource.PERCEPTION,
            params=params_from_observations(dict(perception), defaults),
            effective_tau=response_time,
        )
    return FrontInfoResolution(
        source=InfoSource.DEFAULTS,
        params=defaults,
        effective_tau=response_time,
    )


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
    if rear.length != front_conservative.length:
        raise InvalidParameterError(
            "homogeneous fleet required: rear and front lengths differ"
        )
    tau_eff = dev.response * rear.response_time + eta
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

