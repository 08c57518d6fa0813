"""Physical vehicle parameters.

All quantities are SI (meters, seconds, m/s, m/s^2). Unit conversion from
km/h happens at the CLI boundary, never here.
"""

import math
from dataclasses import dataclass, replace

from .errors import InvalidParameterError

KMH_TO_MPS = 1.0 / 3.6


def require_finite(name: str, value: float) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be a finite number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


def require_closed_form(name: str, value: float) -> float:
    """value, if finite. Parameters whose closed form overflows a double
    (a near-zero brake, a speed near the largest double) are refused rather
    than answered with inf, or with the contact distance when both stopping
    times are inf."""
    if not math.isfinite(value):
        raise InvalidParameterError(
            f"{name} is {value}: the parameters overflow the closed form"
        )
    return value


# The least part of itself, in relative terms, that a response-time travel
# must keep through the rounding of the travel it is summed into.
_RESPONSE_RESOLUTION = 2.0 ** -20


def require_response_kept(response: float, total: float, contact: float):
    """Refuse a response-time travel (m) lost to rounding in the travel
    `total` it is part of. At huge speeds the rounding unit of the braking
    travel passes it, and the closed form answers as if the rear car had a
    shorter response time, or none. A response-time travel below a millionth
    of the contact distance (tau = 0 among them) decides nothing and is
    never refused."""
    if (response > _RESPONSE_RESOLUTION * contact
            and math.ulp(total) > _RESPONSE_RESOLUTION * response):
        raise InvalidParameterError(
            f"response-time travel is lost to rounding ({response!r} m in {total!r} m): "
            "the parameters overflow the closed form"
        )


@dataclass(frozen=True)
class VehicleParams:
    """Parameters of one vehicle.

    length: body length in meters (center-to-center contact between two
        equal-length vehicles occurs at exactly this distance).
    max_brake: magnitude of the full-braking deceleration, m/s^2 (> 0).
    max_accel: maximum acceleration, m/s^2 (>= 0).
    speed: current longitudinal speed, m/s (>= 0).
    response_time: machine response time in seconds, the delay between an
        event becoming observable and the brakes engaging (>= 0).
    """

    length: float
    max_brake: float
    max_accel: float
    speed: float
    response_time: float

    def __post_init__(self):
        for name in ("length", "max_brake", "max_accel", "speed", "response_time"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))
        if self.length <= 0:
            raise InvalidParameterError(f"length must be > 0, got {self.length}")
        if self.max_brake <= 0:
            raise InvalidParameterError(f"max_brake must be > 0, got {self.max_brake}")
        if self.max_accel < 0:
            raise InvalidParameterError(f"max_accel must be >= 0, got {self.max_accel}")
        if self.speed < 0:
            raise InvalidParameterError(f"speed must be >= 0, got {self.speed}")
        if self.response_time < 0:
            raise InvalidParameterError(
                f"response_time must be >= 0, got {self.response_time}"
            )

    def with_speed(self, speed: float) -> "VehicleParams":
        return replace(self, speed=speed)

    def with_response_time(self, response_time: float) -> "VehicleParams":
        return replace(self, response_time=response_time)
