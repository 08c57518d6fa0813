"""Deviation ratios between actual and conservative vehicle parameters.

A conservative estimate of a front car's metric errs the safe way: its
speed low (a slower front car is harder on the rear), its braking power,
body length and response time high. The deviation of a metric is the ratio
of its actual value to that conservative estimate, and a DeviationSet's
regime bounds the four ratios.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidDeviationError
from .params import VehicleParams, require_finite


class Regime(Enum):
    """Validation regime for a DeviationSet.

    CONSERVATIVE: estimates never less safe than the actual values
        (length, brake, response ratios in (0, 1], front-speed ratio >= 1).
    GOOD_PERCEPTION: conservative and within 5% of actual.
    UNCHECKED: any positive finite ratios (for out-of-regime experiments).
    """

    CONSERVATIVE = "conservative"
    GOOD_PERCEPTION = "good_perception"
    UNCHECKED = "unchecked"


@dataclass(frozen=True)
class DeviationSet:
    """Actual-over-conservative ratios for the four perceived metrics."""

    length: float = 1.0
    front_speed: float = 1.0
    brake: float = 1.0
    response: float = 1.0
    regime: Regime = Regime.CONSERVATIVE

    def __post_init__(self):
        for name in ("length", "front_speed", "brake", "response"):
            value = require_finite(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if value <= 0:
                raise InvalidDeviationError(f"deviation {name} must be > 0, got {value}")
        if self.regime is Regime.UNCHECKED:
            return
        for name in ("length", "brake", "response"):
            value = getattr(self, name)
            if value > 1.0:
                raise InvalidDeviationError(
                    f"deviation {name}={value} violates the {self.regime.value} "
                    "regime (must be <= 1)"
                )
            if self.regime is Regime.GOOD_PERCEPTION and value < 0.95:
                raise InvalidDeviationError(
                    f"deviation {name}={value} violates the good_perception "
                    "regime (must be >= 0.95)"
                )
        if self.front_speed < 1.0:
            raise InvalidDeviationError(
                f"deviation front_speed={self.front_speed} violates the "
                f"{self.regime.value} regime (must be >= 1)"
            )
        if self.regime is Regime.GOOD_PERCEPTION and self.front_speed > 1.05:
            raise InvalidDeviationError(
                f"deviation front_speed={self.front_speed} violates the "
                "good_perception regime (must be <= 1.05)"
            )


def corrected_params(conservative: VehicleParams, dev: DeviationSet) -> VehicleParams:
    """Actual vehicle parameters implied by conservative estimates and ratios.

    Maximum acceleration is not a perceived metric and passes through.
    """
    return VehicleParams(
        length=dev.length * conservative.length,
        max_brake=dev.brake * conservative.max_brake,
        max_accel=conservative.max_accel,
        speed=dev.front_speed * conservative.speed,
        response_time=dev.response * conservative.response_time,
    )
