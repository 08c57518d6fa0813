"""Conservative observations and deviation ratios.

A perception stack reports an ensemble average plus a worst-direction
sensor bias: for the front car's speed the safety-preserving direction is
low (a slower front car is harder on the rear), for braking power, body
length and response time it is high. The deviation of a metric is the
ratio of its actual value to that conservative estimate.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import InvalidDeviationError, InvalidInputError
from .params import VehicleParams, require_finite


class MetricKind(Enum):
    """Which biasing direction a perceived metric takes."""

    FRONT_SPEED = "front_speed"  # minimizing bias
    MAX_BRAKE = "max_brake"      # maximizing bias
    LENGTH = "length"            # maximizing bias
    RESPONSE_TIME = "response_time"  # maximizing bias


@dataclass(frozen=True)
class ObservationSet:
    """Raw measurements of one metric plus the sensor bias set."""

    samples: tuple[float, ...]
    biases: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(float(s) for s in self.samples))
        object.__setattr__(self, "biases", tuple(float(b) for b in self.biases))
        if not self.samples:
            raise InvalidInputError("ObservationSet.samples must be non-empty")
        if not self.biases:
            raise InvalidInputError("ObservationSet.biases must be non-empty")
        for v in (*self.samples, *self.biases):
            if not math.isfinite(v):
                raise InvalidInputError(f"observation values must be finite, got {v}")


def conservative_observation(obs: ObservationSet, kind: MetricKind) -> float:
    """Ensemble average shifted by the extreme bias in the safe direction."""
    mean = sum(obs.samples) / len(obs.samples)
    if kind is MetricKind.FRONT_SPEED:
        return mean + min(obs.biases)
    return mean + max(obs.biases)


def inaccuracy(actual: float, conservative: float) -> float:
    """Relative error of the conservative estimate: |1 - actual/conservative|."""
    actual = require_finite("actual", actual)
    conservative = require_finite("conservative", conservative)
    if conservative == 0:
        raise ZeroDivisionError("conservative estimate is zero")
    return abs(1.0 - actual / conservative)


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

    def is_conservative(self) -> bool:
        return (
            0 < self.length <= 1.0
            and 0 < self.brake <= 1.0
            and 0 < self.response <= 1.0
            and self.front_speed >= 1.0
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


def params_from_observations(
    observations: dict[MetricKind, ObservationSet], defaults: VehicleParams
) -> VehicleParams:
    """Build front-car parameters from per-metric conservative observations.

    Metrics without an observation set fall back to the defaults.
    """
    values = {}
    for kind, field in (
        (MetricKind.FRONT_SPEED, "speed"),
        (MetricKind.MAX_BRAKE, "max_brake"),
        (MetricKind.LENGTH, "length"),
        (MetricKind.RESPONSE_TIME, "response_time"),
    ):
        if kind in observations:
            values[field] = conservative_observation(observations[kind], kind)
    return replace(defaults, **values) if values else defaults
