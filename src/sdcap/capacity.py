"""Road capacity under the safe-spacing requirement.

Capacity counts the vehicles an M-kilometer, N-lane straight road can hold
with every vehicle safely spaced and running at least the speed floor V.
The spacing requirement grows with speed, so the densest safe packing puts
everyone exactly at the floor; with a homogeneous fleet the expected
spacing collapses to a single closed-form distance.
"""

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .errors import InvalidInputError, InvalidParameterError, SdcapError
from .kinematics import safe_longitudinal_distance
from .params import KMH_TO_MPS, VehicleParams, require_closed_form, require_finite
from .perception import DeviationSet, Regime
from .protocol import corrected_safe_distance, effective_response_time

# From 2**53 on a double does not hold every integer, so `sdc` refuses a
# packing quotient there: its floor and its + 1 would be rounding.
_EXACT_INTEGERS = 2.0 ** 53


@dataclass(frozen=True)
class RoadSpec:
    """Road geometry and the speed floor, in the units capacity is quoted in."""

    length_km: float = 10.0
    lanes: int = 2
    min_speed_kmh: float = 100.0

    def __post_init__(self):
        require_finite("length_km", self.length_km)
        require_finite("min_speed_kmh", self.min_speed_kmh)
        if self.length_km <= 0:
            raise InvalidParameterError(f"length_km must be > 0, got {self.length_km}")
        if not isinstance(self.lanes, int) or self.lanes < 1:
            raise InvalidParameterError(f"lanes must be a positive integer, got {self.lanes}")
        if self.min_speed_kmh <= 0:
            # Without a speed floor the densest packing is a parking lot.
            raise InvalidParameterError(
                f"min_speed_kmh must be > 0, got {self.min_speed_kmh}"
            )

    @property
    def length_m(self) -> float:
        return self.length_km * 1000.0

    @property
    def min_speed_mps(self) -> float:
        return self.min_speed_kmh * KMH_TO_MPS


def safe_distance(
    rear: VehicleParams,
    front: VehicleParams,
    mode: str,
    dev: Optional[DeviationSet] = None,
    eta: float = 0.0,
) -> float:
    """The safe gap the rear car must keep, by the information it plans with.

    "pbv": the rear car perceived the front car's conservative values and
    keeps the closed-form distance at its own response time. "cbv": it
    received the actual values (dev maps the front car's conservative values
    to them) after a latency of eta, and keeps the corrected distance.
    """
    if mode == "pbv":
        return safe_longitudinal_distance(rear, front, rear.response_time)
    if mode == "cbv":
        if dev is None:
            raise InvalidInputError("cbv mode requires a DeviationSet")
        return corrected_safe_distance(rear, front, dev, eta)
    raise InvalidInputError(f"mode must be 'pbv' or 'cbv', got {mode!r}")


def expected_safe_distance(
    fleet: VehicleParams,
    road: RoadSpec,
    mode: str,
    dev: Optional[DeviationSet] = None,
    eta: float = 0.0,
) -> float:
    """Expected safe spacing for a homogeneous fleet pinned at the speed floor."""
    at_floor = fleet.with_speed(road.min_speed_mps)
    return safe_distance(at_floor, at_floor, mode, dev, eta)


def sdc(road: RoadSpec, expected_distance: float, vehicle_length: float) -> int:
    """Capacity: floor(lanes * (road length - vehicle length) / spacing) + 1.

    A quotient that is not finite, or is at least 2**53, is refused."""
    expected_distance = require_finite("expected_distance", expected_distance)
    vehicle_length = require_finite("vehicle_length", vehicle_length)
    if expected_distance <= 0:
        raise InvalidParameterError(
            f"expected_distance must be > 0, got {expected_distance}"
        )
    if vehicle_length <= 0 or vehicle_length >= road.length_m:
        raise InvalidParameterError(
            "vehicle_length must be in (0, road length), got "
            f"{vehicle_length} vs {road.length_m}"
        )
    try:
        quotient = road.lanes * (road.length_m - vehicle_length) / expected_distance
    except OverflowError:  # lanes too large to convert to a float
        quotient = math.inf
    if require_closed_form("packing quotient", quotient) >= _EXACT_INTEGERS:
        raise InvalidParameterError(
            f"packing quotient is {quotient}: at or past 2**53 a double does not "
            "hold every integer, so its floor is not a count"
        )
    return math.floor(quotient) + 1


def sdc_per_lane(road: RoadSpec, expected_distance: float, vehicle_length: float) -> int:
    """Comparison variant: pack each lane separately, then sum.

    lanes * (floor((road length - vehicle length) / spacing) + 1); differs
    from `sdc` by up to lanes - 1 vehicles.
    """
    single = sdc(
        RoadSpec(road.length_km, 1, road.min_speed_kmh), expected_distance, vehicle_length
    )
    return road.lanes * single


@dataclass(frozen=True)
class CapacityReport:
    """Both capacities plus the inputs that produced them."""

    sdc_pbv: int
    sdc_cbv: int
    expected_distance_pbv: float
    expected_distance_cbv: float
    parameters: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "sdc_pbv": self.sdc_pbv,
            "sdc_cbv": self.sdc_cbv,
            "expected_distance_pbv_m": self.expected_distance_pbv,
            "expected_distance_cbv_m": self.expected_distance_cbv,
            "parameters": dict(self.parameters),
        }


def _cooperative_capacity(
    fleet_cbv: VehicleParams, road: RoadSpec, dev: DeviationSet, eta: float
) -> tuple[float, int]:
    """Cooperative spacing and capacity. fleet_cbv is the fleet at the speed
    floor with its cooperative-mode response time; it packs at the
    communicated actual length."""
    d_cbv = safe_distance(fleet_cbv, fleet_cbv, "cbv", dev, eta)
    return d_cbv, sdc(road, d_cbv, dev.length * fleet_cbv.length)


def capacity_report(
    fleet_pbv: VehicleParams,
    road: RoadSpec,
    dev: DeviationSet,
    eta: float,
    cbv_response_time: float,
) -> CapacityReport:
    """Evaluate both road capacities for one parameter point.

    fleet_pbv carries the perception-mode response time; cbv_response_time
    replaces it on the cooperative side. The cooperative packing length is
    the communicated actual length.
    """
    d_pbv = expected_safe_distance(fleet_pbv, road, "pbv")
    fleet_cbv = fleet_pbv.with_speed(road.min_speed_mps).with_response_time(cbv_response_time)
    d_cbv, sdc_cbv = _cooperative_capacity(fleet_cbv, road, dev, eta)
    return CapacityReport(
        sdc_pbv=sdc(road, d_pbv, fleet_pbv.length),
        sdc_cbv=sdc_cbv,
        expected_distance_pbv=d_pbv,
        expected_distance_cbv=d_cbv,
        parameters={
            "road_length_km": road.length_km,
            "lanes": road.lanes,
            "min_speed_kmh": road.min_speed_kmh,
            "vehicle_length_m": fleet_pbv.length,
            "max_brake_mps2": fleet_pbv.max_brake,
            "max_accel_mps2": fleet_pbv.max_accel,
            "pbv_response_time_s": fleet_pbv.response_time,
            "cbv_response_time_s": cbv_response_time,
            "e_l": dev.length,
            "e_v": dev.front_speed,
            "e_brake": dev.brake,
            "e_tau": dev.response,
            "eta_s": eta,
        },
    )


@dataclass(frozen=True)
class SweepGrid:
    """Axes of a deviation/latency sweep. Row order follows axis order."""

    e_tau: tuple[float, ...]
    e_brake: tuple[float, ...]
    e_v: tuple[float, ...]
    eta: tuple[float, ...]
    e_length: float = 1.0

    def __post_init__(self):
        for name in ("e_tau", "e_brake", "e_v", "eta"):
            axis = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, axis)
            if not axis:
                raise InvalidInputError(f"sweep axis {name} must be non-empty")
        require_finite("e_length", self.e_length)

    def points(self):
        return product(self.e_tau, self.e_brake, self.e_v, self.eta)


SWEEP_CSV_HEADER = "e_tau,e_brake,e_V,eta_s,D_pbv_m,D_cbv_m,SDC_pbv,SDC_cbv"


@dataclass(frozen=True)
class SweepRow:
    e_tau: float
    e_brake: float
    e_v: float
    eta: float
    d_pbv: float
    d_cbv: float
    sdc_pbv: int
    sdc_cbv: int

    def as_csv(self) -> str:
        return (
            f"{self.e_tau!r},{self.e_brake!r},{self.e_v!r},{self.eta!r},"
            f"{self.d_pbv!r},{self.d_cbv!r},{self.sdc_pbv},{self.sdc_cbv}"
        )


@dataclass(frozen=True)
class CapacityBoundReport:
    """Outcome of sweeping the cooperative-vs-perception capacity bound."""

    rows: tuple[SweepRow, ...]
    violations: tuple[SweepRow, ...]
    rejected: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return not self.violations and not self.rejected

    def sdc_cbv_spread(self) -> tuple[int, int]:
        values = [r.sdc_cbv for r in self.rows]
        return (min(values), max(values)) if values else (0, 0)


def check_capacity_bound(
    grid: SweepGrid,
    fleet_pbv: VehicleParams,
    cbv_response_time: float,
    road: RoadSpec = RoadSpec(),
) -> CapacityBoundReport:
    """Evaluate both capacities across the grid and look for bound violations.

    Every point must sit in the conservative regime and satisfy the delay
    side condition (the effective response time of the cooperative fleet,
    protocol.effective_response_time, not above the perception-mode
    response time, with 1e-12 s of slack); offending points are rejected
    with a diagnostic and not counted. Both capacities are those of `road`, whose
    speed floor is the speed the fleet is evaluated at. The perception side
    does not depend on the grid and is computed once.
    """
    d_pbv = expected_safe_distance(fleet_pbv, road, "pbv")
    sdc_pbv = sdc(road, d_pbv, fleet_pbv.length)
    fleet_cbv = fleet_pbv.with_speed(road.min_speed_mps).with_response_time(cbv_response_time)
    rows: list[SweepRow] = []
    violations: list[SweepRow] = []
    rejected: list[str] = []
    for e_tau, e_brake, e_v, eta in grid.points():
        try:
            dev = DeviationSet(
                length=grid.e_length,
                front_speed=e_v,
                brake=e_brake,
                response=e_tau,
                regime=Regime.CONSERVATIVE,
            )
        except SdcapError as exc:
            rejected.append(
                f"point (e_tau={e_tau}, e_brake={e_brake}, e_v={e_v}, eta={eta}): {exc}"
            )
            continue
        # An eta outside [0, limit] (inf and nan among them) is refused
        # before the sum.
        limit = fleet_pbv.response_time + 1e-12
        if not (0 <= eta <= limit) or effective_response_time(
            e_tau, cbv_response_time, eta
        ) > limit:
            rejected.append(
                f"point (e_tau={e_tau}, e_brake={e_brake}, e_v={e_v}, eta={eta}): "
                "delay side condition violated "
                f"(e_tau*{cbv_response_time} + eta > {fleet_pbv.response_time})"
            )
            continue
        d_cbv, sdc_cbv = _cooperative_capacity(fleet_cbv, road, dev, eta)
        row = SweepRow(e_tau, e_brake, e_v, eta, d_pbv, d_cbv, sdc_pbv, sdc_cbv)
        rows.append(row)
        if row.sdc_cbv < row.sdc_pbv:
            violations.append(row)
    return CapacityBoundReport(tuple(rows), tuple(violations), tuple(rejected))
