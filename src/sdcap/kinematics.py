"""Worst-case longitudinal braking kinematics.

The scenario: the front car suddenly applies full brake. The rear car,
worst case, keeps accelerating at its maximum rate for its whole response
time, then applies full brake itself. Both speeds floor at zero (no
reversing). The safe longitudinal distance is the smallest center-to-center
gap for which the two bodies never overlap under this profile.

Two independent routes to that distance live here: the closed form
(`safe_longitudinal_distance`) and a brute-force bisection over a stepwise
trajectory simulation (`min_safe_gap_oracle`).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParameterError, OracleError
from .params import (
    VehicleParams,
    require_closed_form,
    require_equal_lengths,
    require_finite,
    require_response_kept,
)


def max_speed_after_response(rear: VehicleParams, tau: float) -> float:
    """Highest speed the rear car can reach by the end of its response time."""
    tau = require_finite("tau", tau)
    if tau < 0:
        raise InvalidParameterError(f"tau must be >= 0, got {tau}")
    return rear.speed + tau * rear.max_accel


def time_to_stop_rear(rear: VehicleParams, tau: float) -> float:
    """Time from the front car's brake onset until the rear car halts."""
    return tau + max_speed_after_response(rear, tau) / rear.max_brake


def time_to_stop_front(front: VehicleParams) -> float:
    """Time for the front car to brake from its current speed to a halt."""
    return front.speed / front.max_brake


def safe_longitudinal_distance(
    rear: VehicleParams, front: VehicleParams, tau: float
) -> float:
    """Minimum safe center-to-center gap for a perception-based rear car.

    If the front car takes at least as long to halt as the rear
    (t_front >= t_rear), the gap never shrinks and the contact distance
    (one body length) suffices. Otherwise the minimum gap over time occurs
    when the rear car halts, and the requirement is the contact distance
    plus the difference of the two stopping displacements, floored at the
    contact distance (the displacement difference can go negative near the
    branch boundary).

    Each car brakes at its own max_brake; with a homogeneous fleet both
    values coincide. Parameters whose rounding loses the response-time
    travel, or overflows the closed form, are refused.
    """
    length = require_equal_lengths(rear, front)
    t_front = time_to_stop_front(front)
    t_rear = require_closed_form("rear stopping time", time_to_stop_rear(rear, tau))
    v_peak = max_speed_after_response(rear, tau)
    response_travel = 0.5 * (rear.speed + v_peak) * tau
    rear_travel = response_travel + 0.5 * (t_rear - tau) * v_peak
    require_response_kept(response_travel, rear_travel, length)
    if t_front >= t_rear:
        return length
    front_travel = 0.5 * front.speed * t_front
    distance = require_closed_form("safe distance", length + rear_travel - front_travel)
    return max(length, distance)


@dataclass(frozen=True)
class BrakingScenario:
    """A sudden-brake episode between two same-length vehicles.

    initial_gap is the center-to-center distance at brake onset;
    response_time is the rear car's effective response time; speed_cap,
    when set, bounds the rear car's speed during its response window.
    """

    rear: VehicleParams
    front: VehicleParams
    initial_gap: float
    response_time: float
    speed_cap: Optional[float] = None

    def __post_init__(self):
        require_equal_lengths(self.rear, self.front)
        require_finite("initial_gap", self.initial_gap)
        require_finite("response_time", self.response_time)
        if self.initial_gap < self.rear.length:
            raise InvalidParameterError(
                f"initial_gap must be >= vehicle length {self.rear.length}, "
                f"got {self.initial_gap}"
            )
        if self.response_time < 0:
            raise InvalidParameterError("response_time must be >= 0")
        if self.speed_cap is not None:
            cap = require_finite("speed_cap", self.speed_cap)
            if cap < self.rear.speed:
                raise InvalidParameterError(
                    "speed_cap below the rear car's current speed"
                )


def _front_displacement(front: VehicleParams, t: float) -> float:
    t_stop = time_to_stop_front(front)
    if t >= t_stop:
        return 0.5 * front.speed * t_stop
    return front.speed * t - 0.5 * front.max_brake * t * t


def _rear_displacement(
    rear: VehicleParams, tau: float, cap: Optional[float], t: float
) -> float:
    # Response window: accelerate (up to the cap, if any), then full brake.
    v0 = rear.speed
    accel = rear.max_accel
    if cap is None or accel == 0 or cap >= v0 + accel * tau:
        t_cap = tau
    else:
        t_cap = (cap - v0) / accel
    v_end = v0 + accel * min(tau, t_cap)

    if t <= t_cap:
        return v0 * t + 0.5 * accel * t * t
    d = v0 * t_cap + 0.5 * accel * t_cap * t_cap
    if t <= tau:
        return d + v_end * (t - t_cap)
    d += v_end * (tau - t_cap)
    brake_t = min(t - tau, v_end / rear.max_brake)
    return d + v_end * brake_t - 0.5 * rear.max_brake * brake_t * brake_t


def gap_at_time(scenario: BrakingScenario, t: float) -> float:
    """Center-to-center gap at time t under the worst-case profile.

    The front car applies full brake at t = 0; the rear car accelerates
    through its response window and then applies full brake. Constant once
    both cars halt.
    """
    t = require_finite("t", t)
    if t < 0:
        raise InvalidParameterError(f"t must be >= 0, got {t}")
    return (
        scenario.initial_gap
        + _front_displacement(scenario.front, t)
        - _rear_displacement(
            scenario.rear, scenario.response_time, scenario.speed_cap, t
        )
    )


def _integrate_ramp(
    speed: float, edges: np.ndarray, accel_of_edge: np.ndarray, brake: float
) -> np.ndarray:
    """Positions along a piecewise-linear velocity ramp with a zero floor.

    accel_of_edge[k] is the constant acceleration over [edges[k],
    edges[k+1]]; each step update is the exact constant-acceleration
    solution, including a mid-step halt when the velocity ramp crosses zero.
    """
    spans = np.diff(edges)
    raw = speed + np.concatenate(([0.0], np.cumsum(accel_of_edge * spans)))
    v = np.maximum(0.0, raw)
    travel = 0.5 * (v[:-1] + v[1:]) * spans
    halting = (v[:-1] > 0.0) & (raw[1:] < 0.0)
    if np.any(halting):
        travel[halting] = v[:-1][halting] ** 2 / (2.0 * brake)
    return np.concatenate(([0.0], np.cumsum(travel)))


def simulate_displacements(
    rear: VehicleParams, front: VehicleParams, tau: float, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stepwise displacement trajectories for both cars.

    The grid is the uniform dt grid with the rear car's brake-onset time
    inserted as an extra edge, so every step has one constant acceleration
    and the exact per-step update keeps the trajectory error well inside
    the oracle's agreement tolerance. Velocities floor at zero. Returns
    (times, rear_positions, front_positions) from a shared origin, covering
    the interval until both cars have halted.
    """
    if dt <= 0:
        raise InvalidParameterError(f"dt must be > 0, got {dt}")
    horizon = max(time_to_stop_rear(rear, tau), time_to_stop_front(front)) + 2 * dt
    n = int(math.ceil(horizon / dt)) + 1
    edges = np.arange(n + 1) * dt
    if 0.0 < tau < edges[-1]:
        edges = np.unique(np.append(edges, tau))

    accel_rear = np.where(edges[:-1] < tau, rear.max_accel, -rear.max_brake)
    x_rear = _integrate_ramp(rear.speed, edges, accel_rear, rear.max_brake)

    accel_front = np.full(len(edges) - 1, -front.max_brake)
    x_front = _integrate_ramp(front.speed, edges, accel_front, front.max_brake)
    return edges, x_rear, x_front


def min_safe_gap_oracle(
    rear: VehicleParams,
    front: VehicleParams,
    tau: float,
    dt: float = 1e-3,
    tol: float = 1e-3,
) -> float:
    """Bisection over the initial gap of a simulated braking episode.

    Returns the smallest initial center-to-center gap for which the
    simulated gap never drops below one body length. Independent check of
    `safe_longitudinal_distance`: it never touches the closed-form algebra.
    """
    length = require_equal_lengths(rear, front)
    _, x_rear, x_front = simulate_displacements(rear, front, tau, dt)
    # gap(t_k; d0) = d0 + x_front[k] - x_rear[k]; feasible iff min >= length
    worst = float(np.min(x_front - x_rear))

    def feasible(d0: float) -> bool:
        return d0 + worst >= length

    lo = length
    if feasible(lo):
        return lo
    hi = length + float(x_rear[-1]) + 1.0
    if not feasible(hi):
        raise OracleError(
            "bisection bracket failure: upper gap bound still collides"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
