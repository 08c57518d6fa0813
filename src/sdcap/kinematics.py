"""Worst-case longitudinal braking kinematics.

The scenario: the front car suddenly applies full brake. The rear car,
worst case, keeps accelerating at its maximum rate for its whole response
time, then applies full brake itself. Both speeds floor at zero (no
reversing). The safe longitudinal distance is the smallest center-to-center
gap for which the two bodies never overlap under this profile.

Two independent routes to that distance live here: the closed form
(`safe_longitudinal_distance`) and the worst gap of a stepwise trajectory
simulation (`min_safe_gap_oracle`).
"""

import math

import numpy as np

from .errors import InvalidParameterError, OracleError
from .params import (
    VehicleParams,
    require_closed_form,
    require_equal_brakes,
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

    Both cars brake at one max_brake, as the first branch needs: a front car
    with a weaker brake can halt later and still be slower than the rear car
    for a while, so the gap shrinks until the two speeds meet. Two brakes
    are refused, like two lengths. Parameters whose rounding loses the
    response-time travel, or overflows the closed form, are refused too.
    """
    length = require_equal_lengths(rear, front)
    require_equal_brakes(rear, front)
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
) -> float:
    """The smallest initial center-to-center gap for which the simulated
    gap never drops below one body length. Independent check of
    `safe_longitudinal_distance`: it never touches the closed-form algebra.
    """
    length = require_equal_lengths(rear, front)
    _, x_rear, x_front = simulate_displacements(rear, front, tau, dt)
    # gap(t_k; d0) = d0 + x_front[k] - x_rear[k] >= length for every k
    # exactly when d0 >= length - worst.
    worst = float(np.min(x_front - x_rear))
    if not math.isfinite(worst):
        raise OracleError(f"simulated gap is {worst}: the parameters overflow the simulation")
    return max(length, length - worst)
