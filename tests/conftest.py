"""Shared fixtures and independent reference implementations for the tests."""

import csv
import random

import pytest

from sdcap import (
    And,
    Atom,
    BoundaryMode,
    Finally,
    Globally,
    Implies,
    InvalidInputError,
    Not,
    Or,
    Trace,
    VehicleParams,
    VehicleState,
)
from sdcap.ltl import TRACE_CSV_COLUMNS

# The reference operating point used across the suite: 100 km/h quoted as
# 27.78 m/s, ABS-grade braking, mid-range acceleration, 0.5 s response.
REFERENCE = VehicleParams(
    length=5.0, max_brake=9.0, max_accel=3.0, speed=27.78, response_time=0.5
)


@pytest.fixture
def reference_params() -> VehicleParams:
    return REFERENCE


def random_pair(rng: random.Random) -> tuple[VehicleParams, VehicleParams, float]:
    """A homogeneous-braking rear/front pair plus a response time."""
    length = rng.uniform(3.0, 6.0)
    brake = rng.uniform(2.0, 10.0)
    rear = VehicleParams(
        length=length,
        max_brake=brake,
        max_accel=rng.uniform(0.0, 4.0),
        speed=rng.uniform(0.0, 40.0),
        response_time=rng.uniform(0.0, 1.5),
    )
    front = VehicleParams(
        length=length,
        max_brake=brake,
        max_accel=rng.uniform(0.0, 4.0),
        speed=rng.uniform(0.0, 40.0),
        response_time=rear.response_time,
    )
    return rear, front, rng.uniform(0.0, 1.5)


# ---------------------------------------------------------------------------
# Independent temporal-logic reference: the bounded operators expanded as
# explicit loops over concrete step indices.


def reference_evaluate(trace, i, formula, boundary=BoundaryMode.ABSORBING):
    kind = type(formula).__name__
    state = trace.steps[i]
    if kind == "Atom":
        table = {
            "BER": state.ber_active,
            "C": state.collided,
            "Y": state.responsible,
        }
        return table[formula.name]
    if kind == "Not":
        return not reference_evaluate(trace, i, formula.child, boundary)
    if kind == "And":
        return reference_evaluate(trace, i, formula.left, boundary) and (
            reference_evaluate(trace, i, formula.right, boundary)
        )
    if kind == "Or":
        return reference_evaluate(trace, i, formula.left, boundary) or (
            reference_evaluate(trace, i, formula.right, boundary)
        )
    if kind == "Implies":
        if reference_evaluate(trace, i, formula.left, boundary):
            return reference_evaluate(trace, i, formula.right, boundary)
        return True
    last = len(trace.steps) - 1
    indices = []
    j = i + formula.lo
    while j <= i + formula.hi:
        if j <= last:
            indices.append(j)
        elif boundary is BoundaryMode.ABSORBING:
            indices.append(last)
        j += 1
    verdicts = [
        reference_evaluate(trace, j, formula.child, boundary) for j in indices
    ]
    if kind == "Globally":
        return all(verdicts)
    if kind == "Finally":
        return any(verdicts)
    raise AssertionError(f"unhandled node {kind}")


def random_formula(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        return Atom(rng.choice(("BER", "C", "Y")))
    choice = rng.randrange(6)
    if choice == 0:
        return Not(random_formula(rng, depth - 1))
    if choice == 1:
        return And(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if choice == 2:
        return Or(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if choice == 3:
        return Implies(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    lo = rng.randrange(0, 6)
    hi = lo + rng.randrange(0, 6)
    if choice == 4:
        return Globally(lo, hi, random_formula(rng, depth - 1))
    return Finally(lo, hi, random_formula(rng, depth - 1))


def random_trace(rng: random.Random, max_len: int = 20, vehicle_id: str = "t") -> Trace:
    n = rng.randrange(1, max_len + 1)
    collide_from = rng.randrange(0, n + 3)  # may be past the end: no collision
    steps = []
    for k in range(n):
        steps.append(
            VehicleState(
                position=rng.uniform(-100.0, 100.0),
                velocity=rng.uniform(0.0, 30.0),
                ber_active=rng.random() < 0.5,
                collided=k >= collide_from,
                responsible=rng.random() < 0.3,
            )
        )
    return Trace(vehicle_id, tuple(steps), 0.1)


# ---------------------------------------------------------------------------
# Reference trace-CSV reader: one csv.DictReader row and one VehicleState at
# a time. It is the reader the library used before it parsed the columns
# with numpy, with two fixes the columnar reader also makes: a row missing
# its vehicle_id field is rejected (it was grouped under the id None), and
# a non-finite t is rejected (a nan timestamp passed the sampling check).


def reference_read_traces_csv(stream):
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise InvalidInputError("empty trace CSV")
    missing = [c for c in TRACE_CSV_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise InvalidInputError(f"trace CSV missing columns: {missing}")
    per_vehicle = {}
    order = []
    for lineno, row in enumerate(reader, start=2):
        try:
            vid = row["vehicle_id"]
            if vid is None:
                raise ValueError("missing vehicle_id")
            t = float(row["t"])
            if t != t or abs(t) == float("inf"):
                raise ValueError(f"t must be finite, got {t}")
            state = VehicleState(
                position=float(row["position_m"]),
                velocity=float(row["velocity_mps"]),
                ber_active=bool(int(row["ber"])),
                collided=bool(int(row["collided"])),
                responsible=bool(int(row["responsible"])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"trace CSV line {lineno}: {exc}") from exc
        if vid not in per_vehicle:
            per_vehicle[vid] = []
            order.append(vid)
        per_vehicle[vid].append((t, state))

    traces = []
    for vid in order:
        rows = sorted(per_vehicle[vid], key=lambda pair: pair[0])
        if len(rows) < 2:
            raise InvalidInputError(f"trace {vid}: need at least two samples")
        dt = rows[1][0] - rows[0][0]
        if dt <= 0:
            raise InvalidInputError(f"trace {vid}: non-increasing timestamps")
        for (t0, _), (t1, _) in zip(rows, rows[1:]):
            if abs((t1 - t0) - dt) > 1e-9 * max(1.0, abs(dt)):
                raise InvalidInputError(f"trace {vid}: non-uniform sampling step")
        traces.append(Trace(vid, tuple(state for _, state in rows), dt))
    return traces
