"""Shared fixtures and independent reference implementations for the tests."""

import csv
import io
import random
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from sdcap import (
    And,
    Atom,
    BrakeTrigger,
    DeviationSet,
    Finally,
    Globally,
    Implies,
    InfoSource,
    InvalidInputError,
    LatencyModel,
    Not,
    Or,
    RoadSpec,
    ScenarioConfig,
    SpawnSpec,
    Trace,
    VehicleParams,
    VehicleState,
    corrected_safe_distance,
    safe_longitudinal_distance,
    write_traces_csv,
)
from sdcap.ltl import TRACE_CSV_COLUMNS
from sdcap.errors import InvalidParameterError, SdcapError
from sdcap.simulator import (
    Run,
    _advance,
    _first,
    _reschedule,
    _scan_collisions,
    _start_run,
    link_resolutions,
    vehicle_id,
)

# The reference operating point used across the suite: 100 km/h quoted as
# 27.78 m/s, ABS-grade braking, mid-range acceleration, 0.5 s response.
REFERENCE = VehicleParams(
    length=5.0, max_brake=9.0, max_accel=3.0, speed=27.78, response_time=0.5
)


@pytest.fixture
def reference_params() -> VehicleParams:
    return REFERENCE


# The PBV safe gap between two REFERENCE cars (0.5 s response time).
D_SAFE = safe_longitudinal_distance(REFERENCE, REFERENCE, 0.5)


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


@st.composite
def scenarios(draw):
    """Small random roads: 1-3 lanes of 2-8 cars at 0.6-1.3 x the PBV gap,
    1-3 triggers on or off the step grid, braking delays, PBV or CBV with a
    latency range that straddles the request timeout, a speed cap or none,
    and a step of 1-20 ms."""
    dt = draw(st.floats(0.001, 0.02))
    delay = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    lanes = []
    for _ in range(draw(st.integers(1, 3))):
        column = [SpawnSpec(REFERENCE, None, draw(delay))]
        for _ in range(draw(st.integers(1, 7))):
            gap = draw(st.floats(0.6, 1.3)) * D_SAFE
            column.append(SpawnSpec(REFERENCE, gap, draw(delay)))
        lanes.append(tuple(column))
    triggers = []
    for _ in range(draw(st.integers(1, 3))):
        lane = draw(st.integers(0, len(lanes) - 1))
        index = draw(st.integers(0, len(lanes[lane]) - 1))
        # k steps, plus a fraction of one for a time off the grid.
        steps = draw(st.integers(0, int(1.0 / dt))) + draw(
            st.one_of(st.just(0.0), st.floats(0.01, 0.99))
        )
        triggers.append(BrakeTrigger(lane, index, steps * dt))
    return ScenarioConfig(
        road=RoadSpec(10.0, len(lanes), 100.0),
        lanes=tuple(lanes),
        triggers=tuple(triggers),
        mode=draw(st.sampled_from(("pbv", "cbv"))),
        dev=DeviationSet(0.96, 1.03, 0.97, 0.95),
        latency=LatencyModel.uniform(0.05, 0.15),
        dt=dt,
        rng_seed=draw(st.integers(0, 2**31)),
        request_timeout=0.1,
        speed_cap=draw(st.one_of(st.none(), st.floats(REFERENCE.speed, REFERENCE.speed + 3.0))),
    )


@st.composite
def shared_lanes(draw):
    """Roads of a base lane of 1-8 cars and 1-2 more lanes, each a copy, a
    prefix or an extension of it by up to 3 cars, with one change at a
    drawn car: its gap, its braking delay or a trigger (up to 200 steps
    in, so in a later block of a small one), or none. A lane keeps the
    base lane's triggers on the cars it has. PBV or CBV: in CBV each link
    draws its own latency, so the lanes share only their lead."""
    dt = draw(st.floats(0.001, 0.02))
    gap = st.floats(0.6, 1.3).map(lambda factor: factor * D_SAFE)
    delay = st.one_of(st.just(0.0), st.floats(0.0, 2.0))

    def at_step():
        steps = draw(st.integers(0, 200)) + draw(st.one_of(st.just(0.0), st.floats(0.01, 0.99)))
        return steps * dt

    def followers(count):
        return [SpawnSpec(REFERENCE, draw(gap), draw(delay)) for _ in range(count)]

    base = [SpawnSpec(REFERENCE, None, draw(delay)), *followers(draw(st.integers(0, 7)))]
    base_triggers = {draw(st.integers(0, len(base) - 1)): at_step()
                     for _ in range(draw(st.integers(1, 2)))}
    lanes, triggers = [base], [BrakeTrigger(0, i, t) for i, t in base_triggers.items()]
    for lane_idx in range(1, draw(st.integers(2, 3))):
        size = draw(st.integers(1, len(base) + 3))
        lane = base[:size] + followers(size - len(base))
        lane_triggers = {i: t for i, t in base_triggers.items() if i < size}
        change = draw(st.sampled_from(("none", "gap", "delay", "trigger")))
        if change == "gap" and size > 1:
            where = draw(st.integers(1, size - 1))
            lane[where] = replace(lane[where], gap_to_predecessor=draw(gap))
        elif change == "delay":
            where = draw(st.integers(0, size - 1))
            lane[where] = replace(lane[where], ber_delay=draw(delay))
        elif change == "trigger":
            lane_triggers[draw(st.integers(0, size - 1))] = at_step()
        lanes.append(tuple(lane))
        triggers += [BrakeTrigger(lane_idx, i, t) for i, t in lane_triggers.items()]
    return ScenarioConfig(
        road=RoadSpec(10.0, len(lanes), 100.0),
        lanes=tuple(map(tuple, lanes)),
        triggers=tuple(triggers),
        mode=draw(st.sampled_from(("pbv", "cbv"))),
        dev=DeviationSet(0.96, 1.03, 0.97, 0.95),
        latency=LatencyModel.uniform(0.05, 0.15),
        dt=dt,
        rng_seed=draw(st.integers(0, 2**31)),
        request_timeout=0.1,
        speed_cap=draw(st.one_of(st.none(), st.floats(REFERENCE.speed, REFERENCE.speed + 3.0))),
    )


@st.composite
def dense_chains(draw):
    """One lane of 5-30 cars at 0.2-0.5 x the PBV gap (a body length at
    least), whose lead brakes at t = 0, PBV or CBV, with a step of 1-20 ms
    (the contact workload's benchmark runs at 1 ms): nearly every follower
    hits its front, one contact after another."""
    column = [SpawnSpec(REFERENCE)]
    for _ in range(draw(st.integers(4, 29))):
        gap = max(draw(st.floats(0.2, 0.5)) * D_SAFE, REFERENCE.length)
        column.append(SpawnSpec(REFERENCE, gap))
    return ScenarioConfig(
        road=RoadSpec(10.0, 1, 100.0),
        lanes=(tuple(column),),
        triggers=(BrakeTrigger(0, 0, 0.0),),
        mode=draw(st.sampled_from(("pbv", "cbv"))),
        dev=DeviationSet(0.96, 1.03, 0.97, 0.95),
        latency=LatencyModel.uniform(0.05, 0.15),
        dt=draw(st.floats(0.001, 0.02)),
        rng_seed=draw(st.integers(0, 2**31)),
        request_timeout=0.1,
    )


# ---------------------------------------------------------------------------
# Independent temporal-logic reference: the bounded operators expanded as
# explicit loops over concrete step indices.


def reference_evaluate(trace, i, formula):
    """The formula at step i, an offset past the end reading the final
    state."""
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
        return not reference_evaluate(trace, i, formula.child)
    if kind == "And":
        return reference_evaluate(trace, i, formula.left) and (
            reference_evaluate(trace, i, formula.right)
        )
    if kind == "Or":
        return reference_evaluate(trace, i, formula.left) or (
            reference_evaluate(trace, i, formula.right)
        )
    if kind == "Implies":
        if reference_evaluate(trace, i, formula.left):
            return reference_evaluate(trace, i, formula.right)
        return True
    last = len(trace.steps) - 1
    indices = []
    j = i + formula.lo
    while j <= i + formula.hi:
        indices.append(min(j, last))
        j += 1
    verdicts = [reference_evaluate(trace, j, formula.child) for j in indices]
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


def trace_from_states(vehicle_id: str, states, dt: float) -> Trace:
    """A Trace from a sequence of VehicleState rows."""
    states = tuple(states)
    return Trace(
        vehicle_id,
        dt,
        position=[s.position for s in states],
        velocity=[s.velocity for s in states],
        ber=[s.ber_active for s in states],
        collided=[s.collided for s in states],
        responsible=[s.responsible for s in states],
    )


def traces_to_csv(traces: Sequence[Trace], info_sources=None) -> str:
    """The trace CSV text write_traces_csv writes for the traces."""
    buffer = io.StringIO()
    write_traces_csv(traces, buffer, info_sources)
    return buffer.getvalue()


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
    return trace_from_states(vehicle_id, steps, 0.1)


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
        traces.append(trace_from_states(vid, (state for _, state in rows), dt))
    return traces


# ---------------------------------------------------------------------------
# Reference trace-CSV writer: one formatted row at a time. It is the writer
# the library used before it assembled rows from per-column strings.


def reference_write_traces_csv(traces, stream, info_sources=None):
    def field(text):
        if "," in text or '"' in text or "\n" in text or "\r" in text:
            return '"' + text.replace('"', '""') + '"'
        return text

    columns = list(TRACE_CSV_COLUMNS)
    if info_sources:
        columns.append("info_source")
    stream.write(",".join(columns) + "\n")
    for trace in traces:
        vid = field(trace.vehicle_id)
        source = info_sources.get(trace.vehicle_id, "") if info_sources else None
        end = "\n" if source is None else f",{field(source)}\n"
        times = (np.arange(len(trace)) * trace.dt).tolist()
        stream.writelines(
            f"{t!r},{vid},{p!r},{v!r},{b:d},{c:d},{r:d}{end}"
            for t, p, v, b, c, r in zip(times, *(c.tolist() for c in trace._columns()))
        )


# ---------------------------------------------------------------------------
# Reference blame: the rule applied after the run, to finished traces. It is
# the blame step the library used before the simulator decided blame at
# contact time: contacts, cause steps and onset steps are re-derived from
# the trace columns, and the latencies are drawn again from the seed.


def _trace_map(traces: Sequence[Trace], cfg: ScenarioConfig) -> dict[tuple[int, int], Trace]:
    by_id = {t.vehicle_id: t for t in traces}
    out = {}
    for lane_idx, lane in enumerate(cfg.lanes):
        for idx in range(len(lane)):
            vid = vehicle_id(lane_idx, idx)
            if vid not in by_id:
                raise InvalidParameterError(f"traces missing vehicle {vid}")
            out[(lane_idx, idx)] = by_id[vid]
    return out


def rear_end_pairs(
    traces: Sequence[Trace], cfg: ScenarioConfig
) -> list[tuple[int, int, int]]:
    """Identify rear-end contacts as (lane, rear index, collision step)."""
    grid = _trace_map(traces, cfg)
    pairs = []
    for lane_idx, lane in enumerate(cfg.lanes):
        for idx in range(1, len(lane)):
            rear = grid[(lane_idx, idx)]
            front = grid[(lane_idx, idx - 1)]
            k = _first(rear.collided)
            if k is None:
                continue
            gap = front.position[k] - rear.position[k]
            if abs(gap - lane[idx].params.length) <= 1e-6:
                pairs.append((lane_idx, idx, k))
    return pairs


def reference_assign_responsibility(traces, cfg):
    """Traces with the responsibility flags of the RSS-style blame rule."""
    by_id = {t.vehicle_id: t for t in traces}
    links = link_resolutions(cfg)
    blamed = {}
    for lane_idx, rear_idx, hit_step in rear_end_pairs(traces, cfg):
        rear = by_id[vehicle_id(lane_idx, rear_idx)]
        front = by_id[vehicle_id(lane_idx, rear_idx - 1)]
        stops = np.flatnonzero(front.ber | front.collided)
        if not stops.size:
            continue
        cause_step = int(stops[0])
        rear_params = cfg.lanes[lane_idx][rear_idx].params
        front_params = cfg.lanes[lane_idx][rear_idx - 1].params
        link = links[(lane_idx, rear_idx)]
        v_rear = float(rear.velocity[cause_step])
        v_front = float(front.velocity[cause_step])
        if cfg.mode == "cbv" and link.source is InfoSource.RESPONSE:
            threshold = corrected_safe_distance(
                rear_params.with_speed(v_rear),
                front_params.with_speed(v_front),
                cfg.dev,
                link.eta,
            )
        else:
            threshold = safe_longitudinal_distance(
                rear_params.with_speed(v_rear),
                front_params.with_speed(v_front),
                link.effective_tau,
            )
        gap_at_cause = float(front.position[cause_step] - rear.position[cause_step])
        spaced_too_close = gap_at_cause < threshold - 1e-9

        onsets = np.flatnonzero(rear.ber)
        late_braking = (
            not onsets.size
            or onsets[0] * rear.dt
            > cause_step * rear.dt + link.effective_tau + rear.dt + 1e-9
        )
        if spaced_too_close or late_braking:
            vid = rear.vehicle_id
            blamed[vid] = min(blamed.get(vid, hit_step), hit_step)

    return [
        Trace(
            t.vehicle_id,
            t.dt,
            position=t.position,
            velocity=t.velocity,
            ber=t.ber,
            collided=t.collided,
            responsible=(
                np.arange(len(t)) >= blamed[t.vehicle_id]
                if t.vehicle_id in blamed
                else np.zeros(len(t), dtype=bool)
            ),
        )
        for t in traces
    ]


# ---------------------------------------------------------------------------
# Reference simulator: the stepping loop run_scenario used before it computed
# trajectories along the time axis. Every step advances every vehicle with
# the scalar `_advance`, scans each lane for contacts and reschedules a lane
# that has one; the run ends one step after every affected vehicle has
# passed its onset and stands still. It keeps each lane's positions and
# speeds in its own lists, spawned from cfg's gaps; the vehicles hold only
# their schedules. Its traces are its own: `ber` and `collided` are recorded
# at every step from the vehicles' state, and `responsible` comes from the
# reference blame rule above.


def reference_run_scenario(cfg):
    lanes, first_affected, max_steps = _start_run(cfg)
    affected = [  # (lane, index)
        (lane_idx, idx)
        for lane_idx, (lane, first) in enumerate(zip(lanes, first_affected))
        if first is not None
        for idx in range(first, len(lane))
    ]
    positions, speeds = [], []
    for lane in cfg.lanes:
        x, column = 0.0, []
        for spawn in lane:
            if spawn.gap_to_predecessor is not None:
                x -= spawn.gap_to_predecessor
            column.append(x)
        positions.append(column)
        speeds.append([spawn.params.speed for spawn in lane])
    samples = {}  # (lane, index): [(position, velocity, ber, collided) per step]

    def record(t):
        for lane_idx, lane in enumerate(lanes):
            for idx, veh in enumerate(lane):
                ber = veh.onset is not None and t >= veh.onset - 1e-9
                samples.setdefault((lane_idx, idx), []).append((
                    positions[lane_idx][idx], speeds[lane_idx][idx], ber,
                    veh.collision_time is not None,
                ))

    dt = cfg.dt
    contacts = []  # (lane, rear index, step)
    extra_steps = 0
    step = 0
    record(0.0)
    while True:
        step += 1
        if step > max_steps + 2:
            raise SdcapError("simulation failed to reach a halt state")
        t0, t1 = (step - 1) * dt, step * dt
        for lane_idx, lane in enumerate(lanes):
            x, v = positions[lane_idx], speeds[lane_idx]
            for idx, veh in enumerate(lane):
                x[idx], v[idx] = _advance(veh, x[idx], v[idx], t0, t1, cfg.speed_cap)
            hits = _scan_collisions(lane, x, v, t1)
            if hits:
                contacts.extend((lane_idx, rear, step) for rear in hits)
                _reschedule(lane)
        record(t1)
        if extra_steps:
            break
        current_max_onset = max(lanes[i][j].onset for i, j in affected)
        if t1 >= current_max_onset and all(speeds[i][j] == 0.0 for i, j in affected):
            extra_steps = 1  # one trailing step past the halt

    traces = []
    for lane_idx, lane in enumerate(lanes):
        for idx, veh in enumerate(lane):
            position, velocity, ber, collided = zip(*samples[(lane_idx, idx)])
            traces.append(Trace(
                vehicle_id(lane_idx, idx), dt, position=position, velocity=velocity,
                ber=ber, collided=collided, responsible=[False] * len(ber),
            ))
    info_sources = {
        vehicle_id(lane_idx, idx): "none" if veh.link is None else veh.link.source.value
        for lane_idx, lane in enumerate(lanes)
        for idx, veh in enumerate(lane)
    }
    min_gaps = {
        f"{front.vehicle_id}->{rear.vehicle_id}": float(np.min(front.position - rear.position))
        for lane in lanes_of(traces, cfg)
        for front, rear in zip(lane, lane[1:])
    }
    return Run(reference_assign_responsibility(traces, cfg), sorted(contacts), info_sources,
               min_gaps)


def lanes_of(traces, cfg):
    """The lane-major traces split into lanes."""
    starts = np.cumsum([0] + [len(lane) for lane in cfg.lanes])
    return [traces[a:b] for a, b in zip(starts, starts[1:])]
