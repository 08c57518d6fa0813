"""Discrete-time execution of sudden-brake scenarios on a straight road.

Each lane is an ordered front-to-back column of vehicles. A brake trigger
makes one vehicle apply full braking at a given time; every follower learns
of its immediate predecessor's sudden stop (brake onset, or a crash) and
reacts with its own effective response time, accelerating at its maximum
rate through the response window (the worst case the spacing formulas plan
for) before braking to a halt. Colliding vehicles stop instantly at contact
and stay frozen.

States are sampled on the dt grid: sample k is the state at k * dt. The
kinematics inside a step are piecewise exact (phase switches and halts are
resolved at their exact times), which keeps scenarios spawned exactly at
the computed safe distance collision-free instead of flipping on
integration noise.

The engine works along the time axis, one vehicle at a time. A vehicle's
steps fall into runs with one phase each (cruise, accelerate, brake, stand
still, or frozen after a contact). The samples of a run are one
np.add.accumulate over the per-step increments, formed in the same
operation order as the scalar step `_advance`. An accumulate is a
sequential left fold, so every sample is the double that stepping the
vehicle one dt at a time gives, and fixed-seed trace files stay byte for
byte the same. Only a few steps per vehicle go through `_advance`: those
with a phase switch strictly inside, the step that reaches the speed cap
and the step that comes to a halt.

The lanes are computed in step, in blocks of _BLOCK_STEPS steps. A car
follows only the car ahead in its own lane, and in each block the lanes
take the run's one scratch buffer in turn. Only each vehicle's last sample
and its schedule carry over to the next block. A lane's block is computed
one car at a time, front to back, through a ring of two rows, and one pass
takes its facts as each row is filled: only the car ahead's row is alive.
A car's row depends only on its params, schedule and sample at the
block's start, so a lane whose leading cars enter the block with the bits
of an earlier lane's, which that pass took, takes those cars' facts and
computes rows only from the car ahead of the first it does not share
(the lanes of a road packed at one gap copy each other). At the first
pair that comes closer than a body length, the block reruns from its
start in full rows, one per car, which the buffer grows to once, for the
run's largest lane.
There the first step where a rear vehicle is closer to its front than a
body length is searched one rear at a time, each only up to the earliest
contact found so far. That step is applied as a collision scan (freeze
both vehicles, snap the rear to contact, reschedule the followers), the
vehicles it changed are recomputed from there to the end of the block,
and the search repeats after that step; the same pass then takes the
facts of the full rows. A collision is recorded at the grid step that
detects it: its time is that step's time, not the exact contact time
between two samples. The run ends one step after every braking vehicle
stands still, and stepping stops with the block that holds that step.

The pass keeps what a summary needs: each adjacent pair's smallest gap,
each car's stand-still step (the lane halts at the latest), the block-end
sample and the first sample, if any, that is not finite or has a negative
speed (a run holding one is refused, naming the vehicle and step); the
contacts are kept as they are settled. A row is checked for such a sample
by the min and max of its positions and speeds, or, if its car cruises
all block, by its first and last samples, and searched only if that
fails. A car standing still at a block's start stands still for all of
it: in a block without a contact its row is not filled, and the pass
reads its one sample at the start in place of the row, which repeats it.
The scalar step and the collision scan work on samples: `_advance`
returns the next one, and the scan snaps a scratch column in place. Each vehicle logs its own restarts: the step,
position and speed at which its trajectory was computed afresh, with the
parameters and schedule it follows from there (at step 0, and wherever a
contact changed its schedule, with the snapped position at a contact). A
trajectory split at a block edge is the same left fold, so the samples are the same doubles in
any block size, and a trace's position and velocity are replayed from the
restarts and the grid alone, through the same helpers, each time they are
read, never kept; blame replays the two samples it needs the same way.
Every flag (ber, collided, responsible) is off before its switch step and
on from it, so each is a view of one run-wide bool array.

`run_scenario` returns a `Run`, the list of traces, which also carries the
run's contacts, each vehicle's info source and the pairs' smallest gaps.
The summary's collisions are those contacts: one rule, an overlap of more
than 1e-9 m, so two cars that only touch are not a collision.

The cost is O(vehicles x steps) numpy work, plus O(vehicles x block) per
block with a contact and per contact, with Python only at block edges and
at the switch, cap, halt and contact steps; a vehicle standing still costs
O(1) per block without a contact, and a pair of cars standing still is
not searched. A run without a contact holds two scratch rows of a block
and a few arrays of its step count (the grid, its spans and the flag
ramp); a block with a contact needs full rows, 16 bytes per car of the
largest lane per block step. No array spans vehicles and steps. Reading a column replays one
vehicle. A scenario of more than MAX_VEHICLE_STEPS vehicle-steps, or whose
arrays could take more than MAX_RUN_BYTES, is refused before anything is
allocated.
"""

import math
import random
import struct
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .capacity import RoadSpec, safe_distance
from .errors import (
    ConfigError,
    DecodedLines,
    InvalidInputError,
    InvalidParameterError,
    SdcapError,
)
# perfbench reads simulator.vehicle_safe, so the name stays importable here.
from .ltl import (  # noqa: F401
    Trace,
    bad_sample_error,
    first_bad_sample,
    safety_verdicts,
    vehicle_safe,
)
from .params import KMH_TO_MPS, VehicleParams, require_finite
from .perception import DeviationSet, Regime
from .protocol import (
    DEFAULT_REQUEST_TIMEOUT,
    InfoSource,
    LATENCY_PRESETS,
    LatencyModel,
    effective_response_time,
    sample_latency,
)

_EPS = 1e-9
_DOUBLE = struct.Struct("<d")

# Steps per block: each lane is computed this many steps at a time.
_BLOCK_STEPS = 4096

# The work cap: the most vehicle-steps (step bound x vehicles) one run may
# take. It admits the paper's headline road at dt = 1 ms (176M) and refuses
# ten times that. run_scenario refuses a larger scenario before it
# allocates.
MAX_VEHICLE_STEPS = 1_000_000_000

# The memory cap: the most bytes a run's arrays may take, in the worst
# case: full scratch rows of a block (16 B per car of its largest lane per
# block step), which a block with a contact needs, and its arrays of the
# step count (the grid and its spans, 8 B a step each, and the flag ramp,
# 2 B a step).
MAX_RUN_BYTES = 400_000_000


@dataclass(frozen=True)
class SpawnSpec:
    """One vehicle in a lane column.

    gap_to_predecessor is the initial center-to-center distance to the
    vehicle ahead; it must be None for the lane lead. ber_delay is a fault
    injection: extra seconds past the response time before braking starts
    (the vehicle keeps accelerating through the delay).
    """

    params: VehicleParams
    gap_to_predecessor: Optional[float] = None
    ber_delay: float = 0.0

    def __post_init__(self):
        if self.gap_to_predecessor is not None:
            gap = require_finite("gap_to_predecessor", self.gap_to_predecessor)
            if gap < self.params.length:
                raise InvalidParameterError(
                    f"gap_to_predecessor must be >= vehicle length "
                    f"{self.params.length}, got {gap}"
                )
        delay = require_finite("ber_delay", self.ber_delay)
        if delay < 0:
            raise InvalidParameterError(f"ber_delay must be >= 0, got {delay}")


@dataclass(frozen=True)
class BrakeTrigger:
    lane: int
    index: int
    time: float

    def __post_init__(self):
        require_finite("time", self.time)
        if self.time < 0:
            raise InvalidParameterError(f"trigger time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated braking scenario."""

    road: RoadSpec
    lanes: tuple[tuple[SpawnSpec, ...], ...]
    triggers: tuple[BrakeTrigger, ...]
    mode: str = "pbv"
    dev: DeviationSet = field(default_factory=DeviationSet)
    latency: LatencyModel = field(default_factory=lambda: LatencyModel.constant(0.0))
    dt: float = 1e-3
    rng_seed: int = 0
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT
    speed_cap: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "lanes", tuple(tuple(lane) for lane in self.lanes))
        object.__setattr__(self, "triggers", tuple(self.triggers))
        if self.mode not in ("pbv", "cbv"):
            raise InvalidParameterError(f"mode must be 'pbv' or 'cbv', got {self.mode!r}")
        if self.dt <= 0 or not math.isfinite(self.dt):
            raise InvalidParameterError(f"dt must be > 0, got {self.dt}")
        if require_finite("request_timeout", self.request_timeout) < 0:
            raise InvalidParameterError("request_timeout must be >= 0")
        if len(self.lanes) != self.road.lanes:
            raise InvalidParameterError(
                f"config has {len(self.lanes)} lane columns for a "
                f"{self.road.lanes}-lane road"
            )
        if not any(self.lanes):
            raise InvalidParameterError("scenario needs at least one vehicle")
        reference = None
        for lane in self.lanes:
            for idx, spawn in enumerate(lane):
                if idx == 0 and spawn.gap_to_predecessor is not None:
                    raise InvalidParameterError("lane lead must not declare a gap")
                if idx > 0 and spawn.gap_to_predecessor is None:
                    raise InvalidParameterError("followers must declare a gap")
                if reference is None:
                    reference = spawn.params
                elif spawn.params != reference:
                    # Homogeneous-fleet assumption: identical vehicles.
                    raise InvalidParameterError(
                        "homogeneous fleet required: all vehicles must share "
                        "identical parameters"
                    )
        if not self.triggers:
            raise InvalidParameterError("scenario needs at least one brake trigger")
        for trig in self.triggers:
            if not (0 <= trig.lane < len(self.lanes)):
                raise InvalidParameterError(f"trigger lane {trig.lane} out of range")
            if not (0 <= trig.index < len(self.lanes[trig.lane])):
                raise InvalidParameterError(
                    f"trigger index {trig.index} out of range in lane {trig.lane}"
                )
        if self.speed_cap is not None:
            cap = require_finite("speed_cap", self.speed_cap)
            if reference is not None and cap < reference.speed:
                raise InvalidParameterError("speed_cap below the cruise speed")

    @property
    def vehicle_count(self) -> int:
        return sum(len(lane) for lane in self.lanes)


def vehicle_id(lane: int, index: int) -> str:
    return f"l{lane}v{index}"


class Link(NamedTuple):
    """A follower's front-car information: its source, the follower's
    effective response time, and the latency drawn (0.0 in PBV)."""

    source: InfoSource
    effective_tau: float
    eta: float


def link_resolutions(cfg: ScenarioConfig) -> dict[tuple[int, int], Link]:
    """The Link of every follower (lane, index), seeded by cfg. PBV: the
    onboard view at the follower's own tau0. CBV: one latency draw eta per
    link; the response within the request timeout, at the effective
    response time of protocol.effective_response_time, and past it the
    conservative defaults at tau0."""
    rng = random.Random(cfg.rng_seed)
    links = {}
    for lane_idx, lane in enumerate(cfg.lanes):
        for idx in range(1, len(lane)):
            tau = lane[idx].params.response_time
            if cfg.mode == "pbv":
                link = Link(InfoSource.PERCEPTION, tau, 0.0)
            else:
                eta = sample_latency(cfg.latency, rng)
                if eta > cfg.request_timeout:
                    link = Link(InfoSource.DEFAULTS, tau, eta)
                else:
                    tau_eff = effective_response_time(cfg.dev.response, tau, eta)
                    link = Link(InfoSource.RESPONSE, tau_eff, eta)
            links[(lane_idx, idx)] = link
    return links


class _VehicleRT:
    """Mutable per-vehicle state while the scenario runs: its current
    schedule (cause, onset, collision_time) and its restart log. Its
    samples live in the run's scratch rows, never here."""

    __slots__ = ("params", "ber_delay", "link", "trigger_time", "collision_time", "cause",
                 "onset", "restarts")

    def __init__(self, spawn: SpawnSpec, link: Optional[Link]):
        self.params = spawn.params
        self.ber_delay = spawn.ber_delay
        self.link = link  # None for the lane lead
        self.trigger_time: Optional[float] = None
        self.collision_time: Optional[float] = None  # set once, at contact, which freezes it
        self.cause: Optional[float] = None
        self.onset: Optional[float] = None
        self.restarts: list[_Restart] = []  # logged from step 0 by _start_run

    def sudden_stop_time(self) -> Optional[float]:
        """When this vehicle's behavior becomes a sudden-stop event for its
        follower: its brake onset or its crash, whichever is earlier."""
        candidates = [t for t in (self.onset, self.collision_time) if t is not None]
        return min(candidates) if candidates else None


def _reschedule(lane: list[_VehicleRT]):
    """Forward pass refreshing cause/onset times down one lane column."""
    for idx, veh in enumerate(lane):
        candidates = []
        if veh.trigger_time is not None:
            candidates.append(veh.trigger_time)
        if idx > 0:
            event = lane[idx - 1].sudden_stop_time()
            if event is not None:
                if veh.cause is None or event < veh.cause:
                    veh.cause = event
                candidates.append(veh.cause + veh.link.effective_tau + veh.ber_delay)
        if candidates:
            onset = min(candidates)
            if veh.onset is None or onset < veh.onset:
                veh.onset = onset
        if veh.onset is not None and (veh.cause is None or veh.onset < veh.cause):
            # Spontaneous (triggered) braking: no acceleration window.
            veh.cause = veh.onset


_CRUISE, _ACCEL, _BRAKE = 0, 1, 2


def _phase_at(veh, t: float) -> int:
    if veh.onset is not None and t >= veh.onset:
        return _BRAKE
    if veh.cause is not None and t >= veh.cause:
        return _ACCEL
    return _CRUISE


def _advance(veh, x: float, v: float, t0: float, t1: float, speed_cap: Optional[float]):
    """The sample (x, v) at t1 of a vehicle at (x, v) at t0: piecewise-exact
    kinematics under its phase schedule."""
    if veh.collision_time is not None:
        return x, v
    boundaries = {t0, t1}
    for b in (veh.cause, veh.onset):
        if b is not None and t0 < b < t1:
            boundaries.add(b)
    points = sorted(boundaries)
    for a, b in zip(points, points[1:]):
        span = b - a
        phase = _phase_at(veh, a)
        if phase == _BRAKE:
            if v <= 0:
                v = 0.0
                continue
            brake = veh.params.max_brake
            t_halt = v / brake
            if t_halt <= span:
                x += v * v / (2.0 * brake)
                v = 0.0
            else:
                x += v * span - 0.5 * brake * span * span
                v -= brake * span
        elif phase == _ACCEL:
            accel = veh.params.max_accel
            if speed_cap is not None and accel > 0:
                if v >= speed_cap:
                    x += v * span
                    continue
                t_cap = (speed_cap - v) / accel
                if t_cap < span:
                    x += v * t_cap + 0.5 * accel * t_cap * t_cap + speed_cap * (span - t_cap)
                    v = speed_cap
                    continue
            x += v * span + 0.5 * accel * span * span
            v += accel * span
        else:
            x += v * span
    return x, v


def _scan_collisions(lane: list[_VehicleRT], x, v, t: float) -> list[int]:
    """Detect and freeze new rear-end contacts at time t among the lane's
    samples x and v (indexed by vehicle), snapped in place; returns rear
    indices."""
    hits = []
    for idx in range(1, len(lane)):
        rear = lane[idx]
        contact = rear.params.length
        if rear.collision_time is not None:
            continue
        if x[idx - 1] - x[idx] < contact - _EPS:
            x[idx] = x[idx - 1] - contact
            for j in (idx - 1, idx):
                v[j] = 0.0
                if lane[j].collision_time is None:
                    lane[j].collision_time = t
            hits.append(idx)
    return hits


# ---------------------------------------------------------------------------
# Trajectories along the time axis. Sample k is the state at t = times[k],
# and step k runs from times[k - 1] to times[k]. The helpers below fill
# samples lo + 1 .. hi of one vehicle's position row x and velocity row v
# from sample lo, forming the increments of `_advance` in its operation
# order and summing them with np.add.accumulate (see the module docstring).
# times and spans may be views that start at any step of the run's grid;
# x and v are indexed as they are.


def _step(veh, x, v, k: int, times, speed_cap: Optional[float]):
    """Step k through the scalar `_advance`."""
    x[k], v[k] = _advance(veh, float(x[k - 1]), float(v[k - 1]),
                          float(times[k - 1]), float(times[k]), speed_cap)


def _coast(x, v, lo: int, hi: int, spans):
    """Constant speed: x += v * span."""
    v[lo + 1:hi + 1] = v[lo]
    np.multiply(v[lo], spans[lo + 1:hi + 1], out=x[lo + 1:hi + 1])
    np.add.accumulate(x[lo:hi + 1], out=x[lo:hi + 1])


def _moves(out, v, span, rate: float, combine):
    """The position increments of a run at a constant rate, into `out`:
    combine(v * span, 0.5 * rate * span * span), np.add accelerating and
    np.subtract braking, in `_advance`'s operation order, through one
    temporary row."""
    np.multiply(v, span, out=out)
    square = np.multiply(0.5 * rate, span)
    square *= span
    combine(out, square, out=out)


def _accelerate(veh, x, v, lo: int, hi: int, spans, times, speed_cap):
    """Full acceleration up to the speed cap, then constant speed. The
    positions' increments are formed in x's own slice (`_moves`)."""
    accel = veh.params.max_accel
    np.multiply(accel, spans[lo + 1:hi + 1], out=v[lo + 1:hi + 1])
    np.add.accumulate(v[lo:hi + 1], out=v[lo:hi + 1])
    last = hi  # the last sample of plain acceleration
    if speed_cap is not None and accel > 0:
        before = v[lo:hi]
        capped = (before >= speed_cap) | ((speed_cap - before) / accel < spans[lo + 1:hi + 1])
        first = _first(capped, lo)
        last = hi if first is None else first
    span = spans[lo + 1:last + 1]
    _moves(x[lo + 1:last + 1], v[lo:last], span, accel, np.add)
    np.add.accumulate(x[lo:last + 1], out=x[lo:last + 1])
    if last < hi:
        if v[last] < speed_cap:
            _step(veh, x, v, last + 1, times, speed_cap)  # reaches the cap
            last += 1
        _coast(x, v, last, hi, spans)


def _brake(veh, x, v, lo: int, hi: int, spans, times):
    """Full braking to a halt, then standing still. The speeds are
    accumulated to two steps past the halt's estimate, and on to hi only if
    the halt is not found there. The halt is the first step whose speed
    before it, v, has v / brake <= span: a speed at or below 0 passes that
    test too (brake > 0, span >= 0), and a NaN fails it. The positions'
    increments are formed in x's own slice (`_moves`)."""
    brake = veh.params.max_brake
    steps = v[lo] / (brake * spans[lo + 1]) + 2  # about the steps to the halt
    top, stop = lo, lo + int(steps) if steps < hi - lo else hi
    while True:
        np.multiply(brake, spans[top + 1:stop + 1], out=v[top + 1:stop + 1])
        np.subtract.accumulate(v[top:stop + 1], out=v[top:stop + 1])
        halts = _first(v[top:stop] / brake <= spans[top + 1:stop + 1], top)
        if halts is not None or stop == hi:
            break
        top, stop = stop, hi
    last = hi if halts is None else halts  # the last sample of plain braking
    span = spans[lo + 1:last + 1]
    _moves(x[lo + 1:last + 1], v[lo:last], span, brake, np.subtract)
    np.add.accumulate(x[lo:last + 1], out=x[lo:last + 1])
    if last < hi:
        _step(veh, x, v, last + 1, times, None)  # comes to a halt
        x[last + 2:hi + 1] = x[last + 1]
        v[last + 2:hi + 1] = 0.0


def _standing(veh, t: float, v: float) -> bool:
    """Whether the vehicle, at speed v at time t, stands still from then
    on: frozen at a contact, or braking at a halt."""
    return veh.collision_time is not None or (
        veh.onset is not None and t >= veh.onset and v <= 0
    )


def _standing_speed(veh, v: float) -> float:
    """The speed of every later sample of a vehicle standing still at speed
    v: v if frozen at a contact, else 0.0 (v may be -0.0 at a halt)."""
    return v if veh.collision_time is not None else 0.0


def _trajectory(veh, x, v, k: int, end: int, times, spans, speed_cap):
    """Fill x[k + 1:end + 1] and v[k + 1:end + 1] from sample k under the
    params and schedule (cause, onset, collision_time) of veh: a live
    vehicle, or one of its restarts.

    The steps between two phase switches form one run. A step with a
    switch strictly inside it goes through `_advance`. A vehicle standing
    still is one fill, the samples `_advance` would give it.
    """
    if _standing(veh, times[k], v[k]):
        x[k + 1:end + 1] = x[k]
        v[k + 1:end + 1] = _standing_speed(veh, v[k])
        return
    while k < end:
        phase = _phase_at(veh, times[k])
        stop, straddled = end, None
        ahead = [b for b in (veh.cause, veh.onset) if b is not None and b > times[k]]
        if ahead:
            switch = min(ahead)
            j = int(np.searchsorted(times, switch, side="right"))  # first step ending past it
            if j <= end:
                stop = j - 1
                if times[stop] < switch:
                    straddled = j
        if stop > k:
            if phase == _CRUISE:
                _coast(x, v, k, stop, spans)
            elif phase == _ACCEL:
                _accelerate(veh, x, v, k, stop, spans, times, speed_cap)
            else:
                _brake(veh, x, v, k, stop, spans, times)
        k = stop
        if straddled is not None:
            _step(veh, x, v, straddled, times, speed_cap)
            k = straddled


class _Restart(NamedTuple):
    """Where a vehicle's trajectory was computed afresh: the step, its
    sample there, and the parameters and schedule it follows from there.
    It is what `_trajectory` reads, as a live vehicle is."""

    step: int
    x: float
    v: float
    params: VehicleParams
    cause: Optional[float]
    onset: Optional[float]
    collision_time: Optional[float]


def _replay(restarts: Sequence[_Restart], lo: int, hi: int, grid):
    """Samples lo..hi of a vehicle's position and velocity, as read-only
    arrays, from its restart log alone: from its last restart at or before
    lo, each restart's sample computed on to the next one by `_trajectory`
    on the run's grid (times, spans, speed cap)."""
    first = max(j for j, r in enumerate(restarts) if r.step <= lo)
    start = restarts[first].step
    segments = [r for r in restarts[first:] if r.step <= hi]
    x, v = np.empty(hi + 1 - start), np.empty(hi + 1 - start)
    times, spans, speed_cap = grid
    times, spans = times[start:hi + 1], spans[start:hi + 1]
    for r, end in zip(segments, [r.step for r in segments[1:]] + [hi]):
        x[r.step - start], v[r.step - start] = r.x, r.v
        _trajectory(r, x, v, r.step - start, end - start, times, spans, speed_cap)
    x, v = x[lo - start:], v[lo - start:]
    x.setflags(write=False)
    v.setflags(write=False)
    return x, v


class _Scratch:
    """The run's one scratch buffer: position and velocity rows ([vehicle,
    sample]) of a block. It holds two rows, the ring a block without a
    contact is computed in, until the first block with a contact, which
    grows it once to the run's largest lane."""

    def __init__(self, largest: int, width: int):
        self.largest = largest
        self.position = np.empty((2, width + 1))
        self.velocity = np.empty_like(self.position)

    def full(self):
        """Rows for the largest lane, grown on the first call."""
        if len(self.position) < self.largest:
            shape = (self.largest, self.position.shape[1])
            self.position = self.velocity = None  # free the ring first
            self.position, self.velocity = np.empty(shape), np.empty(shape)
        return self.position, self.velocity


class _Lane:
    """One lane of a run, computed one block of steps at a time in the
    run's scratch rows ([vehicle, sample]), which the lanes take in turn.
    The lane keeps only its samples at the block's start and end (`first`
    and `last`).

    `advance` computes the block one car at a time, front to back, through
    a ring of two rows, and takes its facts in the same pass: only the car
    ahead's row is alive. A car standing still at the block's start
    (`still`: frozen at a contact, or halted past its onset) stands still
    for all of it, and costs O(1): its row is its sample at the block's
    start alone, never filled. Cars that enter the block as the leading
    cars of a lane taken before in it (`_Taken`) have that lane's facts,
    and their rows are not filled. At the first pair that comes within a
    body length the block reruns from its start in full rows, one per car:
    every vehicle's steps are filled under its current schedule and the
    block's contacts are settled. A contact changes the schedule of the vehicles it
    freezes or reschedules; they are recomputed from the contact step to
    the end of the block, each with a restart appended to its own log, and
    the search for the next contact starts after it. The same pass then
    takes the facts of the full rows. `record` keeps them and carries
    `last` over to `first`. In the run's last block `cut` retakes them up
    to the run's last step.
    """

    def __init__(self, vehicles, first_affected, grid):
        self.vehicles = vehicles
        self.affected = range(len(vehicles) if first_affected is None else first_affected,
                              len(vehicles))
        self.grid = grid
        self.times, self.spans, self.speed_cap = grid
        self.first = (np.array([veh.restarts[0].x for veh in vehicles], dtype=float),
                      np.array([veh.restarts[0].v for veh in vehicles], dtype=float))
        self.contacts: list[tuple[int, int]] = []  # (rear index, step)
        self.halt: Optional[int] = None
        self.min_gaps = (self.first[0][:-1] - self.first[0][1:]).tolist()
        self.faults: dict[int, tuple] = {}  # vehicle index: its first bad (step, x, v)
        self.still = [False] * len(vehicles)
        self.schedules = [_schedule(veh) for veh in vehicles]
        self.start = self.width = 0

    def advance(self, start: int, end: int, scratch: _Scratch, taken: "_Taken"):
        """Steps start + 1 .. end from sample start (`first`), their
        contacts settled, the halt searched if not found before, and the
        block's facts taken. The facts of the longest prefix of cars that
        enters the block as a lane in `taken` did are that lane's; a ring
        pass enters the lane there."""
        self.start, self.width = start, end - start
        times = self.times[start:end + 1]
        spans = self.spans[start:end + 1]
        # Standing still at the block's start, so for all of it. Sample 0
        # is searched for contacts like any other, so none stands still in
        # the first block.
        self.still = [start > 0 and _standing(veh, times[0], v)
                      for veh, v in zip(self.vehicles, self.first[1])]
        keys = list(zip(self.schedules, *(col.view(np.int64).tolist() for col in self.first)))
        shared, node = taken.find(keys)
        if self._take(self._ring(scratch, times, spans, shared), times,
                      taken.owners[node], shared):
            taken.enter(keys[shared:], node, self)
            return
        n = len(self.vehicles)
        x, v = (rows[:n, :self.width + 1] for rows in scratch.full())
        x[:, 0], v[:, 0] = self.first
        for i, veh in enumerate(self.vehicles):
            _trajectory(veh, x[i], v[i], 0, self.width, times, spans, self.speed_cap)
        step = self._next_contact(x, 0)
        while step is not None:
            self._apply_contact(x, v, step, times, spans)
            step = self._next_contact(x, step)
        self._take(zip(x, v), times)  # settled: no pair left to stop it

    def _ring(self, scratch: _Scratch, times, spans, shared: int):
        """Each vehicle's rows of the block, front to back, computed from
        `first` into the scratch's first two rows in turn, from the front
        of the first car past the `shared` ones (none if all are). A car
        standing still at the block's start stands still for all of it:
        its rows are column 0 alone, which `_take` reads as a row that
        repeats it. Nothing else holds them, so a block with a contact can
        free them before it grows the scratch."""
        n = len(self.vehicles)
        x, v = scratch.position[:2, :self.width + 1], scratch.velocity[:2, :self.width + 1]
        for i in range(max(shared - 1, 0) if shared < n else n, n):
            veh, row_x, row_v = self.vehicles[i], x[i % 2], v[i % 2]
            row_x[0], row_v[0] = self.first[0][i], self.first[1][i]
            if self.still[i]:
                yield row_x[:1], row_v[:1]
                continue
            _trajectory(veh, row_x, row_v, 0, self.width, times, spans, self.speed_cap)
            yield row_x, row_v

    def _take(self, rows, times, owner=None, shared: int = 0) -> bool:
        """Take the block's facts in one pass over its rows, front to back:
        `rows` yields each vehicle's position and velocity rows from car
        shared - 1 on (car 0 if shared is 0, none if all are), column 0 the
        block's start and `times` their grid times, and only the car
        ahead's are read. The facts are each pair's smallest gap (inf for a
        pair standing still), each vehicle's first sample that a trace
        refuses, its last sample and its stand-still step. Those of the
        first `shared` cars are the `owner` lane's, which entered the block
        as they do; the first row is then only the front of the next.

        A row of column 0 alone is a car standing still all block, whose
        row would repeat it (`_trajectory`'s fill): its pairs' gaps are
        taken against that one position, its last sample is the fill's, and
        it is not checked for refused samples, since its column 0 was
        checked as the block before's last sample. A row its car cruises
        through all block (`_cruising`) is checked in O(1) (`_cruise_clean`),
        every other row whole (`_clean`), and either is searched only if it
        fails.

        A car's stand-still step is the first column past 0, at or past its
        onset, at which its speed is 0.0 (`_rest`). Past its onset a car
        brakes or stands frozen: its speed never rises, and once 0 it stays
        0. So the first column at which every affected car has passed its
        onset and stands still, the halt, is the latest of their steps, and
        none if one has none. Past the halt no contact can change the
        lane's samples up to it, so the first block that holds it decides
        it, and leaves every affected car at speed 0.

        Returns False, leaving the lane's state as it was, at the first
        pair where a moving rear comes closer to its front than a body
        length (the `_next_contact` test). Rows whose contacts are settled
        have none."""
        n = len(self.vehicles)
        gaps, faults, rests, last = [], {}, [], (np.empty(n), np.empty(n))
        if shared:
            gaps, faults, rests = owner.facts
            gaps, rests = gaps[:shared - 1], rests[:shared]
            faults = {i: fault for i, fault in faults.items() if i < shared}
            last[0][:shared], last[1][:shared] = owner.last[0][:shared], owner.last[1][:shared]
        end_time = times[-1]
        for i, (x, v) in enumerate(rows, start=max(shared - 1, 0)):
            veh = self.vehicles[i]
            tail = x[0] if len(x) == 1 else x[1:]
            if i >= shared:
                if i:  # the pair of the car ahead, `front`, and this one
                    smallest = math.inf  # for a pair standing still
                    if not (self.still[i - 1] and self.still[i]):
                        gap = front - tail
                        smallest = gap.min()
                        limit = veh.params.length - _EPS
                        if (not smallest >= limit and veh.collision_time is None
                                and _first(gap < limit) is not None):
                            return False
                    gaps.append(float(smallest))
                if len(x) == 1:  # standing still all block
                    end = (x[0], _standing_speed(veh, v[0]))
                else:
                    end = (x[-1], v[-1])
                    # whole rows: column 0 may be sample 0
                    if not (_cruise_clean(x, v) if _cruising(veh, end_time) else _clean(x, v)):
                        k = first_bad_sample(x, v)
                        if k is not None:
                            faults[i] = (self.start + k, x[k], v[k])
                last[0][i], last[1][i] = end
                rests.append(_rest(veh, times, v, end[1]))
            front = tail
        halt = self.halt
        if halt is None and not self.affected:
            halt = self.start + 1
        elif halt is None and None not in rests[self.affected.start:]:
            halt = self.start + max(rests[self.affected.start:])
        self.halt, self.last, self.facts = halt, last, (gaps, faults, rests)
        return True

    def _next_contact(self, x, after: int) -> Optional[int]:
        """First column past `after` where a moving rear is closer to its
        front than a body length (the `_scan_collisions` test), or None.

        Searched one rear at a time, each only up to the earliest contact
        found so far, so the search holds one gap row. A pair standing still
        keeps the gap it had at the block's start, searched in the block
        before."""
        found, end = None, self.width + 1
        for i, rear in enumerate(self.vehicles[1:], start=1):
            if rear.collision_time is None and not (self.still[i - 1] and self.still[i]):
                gap = x[i - 1, after + 1:end] - x[i, after + 1:end]
                step = _first(gap < rear.params.length - _EPS, after + 1)
                if step is not None:
                    found = end = step
        return found

    def _apply_contact(self, x, v, step: int, times, spans):
        """Column `step`'s collision scan, which snaps the column in place,
        and rescheduling. Each vehicle whose schedule now differs from its
        last restart's logs a restart at the column's sample and is
        recomputed from there (schedules change only here and in
        `_start_run`)."""
        hits = _scan_collisions(self.vehicles, x[:, step], v[:, step], float(times[step]))
        self.contacts.extend((rear, self.start + step) for rear in hits)
        _reschedule(self.vehicles)
        for i, veh in enumerate(self.vehicles):
            schedule = (veh.cause, veh.onset, veh.collision_time)
            if schedule != veh.restarts[-1][-3:]:
                veh.restarts.append(_Restart(self.start + step, float(x[i, step]),
                                             float(v[i, step]), veh.params, *schedule))
                self.schedules[i] = _schedule(veh)
                _trajectory(veh, x[i], v[i], step, self.width, times, spans, self.speed_cap)

    def cut(self, last: int):
        """Retake the block's facts up to the run's last step, from rows
        replayed one vehicle at a time from its sample at the block's start
        and the restarts it logged in the block. A lane whose lead brakes
        has every car affected, so from its halt on every row is constant:
        its facts over the whole block are already those up to `last`, which
        is past the halt."""
        if self.affected.start == 0:
            return

        def replayed():
            for i, veh in enumerate(self.vehicles):
                before = sum(r.step <= self.start for r in veh.restarts)  # logged before the block
                at_start = veh.restarts[before - 1]._replace(
                    step=self.start, x=float(self.first[0][i]), v=float(self.first[1][i]))
                yield _replay([at_start, *veh.restarts[before:]], self.start, last, self.grid)

        self._take(replayed(), self.times[self.start:last + 1])

    def record(self):
        """Keep the block's facts and carry its last sample over to the
        next block's start."""
        gaps, faults, _ = self.facts
        self.min_gaps = [min(kept, gap) for kept, gap in zip(self.min_gaps, gaps)]
        for i, fault in faults.items():
            self.faults.setdefault(i, fault)
        self.first = self.last


class _Taken:
    """The lanes of one block that a ring pass took, as a trie of their
    cars' keys (`_Lane.advance`), front to back. A node stands for the cars
    on its path, and its owner, the lane that entered it, took their facts
    in this block: any lane whose cars enter the block as they do has the
    same facts for them."""

    def __init__(self):
        self.children = {}  # (node, car key): node
        self.owners = [None]  # by node; node 0, the root, stands for no car

    def find(self, keys):
        """The length of the longest prefix of `keys` that is a path, and
        the node it ends at."""
        node = 0
        for depth, key in enumerate(keys):
            child = self.children.get((node, key))
            if child is None:
                return depth, node
            node = child
        return len(keys), node

    def enter(self, keys, node: int, lane: "_Lane"):
        """Extend the path at `node` by `keys`, owned by `lane`."""
        for key in keys:
            child = len(self.owners)
            self.children[(node, key)] = node = child
            self.owners.append(lane)


def _schedule(veh):
    """What of a car's key only a contact changes: its params, by identity,
    and its schedule (cause, onset, collision_time), by bits, since ==
    equates -0.0 and 0.0. The key adds the bits of its block-start sample:
    all that `_trajectory` reads of it in a block."""
    times = (veh.cause, veh.onset, veh.collision_time)
    return (id(veh.params), *(None if t is None else _DOUBLE.pack(t) for t in times))


def _run_bytes(largest_lane: int, horizon) -> float:
    """The bytes a run's arrays may take: two scratch rows of a block per
    car of its largest lane, which a block with a contact needs and the
    lanes take in turn, and the grid, its spans and the flag ramp (18 B per
    step). A run without a contact holds two rows of the block, not one
    pair per car; the cap is checked against the worst case."""
    return 16 * largest_lane * (min(_BLOCK_STEPS, horizon) + 1) + 18 * (horizon + 1)


def _start_run(cfg: ScenarioConfig):
    """A run's initial state: the vehicles of each lane, each follower with
    its Link, and their first schedule, logged as each one's step-0
    restart at its spawn position, the index of each lane's first braking
    vehicle (None in a lane without a trigger), and a generous bound on
    the number of steps the episode takes. A scenario whose bound times
    its vehicle count exceeds MAX_VEHICLE_STEPS, or whose arrays would take
    more than MAX_RUN_BYTES, is refused here."""
    links = link_resolutions(cfg)
    lanes = [[_VehicleRT(spawn, links.get((lane_idx, idx))) for idx, spawn in enumerate(lane)]
             for lane_idx, lane in enumerate(cfg.lanes)]
    for trig in cfg.triggers:
        veh = lanes[trig.lane][trig.index]
        if veh.trigger_time is None or trig.time < veh.trigger_time:
            veh.trigger_time = trig.time
    for lane, lane_spec in zip(lanes, cfg.lanes):
        _reschedule(lane)
        x = 0.0
        for veh, spawn in zip(lane, lane_spec):
            if spawn.gap_to_predecessor is not None:
                x -= spawn.gap_to_predecessor
            veh.restarts.append(_Restart(0, x, veh.params.speed, veh.params, veh.cause,
                                         veh.onset, veh.collision_time))

    first_affected: list[Optional[int]] = []
    affected: list[_VehicleRT] = []
    for lane_idx, lane in enumerate(lanes):
        triggered = [t.index for t in cfg.triggers if t.lane == lane_idx]
        first_affected.append(min(triggered) if triggered else None)
        if triggered:
            affected.extend(lane[min(triggered):])

    max_onset = max(v.onset for v in affected)
    # Generous upper bound on how long the episode can take.
    peak_speed = max(
        v.params.speed + (0.0 if v.link is None else v.link.effective_tau + v.ber_delay)
        * v.params.max_accel
        for v in affected
    )
    if cfg.speed_cap is not None:
        peak_speed = min(peak_speed, max(cfg.speed_cap, 0.0))
    # A float until it passes the work cap: extreme finite values (dt or
    # max_brake = 1e-320) make it inf or nan, which have no int.
    max_steps = np.ceil(
        (max_onset + peak_speed / min(v.params.max_brake for v in affected)) / cfg.dt
    ) + 16
    horizon = max_steps + 2  # the last step the episode may take
    if not horizon * cfg.vehicle_count <= MAX_VEHICLE_STEPS:
        raise SdcapError(
            f"scenario too large: up to {horizon:.10g} steps x {cfg.vehicle_count} "
            f"vehicles exceeds the cap of {MAX_VEHICLE_STEPS} vehicle-steps; "
            "use a coarser dt or fewer vehicles"
        )
    size = _run_bytes(max(map(len, cfg.lanes)), horizon)
    if not size <= MAX_RUN_BYTES:
        raise SdcapError(
            f"scenario too large: {cfg.vehicle_count} vehicles over up to {horizon:.10g} "
            f"steps need {size:.10g} bytes of arrays, over the cap of {MAX_RUN_BYTES}; "
            "use a coarser dt or fewer vehicles"
        )
    return lanes, first_affected, int(max_steps)


class Run(list):
    """A finished run's traces in lane-major order, with three facts the
    run decided: `contacts`, its rear-end contacts as (lane, rear index,
    step) sorted by lane and rear; `info_sources`, each vehicle's front-car
    information source from the run's one draw of the links; and
    `min_gaps`, each adjacent pair's smallest gap over the run, keyed
    'front->rear' by vehicle id in lane-major order."""

    def __init__(self, traces, contacts, info_sources, min_gaps):
        super().__init__(traces)
        self.contacts = contacts
        self.info_sources = info_sources
        self.min_gaps = min_gaps


class _ReplayedTrace(Trace):
    """A run's trace. Its flags are views of the run's ramp; its position
    and velocity are replayed from the vehicle's restarts and the run's
    grid each time they are read, and never kept. The run checked its
    samples as it went."""

    __slots__ = ("_restarts", "_grid")

    def __init__(self, vehicle_id, dt, restarts, grid, *, ber, collided, responsible):
        self.vehicle_id, self.dt = vehicle_id, dt
        self.ber, self.collided, self.responsible = ber, collided, responsible
        self._restarts, self._grid = restarts, grid

    @property
    def position(self) -> np.ndarray:
        return self._columns()[0]

    @property
    def velocity(self) -> np.ndarray:
        return self._columns()[1]

    def _columns(self) -> tuple[np.ndarray, ...]:
        position, velocity = _replay(self._restarts, 0, len(self) - 1, self._grid)
        return position, velocity, self.ber, self.collided, self.responsible


def run_scenario(cfg: ScenarioConfig) -> Run:
    """Execute the scenario and return its Run: the fully annotated traces,
    which also carry the run's contacts, info sources and smallest gaps.

    Deterministic for a fixed config and seed. The lanes are computed in
    step, a block of steps at a time, taking turns through one scratch
    buffer: a lane's block is computed car by car through two rows, from
    the car ahead of the first that no lane before it in the block shares
    (`_Taken`), and only a block with a contact is computed in full rows,
    one per car, where its contacts are applied one at a time, each at the
    first step it occurs. The run ends one step after every affected
    vehicle has passed its brake onset and stands still. Blame is decided
    from the contacts the run detected, and each trace is built with its
    responsibility flags set. A run over MAX_VEHICLE_STEPS or MAX_RUN_BYTES
    is refused before anything is allocated, and one with a sample that is
    not finite, or a negative speed, is refused once it ends, as Trace
    refuses such a column.
    """
    lanes, first_affected, max_steps = _start_run(cfg)
    horizon = max_steps + 2  # the last step the episode may take
    times = np.arange(horizon + 1) * cfg.dt
    grid = (times, np.diff(times, prepend=0.0), cfg.speed_cap)
    width = min(_BLOCK_STEPS, horizon)
    scratch = _Scratch(max(map(len, lanes)), width)  # one for all lanes
    runs = [_Lane(lane, first, grid) for lane, first in zip(lanes, first_affected)]
    start = 0
    while True:
        end = min(start + width, horizon)
        taken = _Taken()
        for run in runs:
            run.advance(start, end, scratch, taken)
        halts = [run.halt for run in runs]
        done = None not in halts and max(halts) < end
        last = max(halts) + 1 if done else end  # one trailing step past the halt
        if done:
            for run in runs:
                run.cut(last)
        for run in runs:
            run.record()
        if done:
            break
        if end == horizon:
            raise SdcapError("simulation failed to reach a halt state")
        start = end
    for lane_idx, run in enumerate(runs):
        if run.faults:
            idx = min(run.faults)
            raise bad_sample_error(vehicle_id(lane_idx, idx), *run.faults[idx])
    contacts = sorted(  # (lane, rear index, step)
        (lane_idx, rear, step)
        for lane_idx, run in enumerate(runs) for rear, step in run.contacts if step <= last
    )
    min_gaps = {
        f"{vehicle_id(lane_idx, idx - 1)}->{vehicle_id(lane_idx, idx)}": gap
        for lane_idx, run in enumerate(runs) for idx, gap in enumerate(run.min_gaps, start=1)
    }
    grid = (times[:last + 1], grid[1][:last + 1], cfg.speed_cap)  # cut at the last step
    return _traces(cfg, lanes, grid, contacts, min_gaps)


def _traces(cfg, lanes, grid, contacts, min_gaps) -> Run:
    """The run's traces, one sample per step of the grid (times, spans,
    speed cap) cut at the run's last step, from each vehicle's restarts
    and the contacts the run detected, with blame decided.

    Every flag is off before its switch step and on from it, so each is a
    view of one read-only ramp of n False then n True (n steps): the flag
    switching at step k is ramp[n - k:2n - k], and every flag that never
    turns on is the one shared array ramp[:n]."""
    times = grid[0]
    n = len(times)
    blamed = assign_responsibility(lanes, contacts, cfg, grid)
    ramp = np.repeat([False, True], n)
    ramp.setflags(write=False)
    never = ramp[:n]

    def flag(step: Optional[int]) -> np.ndarray:
        """The flag that turns on at `step` (never if None or past last)."""
        return never if step is None or step >= n else ramp[n - step:2 * n - step]

    traces = [
        _ReplayedTrace(
            vehicle_id(lane_idx, idx),
            cfg.dt,
            veh.restarts,
            grid,
            ber=flag(_switch_step(times, veh.onset)),
            collided=flag(_switch_step(times, veh.collision_time)),
            # Flagged from the contact step; never if not blamed.
            responsible=flag(blamed.get((lane_idx, idx))),
        )
        for lane_idx, lane in enumerate(lanes)
        for idx, veh in enumerate(lane)
    ]
    links = [[veh.link for veh in lane] for lane in lanes]
    return Run(traces, contacts, _labels(links), min_gaps)


def _switch_step(times: np.ndarray, event: Optional[float]) -> Optional[int]:
    """The first step whose grid time has reached the event (less 1e-9 s),
    or None if there is no event or no such step."""
    if event is None:
        return None
    step = int(np.searchsorted(times, event - _EPS))
    return step if step < len(times) else None


def _clean(x, v) -> bool:
    """Whether no sample of the rows x, v is one a trace refuses: a
    position that is not finite, or a velocity that is not finite or is
    negative. A NaN makes a row's min and max NaN, which fails every
    comparison. Four reductions that raise no floating-point warning: a
    test on the rows' sums needs np.errstate (a finite row's sum may
    overflow), which cost more per row than the reduction it saves."""
    return (-math.inf < x.min() and x.max() < math.inf
            and 0 <= v.min() and v.max() < math.inf)


def _cruising(veh, end_time) -> bool:
    """Whether `_trajectory` coasts the car through a whole block that ends
    at end_time: not collided, and no cause (nor onset, which is never
    before it) at or before end_time."""
    return veh.collision_time is None and (veh.cause is None or veh.cause > end_time)


def _cruise_clean(x, v) -> bool:
    """`_clean` for rows that coast at v[0] from x[0]: the speeds repeat
    v[0], and the positions are a left fold of v[0] * span >= 0 from x[0],
    never decreasing and never NaN, so all are finite if x[0] and the last
    are. x[0] and v[0] are checked, since column 0 may be sample 0."""
    return -math.inf < x[0] and x[-1] < math.inf and 0 <= v[0] < math.inf


def _rest(veh, times, v, speed) -> Optional[int]:
    """A car's stand-still step (`_Lane._take`): the first column past 0,
    at or past its onset, whose speed is 0.0, or None. `speed` is its speed
    at the block's end, and a row of one column stands at it all block."""
    onset = veh.onset
    if onset is None or speed != 0.0 or times[-1] < onset:
        return None
    col = 1 if times[0] >= onset else int(np.searchsorted(times, onset))
    return col if len(v) == 1 else _first(v[col:] == 0.0, col)


def _first(flags: np.ndarray, offset: int = 0) -> Optional[int]:
    """offset plus the index of the first set flag, or None."""
    if not len(flags):
        return None
    k = int(np.argmax(flags))
    return offset + k if flags[k] else None


def assign_responsibility(
    lanes: Sequence[Sequence[_VehicleRT]],
    contacts: Sequence[tuple[int, int, int]],
    cfg: ScenarioConfig,
    grid: tuple,
) -> dict[tuple[int, int], int]:
    """Decide blame for a run's rear-end contacts (lane, rear index, step).

    The rear vehicle of a contact is responsible iff (a) its gap at the
    moment its predecessor's sudden stop began was below the safe distance
    applicable to its link's information source, or (b) it failed to start
    braking within its link's effective response time of that moment. The
    front vehicle is never blamed for braking. The two samples at that
    moment's step are replayed from each vehicle's restarts on the run's
    grid (times, spans, speed cap), cut at its last step. Returns
    {(lane, index): contact step} for the blamed vehicles; without
    collisions it is empty.
    """
    times = grid[0]
    blamed = {}
    for lane_idx, rear_idx, hit_step in contacts:
        rear = lanes[lane_idx][rear_idx]
        front = lanes[lane_idx][rear_idx - 1]
        cause_step = _switch_step(times, front.sudden_stop_time())
        if cause_step is None:
            continue
        (x_rear, v_rear), (x_front, v_front) = [
            [column.item() for column in _replay(veh.restarts, cause_step, cause_step, grid)]
            for veh in (rear, front)
        ]
        threshold = safe_distance(
            rear.params.with_speed(v_rear),
            front.params.with_speed(v_front),
            "cbv" if rear.link.source is InfoSource.RESPONSE else "pbv",
            cfg.dev,
            rear.link.eta,
        )
        gap_at_cause = x_front - x_rear
        spaced_too_close = gap_at_cause < threshold - 1e-9

        onset_step = _switch_step(times, rear.onset)
        late_braking = (
            onset_step is None
            or onset_step * cfg.dt
            > cause_step * cfg.dt + rear.link.effective_tau + cfg.dt + 1e-9
        )
        if spaced_too_close or late_braking:
            blamed[(lane_idx, rear_idx)] = hit_step
    return blamed


def _labels(links: Sequence[Sequence[Optional[Link]]]) -> dict[str, str]:
    """Each vehicle's info source by vehicle id (for the trace CSV), from
    links[lane][index]: its Link, or None ("none") for a lane lead."""
    return {
        vehicle_id(lane_idx, idx): "none" if link is None else link.source.value
        for lane_idx, lane in enumerate(links)
        for idx, link in enumerate(lane)
    }


def info_source_labels(cfg: ScenarioConfig) -> dict[str, str]:
    """The info-source labels a run of cfg carries (Run.info_sources), from
    a fresh draw of the links."""
    links = link_resolutions(cfg)
    return _labels([[links.get((lane_idx, idx)) for idx in range(len(lane))]
                    for lane_idx, lane in enumerate(cfg.lanes)])


def scenario_summary(run: Run, cfg: ScenarioConfig) -> dict:
    """Collision, throughput and spacing summary of a finished run: the
    Run that run_scenario(cfg) returned, whose contacts, info sources and
    smallest gaps it reports; it reads no samples. A plain list of traces,
    or traces out of order, is refused."""
    ids = [vehicle_id(lane, i) for lane, cars in enumerate(cfg.lanes) for i in range(len(cars))]
    if not isinstance(run, Run) or [t.vehicle_id for t in run] != ids:
        raise InvalidInputError("scenario_summary needs the Run of run_scenario(cfg): "
                                "cfg's vehicles in lane-major order, with their contacts")
    verdicts = safety_verdicts(run)
    collisions = [
        {
            "lane": lane_idx,
            "rear": vehicle_id(lane_idx, rear_idx),
            "front": vehicle_id(lane_idx, rear_idx - 1),
            "time_s": hit_step * cfg.dt,
        }
        for lane_idx, rear_idx, hit_step in run.contacts
    ]
    responsible = sorted(t.vehicle_id for t in run if t.responsible.any())
    fleet = next(lane[0].params for lane in cfg.lanes if lane)  # homogeneous
    return {
        "mode": cfg.mode,
        "omega": cfg.vehicle_count,
        "sdt": sum(verdicts),
        "road_safe": all(verdicts),
        "collisions": collisions,
        "responsible": responsible,
        "min_gaps_m": dict(run.min_gaps),
        "unsafe_vehicles": sorted(
            t.vehicle_id for t, safe in zip(run, verdicts) if not safe
        ),
        "info_sources": run.info_sources,
        "parameters": {
            "dt_s": cfg.dt,
            "rng_seed": cfg.rng_seed,
            "road_length_km": cfg.road.length_km,
            "lanes": cfg.road.lanes,
            "vehicle_length_m": fleet.length,
            "max_brake_mps2": fleet.max_brake,
            "max_accel_mps2": fleet.max_accel,
            "cruise_speed_mps": fleet.speed,
            "response_time_s": fleet.response_time,
            "e_l": cfg.dev.length,
            "e_v": cfg.dev.front_speed,
            "e_brake": cfg.dev.brake,
            "e_tau": cfg.dev.response,
            "latency_lo_s": cfg.latency.lo,
            "latency_hi_s": cfg.latency.hi,
        },
    }


# ---------------------------------------------------------------------------
# Scenario config files: line-oriented "key = value" text, '#' comments.
# See README for the full schema.


def _parse_floats(value: str, expect: int) -> list[float]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != expect:
        raise ConfigError(f"expected {expect} comma-separated values")
    return [float(p) for p in parts]


class _at_line:
    """A value refused inside raises a ConfigError naming its line. Every
    config line and setting enters one, so it is a class: a contextmanager
    generator costs about three times as much per entry (CPython 3.11)."""

    __slots__ = ("lineno",)

    def __init__(self, lineno: int):
        self.lineno = lineno

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, (SdcapError, ValueError)):
            raise ConfigError(f"line {self.lineno}: {exc}") from exc


def _integer(value: float, what: str) -> int:
    """A count or index read as a float: refused unless integral."""
    if not value.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _parse_target(value: str) -> tuple[int, int, float]:
    """The 'lane, vehicle index, number' of a trigger or ber_delay line."""
    lane, idx, number = _parse_floats(value, 3)
    return _integer(lane, "lane"), _integer(idx, "vehicle index"), number


def _parse_latency(value: str) -> LatencyModel:
    if value.lower() in LATENCY_PRESETS:
        return LATENCY_PRESETS[value.lower()]
    if value.startswith("constant:"):
        return LatencyModel.constant(_parse_floats(value[len("constant:"):], 1)[0])
    if value.startswith("uniform:"):
        return LatencyModel.uniform(*_parse_floats(value[len("uniform:"):], 2))
    raise ConfigError(
        f"unknown latency {value!r} "
        f"(presets: {sorted(LATENCY_PRESETS)}, or constant:S / uniform:LO,HI)"
    )


# Every scalar config key: the object it sets, that object's field, and the
# reader of its value text. The objects hold the range rules.
_KEYS = {
    "mode": ("scenario", "mode", str.lower),
    "dt": ("scenario", "dt", float),
    "timeout": ("scenario", "request_timeout", float),
    "speed_cap": ("scenario", "speed_cap", float),
    "seed": ("scenario", "rng_seed", lambda text: _integer(float(text), "seed")),
    "latency": ("scenario", "latency", _parse_latency),
    "road.length_km": ("road", "length_km", float),
    "road.lanes": ("road", "lanes", lambda text: _integer(float(text), "road.lanes")),
    "road.min_speed_kmh": ("road", "min_speed_kmh", float),
    **{f"vehicle.{name}": ("vehicle", name, float)
       for name in ("length", "max_brake", "max_accel", "speed", "response_time")},
    "vehicle.speed_kmh": ("vehicle", "speed", lambda text: float(text) * KMH_TO_MPS),
    "dev.e_l": ("dev", "length", float),
    "dev.e_v": ("dev", "front_speed", float),
    "dev.e_brake": ("dev", "brake", float),
    "dev.e_tau": ("dev", "response", float),
}
# The keys without a default; vehicle.speed_kmh sets vehicle.speed.
_REQUIRED = ("vehicle.speed", "vehicle.length", "vehicle.max_brake", "vehicle.max_accel",
             "vehicle.response_time", "mode")
# Scenario fields refused, if at all, by their readers: set in the final
# build instead of being applied to the one-vehicle scenario first.
_CHECKED_WHEN_READ = ("rng_seed", "latency")


def _applied(obj, settings: dict):
    """obj with the settings {field: (value, line, key)} applied one at a
    time, so that a refused value names its line."""
    for name, (value, lineno, _) in settings.items():
        with _at_line(lineno):
            obj = replace(obj, **{name: value})
    return obj


def _check_target(lanes, key: str, lane_no: int, idx: int):
    """Refuse a trigger or ber_delay target that names no vehicle."""
    if not (0 <= lane_no < len(lanes) and 0 <= idx < len(lanes[lane_no])):
        raise ConfigError(f"{key} target ({lane_no}, {idx}) out of range")


def scenario_from_text(text: str) -> ScenarioConfig:
    """Parse a scenario config file; errors carry line numbers."""
    settings: dict[str, dict] = {"road": {}, "vehicle": {}, "dev": {}, "scenario": {}}
    lane_gaps: dict[int, tuple[list[float], int]] = {}
    triggers: list[tuple[BrakeTrigger, int]] = []  # (trigger, line)
    delays: dict[tuple[int, int], tuple[float, int]] = {}  # target: (delay, line)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        with _at_line(lineno):
            if "=" not in line:
                raise ConfigError("expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "trigger":
                triggers.append((BrakeTrigger(*_parse_target(value)), lineno))
            elif key == "ber_delay":
                lane, idx, delay = _parse_target(value)
                if (lane, idx) in delays:
                    raise ConfigError(f"duplicate ber_delay for lane {lane}, vehicle {idx}")
                delays[(lane, idx)] = (delay, lineno)
            elif key.startswith("lane.") and key.endswith(".gaps"):
                try:
                    lane_no = int(key[len("lane."):-len(".gaps")])
                except ValueError:
                    raise ConfigError(f"bad lane key {key!r}") from None
                if lane_no in lane_gaps:
                    raise ConfigError(f"duplicate gaps for lane {lane_no}")
                gaps = [] if value == "" else _parse_floats(value, value.count(",") + 1)
                lane_gaps[lane_no] = (gaps, lineno)
            elif key not in _KEYS:
                raise ConfigError(f"unknown key {key!r}")
            else:
                obj, name, read = _KEYS[key]
                if name in settings[obj]:
                    first = settings[obj][name][2]
                    raise ConfigError(f"duplicate key {key!r}" if first == key else
                                      f"give {' or '.join(sorted((first, key)))}, not both")
                settings[obj][name] = (read(value), lineno, key)

    for key in _REQUIRED:
        obj, name, _ = _KEYS[key]
        if name not in settings[obj]:
            raise ConfigError(f"missing required key {key!r}")
    road = _applied(RoadSpec(), settings["road"])
    # The vehicle keys have no defaults: start from any valid vehicle, and
    # every field is then replaced by its configured value.
    params = _applied(VehicleParams(1.0, 1.0, 0.0, 0.0, 0.0), settings["vehicle"])
    dev = _applied(DeviationSet(regime=Regime.UNCHECKED), settings["dev"])

    lanes = []
    for lane_no in range(road.lanes):
        if lane_no not in lane_gaps:
            raise ConfigError(f"missing key 'lane.{lane_no}.gaps'")
        gaps, gaps_line = lane_gaps[lane_no]
        with _at_line(gaps_line):
            lanes.append([SpawnSpec(params, gap) for gap in [None, *gaps]])
    for lane_no, (_, gaps_line) in lane_gaps.items():  # in file order
        if not 0 <= lane_no < road.lanes:
            with _at_line(gaps_line):
                raise ConfigError(f"lane {lane_no} outside road.lanes = {road.lanes}")
    for trig, trig_line in triggers:
        with _at_line(trig_line):
            _check_target(lanes, "trigger", trig.lane, trig.index)
    for (lane_no, idx), (delay, delay_line) in delays.items():
        with _at_line(delay_line):
            _check_target(lanes, "ber_delay", lane_no, idx)
            lanes[lane_no][idx] = replace(lanes[lane_no][idx], ber_delay=delay)

    # The settings ScenarioConfig checks on their own are applied to a
    # one-vehicle scenario, so that a refused value names its line; the full
    # scenario is then built, and checked, once.
    scenario = settings["scenario"]
    checked = {name: scenario.pop(name)[0] for name in _CHECKED_WHEN_READ if name in scenario}
    one_car = ScenarioConfig(RoadSpec(lanes=1), [[SpawnSpec(params)]], [BrakeTrigger(0, 0, 0.0)])
    one_car = _applied(one_car, scenario)
    try:
        return replace(one_car, road=road, lanes=lanes, triggers=[t for t, _ in triggers],
                       dev=dev, **checked)
    except SdcapError as exc:
        raise ConfigError(str(exc)) from exc


def scenario_from_file(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError:
            raise ConfigError(f"config file {DecodedLines(handle).undecodable()}") from None
    return scenario_from_text(text)
