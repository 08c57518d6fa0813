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

Each lane is computed to the episode's step bound; the first step where a
rear vehicle is closer to its front than a body length is then searched
one rear at a time, each only up to the earliest contact found so far.
That step is applied as a collision scan (freeze both vehicles, snap the
rear to contact, reschedule the followers), the vehicles it changed are
recomputed from there to the step bound, and the search repeats after
that step. A collision is recorded at the grid step that detects it: its
time is that step's time, not the exact contact time between two samples.
The run ends one step after every braking vehicle stands still.

`run_scenario` returns a `Run`, the list of traces, which also carries the
run's contacts and each vehicle's info source. The summary's collisions
are those contacts: one rule, an overlap of more than 1e-9 m, so two cars
that only touch are not a collision.

The cost is O(vehicles x steps) numpy work per contact and once without
one, with Python only at the switch, cap, halt and contact steps. A run
holds its float64 position and velocity samples for the whole step bound,
16 bytes per vehicle-step, and its traces adopt them as read-only views.
Every flag (ber, collided, responsible) is off before its switch step and
on from it, so each is a view of one run-wide bool array. Past the
samples, a run holds a few rows of its step count at a time: the contact
search one gap row, the halt test one flag row. A scenario of more than
MAX_VEHICLE_STEPS vehicle-steps (about 0.4 GB) is refused before it
starts.
"""

import math
import random
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .capacity import RoadSpec, safe_distance
from .errors import (
    ConfigError,
    InvalidInputError,
    InvalidParameterError,
    SdcapError,
    undecodable_line,
)
# perfbench reads simulator.vehicle_safe, so the name stays importable here.
from .ltl import Trace, safety_verdicts, vehicle_safe  # noqa: F401
from .params import KMH_TO_MPS, VehicleParams, require_finite
from .perception import DeviationSet, Regime
from .protocol import (
    DEFAULT_REQUEST_TIMEOUT,
    InfoSource,
    LATENCY_PRESETS,
    LatencyModel,
    sample_latency,
)

_EPS = 1e-9

# The most vehicle-steps (step bound x vehicles) one run may hold. A run
# holds about 17 bytes per vehicle-step at its peak (its float64 position
# and velocity columns, which its traces adopt, and a few rows of scratch),
# so this is about 0.4 GB. run_scenario refuses a larger scenario before it
# allocates.
MAX_VEHICLE_STEPS = 25_000_000


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
    link; the response within the request timeout, with e_tau * tau0 + eta,
    and past it the conservative defaults at tau0."""
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
                    # The operation order of corrected_safe_distance.
                    link = Link(InfoSource.RESPONSE, cfg.dev.response * tau + eta, eta)
            links[(lane_idx, idx)] = link
    return links


class _VehicleRT:
    """Mutable per-vehicle state while the scenario runs."""

    __slots__ = (
        "params",
        "ber_delay",
        "link",
        "trigger_time",
        "x",
        "v",
        "collision_time",
        "cause",
        "onset",
    )

    def __init__(self, spawn: SpawnSpec, x: float, link: Optional[Link]):
        self.params = spawn.params
        self.ber_delay = spawn.ber_delay
        self.link = link  # None for the lane lead
        self.trigger_time: Optional[float] = None
        self.x = x
        self.v = spawn.params.speed
        self.collision_time: Optional[float] = None  # set once, at contact, which freezes it
        self.cause: Optional[float] = None
        self.onset: Optional[float] = None

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


def _phase_at(veh: _VehicleRT, t: float) -> int:
    if veh.onset is not None and t >= veh.onset:
        return _BRAKE
    if veh.cause is not None and t >= veh.cause:
        return _ACCEL
    return _CRUISE


def _advance(veh: _VehicleRT, t0: float, t1: float, speed_cap: Optional[float]):
    """Piecewise-exact kinematics from t0 to t1 with the phase schedule."""
    if veh.collision_time is not None:
        return
    boundaries = {t0, t1}
    for b in (veh.cause, veh.onset):
        if b is not None and t0 < b < t1:
            boundaries.add(b)
    points = sorted(boundaries)
    for a, b in zip(points, points[1:]):
        span = b - a
        phase = _phase_at(veh, a)
        if phase == _BRAKE:
            if veh.v <= 0:
                veh.v = 0.0
                continue
            brake = veh.params.max_brake
            t_halt = veh.v / brake
            if t_halt <= span:
                veh.x += veh.v * veh.v / (2.0 * brake)
                veh.v = 0.0
            else:
                veh.x += veh.v * span - 0.5 * brake * span * span
                veh.v -= brake * span
        elif phase == _ACCEL:
            accel = veh.params.max_accel
            if speed_cap is not None and accel > 0:
                if veh.v >= speed_cap:
                    veh.x += veh.v * span
                    continue
                t_cap = (speed_cap - veh.v) / accel
                if t_cap < span:
                    veh.x += (
                        veh.v * t_cap
                        + 0.5 * accel * t_cap * t_cap
                        + speed_cap * (span - t_cap)
                    )
                    veh.v = speed_cap
                    continue
            veh.x += veh.v * span + 0.5 * accel * span * span
            veh.v += accel * span
        else:
            veh.x += veh.v * span


def _scan_collisions(lane: list[_VehicleRT], t: float) -> list[int]:
    """Detect and freeze new rear-end contacts; returns rear indices."""
    hits = []
    for idx in range(1, len(lane)):
        front, rear = lane[idx - 1], lane[idx]
        contact = rear.params.length
        if rear.collision_time is not None:
            continue
        if front.x - rear.x < contact - _EPS:
            rear.x = front.x - contact
            for veh in (front, rear):
                veh.v = 0.0
                if veh.collision_time is None:
                    veh.collision_time = t
            hits.append(idx)
    return hits


# ---------------------------------------------------------------------------
# Trajectories along the time axis. Sample k is the state at t = k * dt, and
# step k runs from (k - 1) * dt to k * dt. The helpers below fill samples
# lo + 1 .. hi of one vehicle's position row x and velocity row v from sample
# lo, forming the increments of `_advance` in its operation order and summing
# them with np.add.accumulate (see the module docstring).


def _step(veh: _VehicleRT, x, v, k: int, dt: float, speed_cap: Optional[float]):
    """Step k through the scalar `_advance`."""
    veh.x, veh.v = float(x[k - 1]), float(v[k - 1])
    _advance(veh, (k - 1) * dt, k * dt, speed_cap)
    x[k], v[k] = veh.x, veh.v


def _coast(x, v, lo: int, hi: int, spans):
    """Constant speed: x += v * span."""
    v[lo + 1:hi + 1] = v[lo]
    np.multiply(v[lo], spans[lo + 1:hi + 1], out=x[lo + 1:hi + 1])
    np.add.accumulate(x[lo:hi + 1], out=x[lo:hi + 1])


def _accelerate(veh, x, v, lo: int, hi: int, spans, dt: float, speed_cap):
    """Full acceleration up to the speed cap, then constant speed."""
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
    x[lo + 1:last + 1] = v[lo:last] * span + 0.5 * accel * span * span
    np.add.accumulate(x[lo:last + 1], out=x[lo:last + 1])
    if last < hi:
        if v[last] < speed_cap:
            _step(veh, x, v, last + 1, dt, speed_cap)  # reaches the cap
            last += 1
        _coast(x, v, last, hi, spans)


def _brake(veh, x, v, lo: int, hi: int, spans, dt: float):
    """Full braking to a halt, then standing still."""
    brake = veh.params.max_brake
    np.multiply(brake, spans[lo + 1:hi + 1], out=v[lo + 1:hi + 1])
    np.subtract.accumulate(v[lo:hi + 1], out=v[lo:hi + 1])
    before = v[lo:hi]
    halts = _first((before <= 0) | (before / brake <= spans[lo + 1:hi + 1]), lo)
    last = hi if halts is None else halts  # the last sample of plain braking
    span = spans[lo + 1:last + 1]
    x[lo + 1:last + 1] = v[lo:last] * span - 0.5 * brake * span * span
    np.add.accumulate(x[lo:last + 1], out=x[lo:last + 1])
    if last < hi:
        _step(veh, x, v, last + 1, dt, None)  # comes to a halt
        x[last + 2:hi + 1] = x[last + 1]
        v[last + 2:hi + 1] = 0.0


def _trajectory(veh: _VehicleRT, x, v, k: int, end: int, times, spans, dt: float, speed_cap):
    """Fill x[k + 1:end + 1] and v[k + 1:end + 1] from sample k under the
    vehicle's current schedule (cause, onset, collision_time).

    The steps between two phase switches form one run. A step with a
    switch strictly inside it goes through `_advance`.
    """
    if veh.collision_time is not None:
        x[k + 1:end + 1] = x[k]
        v[k + 1:end + 1] = v[k]
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
                _accelerate(veh, x, v, k, stop, spans, dt, speed_cap)
            else:
                _brake(veh, x, v, k, stop, spans, dt)
        k = stop
        if straddled is not None:
            _step(veh, x, v, straddled, dt, speed_cap)
            k = straddled


class _Lane:
    """One lane's samples on the step grid, settled contact by contact.

    `position` and `velocity` ([vehicle, sample]) hold each vehicle's
    trajectory under its current schedule up to the step bound. A contact
    changes the schedule of the vehicles it freezes or reschedules; they are
    recomputed from the contact step on, and the search for the next
    contact starts after it.
    """

    def __init__(self, vehicles, first_affected, times, spans, cfg: ScenarioConfig):
        self.vehicles = vehicles
        self.affected = [] if first_affected is None else vehicles[first_affected:]
        self.times, self.spans = times, spans
        self.dt, self.speed_cap = cfg.dt, cfg.speed_cap
        self.horizon = len(times) - 1
        self.position = np.empty((len(vehicles), len(times)))
        self.velocity = np.empty_like(self.position)
        for i, veh in enumerate(vehicles):
            self.position[i, 0], self.velocity[i, 0] = veh.x, veh.v
            self._recompute(i, 0)
        self.contacts: list[tuple[int, int]] = []  # (rear index, step)

    def _recompute(self, i: int, step: int):
        """Vehicle i's samples after `step` under its current schedule."""
        _trajectory(self.vehicles[i], self.position[i], self.velocity[i], step,
                    self.horizon, self.times, self.spans, self.dt, self.speed_cap)

    def _next_contact(self, after: int) -> Optional[int]:
        """First step past `after` where a moving rear is closer to its
        front than a body length (the `_scan_collisions` test), or None.

        Searched one rear at a time, each only up to the earliest contact
        found so far, so the search holds one gap row, not the lane's."""
        found, end = None, self.horizon + 1
        for i, rear in enumerate(self.vehicles[1:], start=1):
            if rear.collision_time is None:
                gap = self.position[i - 1, after + 1:end] - self.position[i, after + 1:end]
                step = _first(gap < rear.params.length - _EPS, after + 1)
                if step is not None:
                    found = end = step
        return found

    def _apply_contact(self, step: int):
        """Step `step`'s collision scan and rescheduling, and the changed
        vehicles recomputed from there."""
        for i, veh in enumerate(self.vehicles):
            veh.x, veh.v = float(self.position[i, step]), float(self.velocity[i, step])
        before = [(veh.cause, veh.onset, veh.collision_time) for veh in self.vehicles]
        hits = _scan_collisions(self.vehicles, step * self.dt)
        self.contacts.extend((rear, step) for rear in hits)
        _reschedule(self.vehicles)
        for i, veh in enumerate(self.vehicles):
            if (veh.cause, veh.onset, veh.collision_time) != before[i]:
                self.position[i, step], self.velocity[i, step] = veh.x, veh.v
                self._recompute(i, step)

    def settle(self) -> Optional[int]:
        """Apply the lane's contacts in step order; return the first step at
        which every affected vehicle stands still and has passed its brake
        onset (None if none does by the step bound).

        Past that step no contact can change the lane's samples up to it,
        so the halt is searched once, on the settled samples.
        """
        step = self._next_contact(0)
        while step is not None:
            self._apply_contact(step)
            step = self._next_contact(step)
        first = len(self.vehicles) - len(self.affected)
        onset = max((veh.onset for veh in self.affected), default=-math.inf)
        still = self.times[1:] >= onset
        for velocity in self.velocity[first:, 1:]:  # one row at a time
            still &= velocity == 0.0
        return _first(still, 1)


def _start_run(cfg: ScenarioConfig):
    """A run's initial state: the vehicles of each lane, each follower with
    its Link, and their first schedule, the index of each lane's first
    braking vehicle (None in a lane without a trigger), and a generous
    bound on the number of steps the episode takes. A scenario whose bound
    times its vehicle count exceeds MAX_VEHICLE_STEPS is refused here."""
    links = link_resolutions(cfg)
    lanes: list[list[_VehicleRT]] = []
    for lane_idx, lane_spec in enumerate(cfg.lanes):
        column: list[_VehicleRT] = []
        x = 0.0
        for idx, spawn in enumerate(lane_spec):
            if idx > 0:
                x = column[-1].x - spawn.gap_to_predecessor
            column.append(_VehicleRT(spawn, x, links.get((lane_idx, idx))))
        lanes.append(column)

    for trig in cfg.triggers:
        veh = lanes[trig.lane][trig.index]
        if veh.trigger_time is None or trig.time < veh.trigger_time:
            veh.trigger_time = trig.time
    for lane in lanes:
        _reschedule(lane)

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
    return lanes, first_affected, int(max_steps)


class Run(list):
    """A finished run's traces in lane-major order, with two facts the run
    decided: `contacts`, its rear-end contacts as (lane, rear index, step)
    sorted by lane and rear, and `info_sources`, each vehicle's front-car
    information source from the run's one draw of the links."""

    def __init__(self, traces, contacts, info_sources):
        super().__init__(traces)
        self.contacts = contacts
        self.info_sources = info_sources


def run_scenario(cfg: ScenarioConfig) -> Run:
    """Execute the scenario and return its Run: the fully annotated traces,
    which also carry the run's contacts and info sources.

    Deterministic for a fixed config and seed. Each lane's trajectories are
    computed to the step bound, and its contacts are then applied one at a
    time, each at the first step it occurs. The run ends one step after
    every affected vehicle has passed its brake onset and stands still.
    Blame is decided from the contacts the run detected, and each trace is
    built with its responsibility flags set. A run whose step bound times
    its vehicle count exceeds MAX_VEHICLE_STEPS is refused before any
    column is allocated.
    """
    lanes, first_affected, max_steps = _start_run(cfg)
    horizon = max_steps + 2  # the last step the episode may take
    times = np.arange(horizon + 1) * cfg.dt
    spans = np.diff(times, prepend=0.0)
    runs = [
        _Lane(lane, first, times, spans, cfg) for lane, first in zip(lanes, first_affected)
    ]
    halts = [run.settle() for run in runs]
    if None in halts or max(halts) >= horizon:
        raise SdcapError("simulation failed to reach a halt state")
    last = max(halts) + 1  # one trailing step past the halt
    contacts = [  # (lane, rear index, step)
        (lane_idx, rear, step) for lane_idx, run in enumerate(runs) for rear, step in run.contacts
    ]
    return _traces(
        cfg, lanes, [run.position for run in runs], [run.velocity for run in runs], contacts, last
    )


def _traces(cfg, lanes, positions, velocities, contacts, last) -> Run:
    """The run's traces, from its samples (positions[lane][vehicle, step],
    for steps 0..last at least) and the contacts it detected, with blame
    decided.

    The sample arrays are frozen, and the traces adopt steps 0..last of
    them as read-only views, not copies. Every flag is off before its switch
    step and on from it, so each is a view of one read-only ramp of n False
    then n True (n = last + 1): the flag switching at step k is
    ramp[n - k:2n - k], and every flag that never turns on is the one shared
    array ramp[:n]."""
    n = last + 1
    # Step k's grid time k * dt: the same double in numpy as in Python.
    times = np.arange(n) * cfg.dt
    blamed = assign_responsibility(lanes, positions, velocities, contacts, cfg, times)
    for samples in (*positions, *velocities):
        samples.setflags(write=False)
    ramp = np.repeat([False, True], n)
    ramp.setflags(write=False)
    never = ramp[:n]

    def flag(step: Optional[int]) -> np.ndarray:
        """The flag that turns on at `step` (never if None or past last)."""
        return never if step is None or step >= n else ramp[n - step:2 * n - step]

    traces = []
    for lane_idx, lane in enumerate(lanes):
        for idx, veh in enumerate(lane):
            traces.append(
                Trace.from_columns(
                    vehicle_id(lane_idx, idx),
                    cfg.dt,
                    position=positions[lane_idx][idx, :n],
                    velocity=velocities[lane_idx][idx, :n],
                    ber=flag(_switch_step(times, veh.onset)),
                    collided=flag(_switch_step(times, veh.collision_time)),
                    # Flagged from the contact step; never if not blamed.
                    responsible=flag(blamed.get((lane_idx, idx))),
                )
            )
    return Run(traces, sorted(contacts), _labels([[veh.link for veh in lane] for lane in lanes]))


def _switch_step(times: np.ndarray, event: Optional[float]) -> Optional[int]:
    """The first step whose grid time has reached the event (less 1e-9 s),
    or None if there is no event or no such step."""
    if event is None:
        return None
    step = int(np.searchsorted(times, event - _EPS))
    return step if step < len(times) else None


def _first(flags: np.ndarray, offset: int = 0) -> Optional[int]:
    """offset plus the index of the first set flag, or None."""
    if not len(flags):
        return None
    k = int(np.argmax(flags))
    return offset + k if flags[k] else None


def assign_responsibility(
    lanes: Sequence[Sequence[_VehicleRT]],
    positions: Sequence[np.ndarray],
    velocities: Sequence[np.ndarray],
    contacts: Sequence[tuple[int, int, int]],
    cfg: ScenarioConfig,
    times: np.ndarray,
) -> dict[tuple[int, int], int]:
    """Decide blame for a run's rear-end contacts (lane, rear index, step).

    The rear vehicle of a contact is responsible iff (a) its gap at the
    moment its predecessor's sudden stop began was below the safe distance
    applicable to its link's information source, or (b) it failed to start
    braking within its link's effective response time of that moment. The
    front vehicle is never blamed for braking. positions[lane] and
    velocities[lane] hold the run's samples as [vehicle, step]. Returns
    {(lane, index): contact step} for the blamed vehicles; without
    collisions it is empty.
    """
    blamed = {}
    for lane_idx, rear_idx, hit_step in contacts:
        rear = lanes[lane_idx][rear_idx]
        front = lanes[lane_idx][rear_idx - 1]
        cause_step = _switch_step(times, front.sudden_stop_time())
        if cause_step is None:
            continue
        v_rear = float(velocities[lane_idx][rear_idx, cause_step])
        v_front = float(velocities[lane_idx][rear_idx - 1, cause_step])
        threshold = safe_distance(
            rear.params.with_speed(v_rear),
            front.params.with_speed(v_front),
            "cbv" if rear.link.source is InfoSource.RESPONSE else "pbv",
            cfg.dev,
            rear.link.eta,
        )
        position = positions[lane_idx]
        gap_at_cause = float(position[rear_idx - 1, cause_step] - position[rear_idx, cause_step])
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
    Run that run_scenario(cfg) returned, whose contacts and info sources it
    reports. A plain list of traces, or traces out of order, is refused."""
    ids = [vehicle_id(lane, i) for lane, cars in enumerate(cfg.lanes) for i in range(len(cars))]
    if not isinstance(run, Run) or [t.vehicle_id for t in run] != ids:
        raise InvalidInputError("scenario_summary needs the Run of run_scenario(cfg): "
                                "cfg's vehicles in lane-major order, with their contacts")
    verdicts = safety_verdicts(run)
    min_gaps = {}
    start = 0
    for lane in cfg.lanes:
        column = run[start:start + len(lane)]
        start += len(lane)
        for front, rear in zip(column, column[1:]):
            min_gaps[f"{front.vehicle_id}->{rear.vehicle_id}"] = float(
                np.min(front.position - rear.position)
            )
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
        "min_gaps_m": min_gaps,
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
            raise ConfigError(f"config file {undecodable_line(handle)}") from None
    return scenario_from_text(text)
