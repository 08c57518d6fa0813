"""Discrete-time execution of sudden-brake scenarios on a straight road.

Each lane is an ordered front-to-back column of vehicles. A brake trigger
makes one vehicle apply full braking at a given time; every follower learns
of its immediate predecessor's sudden stop (brake onset, or a crash) and
reacts with its own effective response time, accelerating at its maximum
rate through the response window (the worst case the spacing formulas plan
for) before braking to a halt. Colliding vehicles stop instantly at contact
and stay frozen.

Integration is stepwise with piecewise-exact kinematics inside each step
(phase switches and halts are resolved at their exact times, states are
sampled on the dt grid). This keeps scenarios spawned exactly at the
computed safe distance collision-free instead of flipping on integration
noise.
"""

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .capacity import RoadSpec
from .errors import ConfigError, InvalidParameterError, SdcapError
from .kinematics import safe_longitudinal_distance
# perfbench reads simulator.vehicle_safe, so the name stays importable here.
from .ltl import Trace, safety_verdicts, vehicle_safe  # noqa: F401
from .params import KMH_TO_MPS, VehicleParams, require_finite
from .perception import DeviationSet, Regime, corrected_params
from .protocol import (
    DEFAULT_REQUEST_TIMEOUT,
    FrontInfoResolution,
    InfoSource,
    LATENCY_PRESETS,
    LatencyModel,
    corrected_safe_distance,
    resolve_front_info,
    sample_latency,
)

_EPS = 1e-9


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
        if self.request_timeout < 0:
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


def link_resolutions(
    cfg: ScenarioConfig,
) -> dict[tuple[int, int], tuple[FrontInfoResolution, float]]:
    """Front-car information resolution for every follower, seeded by cfg.

    Perception mode: the follower plans from its conservative onboard view
    (latency-free). Cooperative mode: one latency draw per link; a draw
    beyond the request timeout falls back to the conservative defaults.
    """
    rng = random.Random(cfg.rng_seed)
    resolutions = {}
    for lane_idx, lane in enumerate(cfg.lanes):
        for idx in range(1, len(lane)):
            rear = lane[idx].params
            front = lane[idx - 1].params
            if cfg.mode == "pbv":
                # The configured params are the conservative onboard view.
                res = FrontInfoResolution(
                    InfoSource.PERCEPTION, front, rear.response_time
                )
                eta = 0.0
            else:
                eta = sample_latency(cfg.latency, rng)
                if eta > cfg.request_timeout:
                    res = resolve_front_info(None, None, front, rear.response_time)
                else:
                    res = resolve_front_info(
                        corrected_params(front, cfg.dev),
                        None,
                        front,
                        rear.response_time,
                        response_ratio=cfg.dev.response,
                        eta=eta,
                    )
            resolutions[(lane_idx, idx)] = (res, eta)
    return resolutions


class _VehicleRT:
    """Mutable per-vehicle state while the scenario runs."""

    __slots__ = (
        "params",
        "ber_delay",
        "tau_eff",
        "trigger_time",
        "x",
        "v",
        "frozen",
        "collision_time",
        "cause",
        "onset",
        "positions",
        "velocities",
    )

    def __init__(self, spawn: SpawnSpec, x: float, tau_eff: Optional[float]):
        self.params = spawn.params
        self.ber_delay = spawn.ber_delay
        self.tau_eff = tau_eff  # None for the lane lead
        self.trigger_time: Optional[float] = None
        self.x = x
        self.v = spawn.params.speed
        self.frozen = False
        self.collision_time: Optional[float] = None
        self.cause: Optional[float] = None
        self.onset: Optional[float] = None
        self.positions: list[float] = []
        self.velocities: list[float] = []

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
                candidates.append(veh.cause + veh.tau_eff + veh.ber_delay)
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
    if veh.frozen:
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
        if rear.collision_time is not None and rear.frozen:
            continue
        if front.x - rear.x < contact - _EPS:
            rear.x = front.x - contact
            for veh in (front, rear):
                veh.frozen = True
                veh.v = 0.0
                if veh.collision_time is None:
                    veh.collision_time = t
            hits.append(idx)
    return hits


def run_scenario(cfg: ScenarioConfig) -> list[Trace]:
    """Execute the scenario and return fully annotated traces.

    Deterministic for a fixed config and seed. Responsibility flags are
    assigned before returning.
    """
    resolutions = link_resolutions(cfg)
    lanes: list[list[_VehicleRT]] = []
    for lane_idx, lane_spec in enumerate(cfg.lanes):
        column: list[_VehicleRT] = []
        x = 0.0
        for idx, spawn in enumerate(lane_spec):
            if idx > 0:
                x = column[-1].x - spawn.gap_to_predecessor
            tau_eff = (
                resolutions[(lane_idx, idx)][0].effective_tau if idx > 0 else None
            )
            column.append(_VehicleRT(spawn, x, tau_eff))
        lanes.append(column)

    for trig in cfg.triggers:
        veh = lanes[trig.lane][trig.index]
        if veh.trigger_time is None or trig.time < veh.trigger_time:
            veh.trigger_time = trig.time
    for lane in lanes:
        _reschedule(lane)

    affected: list[_VehicleRT] = []
    for lane_idx, lane in enumerate(lanes):
        triggered = [t.index for t in cfg.triggers if t.lane == lane_idx]
        if triggered:
            affected.extend(lane[min(triggered):])

    max_onset = max(v.onset for v in affected)
    dt = cfg.dt
    # Generous upper bound on how long the episode can take.
    peak_speed = max(
        v.params.speed + (0.0 if v.tau_eff is None else v.tau_eff + v.ber_delay)
        * v.params.max_accel
        for v in affected
    )
    if cfg.speed_cap is not None:
        peak_speed = min(peak_speed, max(cfg.speed_cap, 0.0))
    max_steps = (
        int(
            math.ceil(
                (max_onset + peak_speed / min(v.params.max_brake for v in affected))
                / dt
            )
        )
        + 16
    )

    for lane in lanes:
        for veh in lane:
            veh.positions.append(veh.x)
            veh.velocities.append(veh.v)

    extra_steps = 0
    step = 0
    while True:
        step += 1
        if step > max_steps + 2:
            raise SdcapError("simulation failed to reach a halt state")
        t0, t1 = (step - 1) * dt, step * dt
        for lane in lanes:
            for veh in lane:
                _advance(veh, t0, t1, cfg.speed_cap)
            if _scan_collisions(lane, t1):
                _reschedule(lane)
        for lane in lanes:
            for veh in lane:
                veh.positions.append(veh.x)
                veh.velocities.append(veh.v)
        if extra_steps:
            break
        current_max_onset = max(v.onset for v in affected)
        if t1 >= current_max_onset and all(v.v == 0.0 for v in affected):
            extra_steps = 1  # one trailing step past the halt

    traces = []
    for lane_idx, lane in enumerate(lanes):
        for idx, veh in enumerate(lane):
            # Step k's grid time k * dt: the same double in numpy as in Python.
            times = np.arange(len(veh.positions)) * dt
            traces.append(
                Trace.from_columns(
                    vehicle_id(lane_idx, idx),
                    dt,
                    position=veh.positions,
                    velocity=veh.velocities,
                    ber=_since(times, veh.onset),
                    collided=_since(times, veh.collision_time),
                    responsible=np.zeros(len(times), dtype=bool),
                )
            )
    return assign_responsibility(traces, cfg)


def _since(times: np.ndarray, event: Optional[float]) -> np.ndarray:
    """Per-step flag: the event (if any) has happened by this grid time."""
    if event is None:
        return np.zeros(len(times), dtype=bool)
    return times >= event - _EPS


def _first(flags: np.ndarray) -> Optional[int]:
    """Index of the first set flag, or None."""
    k = int(np.argmax(flags))
    return k if flags[k] else None


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


def assign_responsibility(
    traces: Sequence[Trace], cfg: ScenarioConfig
) -> list[Trace]:
    """Set responsibility flags for rear-end collisions.

    The rear vehicle of a contact is responsible iff (a) its gap at the
    moment its predecessor's sudden stop began was below the safe distance
    applicable to its information mode, or (b) it failed to start braking
    within its effective response time of that moment. The front vehicle is
    never blamed for braking. Without collisions every flag stays False.
    """
    grid = _trace_map(traces, cfg)
    resolutions = link_resolutions(cfg)
    blamed: dict[str, int] = {}
    for lane_idx, rear_idx, hit_step in rear_end_pairs(traces, cfg):
        rear = grid[(lane_idx, rear_idx)]
        front = grid[(lane_idx, rear_idx - 1)]
        cause_step = _first(front.ber | front.collided)
        if cause_step is None:
            continue
        rear_params = cfg.lanes[lane_idx][rear_idx].params
        front_params = cfg.lanes[lane_idx][rear_idx - 1].params
        resolution, eta = resolutions[(lane_idx, rear_idx)]
        v_rear = float(rear.velocity[cause_step])
        v_front = float(front.velocity[cause_step])
        if cfg.mode == "cbv" and resolution.source is InfoSource.RESPONSE:
            threshold = corrected_safe_distance(
                rear_params.with_speed(v_rear),
                front_params.with_speed(v_front),
                cfg.dev,
                eta,
            )
        else:
            threshold = safe_longitudinal_distance(
                rear_params.with_speed(v_rear),
                front_params.with_speed(v_front),
                resolution.effective_tau,
            )
        gap_at_cause = float(front.position[cause_step] - rear.position[cause_step])
        spaced_too_close = gap_at_cause < threshold - 1e-9

        onset_step = _first(rear.ber)
        late_braking = (
            onset_step is None
            or onset_step * rear.dt
            > cause_step * rear.dt + resolution.effective_tau + rear.dt + 1e-9
        )
        if spaced_too_close or late_braking:
            vid = rear.vehicle_id
            blamed[vid] = min(blamed.get(vid, hit_step), hit_step)

    out = []
    for trace in traces:
        if trace.vehicle_id not in blamed:
            out.append(trace)
            continue
        out.append(
            Trace.from_columns(
                trace.vehicle_id,
                trace.dt,
                position=trace.position,
                velocity=trace.velocity,
                ber=trace.ber,
                collided=trace.collided,
                responsible=np.arange(len(trace)) >= blamed[trace.vehicle_id],
            )
        )
    return out


def info_source_labels(cfg: ScenarioConfig) -> dict[str, str]:
    """Per-vehicle provenance of the front-car information (for trace CSV)."""
    resolutions = link_resolutions(cfg)
    labels = {}
    for lane_idx, lane in enumerate(cfg.lanes):
        for idx in range(len(lane)):
            vid = vehicle_id(lane_idx, idx)
            if idx == 0:
                labels[vid] = "none"
            else:
                labels[vid] = resolutions[(lane_idx, idx)][0].source.value
    return labels


def scenario_summary(traces: Sequence[Trace], cfg: ScenarioConfig) -> dict:
    """Collision, throughput and spacing summary of a finished run."""
    verdicts = safety_verdicts(traces)
    grid = _trace_map(traces, cfg)
    collisions = []
    min_gaps = {}
    for lane_idx, lane in enumerate(cfg.lanes):
        for idx in range(1, len(lane)):
            rear = grid[(lane_idx, idx)]
            front = grid[(lane_idx, idx - 1)]
            min_gaps[f"{front.vehicle_id}->{rear.vehicle_id}"] = float(
                np.min(front.position - rear.position)
            )
    for lane_idx, rear_idx, hit_step in rear_end_pairs(traces, cfg):
        collisions.append(
            {
                "lane": lane_idx,
                "rear": vehicle_id(lane_idx, rear_idx),
                "front": vehicle_id(lane_idx, rear_idx - 1),
                "time_s": hit_step * cfg.dt,
            }
        )
    responsible = sorted(t.vehicle_id for t in traces if t.responsible.any())
    fleet = cfg.lanes[0][0].params if cfg.lanes[0] else None
    return {
        "mode": cfg.mode,
        "omega": cfg.vehicle_count,
        "sdt": sum(verdicts),
        "road_safe": all(verdicts),
        "collisions": collisions,
        "responsible": responsible,
        "min_gaps_m": min_gaps,
        "unsafe_vehicles": sorted(
            t.vehicle_id for t, safe in zip(traces, verdicts) if not safe
        ),
        "info_sources": info_source_labels(cfg),
        "parameters": {
            "dt_s": cfg.dt,
            "rng_seed": cfg.rng_seed,
            "road_length_km": cfg.road.length_km,
            "lanes": cfg.road.lanes,
            "vehicle_length_m": fleet.length if fleet else None,
            "max_brake_mps2": fleet.max_brake if fleet else None,
            "max_accel_mps2": fleet.max_accel if fleet else None,
            "cruise_speed_mps": fleet.speed if fleet else None,
            "response_time_s": fleet.response_time if fleet else None,
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


def _parse_floats(value: str, lineno: int, expect: int) -> list[float]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != expect:
        raise ConfigError(f"line {lineno}: expected {expect} comma-separated values")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from exc


def _parse_latency(value: str, lineno: int) -> LatencyModel:
    value = value.strip()
    if value.lower() in LATENCY_PRESETS:
        return LATENCY_PRESETS[value.lower()]
    if value.startswith("constant:"):
        return LatencyModel.constant(
            _parse_floats(value[len("constant:"):], lineno, 1)[0]
        )
    if value.startswith("uniform:"):
        lo, hi = _parse_floats(value[len("uniform:"):], lineno, 2)
        return LatencyModel.uniform(lo, hi)
    raise ConfigError(
        f"line {lineno}: unknown latency {value!r} "
        f"(presets: {sorted(LATENCY_PRESETS)}, or constant:S / uniform:LO,HI)"
    )


def scenario_from_text(text: str) -> ScenarioConfig:
    """Parse a scenario config file; errors carry line numbers."""
    scalars: dict[str, str] = {}
    scalar_lines: dict[str, int] = {}
    lane_gaps: dict[int, tuple[list[float], int]] = {}
    triggers: list[BrakeTrigger] = []
    delays: list[tuple[int, int, float]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "trigger":
            lane, idx, time = _parse_floats(value, lineno, 3)
            triggers.append(BrakeTrigger(int(lane), int(idx), time))
        elif key == "ber_delay":
            lane, idx, delay = _parse_floats(value, lineno, 3)
            delays.append((int(lane), int(idx), delay))
        elif key.startswith("lane.") and key.endswith(".gaps"):
            middle = key[len("lane."):-len(".gaps")]
            try:
                lane_no = int(middle)
            except ValueError:
                raise ConfigError(f"line {lineno}: bad lane key {key!r}") from None
            gaps = (
                [] if value == "" else [g for g in _parse_floats(value, lineno, max(1, value.count(",") + 1))]
            )
            lane_gaps[lane_no] = (gaps, lineno)
        else:
            if key in scalars:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            scalars[key] = value
            scalar_lines[key] = lineno

    def need(key: str) -> str:
        if key not in scalars:
            raise ConfigError(f"missing required key {key!r}")
        return scalars[key]

    def get_float(key: str, default=None) -> float:
        if key not in scalars:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        try:
            return float(scalars[key])
        except ValueError as exc:
            raise ConfigError(f"line {scalar_lines[key]}: {exc}") from exc

    road = RoadSpec(
        length_km=get_float("road.length_km", 10.0),
        lanes=int(get_float("road.lanes", 2.0)),
        min_speed_kmh=get_float("road.min_speed_kmh", 100.0),
    )
    if "vehicle.speed_kmh" in scalars and "vehicle.speed" in scalars:
        raise ConfigError("give vehicle.speed or vehicle.speed_kmh, not both")
    if "vehicle.speed_kmh" in scalars:
        speed = get_float("vehicle.speed_kmh") * KMH_TO_MPS
    else:
        speed = get_float("vehicle.speed")
    try:
        params = VehicleParams(
            length=get_float("vehicle.length"),
            max_brake=get_float("vehicle.max_brake"),
            max_accel=get_float("vehicle.max_accel"),
            speed=speed,
            response_time=get_float("vehicle.response_time"),
        )
        dev = DeviationSet(
            length=get_float("dev.e_l", 1.0),
            front_speed=get_float("dev.e_v", 1.0),
            brake=get_float("dev.e_brake", 1.0),
            response=get_float("dev.e_tau", 1.0),
            regime=Regime.UNCHECKED,
        )
    except SdcapError as exc:
        raise ConfigError(str(exc)) from exc

    mode = need("mode").lower()
    latency = (
        _parse_latency(scalars["latency"], scalar_lines["latency"])
        if "latency" in scalars
        else LatencyModel.constant(0.0)
    )

    delay_map = {(lane, idx): delay for lane, idx, delay in delays}
    lanes = []
    for lane_no in range(road.lanes):
        if lane_no not in lane_gaps:
            raise ConfigError(f"missing key 'lane.{lane_no}.gaps'")
        gaps, _ = lane_gaps[lane_no]
        column = [SpawnSpec(params, None, delay_map.get((lane_no, 0), 0.0))]
        for i, gap in enumerate(gaps, start=1):
            column.append(SpawnSpec(params, gap, delay_map.get((lane_no, i), 0.0)))
        lanes.append(tuple(column))
    unknown_lanes = set(lane_gaps) - set(range(road.lanes))
    if unknown_lanes:
        raise ConfigError(f"lane keys outside road.lanes: {sorted(unknown_lanes)}")
    for lane_no, idx, _ in delays:
        if not (0 <= lane_no < road.lanes) or not (0 <= idx < len(lanes[lane_no])):
            raise ConfigError(f"ber_delay target ({lane_no}, {idx}) out of range")

    try:
        return ScenarioConfig(
            road=road,
            lanes=tuple(lanes),
            triggers=tuple(triggers),
            mode=mode,
            dev=dev,
            latency=latency,
            dt=get_float("dt", 1e-3),
            rng_seed=int(get_float("seed", 0.0)),
            request_timeout=get_float("timeout", DEFAULT_REQUEST_TIMEOUT),
            speed_cap=get_float("speed_cap") if "speed_cap" in scalars else None,
        )
    except SdcapError as exc:
        raise ConfigError(str(exc)) from exc


def scenario_from_file(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return scenario_from_text(handle.read())
