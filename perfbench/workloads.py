"""Inputs, operations and output checks of the benchmark workloads.

road_verify and crash_blame are the workloads; spacing_sweep is run once in
each traced run, for the capacity and closed-form layers.

Every input is made from the seed alone, as config text or CLI arguments;
the program sees nothing else. A seed selects one of `POOL` recorded inputs
(`seed % POOL`), and `golden.json` holds the outputs the original code
produced for each of them, so every operation's output is checked exactly.
`make_golden.py` rewrites that file; it must only be run when the inputs
change, never to make a changed output pass.

The safe gaps are computed here with the benchmark's own copy of the PBV
closed form, so the config text does not depend on the code under test.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import sdcap.cli
import sdcap.simulator

POOL = 32
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# The paper's fleet: 5 m cars, 9 m/s^2 brakes, 3 m/s^2 acceleration, 0.5 s
# response, 100 km/h on a 10 km, 2-lane road.
LENGTH, BRAKE, ACCEL, TAU = 5.0, 9.0, 3.0, 0.5
KMH_TO_MPS = 1.0 / 3.6
DT = 0.001

WORKLOADS = ("road_verify", "crash_blame")

# crash_blame: gaps drawn from these multiples of the safe gap D, and a
# latency that straddles the 0.1 s request timeout, so that followers plan
# both from responses and from defaults.
GAP_FACTORS = (0.85, 1.0, 1.2)
CRASH_LANE_SIZE = 10
ROAD_LANE_SIZE = 20
WIDE_WINDOW = 1000  # F bound of the wide nested formula
WIDE_VEHICLE = f"l0v{CRASH_LANE_SIZE - 1}"


def pbv_gap(rear_speed, front_speed, length=LENGTH, brake=BRAKE, accel=ACCEL, tau=TAU):
    """Closed-form PBV safe centre-to-centre gap (same algebra as the paper)."""
    t_front = front_speed / brake
    v_peak = rear_speed + tau * accel
    t_rear = tau + v_peak / brake
    if t_front >= t_rear:
        return length
    rear_travel = 0.5 * (rear_speed + v_peak) * tau + 0.5 * (t_rear - tau) * v_peak
    front_travel = 0.5 * front_speed * t_front
    return max(length, length + rear_travel - front_travel)


def scenario_text(mode, speed_kmh, lane_gaps, seed, extra=""):
    """Scenario config text: both lane leads brake fully at t = 0."""
    lanes = "".join(
        f"lane.{i}.gaps = {', '.join(repr(g) for g in gaps)}\n"
        for i, gaps in enumerate(lane_gaps)
    )
    return (
        f"mode = {mode}\n"
        f"dt = {DT!r}\n"
        f"seed = {seed}\n"
        "road.length_km = 10\n"
        f"road.lanes = {len(lane_gaps)}\n"
        "road.min_speed_kmh = 100\n"
        f"vehicle.length = {LENGTH!r}\n"
        f"vehicle.max_brake = {BRAKE!r}\n"
        f"vehicle.max_accel = {ACCEL!r}\n"
        f"vehicle.speed_kmh = {speed_kmh!r}\n"
        f"vehicle.response_time = {TAU!r}\n"
        + lanes
        + "".join(f"trigger = {i}, 0, 0.0\n" for i in range(len(lane_gaps)))
        + extra
    )


def safe_chain_text(index, per_lane):
    """PBV road, 2 lanes of `per_lane` cars at exactly the closed-form gap,
    cruising at a seeded speed within 0.5 km/h of 100 km/h."""
    speed_kmh = round(random.Random(f"road_verify/{index}").uniform(99.5, 100.5), 3)
    v = speed_kmh * KMH_TO_MPS
    gap = pbv_gap(v, v)
    return scenario_text("pbv", speed_kmh, [[gap] * (per_lane - 1)] * 2, index)


def crash_blame_text(index):
    """CBV road, 2 x 10 cars at seeded gaps, one late-braking fault.

    Every input has a collision in each lane (see below)."""
    rng = random.Random(f"crash_blame/{index}")
    v = 100.0 * KMH_TO_MPS
    d = pbv_gap(v, v)
    lane_gaps = []
    for _ in range(2):
        # The first follower sits at 0.85 D behind a lead that brakes from
        # cruise at t = 0, the case D is exact for, and reacts in >= 0.5 s:
        # it always collides.
        factors = [min(GAP_FACTORS)]
        factors += [rng.choice(GAP_FACTORS) for _ in range(CRASH_LANE_SIZE - 2)]
        lane_gaps.append([f * d for f in factors])
    fault = (rng.randrange(2), rng.randrange(1, CRASH_LANE_SIZE))
    extra = (
        "dev.e_l = 0.96\n"
        "dev.e_v = 1.03\n"
        "dev.e_brake = 0.97\n"
        "dev.e_tau = 0.95\n"
        "latency = uniform: 0.05, 0.15\n"
        "timeout = 0.1\n"
        f"ber_delay = {fault[0]}, {fault[1]}, 0.3\n"
    )
    return scenario_text("cbv", 100.0, lane_gaps, rng.randrange(1, 2**31), extra)


def sweep_axes(index):
    """Dense conservative grid: 12 x 12 x 12 deviation values x 4 latencies."""
    rng = random.Random(f"spacing_sweep/{index}")

    def axis(lo):
        steps = sorted(rng.sample(range(41), 12))
        return ",".join(repr(round(lo + 0.003 * s, 3)) for s in steps)

    return {
        "--e-tau-axis": axis(0.88),
        "--e-brake-axis": axis(0.88),
        "--e-v-axis": axis(1.0),
        "--eta-axis": "5g,dsrc,4g,0.1",
    }


def headline_road_text():
    """The paper's headline road: 10 km, 2 lanes, 100 km/h, packed to its
    perception-based capacity floor(2 (10000 - L) / D) + 1 = 833 cars."""
    v = 100.0 * KMH_TO_MPS
    gap = pbv_gap(v, v)
    count = math.floor(2 * (10000.0 - LENGTH) / gap) + 1
    lanes = [[gap] * ((count + 1) // 2 - 1), [gap] * (count // 2 - 1)]
    return scenario_text("pbv", 100.0, lanes, 0)


def chain_vehicle_steps(cfg) -> int:
    """Vehicle-steps of a PBV chain whose lane leads all brake at t = 0.

    Each follower brakes one response time after its predecessor, so the
    last car of the longest lane brakes at (n - 1) tau and halts
    (v + tau a) / b later; the simulator samples t = 0, every step to the
    halt, and one trailing step.
    """
    params = cfg.lanes[0][0].params
    longest = max(len(lane) for lane in cfg.lanes)
    halt = (longest - 1) * params.response_time + (
        params.speed + params.response_time * params.max_accel
    ) / params.max_brake
    return (math.ceil(halt / cfg.dt) + 2) * cfg.vehicle_count


def sha256_file(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def load_golden(index) -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    if golden["pool"] != POOL:
        raise RuntimeError(f"{GOLDEN_PATH} records {golden['pool']} inputs, not {POOL}")
    return golden["entries"][index]


# ---------------------------------------------------------------------------
# Operations. A spec is plain JSON so that a child process can rebuild the
# same operation for the memory pass.


class Operation:
    """One unit of timed work; building it (config parsing) is set-up."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.cfg = None
        if spec["kind"] == "scenario":
            self.cfg = sdcap.simulator.scenario_from_text(spec["config_text"])

    def __call__(self, tracer=None) -> dict:
        if self.cfg is not None:
            traces = sdcap.simulator.run_scenario(self.cfg)
            return {"summary": sdcap.simulator.scenario_summary(traces, self.cfg)}
        calls = []
        for tag, argv in self.spec["calls"]:
            if tracer is not None:
                tracer.tag = tag
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = sdcap.cli.main(list(argv))
            calls.append([tag, code, out.getvalue()])
        if tracer is not None:
            tracer.tag = ""
        return {"calls": calls}


@dataclass
class Prepared:
    """A workload's set-up result: the operation and its golden facts, which
    include the units of work one operation does ("work")."""

    operation: Operation
    expected: dict


def build_spec(workload: str, index: int, workdir: Path, golden: dict) -> dict:
    """The operation of one input, writing the files it reads. crash_blame
    takes its monitor window from the golden facts (see make_golden.py)."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "road_verify":
        return {"kind": "scenario",
                "config_text": safe_chain_text(index, ROAD_LANE_SIZE)}
    if workload == "crash_blame":
        return crash_blame_spec(index, workdir, golden["horizon"], golden["at"])
    if workload == "spacing_sweep":
        out = str(workdir / "sweep.csv")
        argv = ["sweep", "--out", out]
        for flag, value in sweep_axes(index).items():
            argv += [flag, value]
        return {"kind": "cli", "calls": [["sweep", argv]], "files": {"sweep": out}}
    raise ValueError(f"unknown workload {workload!r}")


def crash_blame_spec(index, workdir: Path, horizon: int, at: int) -> dict:
    """`sdcap simulate` with trace CSV and summary, then `sdcap monitor` of
    three formulas over that CSV:

    safety: blame-freedom over the full horizon, every vehicle.
    narrow: G[0,200] F[0,50] BER, every vehicle.
    wide:   G[0,5000] F[0,1000] BER on the last car of lane 0, evaluated from
            1000 steps before it brakes (`at`), so each of the first 1000 F
            windows scans up to the braking step: ~5e5 atom checks per input.
    """
    config = workdir / f"crash_blame_{index}.cfg"
    config.write_text(crash_blame_text(index), encoding="utf-8")
    files = {"trace": str(workdir / "crash_trace.csv"),
             "summary": str(workdir / "crash_summary.json")}
    base = ["monitor", "--trace", files["trace"], "--formula"]
    calls = [
        ["simulate", ["simulate", "--config", str(config),
                      "--trace-out", files["trace"], "--summary-out", files["summary"]]],
        ["safety", base + [f"G[0,{horizon}](BER -> !Y)"]],
        ["narrow", base + ["G[0,200] F[0,50] BER"]],
        ["wide", base + [f"G[0,5000] F[0,{WIDE_WINDOW}] BER",
                         "--vehicle", WIDE_VEHICLE, "--at", str(at)]],
    ]
    return {"kind": "cli", "calls": calls, "files": files}


def monitor_window(trace_path) -> dict:
    """Horizon of a crash_blame trace CSV, and where the wide window starts."""
    samples = 0
    first_ber = None
    with open(trace_path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            fields = line.split(",", 5)
            if fields[1] == WIDE_VEHICLE:
                if first_ber is None and fields[4] == "1":
                    first_ber = samples
                samples += 1
    if first_ber is None or first_ber < WIDE_WINDOW:
        raise RuntimeError(f"{trace_path}: {WIDE_VEHICLE} brakes at step {first_ber}")
    return {"horizon": samples - 1, "at": first_ber - WIDE_WINDOW}


def prepare(workload: str, seed: int, workdir: Path) -> Prepared:
    """Build one workload's inputs from the seed (the timed set-up)."""
    index = seed % POOL
    golden = load_golden(index)[workload]
    spec = build_spec(workload, index, workdir, golden)
    if workload == "crash_blame":
        cfg = sdcap.simulator.scenario_from_text(crash_blame_text(index))
        sources = set(sdcap.simulator.info_source_labels(cfg).values())
        if not {"response", "defaults"} <= sources or len(golden["collisions"]) < 2:
            raise RuntimeError(
                f"crash_blame input {index}: {len(golden['collisions'])} collisions, "
                f"info sources {sorted(sources)}"
            )
    return Prepared(Operation(spec), golden)


# ---------------------------------------------------------------------------
# Output checks.


def observed(workload: str, output: dict, spec: dict) -> dict:
    """The facts of one operation's output that are compared with golden."""
    if workload == "road_verify":
        s = output["summary"]
        return {"road_safe": s["road_safe"], "sdt": s["sdt"], "omega": s["omega"],
                "collisions": len(s["collisions"])}
    (_, code, stdout), *monitor = output["calls"]
    files = spec["files"]
    if workload == "crash_blame":
        with open(files["summary"], encoding="utf-8") as handle:
            summary = json.load(handle)
        return {
            "exit": code,
            "collisions": [[c["lane"], c["rear"], c["front"], c["time_s"]]
                           for c in summary["collisions"]],
            "responsible": summary["responsible"],
            "summary_sha256": sha256_file(files["summary"]),
            "trace_sha256": sha256_file(files["trace"]),
            "monitor": monitor,
        }
    report = re.search(r"wrote (\d+) rows .*; violations=(\d+);", stdout)
    return {
        "exit": code,
        "rows": int(report[1]) if report else None,
        "violations": int(report[2]) if report else None,
        "sha256": sha256_file(files["sweep"]),
    }


def check(workload: str, output: dict, expected: dict, spec: dict) -> list[str]:
    """Mismatches between an operation's output and the golden facts."""
    got = observed(workload, output, spec)
    return [f"{key}: {got[key]!r} != {expected[key]!r}"[:300]
            for key in got if got[key] != expected[key]]
