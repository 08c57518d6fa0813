"""Command-line front end.

Subcommands: distance, sdc, sweep, simulate, monitor. Exit codes: 0 on
success (road safe / formula satisfied), 1 when a safety verdict is
violated, 2 on usage or input errors. Speeds given with --unit kmh convert
by exactly 1/3.6; every file output is SI with unit-suffixed column names.
"""

import argparse
import json
import math
import sys

from .capacity import (
    RoadSpec,
    SWEEP_CSV_HEADER,
    SweepGrid,
    capacity_report,
    check_capacity_bound,
    sdc_per_lane,
)
from .errors import InvalidInputError, SdcapError
from .kinematics import safe_longitudinal_distance
from .ltl import evaluate, parse_formula, read_traces_csv, write_traces_csv
from .params import KMH_TO_MPS, VehicleParams
from .perception import DeviationSet, Regime
from .protocol import LATENCY_PRESETS, corrected_safe_distance
from .simulator import (
    run_scenario,
    scenario_from_file,
    scenario_summary,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_ERROR = 2

# The most points a sweep grid may have, per axis and in product: far above
# the 12 x 12 x 12 x 4 = 6,912-point grids the benchmark sweeps.
MAX_SWEEP_POINTS = 100_000


def _speed_mps(value: float, unit: str) -> float:
    return value * KMH_TO_MPS if unit == "kmh" else value


def _parse_eta(text: str) -> float:
    label = text.strip().lower()
    if label in LATENCY_PRESETS:
        return LATENCY_PRESETS[label].lo
    return float(text)


def _parse_axis(text: str) -> tuple[float, ...]:
    """Axis syntax: comma list of numbers/preset labels, or lo:hi:step."""
    text = text.strip()
    if not text:
        return ()
    if ":" in text and "," not in text:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < step < math.inf):
            raise argparse.ArgumentTypeError(
                f"range needs finite bounds and a finite step > 0: {text!r}"
            )
        steps = (hi - lo) / step
        if steps + 1 > MAX_SWEEP_POINTS:
            raise argparse.ArgumentTypeError(
                f"range {text!r} has more than the cap of {MAX_SWEEP_POINTS} points"
            )
        # lo + k * step grows with k: the points are a prefix of these.
        candidates = (lo + k * step for k in range(int(max(steps, 0.0)) + 2))
        return tuple(round(v, 12) for v in candidates if v <= hi + 1e-12)
    return tuple(_parse_eta(part) for part in text.split(","))


def _vehicle_from_args(args, speed: float) -> VehicleParams:
    return VehicleParams(
        length=args.length,
        max_brake=args.brake,
        max_accel=args.acc,
        speed=speed,
        response_time=args.tau0,
    )


def _deviations_from_args(args) -> DeviationSet:
    return DeviationSet(
        length=args.e_l,
        front_speed=args.e_v,
        brake=args.e_brake,
        response=args.e_tau,
        regime=Regime.UNCHECKED,
    )


def _add_vehicle_args(parser):
    parser.add_argument("--brake", type=float, default=9.0,
                        help="full-braking deceleration, m/s^2")
    parser.add_argument("--acc", type=float, default=3.0,
                        help="maximum acceleration, m/s^2")
    parser.add_argument("--tau0", type=float, default=0.5,
                        help="perception-mode machine response time, s")
    parser.add_argument("--cbv-tau0", type=float, default=0.4,
                        help="cooperative-mode machine response time, s")
    parser.add_argument("--L", dest="length", type=float, default=5.0,
                        help="vehicle length, m")


def _add_deviation_args(parser):
    parser.add_argument("--e-l", type=float, default=1.0,
                        help="length deviation ratio (actual/conservative)")
    parser.add_argument("--e-v", type=float, default=1.0,
                        help="front-speed deviation ratio")
    parser.add_argument("--e-brake", type=float, default=1.0,
                        help="braking deviation ratio")
    parser.add_argument("--e-tau", type=float, default=1.0,
                        help="response-time deviation ratio")
    parser.add_argument("--eta", type=_parse_eta, default=0.1,
                        help="V2V latency in seconds, or a preset "
                             f"({', '.join(sorted(LATENCY_PRESETS))})")


def cmd_distance(args) -> int:
    speed_rear = _speed_mps(args.vr, args.unit)
    speed_front = _speed_mps(args.vf, args.unit)
    front = _vehicle_from_args(args, speed_front)
    echo = (
        f"vr={speed_rear!r} m/s vf={speed_front!r} m/s brake={args.brake} "
        f"acc={args.acc} L={args.length}"
    )
    if args.mode in ("pbv", "both"):
        rear = _vehicle_from_args(args, speed_rear)
        d = safe_longitudinal_distance(rear, front, args.tau0)
        print(f"pbv_distance_m={d!r} tau={args.tau0} {echo}")
    if args.mode in ("cbv", "both"):
        rear = _vehicle_from_args(args, speed_rear).with_response_time(args.cbv_tau0)
        dev = _deviations_from_args(args)
        d = corrected_safe_distance(rear, front, dev, args.eta)
        print(
            f"cbv_distance_m={d!r} tau0={args.cbv_tau0} eta={args.eta} "
            f"e_l={args.e_l} e_v={args.e_v} e_brake={args.e_brake} "
            f"e_tau={args.e_tau} {echo}"
        )
    return EXIT_OK


def cmd_sdc(args) -> int:
    road = RoadSpec(args.M_km, args.lanes, args.v_kmh)
    fleet = _vehicle_from_args(args, road.min_speed_mps)
    dev = _deviations_from_args(args)
    report = capacity_report(fleet, road, dev, args.eta, args.cbv_tau0)
    payload = report.as_dict()
    if args.per_lane_packing:
        payload["sdc_pbv_per_lane"] = sdc_per_lane(
            road, report.expected_distance_pbv, fleet.length
        )
        payload["sdc_cbv_per_lane"] = sdc_per_lane(
            road, report.expected_distance_cbv, dev.length * fleet.length
        )
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args) -> int:
    axes = (args.e_tau_axis, args.e_brake_axis, args.e_v_axis, args.eta_axis)
    if math.prod(map(len, axes)) > MAX_SWEEP_POINTS:
        sizes = " x ".join(str(len(axis)) for axis in axes)
        raise InvalidInputError(
            f"--e-tau-axis x --e-brake-axis x --e-v-axis x --eta-axis: {sizes} points, "
            f"more than the cap of {MAX_SWEEP_POINTS}"
        )
    grid = SweepGrid(*axes, e_length=args.e_l)
    road = RoadSpec(args.M_km, args.lanes, args.v_kmh)
    fleet = _vehicle_from_args(args, road.min_speed_mps)
    report = check_capacity_bound(grid, fleet, args.cbv_tau0, road)
    if report.rejected:
        for reason in report.rejected:
            print(f"rejected: {reason}", file=sys.stderr)
        return EXIT_ERROR
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(SWEEP_CSV_HEADER + "\n")
        for row in report.rows:
            handle.write(row.as_csv() + "\n")
    lo, hi = report.sdc_cbv_spread()
    print(
        f"wrote {len(report.rows)} rows to {args.out}; "
        f"violations={len(report.violations)}; sdc_cbv spread=[{lo}, {hi}]"
    )
    if report.violations:
        for row in report.violations:
            print(f"violation: {row.as_csv()}", file=sys.stderr)
        return EXIT_VIOLATED
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = scenario_from_file(args.config)
    run = run_scenario(cfg)
    summary = scenario_summary(run, cfg)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8", newline="") as handle:
            write_traces_csv(run, handle, run.info_sources)
    if args.summary_out:
        with open(args.summary_out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(
        f"road_safe={summary['road_safe']} sdt={summary['sdt']} "
        f"omega={summary['omega']} collisions={len(summary['collisions'])} "
        f"responsible={summary['responsible']}"
    )
    return EXIT_OK if summary["road_safe"] else EXIT_VIOLATED


def cmd_monitor(args) -> int:
    formula = parse_formula(args.formula)
    with open(args.trace, "r", encoding="utf-8", newline="") as handle:
        traces = read_traces_csv(handle)
    if args.vehicle is not None:
        traces = [t for t in traces if t.vehicle_id == args.vehicle]
        if not traces:
            raise SdcapError(f"vehicle {args.vehicle!r} not present in trace file")
    all_hold = True
    for trace in traces:
        verdict = evaluate(trace, args.at, formula)
        all_hold = all_hold and verdict
        print(f"{trace.vehicle_id}: {'satisfied' if verdict else 'violated'}")
    return EXIT_OK if all_hold else EXIT_VIOLATED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdcap",
        description="Safe spacing, throughput and capacity analysis for "
                    "perception-based and cooperative vehicle roads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="safe longitudinal distance for one pair")
    p.add_argument("--vr", type=float, required=True, help="rear-car speed")
    p.add_argument("--vf", type=float, required=True, help="front-car speed")
    p.add_argument("--unit", choices=("mps", "kmh"), default="mps")
    p.add_argument("--mode", choices=("pbv", "cbv", "both"), default="both")
    _add_vehicle_args(p)
    _add_deviation_args(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("sdc", help="safe driving capacity of a road")
    p.add_argument("--M-km", type=float, default=10.0, help="road length, km")
    p.add_argument("--lanes", type=int, default=2)
    p.add_argument("--v-kmh", type=float, default=100.0, help="speed floor, km/h")
    p.add_argument("--per-lane-packing", action="store_true",
                   help="also report the pack-each-lane-separately variant")
    _add_vehicle_args(p)
    _add_deviation_args(p)
    p.set_defaults(func=cmd_sdc)

    p = sub.add_parser("sweep", help="deviation/latency sweep to CSV")
    p.add_argument("--e-tau-axis", type=_parse_axis, default="0.95:1.0:0.01")
    p.add_argument("--e-brake-axis", type=_parse_axis, default="0.95:1.0:0.01")
    p.add_argument("--e-v-axis", type=_parse_axis, default="1.0:1.05:0.01")
    p.add_argument("--eta-axis", type=_parse_axis, default="5g,dsrc,4g,0.1",
                   help="comma list of seconds and/or preset labels")
    p.add_argument("--M-km", type=float, default=10.0)
    p.add_argument("--lanes", type=int, default=2)
    p.add_argument("--v-kmh", type=float, default=100.0)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_vehicle_args(p)
    p.add_argument("--e-l", type=float, default=1.0,
                   help="fixed length deviation ratio for the whole sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="run a braking scenario from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--trace-out", help="write the trace CSV here")
    p.add_argument("--summary-out", help="write the summary JSON here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("monitor", help="check a formula against a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--formula", required=True,
                   help="e.g. 'G[0,5000](BER -> !Y)'; atoms BER, C, Y")
    p.add_argument("--vehicle", help="restrict to one vehicle id")
    p.add_argument("--at", type=int, default=0, help="evaluation step index")
    p.set_defaults(func=cmd_monitor)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize other exits.
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (SdcapError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
