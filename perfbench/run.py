"""sdcap benchmark: one workload per run, checked, with named metrics.

    python3 perfbench/run.py --workload road_verify --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py and BENCHMARK.json):
  road_verify  run_scenario + scenario_summary on a safe 2 x 20 PBV road
  crash_blame  `sdcap simulate` with CSV and summary on a colliding CBV road,
               then three `sdcap monitor` calls over that CSV

One process, one thread, operations run back to back (a closed loop with
one client) for --seconds of wall time. Times are CPU seconds of that
thread: on a shared virtual machine the wall time of a CPU-bound operation
also counts the time other tenants take the CPU away (steal), which comes
in bursts. `--trace 0` reports the end-to-end metrics: median seconds per
operation, work per second, peak memory of one operation (resident-set
growth in a fresh child process), set-up seconds (median of several
set-ups) and the share of operations whose output matched the golden
values. `--trace 1` wraps sdcap's layer functions (tracing.py) and reports
per-layer self times, call counts and rates, the tracing overhead, the
rates of one `sdcap sweep` over a 6912-row grid, the run_scenario series
at 5/10/20 cars per lane and the skipped headline road.
The last line of standard output is the result as JSON.
"""

import argparse
import gc
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_MIN_REPS = 3
SETUP_BUDGET_S = 0.5
SETUP_MAX_REPS = 200
SERIES_LANE_SIZES = (5, 10, 20)
ORACLE_PAIRS = 20
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "work_per_s": "1/s",
    "peak_mem_mb": "MB",
    "setup_s": "s",
    "ok_ops_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "simulator.run_scenario.self_s": "s",
    "simulator.run_scenario.steps": "count",
    "simulator.run_scenario.vsteps": "count",
    "simulator.run_scenario.bytes_per_vstep": "B",
    "simulator.assign_responsibility.self_s": "s",
    "simulator.link_resolutions.calls": "count",
    "simulator.scenario_summary.self_s": "s",
    "simulator.scenario_from_text.self_s": "s",
    "ltl.vehicle_safe.calls": "count",
    "ltl.vehicle_safe.self_s": "s",
    "ltl.evaluate.calls": "count",
    "ltl.evaluate.self_s": "s",
    "ltl.evaluate.self_s.narrow": "s",
    "ltl.evaluate.self_s.wide": "s",
    "ltl.parse_formula.self_s": "s",
    "ltl.read_traces_csv.mb_per_s": "MB/s",
    "ltl.write_traces_csv.mb_per_s": "MB/s",
    "ltl.write_traces_csv.bytes": "B",
    "capacity.check_capacity_bound.rows_per_s": "1/s",
    "kinematics.safe_longitudinal_distance.us_per_call": "us",
    "protocol.corrected_safe_distance.us_per_call": "us",
    "cli.main.self_s": "s",
    "kinematics.min_safe_gap_oracle.ms_per_call": "ms",
    **{f"simulator.run_scenario.self_s.n{n}": "s" for n in SERIES_LANE_SIZES},
    **{f"simulator.run_scenario.vsteps.n{n}": "count" for n in SERIES_LANE_SIZES},
    "trace.overhead_ratio": "ratio",
    "headline_road.skipped": "count",
    "headline_road.vsteps": "count",
    "headline_road.est_gb": "GB",
}


def import_sdcap():
    """Put this checkout's `src/` first on the path and import sdcap from it."""
    src = ROOT / "src"
    if not (src / "sdcap" / "__init__.py").is_file():
        raise SystemExit(f"error: no sdcap sources under {src}")
    sys.path.insert(0, str(src))
    import sdcap

    if Path(sdcap.__file__).resolve().parent != src / "sdcap":
        raise SystemExit(f"error: imported sdcap from {sdcap.__file__}, not {src}")


import_sdcap()

import sdcap.kinematics  # noqa: E402
import sdcap.params  # noqa: E402
import sdcap.simulator  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402


class Ops:
    """Runs and checks one prepared workload's operations, counting failures."""

    def __init__(self, workload, prepared):
        self.workload = workload
        self.prepared = prepared
        self.attempted = 0
        self.failed = 0

    def run(self, tracer=None) -> float:
        """Run one operation and check its output; return its CPU seconds."""
        gc.collect()
        start = time.process_time()
        try:
            output = self.prepared.operation(tracer)
        except Exception as exc:  # a raising operation is a failed operation
            output, problems = None, [f"raised {exc!r}"]
        seconds = time.process_time() - start
        if output is not None:
            problems = w.check(self.workload, output, self.prepared.expected,
                               self.prepared.operation.spec)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"failed op: {'; '.join(problems)}", file=sys.stderr)
        return seconds


def timed_setup(workload, seed, workdir):
    """Set up several times; return the median seconds and the last result."""
    times = []
    while len(times) < SETUP_MIN_REPS or (
        sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPS
    ):
        start = time.process_time()
        prepared = w.prepare(workload, seed, workdir)
        times.append(time.process_time() - start)
    return median(times), prepared


def peak_memory_mb(prepared, workdir) -> float:
    """Resident-set growth of one operation, run alone in a fresh process."""
    spec_path = workdir / "peak_spec.json"
    spec_path.write_text(json.dumps(prepared.operation.spec), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--peak-child", str(spec_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"memory pass failed: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])["peak_mb"]


def peak_child(spec_path) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        operation = w.Operation(json.load(handle))
    gc.collect()
    with open("/proc/self/statm", encoding="ascii") as handle:
        before = int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    try:
        operation()
    except Exception as exc:  # the timed operations report the failure
        print(f"operation raised {exc!r}", file=sys.stderr)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(json.dumps({"peak_mb": (peak - before) / 1e6}))
    return 0


def end_to_end(workload, seed, seconds, workdir):
    setup_s, prepared = timed_setup(workload, seed, workdir)
    peak_mb = peak_memory_mb(prepared, workdir)
    ops = Ops(workload, prepared)
    durations = []
    start = time.perf_counter()
    while True:
        op_start = time.perf_counter()
        durations.append(ops.run())
        now = time.perf_counter()
        if 2 * now - op_start - start > seconds:  # the next op would overrun
            break
    metrics = {
        "op_p50_s": median(durations),
        "work_per_s": prepared.expected["work"] * len(durations) / sum(durations),
        "peak_mem_mb": peak_mb,
        "setup_s": setup_s,
        "ok_ops_ratio": (ops.attempted - ops.failed) / ops.attempted,
    }
    print(f"{workload}: {len(durations)} ops of {prepared.expected['work']} work units")
    return ops, metrics


def per_layer(workload, seed, seconds, workdir):
    """Traced run: alternate untraced and traced operations, then one sweep,
    the run_scenario series, the oracle pairs and the headline-road estimate."""
    prepared = w.prepare(workload, seed, workdir)
    ops = Ops(workload, prepared)
    tracer = tracing.Tracer()
    plain, traced, profiles, first_spans = [], [], [], None
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain.append(ops.run())
        with tracing.installed(tracer):
            traced.append(ops.run(tracer))
        spans = tracer.take()
        first_spans = first_spans or spans
        profiles.append(tracing.op_profile(spans))
        now = time.perf_counter()
        if 2 * now - pair_start - start > seconds:  # the next pair would overrun
            break

    def med(name, field, tag=""):
        return tracing.median_of(profiles, name, field, tag)

    def rate(name, num, den, scale):
        return tracing.median_rate(profiles, name, num, den, scale)

    metrics = {
        "simulator.run_scenario.self_s": med("simulator.run_scenario", "self_s"),
        "simulator.run_scenario.steps": med("simulator.run_scenario", "steps"),
        "simulator.run_scenario.vsteps": med("simulator.run_scenario", "vsteps"),
        "simulator.assign_responsibility.self_s":
            med("simulator.assign_responsibility", "self_s"),
        "simulator.link_resolutions.calls": med("simulator.link_resolutions", "calls"),
        "simulator.scenario_summary.self_s": med("simulator.scenario_summary", "self_s"),
        "simulator.scenario_from_text.self_s":
            med("simulator.scenario_from_text", "self_s"),
        "ltl.vehicle_safe.calls": med("ltl.vehicle_safe", "calls"),
        "ltl.vehicle_safe.self_s": med("ltl.vehicle_safe", "self_s"),
        "ltl.evaluate.calls": med("ltl.evaluate", "calls"),
        "ltl.evaluate.self_s": med("ltl.evaluate", "self_s"),
        "ltl.evaluate.self_s.narrow": med("ltl.evaluate", "self_s", "narrow"),
        "ltl.evaluate.self_s.wide": med("ltl.evaluate", "self_s", "wide"),
        "ltl.parse_formula.self_s": med("ltl.parse_formula", "self_s"),
        "ltl.read_traces_csv.mb_per_s": rate("ltl.read_traces_csv", "bytes", "total_s", 1e-6),
        "ltl.write_traces_csv.mb_per_s":
            rate("ltl.write_traces_csv", "bytes", "total_s", 1e-6),
        "ltl.write_traces_csv.bytes": med("ltl.write_traces_csv", "bytes"),
        "cli.main.self_s": med("cli.main", "self_s"),
        "trace.overhead_ratio": median(traced) / median(plain) - 1.0,
    }
    metrics.update(sweep(ops, seed, workdir, tracer))
    metrics.update(series(ops, seed, tracer))
    metrics["kinematics.min_safe_gap_oracle.ms_per_call"] = oracle_ms(ops, seed, tracer)
    metrics.update(headline_road(metrics["simulator.run_scenario.bytes_per_vstep"]))
    write_spans(workload, first_spans)
    return ops, metrics


def sweep(ops, seed, workdir, tracer) -> dict:
    """One checked `sdcap sweep` over the seeded grid: the capacity sweep and
    the two closed-form distances it calls for every row."""
    probe = Ops("spacing_sweep", w.prepare("spacing_sweep", seed, workdir))
    with tracing.installed(tracer):
        probe.run(tracer)
    ops.attempted += probe.attempted
    ops.failed += probe.failed
    profile = [tracing.op_profile(tracer.take())]
    return {
        "capacity.check_capacity_bound.rows_per_s": tracing.median_rate(
            profile, "capacity.check_capacity_bound", "rows", "total_s", 1.0),
        "kinematics.safe_longitudinal_distance.us_per_call": tracing.median_rate(
            profile, "kinematics.safe_longitudinal_distance", "total_s", "calls", 1e6),
        "protocol.corrected_safe_distance.us_per_call": tracing.median_rate(
            profile, "protocol.corrected_safe_distance", "total_s", "calls", 1e6),
    }


def series(ops, seed, tracer) -> dict:
    """run_scenario on safe PBV chains of 5, 10 and 20 cars per lane; bytes
    per vehicle-step from tracemalloc on the shortest chain. A vehicle-step
    count that differs from the closed-form estimate is a failed check."""
    out = {}
    for n in SERIES_LANE_SIZES:
        cfg = sdcap.simulator.scenario_from_text(w.safe_chain_text(seed % w.POOL, n))
        gc.collect()
        with tracing.installed(tracer):
            sdcap.simulator.run_scenario(cfg)
        profile = tracing.op_profile(tracer.take())[("simulator.run_scenario", "")]
        out[f"simulator.run_scenario.self_s.n{n}"] = profile["self_s"]
        out[f"simulator.run_scenario.vsteps.n{n}"] = profile["vsteps"]
        ops.attempted += 1
        if profile["vsteps"] != w.chain_vehicle_steps(cfg):
            ops.failed += 1
            print(f"failed op: series n={n} has {profile['vsteps']} vehicle-steps, "
                  f"estimated {w.chain_vehicle_steps(cfg)}", file=sys.stderr)
        if n == SERIES_LANE_SIZES[0]:
            gc.collect()
            tracemalloc.start()
            try:
                traces = sdcap.simulator.run_scenario(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out["simulator.run_scenario.bytes_per_vstep"] = (
                peak / sum(len(t.steps) for t in traces))
            del traces
    return out


def oracle_ms(ops, seed, tracer) -> float:
    """Bisection oracle on seeded pairs, checked against the closed form."""
    rng = random.Random(f"oracle/{seed % w.POOL}")
    pairs = []
    for _ in range(ORACLE_PAIRS):
        length, brake, tau = rng.uniform(3.0, 6.0), rng.uniform(2.0, 10.0), rng.uniform(0.0, 1.5)
        rear, front = (sdcap.params.VehicleParams(length, brake, rng.uniform(0.0, 4.0),
                                                  rng.uniform(0.0, 40.0), tau)
                       for _ in range(2))
        pairs.append((rear, front, tau))
    with tracing.installed(tracer):
        gaps = [sdcap.kinematics.min_safe_gap_oracle(*pair) for pair in pairs]
    profile = tracing.op_profile(tracer.take())[("kinematics.min_safe_gap_oracle", "")]
    for (rear, front, tau), gap in zip(pairs, gaps):
        expected = w.pbv_gap(rear.speed, front.speed, length=rear.length,
                             brake=rear.max_brake, accel=rear.max_accel, tau=tau)
        ops.attempted += 1
        if abs(gap - expected) > max(1e-2, rear.speed * 1e-3):
            ops.failed += 1
            print(f"failed op: oracle {gap} vs closed form {expected}", file=sys.stderr)
    return profile["total_s"] / profile["calls"] * 1e3


def headline_road(bytes_per_vstep) -> dict:
    """The 833-car headline road, sized from its config and never run."""
    cfg = sdcap.simulator.scenario_from_text(w.headline_road_text())
    vsteps = w.chain_vehicle_steps(cfg)
    est_gb = vsteps * bytes_per_vstep / 1e9
    print(f"headline_road: skipped, {cfg.vehicle_count} vehicles, {vsteps} "
          f"vehicle-steps, estimated {est_gb:.1f} GB of traces")
    return {"headline_road.skipped": 1, "headline_road.vsteps": vsteps,
            "headline_road.est_gb": est_gb}


def write_spans(workload, spans):
    """Keep the spans of the first traced operation for inspection."""
    path = ROOT / ".perfbench" / f"spans-{workload}.json"
    rows = [{"name": s.name, "start_ns": s.start, "end_ns": s.end,
             "parent": s.parent, "tag": s.tag, **s.counts} for s in spans]
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--peak-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.peak_child:
        return peak_child(args.peak_child)
    if args.workload not in w.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(w.WORKLOADS)}")

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        measure = per_layer if args.trace else end_to_end
        ops, metrics = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
