"""Acceptance gate: one test per criterion, run with `pytest -v -s`.

Each test prints a PASS line once its criterion holds at the stated
tolerance; failures surface as ordinary pytest assertions.
"""

import json
import random
import time
from collections import defaultdict

import pytest

from sdcap import (
    DeviationSet,
    Not,
    Finally,
    Globally,
    RoadSpec,
    SweepGrid,
    check_capacity_bound,
    corrected_safe_distance,
    evaluate,
    min_safe_gap_oracle,
    read_traces_csv,
    safe_longitudinal_distance,
    time_to_stop_front,
    time_to_stop_rear,
)
from sdcap.cli import main as cli_main
from conftest import (
    REFERENCE,
    random_formula,
    random_pair,
    random_trace,
    reference_evaluate,
)

PBV_TAU = 0.5
CBV_TAU = 0.4


def _passed(n, text):
    print(f"PASS: criterion {n} - {text}")


def test_criterion_1_closed_form_vs_oracle_reference_point():
    start = time.perf_counter()
    d = safe_longitudinal_distance(REFERENCE, REFERENCE, PBV_TAU)
    assert d == pytest.approx(24.02, abs=1e-9)
    oracle = min_safe_gap_oracle(REFERENCE, REFERENCE, PBV_TAU, dt=1e-3)
    assert abs(oracle - 24.02) <= 0.03
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"closed form 24.02 m, oracle {oracle:.4f} m, {elapsed:.3f} s")


def test_criterion_2_randomized_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(2024)
    dt = 1e-3
    worst_error = 0.0
    for _ in range(1000):
        rear, front, tau = random_pair(rng)
        expected = safe_longitudinal_distance(rear, front, tau)
        got = min_safe_gap_oracle(rear, front, tau, dt=dt)
        bound = max(1e-2, rear.speed * dt)
        error = abs(got - expected)
        worst_error = max(worst_error, error)
        assert error <= bound, (rear, front, tau, expected, got)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(2, f"1000 draws within tolerance (worst |closed - oracle| = "
               f"{worst_error:.4f} m), {elapsed:.1f} s")


def test_criterion_3_trivial_branch_returns_exactly_length():
    rng = random.Random(3)
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 100_000
        rear, front, tau = random_pair(rng)
        if time_to_stop_front(front) >= time_to_stop_rear(rear, tau):
            assert safe_longitudinal_distance(rear, front, tau) == rear.length
            checked += 1
    _passed(3, f"{checked} stop-time-dominated draws returned exactly one length")


def test_criterion_4_corrected_distance_dominance_suite():
    rng = random.Random(4)
    for _ in range(1000):
        rear, front, tau_pbv = random_pair(rng)
        e_tau = rng.uniform(0.05, 1.0)
        dev = DeviationSet(
            length=rng.uniform(0.05, 1.0),
            front_speed=rng.uniform(1.0, 1.5),
            brake=rng.uniform(0.05, 1.0),
            response=e_tau,
        )
        tau0_cbv = rng.uniform(0.0, tau_pbv / e_tau if e_tau else tau_pbv)
        eta = rng.uniform(0.0, tau_pbv - e_tau * tau0_cbv)
        d_cbv = corrected_safe_distance(
            rear.with_response_time(tau0_cbv), front, dev, eta
        )
        d_pbv = safe_longitudinal_distance(rear, front, tau_pbv)
        assert d_cbv <= d_pbv + 1e-9, (rear, front, tau_pbv, dev, tau0_cbv, eta)

    # all-unit collapse: matched delays give equality
    rear_cbv = REFERENCE.with_response_time(CBV_TAU)
    d_cbv = corrected_safe_distance(rear_cbv, REFERENCE, DeviationSet(), 0.1)
    d_pbv = safe_longitudinal_distance(REFERENCE, REFERENCE, PBV_TAU)
    assert abs(d_cbv - d_pbv) <= 1e-9
    _passed(4, "1000 conservative draws dominated; unit collapse equal to 1e-9 m")


@pytest.fixture(scope="module")
def full_grid_report():
    grid = SweepGrid(
        e_tau=tuple(round(0.95 + 0.01 * k, 2) for k in range(6)),
        e_brake=tuple(round(0.95 + 0.01 * k, 2) for k in range(6)),
        e_v=tuple(round(1.0 + 0.01 * k, 2) for k in range(6)),
        eta=(0.001, 0.01, 0.05, 0.1),
    )
    start = time.perf_counter()
    report = check_capacity_bound(grid, REFERENCE, CBV_TAU, RoadSpec())
    return report, time.perf_counter() - start


def test_criterion_5_capacity_bound_sweep(full_grid_report):
    report, elapsed = full_grid_report
    assert elapsed < 10.0
    assert not report.rejected
    assert len(report.rows) == 6 * 6 * 6 * 4
    assert not report.violations
    default_rows = [
        r for r in report.rows
        if r.e_tau == 1.0 and r.e_brake == 1.0 and r.e_v == 1.0 and r.eta == 0.1
    ]
    assert len(default_rows) == 1
    assert default_rows[0].sdc_pbv == 833
    assert default_rows[0].sdc_cbv == 833
    _passed(5, f"{len(report.rows)} rows, 0 violations, default point SDC 833, "
               f"{elapsed:.2f} s")


def test_criterion_6_sweep_monotone_along_every_axis(full_grid_report):
    # Along each deviation axis traversed toward exact perception, and along
    # growing latency, the cooperative distance never shrinks and the
    # cooperative capacity never grows. Equivalently: more inaccuracy or
    # less latency never costs capacity.
    report, _ = full_grid_report
    axes = {
        "e_tau": (lambda r: r.e_tau, ("e_brake", "e_v", "eta"), +1),
        "e_brake": (lambda r: r.e_brake, ("e_tau", "e_v", "eta"), +1),
        "e_v": (lambda r: r.e_v, ("e_tau", "e_brake", "eta"), -1),
        "eta": (lambda r: r.eta, ("e_tau", "e_brake", "e_v"), +1),
    }
    for name, (axis, others, direction) in axes.items():
        groups = defaultdict(list)
        for row in report.rows:
            key = tuple(getattr(row, other) for other in others)
            groups[key].append((direction * axis(row), row.d_cbv, row.sdc_cbv))
        for rows in groups.values():
            rows.sort()
            for (_, d0, s0), (_, d1, s1) in zip(rows, rows[1:]):
                assert d1 >= d0 - 1e-12, name
                assert s1 <= s0, name
    lo, hi = report.sdc_cbv_spread()
    _passed(6, f"monotone on all four axes; SDC spread across grid [{lo}, {hi}] "
               f"({hi - lo} vehicles between exact and 5%-conservative perception)")


def test_criterion_7_monitor_matches_quantifier_expansion():
    rng = random.Random(7)
    pairs = 10_000
    for _ in range(pairs):
        trace = random_trace(rng, max_len=20)
        formula = random_formula(rng, rng.randrange(0, 5))
        i = rng.randrange(0, len(trace))
        assert evaluate(trace, i, formula) == reference_evaluate(trace, i, formula)
        # duality on every pair: !F[a,b] f == G[a,b] !f around this formula
        lo = rng.randrange(0, 6)
        hi = lo + rng.randrange(0, 6)
        left = evaluate(trace, i, Not(Finally(lo, hi, formula)))
        right = evaluate(trace, i, Globally(lo, hi, Not(formula)))
        assert left == right
    _passed(7, f"{pairs} formula/trace pairs agree with the expansion "
               "reference; duality held on every pair")


def _scenario_text(gaps_lane0, gaps_lane1):
    fmt = lambda gaps: ", ".join(repr(g) for g in gaps)
    return f"""
mode = pbv
dt = 0.001
seed = 8
road.length_km = 10
road.lanes = 2
road.min_speed_kmh = 100
vehicle.length = 5
vehicle.max_brake = 9
vehicle.max_accel = 3
vehicle.speed = 27.78
vehicle.response_time = 0.5
lane.0.gaps = {fmt(gaps_lane0)}
lane.1.gaps = {fmt(gaps_lane1)}
trigger = 0, 0, 0.0
trigger = 1, 0, 0.0
"""


def test_criterion_8_end_to_end_safety_closure(tmp_path, capsys):
    d = safe_longitudinal_distance(REFERENCE, REFERENCE, PBV_TAU)
    safe_cfg = tmp_path / "safe.cfg"
    safe_cfg.write_text(_scenario_text([d], [d]), encoding="utf-8")
    summary_path = tmp_path / "summary.json"
    code = cli_main(
        ["simulate", "--config", str(safe_cfg), "--summary-out", str(summary_path)]
    )
    capsys.readouterr()
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert summary["road_safe"] is True
    assert summary["sdt"] == summary["omega"] == 4
    assert summary["collisions"] == []

    # shrinking any single gap by 10% flips the verdict and blames the rear
    for lane in (0, 1):
        gaps = [[d], [d]]
        gaps[lane] = [0.9 * d]
        bad_cfg = tmp_path / f"bad{lane}.cfg"
        bad_cfg.write_text(_scenario_text(*gaps), encoding="utf-8")
        bad_summary = tmp_path / f"bad{lane}.json"
        code = cli_main(
            ["simulate", "--config", str(bad_cfg), "--summary-out", str(bad_summary)]
        )
        capsys.readouterr()
        assert code == 1
        payload = json.loads(bad_summary.read_text())
        assert len(payload["collisions"]) == 1
        assert payload["responsible"] == [f"l{lane}v1"]
        assert payload["sdt"] == payload["omega"] - 1
    _passed(8, "safe spacing closed (SDT = 4/4, exit 0); every 10%-shrunk gap "
               "collided with the rear vehicle blamed (exit 1)")


def test_criterion_9_fixed_seed_runs_are_byte_identical(tmp_path, capsys):
    d = safe_longitudinal_distance(REFERENCE, REFERENCE, PBV_TAU)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        _scenario_text([d, 1.2 * d], [0.9 * d]).replace("mode = pbv", "mode = cbv")
        + "latency = uniform: 0.0, 0.05\n",
        encoding="utf-8",
    )
    outputs = []
    for run in range(2):
        trace_path = tmp_path / f"run{run}.csv"
        cli_main(["simulate", "--config", str(cfg), "--trace-out", str(trace_path)])
        capsys.readouterr()
        outputs.append(trace_path.read_bytes())
    assert outputs[0] == outputs[1]
    # and the file round-trips through the reader
    with open(tmp_path / "run0.csv", "r", encoding="utf-8", newline="") as handle:
        traces = read_traces_csv(handle)
    assert len(traces) == 5
    _passed(9, f"two seeded runs produced identical {len(outputs[0])}-byte trace CSVs")
