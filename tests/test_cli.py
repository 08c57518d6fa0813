"""CLI surface: flags, outputs, exit codes."""

import csv
import json
import os

import pytest

from sdcap import safe_longitudinal_distance
from sdcap.cli import main
from conftest import REFERENCE

D_SAFE = safe_longitudinal_distance(REFERENCE, REFERENCE, 0.5)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_distance_reference_point(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--vr", "100", "--vf", "100", "--unit", "kmh",
        "--brake", "9", "--acc", "3", "--tau0", "0.5", "--L", "5",
        "--mode", "pbv",
    )
    assert code == 0
    value = float(out.split("pbv_distance_m=")[1].split()[0])
    assert value == pytest.approx(24.02, abs=5e-3)


def test_distance_cbv_collapse(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--vr", "100", "--vf", "100", "--unit", "kmh",
        "--mode", "cbv", "--cbv-tau0", "0.4", "--eta", "0.1",
    )
    assert code == 0
    value = float(out.split("cbv_distance_m=")[1].split()[0])
    assert value == pytest.approx(24.02, abs=5e-3)


def test_distance_rejects_zero_brake(capsys):
    code, _, err = run_cli(
        capsys, "distance", "--vr", "100", "--vf", "100", "--unit", "kmh",
        "--brake", "0",
    )
    assert code == 2
    assert "max_brake" in err


def test_distance_missing_flags_is_usage_error(capsys):
    assert run_cli(capsys, "distance", "--vr", "100")[0] == 2


OVERFLOW = "the parameters overflow the closed form"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["sdc", "--brake", "1e-320"], f"rear stopping time is inf: {OVERFLOW}"),
        (["distance", "--vr", "3", "--vf", "3", "--brake", "1e-320"],
         f"rear stopping time is inf: {OVERFLOW}"),
        (["distance", "--vr", "1e308", "--vf", "0"], f"safe distance is inf: {OVERFLOW}"),
        (["distance", "--vr", "1e308", "--vf", "0", "--mode", "cbv"],
         f"safe distance is inf: {OVERFLOW}"),
        (["distance", "--vr", "30", "--vf", "30", "--mode", "cbv", "--e-v", "1e308"],
         f"front stopping time is inf: {OVERFLOW}"),
        (["distance", "--vr", "30", "--vf", "30", "--mode", "cbv", "--e-brake", "1e-320"],
         f"front stopping time is inf: {OVERFLOW}"),
        # The road length in metres, or lanes x length, overflows a double.
        (["sdc", "--M-km", "1e306"], f"packing quotient is inf: {OVERFLOW}"),
        (["sweep", "--M-km", "1e306", "--out", os.devnull],
         f"packing quotient is inf: {OVERFLOW}"),
        (["sdc", "--lanes", "9" * 400], f"packing quotient is inf: {OVERFLOW}"),
        # The response time is lost to rounding at these speeds: the first
        # was answered with the contact distance, the second 1.3 % long.
        (["distance", "--vr", "1e20", "--vf", "1e20"],
         f"response-time travel is lost to rounding (5e+19 m in 5.555555555555555e+38 m): "
         f"{OVERFLOW}"),
        (["distance", "--vr", "1e16", "--vf", "1e16"],
         f"response-time travel is lost to rounding (5000000000000000.0 m in "
         f"5.555555555555563e+30 m): {OVERFLOW}"),
    ],
)
def test_overflowing_closed_form_is_refused(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert named in err


@pytest.mark.parametrize(
    "eta, named",
    [
        ("inf", "argument --eta: must be a finite number, got 'inf'"),
        ("nan", "argument --eta: must be a finite number, got 'nan'"),
        ("-1", "eta must be >= 0, got -1.0"),
    ],
)
def test_distance_refused_eta_prints_no_distance(capsys, eta, named):
    code, out, err = run_cli(capsys, "distance", "--vr", "3", "--vf", "3", "--eta", eta)
    assert code == 2
    assert out == ""
    assert named in err


def test_sdc_defaults(capsys):
    code, out, _ = run_cli(capsys, "sdc")
    assert code == 0
    payload = json.loads(out)
    assert payload["sdc_pbv"] == 833
    assert payload["sdc_cbv"] == 833


def test_sdc_per_lane_packing_flag(capsys):
    code, out, _ = run_cli(capsys, "sdc", "--per-lane-packing")
    assert code == 0
    payload = json.loads(out)
    assert payload["sdc_pbv_per_lane"] == 834


def test_sdc_rejects_zero_speed_floor(capsys):
    code, _, err = run_cli(capsys, "sdc", "--v-kmh", "0")
    assert code == 2
    assert "min_speed_kmh" in err


def test_sweep_writes_rows_with_bound_satisfied(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--e-tau-axis", "0.95,1.0", "--e-brake-axis", "0.95,1.0",
        "--e-v-axis", "1.0,1.05", "--eta-axis", "5g,dsrc", "--out", str(out_path),
    )
    assert code == 0
    with out_path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 16
    assert all(int(r["SDC_cbv"]) >= int(r["SDC_pbv"]) for r in rows)
    assert "violations=0" in out


def test_sweep_single_point_equality(capsys, tmp_path):
    out_path = tmp_path / "one.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--e-tau-axis", "1.0", "--e-brake-axis", "1.0",
        "--e-v-axis", "1.0", "--eta-axis", "0.1", "--out", str(out_path),
    )
    assert code == 0
    with out_path.open() as handle:
        row = next(csv.DictReader(handle))
    assert float(row["D_pbv_m"]) == pytest.approx(float(row["D_cbv_m"]), abs=1e-9)
    assert row["SDC_pbv"] == row["SDC_cbv"]


def test_sweep_empty_axis_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--e-tau-axis", "", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "non-empty" in err


def test_sweep_out_of_regime_axis_rejected(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--e-v-axis", "0.9,1.0", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "rejected" in err


FINITE = "range needs finite bounds and a finite step > 0"


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--e-tau-axis", "0.9:inf:0.01"], f"argument --e-tau-axis: {FINITE}"),
        (["--e-brake-axis", "0.9:1.0:nan"], f"argument --e-brake-axis: {FINITE}"),
        (["--e-v-axis", "0:1:inf"], f"argument --e-v-axis: {FINITE}"),
        (["--eta-axis", "0:1e9:1"], "argument --eta-axis: range '0:1e9:1' has more than the cap"),
        (["--e-tau-axis", "0.5:1:0.001", "--e-brake-axis", "0.5:1:0.001"],
         "--e-tau-axis x --e-brake-axis x --e-v-axis x --eta-axis: 501 x 501 x 6 x 4 points"),
        (["--eta-axis", "nan"], "argument --eta-axis: must be a finite number, got 'nan'"),
        (["--e-tau-axis", "5g"], "argument --e-tau-axis: must be a finite number, got '5g'"),
        (["--e-brake-axis", "1.0,dsrc"],
         "argument --e-brake-axis: must be a finite number, got 'dsrc'"),
    ],
)
def test_sweep_unbounded_axis_is_refused_naming_the_flag(capsys, tmp_path, flags, named):
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(capsys, "sweep", *flags, "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert named in err
    assert not out_path.exists()


def test_sweep_unwritable_path_is_io_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--e-tau-axis", "1.0", "--e-brake-axis", "1.0",
        "--e-v-axis", "1.0", "--eta-axis", "0.0",
        "--out", str(tmp_path / "missing" / "x.csv"),
    )
    assert code == 2
    assert "error" in err


def write_config(tmp_path, gap_scale_lane0=1.0, gap_scale_lane1=1.0):
    text = f"""
mode = pbv
dt = 0.001
seed = 3
road.length_km = 10
road.lanes = 2
road.min_speed_kmh = 100
vehicle.length = 5
vehicle.max_brake = 9
vehicle.max_accel = 3
vehicle.speed = 27.78
vehicle.response_time = 0.5
lane.0.gaps = {gap_scale_lane0 * D_SAFE!r}
lane.1.gaps = {gap_scale_lane1 * D_SAFE!r}
trigger = 0, 0, 0.0
trigger = 1, 0, 0.0
"""
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_simulate_safe_scenario_exits_zero(capsys, tmp_path):
    cfg = write_config(tmp_path)
    trace_path = tmp_path / "traces.csv"
    summary_path = tmp_path / "summary.json"
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(cfg),
        "--trace-out", str(trace_path), "--summary-out", str(summary_path),
    )
    assert code == 0
    assert "road_safe=True" in out
    summary = json.loads(summary_path.read_text())
    assert summary["sdt"] == summary["omega"] == 4
    assert trace_path.read_text().startswith("t,vehicle_id,position_m")


def test_simulate_sub_safe_scenario_exits_one_and_names_the_culprit(capsys, tmp_path):
    cfg = write_config(tmp_path, gap_scale_lane1=0.9)
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert "road_safe=False" in out
    assert "l1v1" in out


def test_simulate_bad_config_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("mode = pbv\nroad.lanes = not_a_number\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert "line 2" in err


def test_simulate_names_the_file_and_line_of_a_byte_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("mode = pbv\n# caf\u00e9\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert out == ""
    assert f"error: config file {path} line 2: byte 0xe9 is not utf-8 text" in err


def test_simulate_non_integral_seed_exits_two(capsys, tmp_path):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("seed = 3", "seed = 3.9"), encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "line 4: seed must be an integer" in err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("trigger = 1, 0, 0.0", "trigger = 1, 0, -1.0", "trigger time must be >= 0"),
        (None, "ber_delay = 0, 1, -0.3", "ber_delay must be >= 0"),
        (None, "timeout = nan", "request_timeout must be finite"),
        (None, "speed_cap = 20", "speed_cap below the cruise speed"),
        ("dt = 0.001", "dt = 0", "dt must be > 0"),
        ("vehicle.max_brake = 9", "vehicle.max_brake = 0", "max_brake must be > 0"),
        (None, "dev.e_l = 0", "deviation length must be > 0"),
        ("road.lanes = 2", "road.lanes = 0", "lanes must be a positive integer"),
        ("road.length_km = 10", "road.length_km = -1", "length_km must be > 0"),
        (None, "trigger = 0, 9, 0.0", "trigger target (0, 9) out of range"),
        (None, "latency = uniform: 0.2, 0.1", "latency bounds must satisfy"),
        (None, "dev.e_tua = 0.5", "unknown key 'dev.e_tua'"),
        (None, "timout = 0", "unknown key 'timout'"),
        (None, "vehicle.colour = red", "unknown key 'vehicle.colour'"),
        (None, "lane.0.gaps = 30", "duplicate gaps for lane 0"),
        (None, "lane.00.gaps = 30", "duplicate gaps for lane 0"),
        (None, "ber_delay = 0, 1, 0.5\nber_delay = 0, 1, 0.0",
         "duplicate ber_delay for lane 0, vehicle 1"),
        (None, "lane.2.gaps = 30", "lane 2 outside road.lanes = 2"),
    ],
)
def test_simulate_refused_value_names_its_line(capsys, tmp_path, old, new, message):
    path = write_config(tmp_path)
    text = path.read_text()
    text = text.replace(old, new) if old else text + new + "\n"
    path.write_text(text, encoding="utf-8")
    # The last of the new lines is the refused one.
    lineno = text.splitlines().index(new.splitlines()[-1]) + 1
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert out == ""
    assert f"error: line {lineno}: {message}" in err


def test_simulate_refuses_a_run_above_the_work_cap(capsys, tmp_path, monkeypatch):
    import sdcap.simulator

    # A 10-step cap stands in for the ~1 GB one, so that a broken check
    # runs a small scenario instead of allocating a large one.
    monkeypatch.setattr(sdcap.simulator, "MAX_VEHICLE_STEPS", 10)
    code, out, err = run_cli(capsys, "simulate", "--config", str(write_config(tmp_path)))
    assert code == 2
    assert out == ""
    assert "exceeds the cap of 10 vehicle-steps" in err


@pytest.mark.parametrize(
    "old, new",
    [
        ("vehicle.max_brake = 9", "vehicle.max_brake = 1e-320"),
        ("dt = 0.001", "dt = 1e-320"),
        ("vehicle.max_accel = 3", "vehicle.max_accel = 1e308"),
        ("vehicle.response_time = 0.5", "vehicle.response_time = 1e308"),
    ],
)
def test_simulate_refuses_an_unbounded_run_before_it_starts(capsys, tmp_path, monkeypatch,
                                                            old, new):
    import sdcap.simulator

    # Each value makes the step bound infinite; nothing may be allocated.
    monkeypatch.setattr(sdcap.simulator, "_Lane", lambda *args: pytest.fail("lane allocated"))
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace(old, new), encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "error: scenario too large: up to inf steps" in err


def test_monitor_satisfied_and_violated(capsys, tmp_path):
    cfg = write_config(tmp_path, gap_scale_lane1=0.9)
    trace_path = tmp_path / "traces.csv"
    run_cli(capsys, "simulate", "--config", str(cfg), "--trace-out", str(trace_path))

    code, out, _ = run_cli(
        capsys, "monitor", "--trace", str(trace_path),
        "--formula", "G[0,100000](BER -> !Y)",
    )
    assert code == 1
    assert "l1v1: violated" in out

    code, out, _ = run_cli(
        capsys, "monitor", "--trace", str(trace_path),
        "--formula", "G[0,100000](BER -> !Y)", "--vehicle", "l0v1",
    )
    assert code == 0
    assert out.strip() == "l0v1: satisfied"


def test_monitor_malformed_formula_exits_two(capsys, tmp_path):
    cfg = write_config(tmp_path)
    trace_path = tmp_path / "traces.csv"
    run_cli(capsys, "simulate", "--config", str(cfg), "--trace-out", str(trace_path))
    code, _, err = run_cli(
        capsys, "monitor", "--trace", str(trace_path), "--formula", "G[0,"
    )
    assert code == 2
    assert "error" in err


def test_monitor_unknown_vehicle_exits_two(capsys, tmp_path):
    cfg = write_config(tmp_path)
    trace_path = tmp_path / "traces.csv"
    run_cli(capsys, "simulate", "--config", str(cfg), "--trace-out", str(trace_path))
    code, _, err = run_cli(
        capsys, "monitor", "--trace", str(trace_path),
        "--formula", "BER", "--vehicle", "ghost",
    )
    assert code == 2
    assert "ghost" in err


@pytest.mark.parametrize(
    "formula",
    ["!" * 3000 + "BER", "(" * 3000 + "BER" + ")" * 3000, "BER -> " * 3000 + "BER"],
)
def test_monitor_deeply_nested_formula_exits_two(capsys, tmp_path, formula):
    cfg = write_config(tmp_path)
    trace_path = tmp_path / "traces.csv"
    run_cli(capsys, "simulate", "--config", str(cfg), "--trace-out", str(trace_path))
    code, out, err = run_cli(
        capsys, "monitor", "--trace", str(trace_path), "--formula", formula
    )
    assert code == 2
    assert out == ""
    assert "nests deeper than" in err


def test_monitor_refuses_a_trace_file_without_vehicles(capsys, tmp_path):
    trace_path = tmp_path / "header.csv"
    trace_path.write_text(
        "t,vehicle_id,position_m,velocity_mps,ber,collided,responsible\n", encoding="utf-8"
    )
    code, out, err = run_cli(
        capsys, "monitor", "--trace", str(trace_path), "--formula", "G[0,10] !C"
    )
    assert code == 2
    assert out == ""
    assert f"error: trace file {trace_path} holds no vehicles" in err


def test_monitor_names_the_file_and_line_of_a_byte_that_is_not_utf8(capsys, tmp_path):
    trace_path = tmp_path / "traces.csv"
    trace_path.write_bytes(
        b"t,vehicle_id,position_m,velocity_mps,ber,collided,responsible\n"
        b"0.0,a,0.0,1.0,0,0,0\n0.1,\xff,0.1,1.0,0,0,0\n"
    )
    code, out, err = run_cli(
        capsys, "monitor", "--trace", str(trace_path), "--formula", "G[0,10] !C"
    )
    assert code == 2
    assert out == ""
    assert f"error: trace CSV {trace_path} line 3: byte 0xff is not utf-8 text" in err


def test_monitor_checks_the_step_against_every_trace_before_printing(capsys, tmp_path):
    trace_path = tmp_path / "traces.csv"
    trace_path.write_text(
        "t,vehicle_id,position_m,velocity_mps,ber,collided,responsible\n"
        "0.0,a,0.0,1.0,1,0,0\n0.1,a,0.1,1.0,1,0,1\n0.2,a,0.2,1.0,1,0,1\n"
        "0.0,b,0.0,1.0,0,0,0\n0.1,b,0.1,1.0,0,0,0\n",
        encoding="utf-8",
    )
    argv = ["monitor", "--trace", str(trace_path), "--formula", "BER -> !Y"]
    code, out, err = run_cli(capsys, *argv, "--at", "2")
    assert code == 2
    assert out == ""
    assert "error: index 2 outside trace b of length 2" in err
    code, out, _ = run_cli(capsys, *argv, "--at", "1")
    assert code == 1
    assert out == "a: violated\nb: satisfied\n"
