"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py
"""

import dataclasses
import json
import sys

import pytest

import run
import sdcap
import sdcap.simulator
import tracing
import workloads as w


def _module_attributes():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "sdcap" or name.startswith("sdcap.")
        for attr, value in vars(module).items()
    }


def test_tampered_golden_value_fails_the_operation(tmp_path):
    prepared = w.prepare("spacing_sweep", 3, tmp_path)
    ops = run.Ops("spacing_sweep", prepared)
    ops.run()
    assert (ops.attempted, ops.failed) == (1, 0)

    tampered = dict(prepared.expected, sha256="0" * 64)
    ops.prepared = dataclasses.replace(prepared, expected=tampered)
    ops.run()
    assert (ops.attempted, ops.failed) == (2, 1)


def test_crash_blame_checks_blame_hashes_and_verdict_lines(tmp_path):
    prepared = w.prepare("crash_blame", 5, tmp_path)
    spec = prepared.operation.spec
    output = prepared.operation()
    expected = prepared.expected
    assert w.check("crash_blame", output, expected, spec) == []

    verdicts = json.loads(json.dumps(expected["monitor"]))
    verdicts[0][2] = verdicts[0][2].replace("violated", "satisfied")
    for field, value in [("responsible", ["l0v0"]), ("summary_sha256", "0" * 64),
                         ("trace_sha256", "0" * 64), ("monitor", verdicts)]:
        assert expected[field] != value
        tampered = dict(expected, **{field: value})
        assert w.check("crash_blame", output, tampered, spec) != []


def test_traced_run_restores_every_wrapped_attribute():
    before = _module_attributes()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            assert sdcap.cli.main is not before[("sdcap.cli", "main")]
            assert sdcap.simulator.vehicle_safe is sdcap.ltl.vehicle_safe
            assert sdcap.vehicle_safe is sdcap.ltl.vehicle_safe
            sdcap.kinematics.safe_longitudinal_distance(
                *[sdcap.VehicleParams(5.0, 9.0, 3.0, 27.0, 0.5)] * 2, 0.5)
            raise RuntimeError("leave the block early")
    after = _module_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    (span,) = tracer.take()
    assert span.name == "kinematics.safe_longitudinal_distance"


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        cfg = sdcap.simulator.scenario_from_text(w.safe_chain_text(0, 2))
        traces = sdcap.simulator.run_scenario(cfg)
        sdcap.simulator.scenario_summary(traces, cfg)
    profile = tracing.op_profile(tracer.take())
    run_scenario = profile[("simulator.run_scenario", "")]
    assert run_scenario["vsteps"] == w.chain_vehicle_steps(cfg)
    assert run_scenario["self_s"] < run_scenario["total_s"]
    assert profile[("ltl.vehicle_safe", "")]["calls"] == 3 * cfg.vehicle_count


def test_headline_road_starts_no_simulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the headline road must never be simulated")

    for module in (sdcap, sdcap.simulator):
        monkeypatch.setattr(module, "run_scenario", refuse)
    out = run.headline_road(bytes_per_vstep=150.0)
    cfg = sdcap.simulator.scenario_from_text(w.headline_road_text())
    assert cfg.vehicle_count == 833
    assert out["headline_road.skipped"] == 1
    assert out["headline_road.vsteps"] == w.chain_vehicle_steps(cfg)
    assert out["headline_road.est_gb"] == pytest.approx(out["headline_road.vsteps"] * 150e-9)


@pytest.mark.parametrize("per_lane", [2, 5])
def test_vehicle_step_estimate_matches_the_simulator(per_lane):
    cfg = sdcap.simulator.scenario_from_text(w.safe_chain_text(7, per_lane))
    traces = sdcap.simulator.run_scenario(cfg)
    assert sum(len(t.steps) for t in traces) == w.chain_vehicle_steps(cfg)


def test_metric_names_and_units_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [wl["name"] for wl in spec["workloads"]] == list(w.WORKLOADS)
