"""Record the expected output of every pooled benchmark input.

    python3 perfbench/make_golden.py

Runs each workload's operation once per pooled input against the code in
`src/` and writes `perfbench/golden.json`. The recorded values are the
reference that every benchmark operation is checked against, so rerun this
only when the benchmark's inputs change, on code whose outputs are trusted.
"""

import json
import shutil
import sys
from pathlib import Path

from run import ROOT  # puts this checkout's src/ on the path first

import workloads as w  # noqa: E402


# Facts the seed code must show before its outputs are recorded as golden.
REQUIRED = {
    "road_verify": {"road_safe": True, "sdt": 2 * w.ROAD_LANE_SIZE,
                    "omega": 2 * w.ROAD_LANE_SIZE, "collisions": 0},
    "spacing_sweep": {"exit": 0, "violations": 0},
}


def record(index: int, workdir: Path) -> dict:
    entry = {}
    for workload in (*w.WORKLOADS, "spacing_sweep"):
        inputs = {}
        if workload == "crash_blame":
            # The monitor window comes from the trace the simulation writes.
            sim = w.crash_blame_spec(index, workdir, 0, 0)
            w.Operation({**sim, "calls": sim["calls"][:1]})()
            inputs = w.monitor_window(sim["files"]["trace"])
        spec = w.build_spec(workload, index, workdir, inputs)
        operation = w.Operation(spec)
        facts = w.observed(workload, operation(), spec)
        if workload == "road_verify":
            work = w.chain_vehicle_steps(operation.cfg)
        elif workload == "crash_blame":
            with open(spec["files"]["trace"], encoding="utf-8") as handle:
                work = sum(1 for _ in handle) - 1
        else:
            work = facts["rows"]
        wrong = {k: facts[k] for k, v in REQUIRED.get(workload, {}).items() if facts[k] != v}
        if wrong or (workload == "crash_blame" and len(facts["collisions"]) < 2):
            raise RuntimeError(f"{workload} input {index}: unexpected {wrong or facts}")
        entry[workload] = {**facts, **inputs, "work": work}
    return entry


def main() -> int:
    workdir = ROOT / ".perfbench" / "golden"
    entries = []
    try:
        for index in range(w.POOL):
            entries.append(record(index, workdir))
            crash = entries[-1]["crash_blame"]
            print(f"input {index}: {len(crash['collisions'])} collisions, "
                  f"responsible {crash['responsible']}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    w.GOLDEN_PATH.write_text(
        json.dumps({"pool": w.POOL, "entries": entries}, indent=1) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
