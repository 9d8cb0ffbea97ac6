"""Record the data stored with the benchmark.

    python3 perfbench/record.py references  # -> perfbench/references.json
    python3 perfbench/record.py baseline    # -> perfbench/baseline.json

`references` runs each elliptic workload once per seed slot and stores the
final mean objective of every method, which later runs must reproduce to
run.OBJECTIVE_RTOL. It also prints the quadratic ADMM gaps behind
run.QUAD_GAP_BOUND. `baseline` runs run.py untraced and traced on every
workload at seed 0 and stores the results with the environment they were
measured in and each workload's purpose.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import run


def references():
    stored = {}
    for name in run.WORKLOADS:
        for slot in range(run.SEED_SLOTS):
            cfg = run.experiment_config(name, slot)
            rep = run.run_child(cfg, f"record-{name}", 0,
                                time.monotonic() + run.RUN_LIMIT_S)
            issues = run.check_rep(name, cfg, rep, {})
            if issues:
                sys.exit(f"{name} seed {slot}: {issues}")
            means = {m: e["mean_final_objective"] for m, e in rep["summary"].items()}
            if "reference_objective" in rep:
                print(f"{name} seed {slot}: admm gap "
                      f"{means['admm'] - rep['reference_objective']:.3e}")
            else:
                stored.setdefault(name, {})[str(slot)] = means
                print(f"{name} seed {slot}: {means}")
    path = run.HERE / "references.json"
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def environment():
    import numpy
    import scipy
    sys.path.insert(0, str(run.ROOT / "src"))
    import sadmm
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sadmm": sadmm.__version__,
            "commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "child_env": run.CHILD_ENV}


def baseline():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    out = {"environment": environment(), "seed": 0,
           "seconds": bench["run_seconds"], "workloads": {}}
    for name, spec in run.WORKLOADS.items():
        entry = {k: spec[k] for k in ("why", "stresses", "bypasses", "config")}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", "0", "--seconds", str(bench["run_seconds"]),
                 "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            entry[key] = {m: v["value"] for m, v in result["metrics"].items()}
            entry[f"{key}_checks"] = {k: result[k] for k in
                                      ("correct", "attempted", "failed")}
        out["workloads"][name] = entry
        print(f"{name}: {entry['end_to_end']}")
    path = run.HERE / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    jobs = {"references": references, "baseline": baseline}
    if len(sys.argv) != 2 or sys.argv[1] not in jobs:
        sys.exit(__doc__)
    jobs[sys.argv[1]]()
