"""The sadmm benchmark: one seeded workload, measured end to end or traced
per layer, with its outputs checked.

    python3 perfbench/run.py --workload elliptic_desk --seed 0 --seconds 35 --trace 0

Each repetition runs `sadmm run` on the workload's config in a fresh process
(perfbench/child.py) with BLAS pinned to one thread. Repetitions continue
until --seconds have passed (at least three); every end-to-end metric is the
median over them. With --trace 1 three untraced and two traced repetitions
run instead, alternating, and the per-layer metrics are reported; the call
counts of the two traced repetitions must agree exactly. `--workload all`
runs every workload in turn.

The metric names and units come from BENCHMARK.json. The last line of
standard output is one JSON object {correct, attempted, failed, metrics}.
Exit status: 0 when every check passed, 1 when an output check failed, 2 when
the program could not be run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

ALL_METHODS = ["admm", "spg", "ssg", "adasg"]
ELLIPTIC = dict(problem="elliptic", regime="strongly_convex", alpha=1e-5,
                beta=1e-5, mu=0.5, mesh_h=2.0 ** -5)

# Shapes are fixed by what each workload stands for; K and runs are sized so
# that one repetition takes 8-11 s (elliptic) or about 2.5 s (quadratic) on a
# 2-core Xeon, giving three or more repetitions in a 35 s run. elliptic_eval
# needs K = 20 for its back-solves to outweigh the factorizations of set-up.
WORKLOADS = {
    "elliptic_desk": {
        "config": dict(ELLIPTIC, K=10, runs=1, eval_samples=200,
                       methods=ALL_METHODS, batch_rule="paper_power"),
        "why": "the README / criterion-8 experiment users run: every oracle "
               "sample assembles and factors a fresh stiffness matrix, and "
               "spg in methods makes set-up run estimate_L's 1000 oracle calls",
        "stresses": ["fem.assemble", "fem.factor", "problems.oracle",
                     "optim.estimate_L"],
        "bypasses": ["linsolve"],
    },
    "elliptic_eval": {
        "config": dict(ELLIPTIC, K=20, runs=1, eval_samples=1000,
                       methods=["admm", "ssg"], batch_rule="constant",
                       batch_floor=1),
        "why": "a 1000-sample frozen eval set: factorization moves into "
               "set-up, each iteration back-solves every cached factor, and "
               "the cached factors set peak memory",
        "stresses": ["problems.eval", "fem.solve", "problems.evalset_build",
                     "fem.cached_factor_mib"],
        "bypasses": ["optim.estimate_L", "linsolve"],
    },
    "quadratic_rate": {
        "config": dict(problem="quadratic", regime="strongly_convex",
                       alpha=1.0, beta=0.1, quad_dim=50, quad_sigma=0.1,
                       K=400, runs=5, eval_samples=1, methods=ALL_METHODS,
                       batch_rule="paper_power"),
        "why": "the sadmm rate / criterion-1 shape: no PDE, so time goes to "
               "batch RNG, per-step optim/hilbert updates and harness "
               "telemetry; any fem change must read no change here",
        "stresses": ["problems.oracle", "optim.step", "hilbert.prox",
                     "harness.telemetry"],
        "bypasses": ["fem", "linsolve"],
    },
}

# --seed selects one of SEED_SLOTS experiment seeds, so that every seed the
# benchmark can be given has stored reference objectives (references.json).
SEED_SLOTS = 16
# Final mean objectives may move by roundoff (a different direct solver
# changes them by about 1e-14 relative) but not by more.
OBJECTIVE_RTOL = 1e-9
# The quadratic ADMM final gap to the reference optimum is 1.0e-5 to 1.6e-5
# at K = 400 over the seed slots; a gap above this bound means the solver no
# longer converges at its rate.
QUAD_GAP_BOUND = 1e-4

MIN_REPS = 3
TRACED_REPS = 2
RUN_LIMIT_S = 170.0
# Counts that must repeat exactly between two traced runs of one seed.
EXACT = ("calls", "problems.eval_solves", "harness.rows",
         "fem.cached_factor_mib", "optim.numerical_failures", "trace.spans")
CSV_WALL_COLUMN = 2

CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1",
             "PYTHONHASHSEED": "0"}


class RunError(RuntimeError):
    """The program could not be run; no result is printed."""


def experiment_config(workload: str, seed: int) -> dict:
    return dict(WORKLOADS[workload]["config"], seed=seed % SEED_SLOTS)


def batch_sizes(cfg: dict) -> list:
    """m_k for k = 0..K-1, computed here independently of sadmm.optim."""
    floor = cfg.get("batch_floor", 1)
    if cfg["batch_rule"] == "constant":
        return [floor] * cfg["K"]
    c, p = cfg.get("batch_c", 0.5), cfg.get("batch_p", 1.1)
    return [max(floor, math.ceil(c * k ** p)) for k in range(cfg["K"])]


def run_child(cfg: dict, tag: str, trace: int, deadline: float) -> dict:
    """One repetition in a fresh process; returns its timings and outputs."""
    remaining = deadline - time.monotonic()
    if remaining < 1.0:
        raise RunError("out of time before a repetition could start")
    out = ROOT / ".bench_out" / f"{tag}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        (out / "config.json").write_text(json.dumps(cfg))
        env = dict(os.environ, **CHILD_ENV)
        env.pop("PYTHONPATH", None)
        cmd = [sys.executable, str(HERE / "child.py"), "--config",
               str(out / "config.json"), "--out", str(out),
               "--trace", str(trace)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"repetition {tag} exceeded the run limit") from exc
        if proc.returncode != 0:
            raise RunError(f"repetition {tag} exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        rep["csv"] = read_records(out / "records.csv")
        rep["summary"] = json.loads((out / "summary.json").read_text())
        return rep
    finally:
        shutil.rmtree(out, ignore_errors=True)


def read_records(path: Path) -> dict:
    """Rows grouped by (method, run_seed), and a digest of the CSV with the
    wall_seconds column left out."""
    digest = hashlib.sha256()
    groups = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            digest.update(repr(row[:CSV_WALL_COLUMN]
                               + row[CSV_WALL_COLUMN + 1:]).encode())
            rec = dict(zip(header, row))
            groups.setdefault((rec["method"], rec["run_seed"]), []).append(rec)
    return {"groups": groups, "digest": digest.hexdigest()}


def check_rep(workload: str, cfg: dict, rep: dict, references: dict) -> list:
    """Output-correctness problems of one repetition (empty when correct)."""
    found = []
    groups = rep["csv"]["groups"]
    sfo = list(itertools.accumulate(batch_sizes(cfg)))
    for (method, run_seed), rows in groups.items():
        where = f"{method} run_seed={run_seed}"
        if method not in cfg["methods"]:
            found.append(f"{where}: method was not configured")
        if [int(r["k"]) for r in rows] != list(range(1, cfg["K"] + 1)):
            found.append(f"{where}: {len(rows)} rows, expected k = 1..{cfg['K']}")
        elif [int(r["sfo_calls"]) for r in rows] != sfo:
            found.append(f"{where}: sfo_calls differ from the batch schedule")
        for r in rows:
            bad = [f for f in ("objective", "feasibility", "sparsity")
                   if not math.isfinite(float(r[f]))]
            if bad:
                found.append(f"{where} k={r['k']}: non-finite {bad}")
                break
    attempted = len(cfg["methods"]) * cfg["runs"]
    if len(groups) != attempted:
        found.append(f"{attempted - len(groups)} of {attempted} runs "
                     f"returned no records: {rep['failures']}")

    means = {m: e["mean_final_objective"] for m, e in rep["summary"].items()}
    if "reference_objective" in rep:
        gap = means.get("admm", math.nan) - rep["reference_objective"]
        if not 0.0 < gap < QUAD_GAP_BOUND:
            found.append(f"admm final gap {gap!r} to the reference optimum "
                         f"is not in (0, {QUAD_GAP_BOUND})")
    if workload in references:
        expected = references[workload].get(str(cfg["seed"]))
        if expected is None:
            found.append(f"no stored objectives for seed {cfg['seed']}")
        else:
            for method, value in expected.items():
                got = means.get(method, math.nan)
                if not math.isclose(got, value, rel_tol=OBJECTIVE_RTOL):
                    found.append(f"{method} mean final objective {got!r} "
                                 f"differs from the stored {value!r}")
    return found


def end_to_end(rep: dict) -> dict:
    groups = rep["csv"]["groups"]
    solve_s = rep["wall_s"] - rep["setup_s"]
    sfo = sum(int(rows[-1]["sfo_calls"]) for rows in groups.values())
    iters = sum(len(rows) for rows in groups.values())
    return {"wall_s": rep["wall_s"], "setup_s": rep["setup_s"],
            "sfo_per_s": sfo / solve_s, "iters_per_s": iters / solve_s,
            "peak_rss_mib": rep["peak_rss_mib"]}


def measure(workload: str, seed: int, seconds: float, trace: int,
            references: dict) -> dict:
    """Run the repetitions of one workload and check every output."""
    cfg = experiment_config(workload, seed)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    issues = []
    try:
        spans.selfcheck()
    except AssertionError as exc:
        issues.append(str(exc))

    def rep(i, traced):
        r = run_child(cfg, f"{workload}-{i}", traced, deadline)
        issues.extend(f"repetition {i}: {p}"
                      for p in check_rep(workload, cfg, r, references))
        return r

    plain = []
    traced = []
    if trace:
        # alternate so that drift affects both sides of the overhead alike
        for i in range(2 * TRACED_REPS + 1):
            (traced if i % 2 else plain).append(rep(i, i % 2))
    else:
        while len(plain) < MIN_REPS or (
                time.monotonic() - start) * (len(plain) + 1) / len(plain) <= seconds:
            plain.append(rep(len(plain), 0))
    reps = plain + traced

    digests = {r["csv"]["digest"] for r in reps}
    if len(digests) != 1:
        issues.append(f"records.csv differs outside wall_seconds between "
                      f"repetitions ({len(digests)} distinct)")
    attempted = len(cfg["methods"]) * cfg["runs"] * len(reps)
    completed = sum(len(r["csv"]["groups"]) for r in reps)

    per_rep = {}
    if trace:
        for r in traced:
            r["layers"]["optim.numerical_failures"] = sum(
                f["error"] == "NumericalFailure" for f in r["failures"])
        a, b = (r["layers"] for r in traced)
        for key in a:
            if key.endswith(EXACT) and a[key] != b[key]:
                issues.append(f"nondeterminism: {key} was {a[key]} and then "
                              f"{b[key]} on the same seed")
        if a["linsolve.cg.calls"] != 0:
            issues.append("the optimization path called CG")
        values = {k: (a[k] if k.endswith(EXACT)
                      else statistics.median(r["layers"][k] for r in traced))
                  for k in a}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
    else:
        rows = [end_to_end(r) for r in plain]
        per_rep = {k: [row[k] for row in rows] for k in rows[0]}
        values = {k: statistics.median(v) for k, v in per_rep.items()}
        values["completed_run_frac"] = 1.0 - spans.failed_fraction(attempted, completed)
    return {"issues": issues, "attempted": attempted,
            "failed": attempted - completed, "values": values,
            "per_rep": per_rep, "reps": len(reps),
            "failures": [f for r in reps for f in r["failures"]]}


def result_line(spec: list, values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RunError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    references = json.loads((HERE / "references.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    correct = True
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            res = measure(name, args.seed, seconds, args.trace, references)
            line = result_line(spec, res["values"])
            for issue in res["issues"]:
                print(f"{name}: CHECK FAILED: {issue}")
            for f in res["failures"]:
                print(f"{name}: run failed: {f}")
            for metric, v in line.items():
                reps = " ".join(f"{x:.6g}" for x in res["per_rep"].get(metric, ()))
                print(f"{name}: {metric} = {v['value']:.6g} {v['unit']}"
                      + (f"  (median of {reps})" if reps else ""))
            print(f"{name}: {res['reps']} repetitions, {res['attempted']} runs "
                  f"attempted, {res['failed']} failed")
            correct = correct and not res["issues"]
            attempted += res["attempted"]
            failed += res["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in line.items()})
    except RunError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
