"""One repetition of one workload, in a process of its own.

Runs `sadmm.cli.main(["run", ...])` on a config file, times it, and prints
one JSON line with the timings, the peak RSS of this process and the failed
runs that `sadmm.harness` logged; for the quadratic problem also the
reference optimum, computed after the timed run. With --trace 1 it also wraps
the calls into every layer and adds the per-layer numbers.

    python3 perfbench/child.py --config cfg.json --out DIR [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import spans  # noqa: E402  (this directory is first on sys.path)

sys.path.insert(0, str(ROOT / "src"))
try:
    import sadmm
    from sadmm import cli, fem, harness, hilbert, optim, problems
except ImportError as exc:
    sys.exit(f"cannot import sadmm from {ROOT / 'src'}: {exc}")

if not Path(sadmm.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"sadmm was imported from {sadmm.__file__}, not from {ROOT / 'src'}")


class FailureLog(logging.Handler):
    """Collects harness.run_experiment's "run failed" records, which it logs
    before dropping the run."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.failures = []

    def emit(self, record):
        if not record.getMessage().startswith("run failed"):
            return
        method, run_idx = record.args
        exc = record.exc_info[1] if record.exc_info else None
        self.failures.append({
            "method": method, "run": run_idx,
            "error": type(exc).__name__ if exc else None,
            "step": getattr(exc, "step_name", None),
            "k": getattr(exc, "k", None)})


def install_tracer(tracer, eval_sets):
    """Wrap the module and class attributes the program calls through, and
    keep every frozen eval set built so that its factors can be measured."""
    init = problems.FrozenEvalSet.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        eval_sets.append(self)

    problems.FrozenEvalSet.__init__ = keep
    p = tracer.patch
    p(harness, "run_experiment", "harness.run_experiment")
    p(harness, "estimate_L", "optim.estimate_L")
    p(harness, "emit_csv", "harness.artifacts")
    p(harness, "_write_summary", "harness.artifacts")
    p(harness, "wdot", "hilbert.norm")
    p(harness, "wnorm", "hilbert.norm")
    p(fem, "assemble", "fem.assemble")
    p(fem, "splu", "fem.factor")
    p(fem, "solve_state", "fem.solve")
    p(fem, "solve_adjoint", "fem.solve")
    p(fem, "cg_solve", "linsolve.cg")
    p(problems.EllipticControlProblem, "grad", "problems.oracle")
    p(problems.QuadraticProblem, "averaged_grad", "problems.oracle")
    p(problems.FrozenEvalSet, "__init__", "problems.evalset_build")
    p(problems.FrozenEvalSet, "objective", "problems.eval")
    p(problems, "wdot", "hilbert.norm")
    p(problems, "wnorm", "hilbert.norm")
    # estimate_L imports wnorm from hilbert when it runs
    p(hilbert, "wnorm", "hilbert.norm")
    for solver in (optim.AdmmSolver, optim.SpgSolver, optim.SsgSolver,
                   optim.AdaSgSolver):
        p(solver, "step", "optim.step")
    p(optim, "soft_threshold", "hilbert.prox")
    p(optim, "project_box", "hilbert.prox")


def mark_first_step(tracer):
    """Wrap harness.run_solver to note when the first solver step starts and,
    when tracing, to trace the telemetry hook it is given."""
    first = []
    run_solver = harness.run_solver

    def marked(solver, K, rng, hook=None):
        if not first:
            first.append(time.perf_counter())
        if tracer is not None and hook is not None:
            hook = tracer.wrap("harness.telemetry", hook)
        return run_solver(solver, K, rng, hook=hook)

    harness.run_solver = marked
    return first


def cached_factor_mib(eval_sets):
    """Computed size of the LU factors the frozen eval sets hold: CSC data
    (8 bytes) and row index (4 bytes) per stored entry of L and U."""
    nnz = 0
    for es in eval_sets:
        for ops in es._ops or ():
            if ops._lu is not None:
                nnz += ops._lu.L.nnz + ops._lu.U.nnz
    return nnz * 12 / 2 ** 20


def layer_metrics(tracer, eval_sets, wall_s, out):
    own = spans.self_times(tracer.spans)
    total = spans.durations(tracer.spans)
    m = {}
    for key in ("fem.assemble", "fem.factor", "fem.solve", "problems.oracle",
                "problems.eval"):
        for stat, value in spans.layer_stats(own.get(key, [])).items():
            m[f"{key}.{stat}"] = value
    step = spans.layer_stats(own.get("optim.step", []))
    for stat in ("calls", "self_s", "p50_us"):
        m[f"optim.step.{stat}"] = step[stat]
    for key in ("hilbert.prox", "hilbert.norm"):
        m[f"{key}.calls"] = len(own.get(key, []))
        m[f"{key}.self_s"] = sum(own.get(key, [])) / 1e9
    m["fem.cached_factor_mib"] = cached_factor_mib(eval_sets)
    n_eval = sum(len(es.samples) for es in eval_sets)
    m["problems.eval_solves"] = m["problems.eval.calls"] * n_eval
    m["problems.evalset_build_s"] = sum(total.get("problems.evalset_build", [])) / 1e9
    m["optim.estimate_L.calls"] = len(total.get("optim.estimate_L", []))
    m["optim.estimate_L.s"] = sum(total.get("optim.estimate_L", [])) / 1e9
    m["harness.telemetry.self_s"] = sum(own.get("harness.telemetry", [])) / 1e9
    m["harness.artifacts_s"] = sum(total.get("harness.artifacts", [])) / 1e9
    m["harness.rows"] = len(total.get("harness.telemetry", []))
    m["harness.csv_bytes"] = (out / "records.csv").stat().st_size
    run_s = sum(total.get("harness.run_experiment", [])) / 1e9
    m["cli.overhead_s"] = wall_s - run_s
    m["linsolve.cg.calls"] = len(total.get("linsolve.cg", []))
    m["trace.spans"] = len(tracer.spans)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    failures = FailureLog()
    logging.getLogger("sadmm.harness").addHandler(failures)
    tracer = spans.Tracer() if args.trace else None
    eval_sets = []
    first = mark_first_step(tracer)
    if tracer is not None:
        install_tracer(tracer, eval_sets)

    t0 = time.perf_counter()
    code = cli.main(["run", "--config", args.config, "--out", args.out])
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.restore()
    if code != 0:
        sys.exit(f"sadmm run exited with {code}")

    result = {
        "wall_s": wall_s,
        "setup_s": (first[0] - t0) if first else wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failures": failures.failures,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, eval_sets, wall_s, Path(args.out))
    cfg = harness.ExperimentConfig.from_json(args.config)
    if cfg.problem == "quadratic":
        result["reference_objective"] = problems.reference_optimum(
            harness.build_problem(cfg)).objective
    print(json.dumps(result))


if __name__ == "__main__":
    main()
