"""Command-line interface for seeded experiments and verification checks.

Exit status: 0 success, 1 check failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .harness import ConfigError, ExperimentConfig
from .problems import reference_optimum
from .svgplot import emit_svg

PAPER_SCALE_RUNS = 50
PAPER_SCALE_EVAL_SAMPLES = 10 ** 4


def _load_config(args) -> ExperimentConfig:
    cfg = (ExperimentConfig.from_json(args.config) if args.config
           else ExperimentConfig())
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if getattr(args, "methods", None) is not None:
        # --methods "" names no method, as "methods": [] does
        overrides["methods"] = args.methods.split(",") if args.methods else []
    if getattr(args, "paper_scale", False):
        overrides["runs"] = PAPER_SCALE_RUNS
        overrides["eval_samples"] = PAPER_SCALE_EVAL_SAMPLES
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _out_dir(cfg: ExperimentConfig) -> ExperimentConfig:
    """cfg with its output directory ("out" by default), made here, as a Path."""
    out = Path(cfg.out_dir or "out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {out}: "
                          f"{exc.strerror}") from exc
    return replace(cfg, out_dir=out)


def cmd_run(args) -> int:
    cfg = _out_dir(_load_config(args))
    harness.run_experiment(cfg)
    out = cfg.out_dir
    print(f"wrote {out / 'records.csv'} and {out / 'summary.json'}")
    return 0


def cmd_compare(args) -> int:
    cfg = _out_dir(_load_config(args))
    records = harness.run_experiment(cfg)
    emit_svg({method: harness.mean_by_k(records, method, "objective")
              for method in cfg.methods}, cfg.out_dir / "compare.svg")
    print(f"wrote {cfg.out_dir / 'compare.svg'}")
    return 0


def cmd_sparsity_table(args) -> int:
    cfg = _load_config(args)
    try:
        betas = [float(b) for b in args.betas.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--betas must be comma-separated numbers, "
                          f"got {args.betas!r}") from exc
    cfg = _out_dir(cfg)
    table = harness.sparsity_table(cfg, betas)
    payload = {"betas": betas, "fractions": table}
    with open(cfg.out_dir / "sparsity_table.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    for rule, fracs in table.items():
        print(rule, " ".join(f"{f:.4f}" for f in fracs))
    return 0


def cmd_envelope(args) -> int:
    cfg = _load_config(args)
    if cfg.runs < 2:
        raise ConfigError(f"the envelope of runs needs runs >= 2, "
                          f"got runs={cfg.runs}")
    if len(cfg.methods) != 1:
        cfg = replace(cfg, methods=("admm",))
    cfg = _out_dir(cfg)
    records = harness.run_experiment(cfg)
    env = harness.envelope(records)
    emit_svg({"min": (env.k, env.min), "mean": (env.k, env.mean),
              "max": (env.k, env.max)}, cfg.out_dir / "envelope.svg")
    print(f"wrote {cfg.out_dir / 'envelope.svg'}")
    return 0


def cmd_rate(args) -> int:
    cfg = _load_config(args)
    if cfg.problem != "quadratic":
        raise ConfigError("rate fitting needs the quadratic problem "
                          "(a computable reference optimum)")
    if "admm" not in cfg.methods:
        raise ConfigError("rate fitting fits the admm gap; methods must "
                          "include admm")
    k_range = (args.k_min, cfg.K if args.k_max is None else args.k_max)
    n_points = min(k_range[1], cfg.K) - max(k_range[0], 1) + 1
    if n_points < 5:
        raise ConfigError(f"K={cfg.K} leaves {max(n_points, 0)} iterations "
                          f"in [{k_range[0]}, {k_range[1]}]; the slope fit "
                          "needs at least 5 (see --k-min and --k-max)")
    if cfg.out_dir:
        cfg = _out_dir(cfg)
    records = harness.run_experiment(cfg)
    ref = reference_optimum(harness.build_problem(cfg))
    slope = harness.fit_rate_slope(records, k_range, ref.objective)
    print(f"objective-gap log-log slope over k in {k_range}: {slope:.4f}")
    return 0


def cmd_grad_check(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    report = harness.grad_check(seed=args.seed)
    for d in report.details:
        print(f"check {d['check']}: rel_err={d['rel_err']:.3e} "
              f"{'ok' if d['ok'] else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_fem_verify(args) -> int:
    report = harness.fem_verify()
    detail = report.details[0]
    print("errors:", " ".join(f"{e:.4e}" for e in detail["errors"]))
    print("orders:", " ".join(f"{o:.3f}" for o in detail["orders"]))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sadmm",
        description="Stochastic splitting solver experiments for sparse "
                    "elliptic optimal control under uncertainty.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, methods=True):
        p.add_argument("--config", type=str, default=None,
                       help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--paper-scale", action="store_true",
                       help="50 runs, 10^4 evaluation samples")
        if methods:
            p.add_argument("--methods", type=str, default=None,
                           help="comma-separated subset of admm,spg,ssg,adasg")

    p = sub.add_parser("run", help="full experiment from config")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="multi-method figure data")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sparsity-table", help="sparsity vs beta table")
    common(p, methods=False)
    p.add_argument("--betas", type=str, default="0,5e-3,3e-2")
    p.set_defaults(func=cmd_sparsity_table)

    p = sub.add_parser("envelope", help="min/mean/max objective envelope")
    common(p)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("rate", help="log-log slope of the objective gap")
    common(p)
    p.add_argument("--k-min", type=int, default=50)
    p.add_argument("--k-max", type=int, default=None)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("grad-check", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("fem-verify", help="manufactured-solution FEM order")
    p.set_defaults(func=cmd_fem_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
