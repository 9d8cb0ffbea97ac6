"""Experiment orchestration: seeded multi-run comparisons, sparsity tables,
envelopes, rate fits, and CSV/JSON/SVG artifacts."""

from __future__ import annotations

import csv
import json
import logging
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fem
from .hilbert import wdot, wnorm
from .optim import (AdaSgSolver, AdmmSolver, BatchSchedule, SpgSolver,
                    SsgSolver, derive_convex_params,
                    derive_strongly_convex_params, estimate_L, run_solver)
from .problems import EllipticControlProblem, FrozenEvalSet, QuadraticProblem

logger = logging.getLogger(__name__)

CSV_HEADER = ["k", "sfo_calls", "wall_seconds", "objective", "feasibility",
              "sparsity", "method", "run_seed"]

METHODS = ("admm", "spg", "ssg", "adasg")
_METHOD_IDS = {m: i + 1 for i, m in enumerate(METHODS)}

# sub-stream tags for deriving independent seeds from the experiment seed
_EVAL_TAG = 901
_LHAT_TAG = 902
_QUAD_TAG = 903


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_COUNT_FIELDS = ("K", "runs", "eval_samples", "seed", "quad_dim", "batch_floor",
                 "l_est_calls")
_FLOAT_FIELDS = ("alpha", "beta", "mu", "mesh_h", "u_min", "u_max", "quad_sigma")


@dataclass
class ExperimentConfig:
    problem: str = "elliptic"  # "elliptic" | "quadratic"
    regime: str = "strongly_convex"  # "strongly_convex" | "convex"
    alpha: float = 1e-5
    beta: float = 1e-5
    mu: float = 0.5
    mesh_h: float = 2.0 ** -5
    K: int = 50
    runs: int = 5
    eval_samples: int = 200
    seed: int = 0
    methods: tuple = ("admm", "spg", "ssg", "adasg")
    batch_rule: str = "paper_power"
    batch_floor: int = 1
    out_dir: str | None = None
    u_min: float = -6.0
    u_max: float = 6.0
    # quadratic instance knobs
    quad_dim: int = 50
    quad_sigma: float = 0.1
    l_est_calls: int = 1000

    def __post_init__(self):
        # a float or bool count would fail (or silently truncate) deep in a
        # run, where run_experiment logs and drops the failed run
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        # NaN passes the range checks below, and NaN or inf fails every run
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.problem not in ("elliptic", "quadratic"):
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.regime not in ("strongly_convex", "convex"):
            raise ConfigError(f"unknown regime {self.regime!r}")
        if self.runs < 1 or self.eval_samples < 1 or self.K < 1:
            raise ConfigError("runs, eval_samples and K must all be >= 1")
        if isinstance(self.methods, str):  # tuple() would split it into letters
            raise ConfigError(f"methods must be a list of method names, "
                              f"got the string {self.methods!r}")
        self.methods = tuple(self.methods)
        if not self.methods:
            # a run without methods would write a header-only CSV
            raise ConfigError("methods must name at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected one of {METHODS}")
        if len(set(self.methods)) != len(self.methods):
            # a repeated method would run again on the same run seeds
            raise ConfigError(f"methods repeat a method: {list(self.methods)}")
        if self.regime == "strongly_convex" and self.alpha <= 0.0:
            raise ConfigError("strongly_convex regime requires alpha > 0")
        # values the solver layers would reject once the experiment runs
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ConfigError("alpha and beta must be nonnegative")
        # the convex rule sets admm's rho to beta; spg, ssg and adasg run
        # with beta = 0
        if (self.regime == "convex" and "admm" in self.methods
                and self.beta == 0.0):
            raise ConfigError("the convex regime's admm (rho = beta) requires "
                              "beta > 0")
        if self.u_min >= self.u_max:
            raise ConfigError(f"u_min={self.u_min} must be below u_max={self.u_max}")
        if self.batch_rule not in ("paper_power", "constant"):
            raise ConfigError(f"unknown batch_rule {self.batch_rule!r}; "
                              "expected 'paper_power' or 'constant'")
        if not 0.0 < self.mu < 1.0:
            raise ConfigError(f"mu must be in (0, 1), got {self.mu}")
        if self.batch_floor < 1:
            raise ConfigError(f"batch_floor must be >= 1, got {self.batch_floor}")
        if self.l_est_calls < 1:
            raise ConfigError(f"l_est_calls must be >= 1, got {self.l_est_calls}")
        if self.quad_sigma < 0.0:
            raise ConfigError(f"quad_sigma must be nonnegative, got {self.quad_sigma}")
        # an empty quadratic problem makes every method meaningless
        if self.problem == "quadratic" and self.quad_dim < 1:
            raise ConfigError(f"quad_dim must be >= 1, got {self.quad_dim}")
        if self.problem == "elliptic":
            try:
                fem.grid_divisions(self.mesh_h)
            except ValueError as exc:
                raise ConfigError(f"mesh_h: {exc}") from exc

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(d) - known
        if bad:
            raise ConfigError(f"unknown config keys: {sorted(bad)}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


@dataclass
class RunRow:
    k: int
    sfo_calls: int
    wall_seconds: float
    objective: float
    feasibility: float
    sparsity: float
    method: str
    run_seed: int


@dataclass
class RunRecord:
    method: str
    run_seed: int
    rows: list


@dataclass
class EnvelopeStats:
    k: np.ndarray
    min: np.ndarray
    mean: np.ndarray
    max: np.ndarray


def build_problem(cfg: ExperimentConfig):
    if cfg.problem == "elliptic":
        mesh = fem.build_mesh(cfg.mesh_h)
        return EllipticControlProblem(mesh, cfg.alpha, cfg.beta,
                                      u_min=cfg.u_min, u_max=cfg.u_max)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence((cfg.seed, _QUAD_TAG))))
    n = cfg.quad_dim
    G = rng.standard_normal((n, n))
    A = G * (math.sqrt(0.1) / np.linalg.norm(G, 2))
    b = A @ rng.uniform(-8.0, 8.0, size=n)
    return QuadraticProblem(A, b, cfg.alpha, cfg.beta, u_min=cfg.u_min,
                            u_max=cfg.u_max, sigma=cfg.quad_sigma)


def _run_rng(cfg: ExperimentConfig, method: str, run_idx: int):
    ss = np.random.SeedSequence((cfg.seed, _METHOD_IDS[method], run_idx))
    run_seed = int(ss.generate_state(1)[0])
    return np.random.Generator(np.random.Philox(ss)), run_seed


def build_eval_set(cfg: ExperimentConfig, problem):
    """What every method of the experiment configured by cfg is scored on:
    the quadratic problem itself, whose objective is exact, or the elliptic
    problem's frozen evaluation set of cfg.eval_samples samples."""
    if isinstance(problem, QuadraticProblem):
        return problem
    return FrozenEvalSet(problem, cfg.eval_samples, (cfg.seed, _EVAL_TAG))


def _estimate_l_hat(cfg: ExperimentConfig, problem) -> float:
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence((cfg.seed, _LHAT_TAG))))
    return estimate_L(problem, np.zeros(problem.dim), rng, n_calls=cfg.l_est_calls)


def make_solver(method: str, cfg: ExperimentConfig, problem, batch,
                l_hat: float | None = None):
    if method == "admm":
        params = (derive_strongly_convex_params(cfg.alpha, cfg.mu)
                  if cfg.regime == "strongly_convex"
                  else derive_convex_params(cfg.beta, cfg.mu, l_hat))
        return AdmmSolver(problem, params, batch)
    if method == "spg":
        return SpgSolver(problem, batch, l_hat=l_hat)
    if method == "ssg":
        alpha = cfg.alpha if cfg.regime == "strongly_convex" else None
        return SsgSolver(problem, batch, alpha=alpha)
    if method == "adasg":
        return AdaSgSolver(problem, batch)
    raise ConfigError(f"unknown method {method!r}")


def sparsity_fraction(u: np.ndarray, w: np.ndarray) -> float:
    """Lumped-weight fraction of the domain where |u| exceeds 1e-12."""
    u = np.asarray(u, dtype=float)
    return float(w[np.abs(u) > 1e-12].sum() / w.sum())


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> list:
    """Run every configured method x run combination on derived seeds.

    All methods share the frozen evaluation sample set and the batch
    schedule, hence identical oracle budgets per iteration. Iterates are
    scored after their run (build_eval_set), so wall_seconds (optimization
    time) excludes scoring. An elliptic eval set factors every sample on
    each objective call, so the iterates of every finished elliptic run are
    kept and scored in one call after the last run, in (method, run, k)
    order: each eval sample is assembled and factored once per experiment.
    The quadratic problem scores itself exactly, so each quadratic run is
    scored as soon as it finishes and its iterates are not kept.
    Returns one RunRecord per (method, run), in that order; failed runs are
    logged and skipped so that the remaining runs still complete. A failure
    while scoring drops every run of that scoring call.
    """
    problem = build_problem(cfg)
    scorer = build_eval_set(cfg, problem)
    batch = BatchSchedule(rule=cfg.batch_rule, floor=cfg.batch_floor)

    needs_l = cfg.regime == "convex" or "spg" in cfg.methods
    l_hat = _estimate_l_hat(cfg, problem) if needs_l else None

    w = problem.weights
    records = []
    # finished runs awaiting their scores: (run_idx, record, iterates)
    pending = []

    def score():
        """Fill the objectives of the pending runs with one objective call
        on their stacked iterates, and keep the runs it scores."""
        try:
            # objective at the feasible iterate u; z is reported through
            # sparsity/feasibility (the split pair can undercut the optimum)
            objectives = scorer.objective(
                np.stack([u for *_, iterates in pending for u in iterates]))
        except Exception:
            for run_idx, rec, _ in pending:
                logger.exception("run failed: method=%s run=%d", rec.method,
                                 run_idx)
        else:
            scores = iter(objectives.tolist())
            for _, rec, _ in pending:
                for row in rec.rows:
                    row.objective = next(scores)
                records.append(rec)
        pending.clear()

    for method in cfg.methods:
        solver = make_solver(method, cfg, problem, batch, l_hat=l_hat)
        for run_idx in range(cfg.runs):
            rng, run_seed = _run_rng(cfg, method, run_idx)
            rec = RunRecord(method=method, run_seed=run_seed, rows=[])
            iterates = []

            def hook(k, sfo_calls, elapsed, state, _rows=rec.rows,
                     _iterates=iterates, _method=method, _seed=run_seed):
                u, z = solver.views(state)
                # every step returns a fresh u, so keeping it needs no copy;
                # the objective is scored after the run
                _iterates.append(u)
                _rows.append(RunRow(
                    k=k, sfo_calls=sfo_calls, wall_seconds=elapsed,
                    objective=math.nan,
                    feasibility=wnorm(u - z, w),
                    sparsity=sparsity_fraction(z, w),
                    method=_method, run_seed=_seed))

            try:
                run_solver(solver, cfg.K, rng, hook=hook)
            except Exception:
                logger.exception("run failed: method=%s run=%d", method, run_idx)
                continue
            pending.append((run_idx, rec, iterates))
            if scorer is problem:
                score()
    if pending:
        score()

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        emit_csv([r for rec in records for r in rec.rows], out / "records.csv")
        _write_summary(records, out / "summary.json")
    return records


def _write_summary(records, path):
    summary = {}
    for method in dict.fromkeys(rec.method for rec in records):
        runs = [rec for rec in records if rec.method == method]
        finals = [rec.rows[-1] for rec in runs]
        summary[method] = {"final_objectives": [r.objective for r in finals],
                           "final_feasibility": [r.feasibility for r in finals],
                           "final_sparsity": [r.sparsity for r in finals],
                           "sfo_calls": finals[0].sfo_calls,
                           "mean_final_objective": mean_final(runs, "objective")}
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)


def _by_run(records, field: str) -> tuple[np.ndarray, np.ndarray]:
    """The iteration counts and the (runs, K) matrix of a RunRow field."""
    if len({len(rec.rows) for rec in records}) > 1:
        raise ValueError("runs have mismatched iteration counts")
    ks = np.array([row.k for row in records[0].rows])
    return ks, np.array([[getattr(row, field) for row in rec.rows]
                         for rec in records])


def envelope(records) -> EnvelopeStats:
    """Per-iteration min/mean/max of the objective over runs of one method."""
    if len(records) < 2:
        raise ValueError("envelope needs at least 2 runs")
    methods = {rec.method for rec in records}
    if len(methods) > 1:
        raise ValueError(f"envelope mixes methods: {sorted(methods)}")
    ks, objs = _by_run(records, "objective")
    return EnvelopeStats(k=ks, min=objs.min(axis=0), mean=objs.mean(axis=0),
                         max=objs.max(axis=0))


def mean_by_k(records, method: str, field: str) -> tuple[np.ndarray, np.ndarray]:
    """Iteration counts and the run-averaged RunRow field (e.g. "objective"
    or "feasibility") at each of them, over the runs of one method."""
    recs = [r for r in records if r.method == method]
    if not recs:
        raise ValueError(f"no records for method {method!r}")
    ks, values = _by_run(recs, field)
    return ks, values.mean(axis=0)


def mean_final(records, field: str) -> float:
    """The mean over runs of a RunRow field's final value: the last entry of
    the per-iteration mean that mean_by_k and envelope take."""
    return float(_by_run(records, field)[1].mean(axis=0)[-1])


def fit_loglog_slope(k: np.ndarray, values: np.ndarray,
                     k_range: tuple[int, int]) -> float:
    """Least-squares slope of log(values) vs log(k) over k in [k_range]."""
    k = np.asarray(k, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (k >= k_range[0]) & (k <= k_range[1]) & (values > 0.0)
    if mask.sum() < 5:
        raise ValueError(f"only {int(mask.sum())} positive points in range; "
                         "need at least 5 for a slope fit")
    slope, _ = np.polyfit(np.log(k[mask]), np.log(values[mask]), 1)
    return float(slope)


def fit_rate_slope(records, k_range: tuple[int, int],
                   reference_objective: float) -> float:
    """Log-log slope of admm's run-averaged objective gap."""
    ks, mean_obj = mean_by_k(records, "admm", "objective")
    return fit_loglog_slope(ks, mean_obj - reference_objective, k_range)


def sparsity_table(cfg: ExperimentConfig, beta_list) -> dict:
    """Final-iterate sparsity of admm per batch rule (the paper's power
    rule vs one sample per step, whatever cfg's own rule) and beta, averaged
    over cfg.runs runs of run_experiment.

    Returns {rule_name: [fraction per beta]}; warns if a row is not monotone
    non-increasing in beta. Raises RuntimeError if a run failed, rather than
    averaging the runs that are left.
    """
    beta_list = list(beta_list)
    if not beta_list:
        raise ValueError("beta_list must be nonempty")
    rules = {"paper_power": dict(batch_rule="paper_power", batch_floor=1),
             "constant_1": dict(batch_rule="constant", batch_floor=1)}
    # every config is checked before the first run; sparsity needs no
    # objective, so one eval sample keeps scoring cheap (200 would add about
    # 8 s to criterion 10)
    configs = {name: [replace(cfg, beta=beta, methods=("admm",),
                              eval_samples=1, **rule) for beta in beta_list]
               for name, rule in rules.items()}
    table = {}
    for name, rule_configs in configs.items():
        fractions = []
        for beta, rule_cfg in zip(beta_list, rule_configs):
            records = run_experiment(rule_cfg)
            if len(records) != cfg.runs:
                raise RuntimeError(f"{cfg.runs - len(records)} of {cfg.runs} "
                                   f"admm runs failed for rule {name} at "
                                   f"beta={beta}")
            fractions.append(mean_final(records, "sparsity"))
        if any(b > a + 1e-9 for a, b in zip(fractions, fractions[1:])):
            logger.warning("sparsity not monotone for rule %s: %s", name, fractions)
        table[name] = fractions
    return table


def emit_csv(rows, path) -> None:
    """Write telemetry rows with the canonical header; floats use repr
    (shortest round-trip), so re-runs are byte-identical."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for row in rows:
                writer.writerow([
                    row.k, row.sfo_calls, repr(row.wall_seconds),
                    repr(row.objective), repr(row.feasibility),
                    repr(row.sparsity), row.method, row.run_seed,
                ])
    except OSError as exc:
        raise OSError(f"failed writing CSV to {path}: {exc}") from exc


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: list


def grad_check(seed: int = 0) -> CheckReport:
    """Central finite differences (step 1e-4) of the per-sample smooth value
    against the adjoint gradient, at 3 random controls and directions on
    h = 2^-4 with alpha = beta = 1e-5; each passes at relative error <= 1e-5."""
    mesh = fem.build_mesh(2.0 ** -4)
    problem = EllipticControlProblem(mesh, 1e-5, 1e-5)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    w = problem.weights
    fd_step = 1e-4
    details = []
    for i in range(3):
        xi = problem.draw_samples(rng, 1)[0]
        u = rng.uniform(-2.0, 2.0, size=problem.dim)
        d = rng.standard_normal(problem.dim)
        d /= wnorm(d, w)
        fd = (problem.smooth_value(u + fd_step * d, xi)
              - problem.smooth_value(u - fd_step * d, xi)) / (2.0 * fd_step)
        directional = wdot(problem.grad(u, xi), d, w)
        rel_err = abs(fd - directional) / max(abs(fd), 1e-300)
        details.append({"check": i, "fd": fd, "directional": directional,
                        "rel_err": rel_err, "ok": rel_err <= 1e-5})
    return CheckReport(name="grad_check",
                       passed=all(d["ok"] for d in details), details=details)


def fem_verify() -> CheckReport:
    """Manufactured-solution convergence study on h = 2^-3, 2^-4, 2^-5:
    a == 1, exact state sin(pi x1) sin(pi x2), forcing 2 pi^2 sin sin; passes
    when every observed L2 order is in [1.8, 2.2]."""
    h_list = (2.0 ** -3, 2.0 ** -4, 2.0 ** -5)
    exact = lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2)
    forcing = lambda x1, x2: 2.0 * np.pi ** 2 * exact(x1, x2)
    errors = []
    for h in h_list:
        mesh = fem.build_mesh(h)
        y = np.zeros(mesh.n_nodes)
        y[mesh.interior] = fem.solve_state(
            fem.factor(mesh, np.zeros(4)),
            fem.interpolate(mesh, forcing)[mesh.interior])[0]
        errors.append(fem.l2_error(y, exact, mesh, fem.lumped_weights(mesh)))
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
    ok = all(1.8 <= o <= 2.2 for o in orders)
    return CheckReport(name="fem_verify", passed=ok,
                       details=[{"h": list(h_list), "errors": errors,
                                 "orders": orders}])
