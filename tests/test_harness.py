"""Experiment orchestration: configs, telemetry, artifacts, statistics."""

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from sadmm import harness, problems
from sadmm.harness import (CSV_HEADER, ConfigError, ExperimentConfig,
                           RunRecord, RunRow, build_problem, emit_csv,
                           envelope, fem_verify, fit_loglog_slope,
                           fit_rate_slope, grad_check, mean_by_k, mean_final,
                           run_experiment, sparsity_fraction, sparsity_table)
from sadmm.optim import NumericalFailure
from sadmm.problems import (EllipticControlProblem, FrozenEvalSet,
                            QuadraticProblem)
from sadmm.svgplot import emit_svg
from test_problems import fail_in_helper_lanes


def tiny_quadratic_cfg(**overrides):
    base = dict(problem="quadratic", regime="strongly_convex", alpha=1.0,
                beta=0.1, quad_dim=8, quad_sigma=0.1, K=12, runs=2,
                eval_samples=1, seed=0, methods=("admm", "spg", "ssg", "adasg"),
                l_est_calls=10)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.problem == "elliptic"

    @pytest.mark.parametrize("kwargs", [
        {"problem": "parabolic"},
        {"regime": "nonconvex"},
        {"runs": 0},
        {"K": 0},
        {"eval_samples": 0},
        {"methods": ("admm", "sgd")},
        {"regime": "strongly_convex", "alpha": 0.0},
        {"methods": "admm"},
        {"K": 10.5},
        {"K": True},
        {"runs": 1.0},
        {"eval_samples": "200"},
        {"seed": -1},
        {"seed": np.float64(0.0)},
        {"quad_dim": 5.0},
        {"batch_floor": True},
        {"l_est_calls": 10.0},
        {"alpha": float("nan")},
        {"alpha": float("inf")},
        {"beta": float("nan")},
        {"mu": float("nan")},
        {"u_min": float("-inf")},
        {"u_max": float("nan")},
        {"quad_sigma": float("nan")},
        {"quad_sigma": float("inf")},
        {"problem": "quadratic", "mesh_h": float("nan")},
        {"problem": "quadratic", "mesh_h": "x"},
    ])
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        cfg = ExperimentConfig(K=np.int64(3), runs=np.int32(1), seed=np.uint8(2))
        assert (cfg.K, cfg.runs, cfg.seed) == (3, 1, 2)

    def test_readme_config_example_loads(self):
        # a field deleted from ExperimentConfig must not linger in the docs
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [b.split("```")[0] for b in readme.split("```json\n")[1:]]
        assert blocks
        for block in blocks:
            ExperimentConfig.from_dict(json.loads(block))

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"stepsize": 1.0})

    def test_from_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": "quadratic", "K": 7,
                                    "alpha": 2.0}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.problem == "quadratic" and cfg.K == 7 and cfg.alpha == 2.0

    def test_from_json_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            ExperimentConfig.from_json(tmp_path / "absent.json")

    def test_from_json_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ExperimentConfig.from_json(path)


class TestSparsityFraction:
    def test_trivial_values(self):
        w = np.array([0.25, 0.25, 0.25, 0.25])
        assert sparsity_fraction(np.zeros(4), w) == 0.0
        assert sparsity_fraction(np.ones(4), w) == 1.0
        assert sparsity_fraction(np.array([1.0, 0.0, 0.0, 2.0]), w) == 0.5

    def test_weighted(self):
        w = np.array([0.7, 0.1, 0.2])
        assert sparsity_fraction(np.array([1.0, 0.0, 0.0]), w) \
            == pytest.approx(0.7)

    def test_tolerance(self):
        w = np.ones(2)
        assert sparsity_fraction(np.array([1e-13, 1.0]), w) == 0.5


class TestCsv:
    def _rows(self):
        return [RunRow(k=1, sfo_calls=1, wall_seconds=0.125,
                       objective=1.0 / 3.0, feasibility=2e-7,
                       sparsity=0.5, method="admm", run_seed=42),
                RunRow(k=2, sfo_calls=3, wall_seconds=0.25,
                       objective=0.1 + 0.2, feasibility=0.0,
                       sparsity=1.0, method="spg", run_seed=7)]

    def test_round_trip_exact(self, tmp_path):
        # floats are written as repr, so each cell reads back to its value
        path = tmp_path / "rows.csv"
        rows = self._rows()
        emit_csv(rows, path)
        with open(path, newline="") as fh:
            header, *cells = csv.reader(fh)
        assert header == CSV_HEADER and len(cells) == len(rows)
        for row, line in zip(rows, cells):
            assert line[0] == str(row.k) and line[1] == str(row.sfo_calls)
            for cell, value in zip(line[2:6], (row.wall_seconds, row.objective,
                                               row.feasibility, row.sparsity)):
                assert float(cell) == value
            assert line[6:] == [row.method, str(row.run_seed)]

    def test_header_written(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit_csv([], path)
        assert path.read_text().strip() == ",".join(CSV_HEADER)

    def test_io_errors_wrapped(self, tmp_path):
        with pytest.raises(OSError, match="failed writing"):
            emit_csv([], tmp_path / "no_dir" / "rows.csv")


class TestBuildProblem:
    def test_quadratic_instance_deterministic(self):
        cfg = tiny_quadratic_cfg()
        p1 = build_problem(cfg)
        p2 = build_problem(cfg)
        assert isinstance(p1, QuadraticProblem)
        np.testing.assert_array_equal(p1.A, p2.A)
        np.testing.assert_array_equal(p1.b, p2.b)
        # spectral normalization keeps the convex regime stable
        assert np.linalg.eigvalsh(p1.A.T @ p1.A)[-1] == pytest.approx(0.1,
                                                                      rel=1e-9)

    def test_quadratic_instance_depends_on_seed(self):
        a0 = build_problem(tiny_quadratic_cfg(seed=0)).A
        a1 = build_problem(tiny_quadratic_cfg(seed=1)).A
        assert not np.array_equal(a0, a1)

    def test_elliptic_instance(self):
        cfg = ExperimentConfig(problem="elliptic", mesh_h=0.25, alpha=1e-4)
        prob = build_problem(cfg)
        assert prob.dim == 9


class TestRunExperiment:
    def test_record_shape_and_budgets(self, tmp_path):
        cfg = tiny_quadratic_cfg(out_dir=None)
        records = run_experiment(cfg, out_dir=tmp_path)
        assert len(records) == len(cfg.methods) * cfg.runs
        for rec in records:
            assert len(rec.rows) == cfg.K
            assert [r.k for r in rec.rows] == list(range(1, cfg.K + 1))
        # equal oracle budget across methods at every iteration
        finals = {rec.method: rec.rows[-1].sfo_calls for rec in records}
        assert len(set(finals.values())) == 1
        assert (tmp_path / "records.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == set(cfg.methods)
        for entry in summary.values():
            assert len(entry["final_objectives"]) == cfg.runs

    def test_deterministic_given_seed(self, tmp_path):
        cfg = tiny_quadratic_cfg(methods=("admm", "ssg"))
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")

        def stable_cells(out):
            # every cell but wall_seconds
            with open(out / "records.csv", newline="") as fh:
                return [line[:2] + line[3:] for line in csv.reader(fh)]

        cells = stable_cells(tmp_path / "a")
        assert len(cells) == 1 + len(cfg.methods) * cfg.runs * cfg.K
        assert cells == stable_cells(tmp_path / "b")

    def test_runs_differ_across_run_index(self):
        cfg = tiny_quadratic_cfg(methods=("admm",), runs=3)
        records = run_experiment(cfg)
        finals = [rec.rows[-1].objective for rec in records]
        assert len(set(finals)) == 3


def stable_rows(records):
    """(method, run_seed, rows without wall_seconds) per record."""
    return [(rec.method, rec.run_seed,
             [(r.k, r.sfo_calls, r.objective, r.feasibility, r.sparsity)
              for r in rec.rows]) for rec in records]


class TestFailedRuns:
    """A run that fails is logged and dropped; the other runs are unchanged."""

    cfg = tiny_quadratic_cfg(methods=("admm", "ssg"), runs=2)

    def check_dropped(self, caplog, records, clean):
        failed = [r for r in caplog.records
                  if r.getMessage().startswith("run failed")]
        assert [r.args for r in failed] == [("admm", 1)]
        kept = [rec for rec in clean if rec.run_seed != clean[1].run_seed]
        assert stable_rows(records) == stable_rows(kept)
        return failed[0].exc_info[1]

    def test_nonfinite_gradient(self, monkeypatch, caplog):
        clean = run_experiment(self.cfg)
        runs = []
        run_solver = harness.run_solver

        def poison_second_run(solver, K, rng, hook=None):
            runs.append(solver)
            if len(runs) != 2:
                return run_solver(solver, K, rng, hook=hook)
            grad = solver.problem.averaged_grad
            calls = []

            def averaged_grad(u, rng, m):
                calls.append(m)
                g = grad(u, rng, m)
                return g * np.nan if len(calls) == 4 else g

            # one oracle call per step: the 4th is the step from k = 3
            solver.problem.averaged_grad = averaged_grad
            try:
                return run_solver(solver, K, rng, hook=hook)
            finally:
                del solver.problem.averaged_grad

        monkeypatch.setattr(harness, "run_solver", poison_second_run)
        records = run_experiment(self.cfg)
        exc = self.check_dropped(caplog, records, clean)
        assert isinstance(exc, NumericalFailure)
        assert (exc.step_name, exc.k) == ("gradient", 3)

    def test_failure_while_scoring(self, monkeypatch, caplog):
        clean = run_experiment(self.cfg)
        objective = QuadraticProblem.objective
        calls = []

        def fail_second_call(self, u):
            calls.append(u)
            if len(calls) == 2:
                raise FloatingPointError("scoring failed")
            return objective(self, u)

        monkeypatch.setattr(QuadraticProblem, "objective", fail_second_call)
        records = run_experiment(self.cfg)
        assert isinstance(self.check_dropped(caplog, records, clean),
                          FloatingPointError)
        # one scoring call per run, on the stack of its K iterates
        assert [u.shape for u in calls] == [(self.cfg.K, self.cfg.quad_dim)] * 4


class TestEllipticScoringPass:
    """Every elliptic run's iterates are scored after the last run, in one
    objective call that factors each eval sample once."""

    cfg = ExperimentConfig(problem="elliptic", mesh_h=2.0 ** -3, alpha=1e-3,
                           beta=1e-3, K=4, runs=2, eval_samples=7,
                           methods=("admm", "ssg"))

    def test_one_call_matches_per_run_scoring(self, monkeypatch):
        calls, factored = [], []
        objective = FrozenEvalSet.objective
        red_black_cholesky = harness.fem.red_black_cholesky

        def count_rows(stencil, mesh, out=None):
            factored.append(len(stencil))
            return red_black_cholesky(stencil, mesh, out)

        def scoring(self, u):
            start = len(factored)
            values = objective(self, u)
            calls.append((u, sum(factored[start:])))
            return values

        monkeypatch.setattr(harness.fem, "red_black_cholesky", count_rows)
        monkeypatch.setattr(FrozenEvalSet, "objective", scoring)
        records = run_experiment(self.cfg)
        monkeypatch.undo()
        cfg = self.cfg
        assert [(rec.method, r.k) for rec in records for r in rec.rows] == [
            (m, k) for m in cfg.methods for _ in range(cfg.runs)
            for k in range(1, cfg.K + 1)]
        # one call, on every run's iterates in (method, run, k) order, and
        # each eval sample factored once in it
        (iterates, rows), = calls
        assert iterates.shape == (len(records) * cfg.K, build_problem(cfg).dim)
        assert rows == cfg.eval_samples
        # the scores equal per-run scoring, bit for bit
        eval_set = harness.build_eval_set(cfg, build_problem(cfg))
        for i, rec in enumerate(records):
            per_run = eval_set.objective(iterates[i * cfg.K:(i + 1) * cfg.K])
            assert [r.objective for r in rec.rows] == per_run.tolist()

    def test_failure_while_scoring_drops_every_run(self, monkeypatch, caplog):
        def fail(self, u):
            raise FloatingPointError("scoring failed")

        monkeypatch.setattr(FrozenEvalSet, "objective", fail)
        assert run_experiment(self.cfg) == []
        self.check_every_run_failed(caplog, FloatingPointError)

    def test_failure_in_a_helper_lane_drops_every_run(self, monkeypatch,
                                                      caplog):
        monkeypatch.setattr(problems, "_lane_count", lambda: 2)
        fail_in_helper_lanes(monkeypatch)
        assert run_experiment(self.cfg) == []
        self.check_every_run_failed(caplog, LinAlgError)

    def check_every_run_failed(self, caplog, error):
        failed = [r for r in caplog.records
                  if r.getMessage().startswith("run failed")]
        # perfbench/child.py reads (method, run index) from each record
        assert [r.args for r in failed] == [
            (m, i) for m in self.cfg.methods for i in range(self.cfg.runs)]
        assert all(isinstance(r.exc_info[1], error) for r in failed)


@pytest.fixture(scope="module")
def records():
    return run_experiment(tiny_quadratic_cfg(methods=("admm", "spg"), runs=3))


class TestStatistics:
    def test_mean_curves(self, records):
        ks, objs = mean_by_k(records, "admm", "objective")
        assert ks.tolist() == list(range(1, 13)) and objs.shape == (12,)
        admm = [r for r in records if r.method == "admm"]
        assert objs.tolist() == np.mean(
            [[row.objective for row in rec.rows] for rec in admm], axis=0).tolist()
        ks2, feas = mean_by_k(records, "admm", "feasibility")
        assert ks2.tolist() == ks.tolist() and np.all(feas >= 0.0)
        with pytest.raises(ValueError, match="no records"):
            mean_by_k(records, "adasg", "objective")

    def test_mean_final_is_last_mean_by_k_entry(self):
        # eight runs whose final values a pairwise sum would add as
        # (1 + 0) + (2^-53 + 2^-53) = 1 + 2^-52, and a sum in run order as 1
        finals = [1.0, 0.0, 2.0 ** -53, 2.0 ** -53, 0.0, 0.0, 0.0, 0.0]
        runs = [RunRecord("admm", i, [RunRow(k, k, 0.0, v, 0.0, 0.0, "admm", i)
                                      for k, v in ((1, 1.0), (2, 0.5), (3, final))])
                for i, final in enumerate(finals)]
        want = mean_by_k(runs, "admm", "objective")[1][-1]
        assert want == 0.125
        assert mean_final(runs, "objective") == want

    def test_envelope_brackets_mean(self, records):
        admm = [r for r in records if r.method == "admm"]
        env = envelope(admm)
        assert np.all(env.min <= env.mean + 1e-15)
        assert np.all(env.mean <= env.max + 1e-15)

    def test_envelope_validation(self, records):
        with pytest.raises(ValueError, match="at least 2"):
            envelope(records[:1])
        with pytest.raises(ValueError, match="mixes methods"):
            envelope(records)

    def test_runs_of_unequal_length_are_rejected(self, records):
        # both statistics build their (runs, K) matrix the same way
        admm = [r for r in records if r.method == "admm"]
        short = replace(admm[1], rows=admm[1].rows[:-1])
        for runs in ([admm[0], short], [short, admm[0]]):
            with pytest.raises(ValueError, match="mismatched iteration counts"):
                envelope(runs)
            with pytest.raises(ValueError, match="mismatched iteration counts"):
                mean_by_k(runs, "admm", "objective")

    def test_loglog_slope_recovers_power_law(self):
        k = np.arange(1, 500)
        for p in (-2.0, -1.0, -0.5):
            slope = fit_loglog_slope(k, 3.7 * k.astype(float) ** p, (10, 400))
            assert slope == pytest.approx(p, abs=1e-12)

    def test_loglog_slope_drops_nonpositive_points(self):
        k = np.arange(1, 100, dtype=float)
        vals = k ** -1.0
        vals[::2] = -1.0  # half the points are invalid and must be excluded
        assert fit_loglog_slope(k, vals, (1, 99)) == pytest.approx(-1.0,
                                                                   abs=1e-12)
        with pytest.raises(ValueError, match="need at least 5"):
            fit_loglog_slope(k, -np.ones_like(k), (1, 99))

    def test_fit_rate_slope_quantities(self, records):
        slope = fit_rate_slope(records, (1, 12), -1e9)
        assert np.isfinite(slope)


class TestSparsityTable:
    def test_rows_and_monotonicity(self):
        cfg = tiny_quadratic_cfg(K=40, runs=2, beta=0.1)
        table = sparsity_table(cfg, [0.0, 0.05, 2.0])
        assert set(table) == {"paper_power", "constant_1"}
        for fractions in table.values():
            assert len(fractions) == 3
            assert all(0.0 <= f <= 1.0 for f in fractions)
            assert all(b <= a + 1e-9 for a, b in zip(fractions, fractions[1:]))

    def test_rows_do_not_depend_on_cfg_batch_rule(self):
        cfg = tiny_quadratic_cfg(K=20, runs=2, beta=0.1)
        assert sparsity_table(replace(cfg, batch_rule="constant", batch_floor=3),
                              [0.0, 0.05]) == sparsity_table(cfg, [0.0, 0.05])

    def test_empty_beta_list(self):
        with pytest.raises(ValueError, match="nonempty"):
            sparsity_table(tiny_quadratic_cfg(), [])

    def test_failed_run_is_an_error(self, monkeypatch):
        # run_experiment logs and drops a failed run; the table must not
        # average the runs that are left
        calls = []
        run_solver = harness.run_solver

        def fail_third_run(solver, K, rng, hook=None):
            calls.append(solver)
            if len(calls) == 3:
                raise FloatingPointError("run failed")
            return run_solver(solver, K, rng, hook=hook)

        monkeypatch.setattr(harness, "run_solver", fail_third_run)
        with pytest.raises(RuntimeError, match="1 of 2 admm runs failed for "
                                               "rule paper_power at beta=0.05"):
            sparsity_table(tiny_quadratic_cfg(runs=2), [0.0, 0.05])


class TestChecks:
    def test_grad_check_passes_on_coarse_mesh(self):
        report = grad_check()
        assert report.passed
        assert all(d["rel_err"] <= 1e-5 for d in report.details)

    def test_grad_check_detects_tight_tolerance(self, monkeypatch):
        # a gradient off by a factor of two must fail the check
        grad = EllipticControlProblem.grad
        monkeypatch.setattr(EllipticControlProblem, "grad",
                            lambda self, u, xi: 2.0 * grad(self, u, xi))
        report = grad_check()
        assert not report.passed

    def test_fem_verify_coarse(self):
        report = fem_verify()
        assert report.passed
        assert len(report.details[0]["orders"]) == 2


class TestSvg:
    def test_polyline_per_series(self, tmp_path):
        path = tmp_path / "plot.svg"
        k = np.arange(1, 20, dtype=float)
        emit_svg({"a": (k, 1.0 / k), "b": (k, 2.0 / k)}, path)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert text.startswith("<svg")

    def test_nonpositive_values_dropped_on_log_axis(self, tmp_path):
        path = tmp_path / "plot.svg"
        k = np.arange(1, 10, dtype=float)
        y = 1.0 / k
        y[3] = 0.0
        emit_svg({"a": (k, y)}, path)
        # 9 points minus the dropped zero
        points = path.read_text().split('points="')[1].split('"')[0]
        assert len(points.split()) == 8
