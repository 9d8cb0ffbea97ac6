"""Command-line entry points and exit-code contract (0 ok, 1 check, 2 config)."""

import json

import pytest

from sadmm import cli
from sadmm.harness import CheckReport


def write_cfg(tmp_path, **overrides):
    base = dict(problem="quadratic", regime="strongly_convex", alpha=1.0,
                beta=0.1, quad_dim=6, quad_sigma=0.1, K=10, runs=2,
                eval_samples=1, seed=0, methods=["admm"])
    base.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    return path


# config values that a solver layer would reject once the run started, that
# make a method meaningless, that repeat a method (its runs would repeat on
# the same run seeds), counts that are not nonnegative integers (a float K
# would fail every run, each logged and dropped), or floats that are not
# finite (a NaN alpha would fail every run the same way) or that are bools
# (true would run as 1.0), or an out_dir that is not a path, by the field the
# error message must name; each field's configs are checked in turn
REJECTED_BELOW_CONFIG = {
    "mu": [{"mu": 1.5}],
    "batch_floor": [{"batch_floor": 0}],
    "quad_sigma": [{"quad_sigma": -1}],
    "mesh_h": [{"problem": "elliptic", "alpha": 1e-4, "mesh_h": 0.3},
               # one cell per side: no interior node, so no control
               {"problem": "elliptic", "alpha": 1e-4, "mesh_h": 1.0}],
    "batch_rule": [{"batch_rule": "linear"}],
    "beta": [{"problem": "elliptic", "alpha": 1e-4, "mesh_h": 0.25, "beta": -1.0}],
    "quad_dim": [{"quad_dim": 0}],
    "methods": [{"methods": ["admm", "admm"]}],
    "K": [{"K": 10.5}],
    "runs": [{"runs": 1.0}],
    "eval_samples": [{"eval_samples": True}],
    "seed": [{"seed": -1}],
    "alpha": [{"alpha": float("nan")}, {"alpha": True},
              # an integer beyond the float range
              {"alpha": 10 ** 400}],
    "out_dir": [{"out_dir": 5}],
}


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        # not JSON, or JSON that is not an object
        path = tmp_path / "bad.json"
        for text, message in (("{oops", "invalid JSON"),
                              *((t, "a config is a JSON object")
                                for t in ("5", "null", '"admm"', "[1, 2]")),
                              # past Python's limit on the digits of an int,
                              # json.load raises a plain ValueError
                              ('{"alpha": 1' + "0" * 5000 + "}",
                               "configuration error")):
            path.write_text(text)
            assert cli.main(["run", "--config", str(path)]) == 2
            assert message in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        # a UTF-16 byte-order mark before "{": not UTF-8 text, so not JSON
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare", "rate"])
    def test_out_that_cannot_be_a_directory_is_config_error(
            self, tmp_path, capsys, command):
        # an existing file, and a path under it; rate makes its --out
        # before it runs, as run and compare do
        cfg = write_cfg(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        for out in (taken, taken / "sub"):
            assert cli.main([command, "--config", str(cfg), "--out", str(out),
                             *(["--k-min", "1"] if command == "rate" else [])]) == 2
            assert f"output directory {out}:" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        # the control box and estimate_L's draw count are constants, not
        # config keys
        for key, value in (("stepsize", 3), ("u_min", -6.0), ("u_max", 6.0),
                           ("l_est_calls", 1000)):
            cfg = write_cfg(tmp_path, **{key: value})
            assert cli.main(["run", "--config", str(cfg)]) == 2
            assert "unknown config keys" in capsys.readouterr().err

    def test_bad_method_override_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert cli.main(["run", "--config", str(cfg),
                         "--methods", "admm,sgd"]) == 2

    def test_unknown_solve_method_is_config_error(self, tmp_path, capsys):
        # the direct solve is the only one, so the key itself is unknown
        cfg = write_cfg(tmp_path, problem="elliptic", alpha=1e-4,
                        mesh_h=0.25, solve_method="lu")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "solve_method" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_methods_is_config_error(self, tmp_path, capsys):
        # a run without methods would write a header-only CSV
        cfg = write_cfg(tmp_path, methods=[])
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "methods" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare", "envelope", "rate"])
    def test_empty_methods_override_is_config_error(self, tmp_path, monkeypatch,
                                                    capsys, command):
        # --methods "" names no method, as "methods": [] does; it must not
        # fall back to the config's methods
        monkeypatch.setattr(cli.harness, "run_experiment", None)
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--out", str(out),
                         "--methods", ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "methods" in err
        assert not out.exists()

    def test_string_methods_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, methods="admm")
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "list of method names" in capsys.readouterr().err

    @pytest.mark.parametrize("field", list(REJECTED_BELOW_CONFIG))
    def test_value_a_solver_layer_rejects_is_config_error(self, tmp_path, capsys,
                                                          field):
        for overrides in REJECTED_BELOW_CONFIG[field]:
            cfg = write_cfg(tmp_path, **overrides)
            out = tmp_path / "out"
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error") and field in err
            assert not out.exists()

    def test_convex_admm_without_beta_fails_before_running(self, tmp_path,
                                                          monkeypatch, capsys):
        # the convex rule sets admm's rho to beta; sparsity-table's default
        # betas start at 0
        monkeypatch.setattr(cli.harness, "run_experiment", None)
        cfg = write_cfg(tmp_path, regime="convex", alpha=0.0, beta=0.0)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        convex = write_cfg(tmp_path, regime="convex", alpha=0.0)
        assert cli.main(["sparsity-table", "--config", str(convex),
                         "--out", str(out)]) == 2
        assert cli.main(["sparsity-table", "--config", str(convex),
                         "--out", str(out), "--betas", "0.05,0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        assert all(line.startswith("configuration error") and "beta > 0"
                   in line for line in err)

    def test_convex_methods_without_admm_run_with_zero_beta(self, tmp_path):
        cfg = write_cfg(tmp_path, regime="convex", alpha=0.0, beta=0.0,
                        methods=["spg", "ssg", "adasg"])
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("betas", ["0,abc", ""])
    def test_bad_betas_are_config_error(self, tmp_path, monkeypatch, capsys,
                                        betas):
        monkeypatch.setattr(cli.harness, "sparsity_table", None)
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["sparsity-table", "--config", str(cfg),
                         "--out", str(out), "--betas", betas]) == 2
        assert "--betas" in capsys.readouterr().err
        assert not out.exists()

    def test_rate_requires_reference_problem(self, tmp_path):
        cfg = write_cfg(tmp_path, problem="elliptic",
                        alpha=1e-4, mesh_h=0.25)
        assert cli.main(["rate", "--config", str(cfg)]) == 2

    def test_rate_without_admm_fails_before_running(self, tmp_path, monkeypatch,
                                                    capsys):
        monkeypatch.setattr(cli.harness, "run_experiment", None)
        cfg = write_cfg(tmp_path, K=60, methods=["ssg"])
        assert cli.main(["rate", "--config", str(cfg), "--k-min", "20"]) == 2
        assert "admm" in capsys.readouterr().err

    def test_rate_with_too_few_points_fails_before_running(self, tmp_path,
                                                           monkeypatch, capsys):
        monkeypatch.setattr(cli.harness, "run_experiment", None)
        cfg = write_cfg(tmp_path, K=10)
        assert cli.main(["rate", "--config", str(cfg)]) == 2
        assert cli.main(["rate", "--config", str(cfg), "--k-min", "7"]) == 2
        # --k-max 0 ends the range at 0 like any other value, not at K
        assert cli.main(["rate", "--config", str(cfg), "--k-min", "1",
                         "--k-max", "0"]) == 2
        err = capsys.readouterr().err
        assert "at least 5" in err and "0 iterations in [1, 0]" in err

    def test_envelope_of_one_run_fails_before_running(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setattr(cli.harness, "run_experiment", None)
        cfg = write_cfg(tmp_path, K=20, runs=1)
        out = tmp_path / "out"
        assert cli.main(["envelope", "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert "runs >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_grad_check_seed_is_config_error(self, capsys):
        assert cli.main(["grad-check", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_check_failure_is_exit_one(self, monkeypatch):
        failing = CheckReport(name="fem_verify", passed=False,
                              details=[{"h": [], "errors": [], "orders": []}])
        monkeypatch.setattr(cli.harness, "fem_verify", lambda: failing)
        assert cli.main(["fem-verify"]) == 1


class TestCommands:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert (out / "records.csv").exists()
        assert (out / "summary.json").exists()
        assert "records.csv" in capsys.readouterr().out

    def test_run_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path)
        cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"),
                  "--seed", "1"])
        cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"),
                  "--seed", "2"])
        a = (tmp_path / "a" / "records.csv").read_text()
        b = (tmp_path / "b" / "records.csv").read_text()
        assert a != b

    def test_compare_emits_svg(self, tmp_path):
        cfg = write_cfg(tmp_path, methods=["admm", "ssg"])
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert (out / "compare.svg").read_text().count("<polyline") == 2

    def test_envelope_emits_svg(self, tmp_path):
        cfg = write_cfg(tmp_path, runs=3, methods=["admm", "ssg"])
        out = tmp_path / "out"
        assert cli.main(["envelope", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert (out / "envelope.svg").read_text().count("<polyline") == 3

    def test_rate_prints_slope(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, K=60, runs=2)
        assert cli.main(["rate", "--config", str(cfg),
                         "--k-min", "20", "--k-max", "60"]) == 0
        assert "log-log slope" in capsys.readouterr().out

    def test_sparsity_table_writes_json(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, K=20)
        out = tmp_path / "out"
        assert cli.main(["sparsity-table", "--config", str(cfg),
                         "--out", str(out), "--betas", "0,0.05,2.0"]) == 0
        payload = json.loads((out / "sparsity_table.json").read_text())
        assert payload["betas"] == [0.0, 0.05, 2.0]
        assert set(payload["fractions"]) == {"paper_power", "constant_1"}

    def test_grad_check_passes(self, capsys):
        assert cli.main(["grad-check"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_fem_verify_passes(self, monkeypatch, capsys):
        passing = CheckReport(name="fem_verify", passed=True,
                              details=[{"h": [0.25], "errors": [0.1],
                                        "orders": [2.0]}])
        monkeypatch.setattr(cli.harness, "fem_verify", lambda: passing)
        assert cli.main(["fem-verify"]) == 0
        assert "orders" in capsys.readouterr().out
