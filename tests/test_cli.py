"""Configuration handling, CLI commands, output files and exit codes."""

import csv
import json
import os
import re

import numpy as np
import pytest

import splinecol.cli as cli
from splinecol.bench import _parallel_jobs, run_convergence, run_solve, run_stability
from splinecol.config import ExperimentConfig
from splinecol.errors import (
    AssemblyError,
    ConfigError,
    SingularSystemError,
)


#: Integer configuration fields given values that are not whole numbers.
NON_INTEGER_FIELDS = [("n", [10.6]), ("n", 10.6), ("quad_order", "x"), ("quad_order", 5.5)]


class TestConfig:
    def test_roundtrip(self):
        config = ExperimentConfig(
            example="II",
            method="igal_fixed",
            n=(15, 15),
            m=(20, 20),
            quad_order=6,
            boundary_weight=2.5,
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            ExperimentConfig.from_dict({"points": 3})

    def test_seed_is_not_a_key(self):
        # The pipeline has no randomness, so there is nothing to seed.
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({"example": "I", "seed": 0})

    def test_method_consistency_rules(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(method="igal_fixed", n=(10,))  # missing m
        with pytest.raises(ConfigError):
            ExperimentConfig(method="igal_variable", n=(10,), m=(12,))
        with pytest.raises(ConfigError):
            ExperimentConfig(method="igac", n=(10,), m=(12,))
        with pytest.raises(ConfigError):
            ExperimentConfig(example="VI")

    def test_scalar_counts_normalized(self):
        config = ExperimentConfig(example="II", method="igac", n=15)
        assert config.n == (15,)

    @pytest.mark.parametrize("key,value", NON_INTEGER_FIELDS)
    def test_non_integer_field_rejected(self, key, value):
        data = {"example": "I", "method": "igac", "n": [10], key: value}
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(data)


class TestBench:
    def test_run_solve_writes_outputs(self, tmp_path):
        config = ExperimentConfig(
            example="I", method="igac", n=(8,), output=str(tmp_path / "run")
        )
        rows, report, solve_report = run_solve(config)
        assert (tmp_path / "run.csv").exists()
        assert (tmp_path / "run.json").exists()
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["config"]["example"] == "I"
        assert payload["rows"][0]["quantity"] == "T"

    def test_csv_determinism(self, tmp_path):
        # Identical configurations must reproduce identical result columns;
        # only the wall-clock column may differ between runs.
        def run(stem):
            config = ExperimentConfig(
                example="I", method="igal_fixed", n=(9,), m=(13,),
                output=str(tmp_path / stem),
            )
            run_solve(config)
            with open(tmp_path / f"{stem}.csv") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                row.pop("seconds")
            return rows

        assert run("a") == run("b")

    def test_convergence_continues_after_cell_failure(self):
        config = ExperimentConfig(
            example="I", method="igac", n_seq=[(3,), (8,)]
        )
        rows = run_convergence(config)
        assert rows[0]["error"] is not None  # n below the geometry count
        assert rows[1]["error"] is None
        assert rows[1]["e_T"] < 0.2

    def test_convergence_sweep_over_m(self):
        config = ExperimentConfig(
            example="I", method="igal_fixed", n=(9,), m_seq=[(11,), (13,), (15,)]
        )
        rows = run_convergence(config)
        assert [r["m_per_dir"] for r in rows] == ["11", "13", "15"]

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        config = ExperimentConfig(example="I", method="igac", n_seq=[(6,), (8,)])
        serial = run_convergence(config)
        monkeypatch.setenv("SPLINECOL_JOBS", "2")
        parallel = run_convergence(config)
        for a, b in zip(serial, parallel):
            assert a["e_T"] == b["e_T"]
            assert a["n_per_dir"] == b["n_per_dir"]

    def test_low_quad_order_marks_row_failed(self):
        config = ExperimentConfig(
            example="I", method="igac", n_seq=[(8,), (10,)], quad_order=2
        )
        rows = run_convergence(config)
        assert len(rows) == 2
        for row in rows:
            assert row["error"].startswith("PreconditionError")
            assert "quad_order 2" in row["error"]

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_jobs_variable_rejected(self, monkeypatch, value):
        monkeypatch.setenv("SPLINECOL_JOBS", value)
        config = ExperimentConfig(example="I", method="igac", n_seq=[(6,), (8,)])
        with pytest.raises(ConfigError, match=f"SPLINECOL_JOBS.*{re.escape(repr(value))}"):
            run_convergence(config)

    def test_jobs_variable_meanings(self, monkeypatch):
        monkeypatch.delenv("SPLINECOL_JOBS", raising=False)
        assert _parallel_jobs() == 1
        monkeypatch.setenv("SPLINECOL_JOBS", "1")
        assert _parallel_jobs() == 1
        monkeypatch.setenv("SPLINECOL_JOBS", "0")
        assert _parallel_jobs() == (os.cpu_count() or 1)

    def test_fixed_control_points_plateau(self):
        # With the control points fixed, adding collocation points first
        # reduces the error, then levels off near a steady value.
        config = ExperimentConfig(
            example="I", method="igal_fixed", n=(9,),
            m_seq=[(m,) for m in range(9, 18)],
        )
        rows = run_convergence(config)
        errors = np.array([r["e_T"] for r in rows])
        assert errors[-1] < errors[0]
        assert errors[-1] / errors.min() < 3.0

    def test_variable_strategy_beats_interpolatory_at_equal_n(self):
        for n in range(6, 15):
            cfg_c = ExperimentConfig(example="I", method="igac", n=(n,))
            cfg_v = ExperimentConfig(example="I", method="igal_variable", n=(n,))
            e_c = run_solve(cfg_c)[0][0]["e_T"]
            e_v = run_solve(cfg_v)[0][0]["e_T"]
            assert e_v < e_c

    def test_single_entry_sweep_reduces_to_solve(self):
        sweep = ExperimentConfig(example="I", method="igac", n_seq=[(8,)])
        single = ExperimentConfig(example="I", method="igac", n=(8,))
        row_sweep = run_convergence(sweep)[0]
        row_single = run_solve(single)[0][0]
        for key in ("e_T", "e_DT", "max_abs", "flops", "n_per_dir", "m_per_dir"):
            assert row_sweep[key] == row_single[key]

    def test_stability_summary(self):
        config = ExperimentConfig(example="V", method="igal_fixed", m=(16,))
        rows, summary = run_stability(config)
        assert len(rows) == 4
        assert not summary["igac_uniform"]["stable"]
        assert not summary["igac_greville"]["stable"]
        assert summary["igal_fixed_uniform"]["stable"]
        assert summary["igal_fixed_greville"]["stable"]

    def test_missing_counts(self):
        with pytest.raises(ConfigError):
            run_solve(ExperimentConfig(example="I", method="igac"))


class TestCli:
    def test_solve_command(self, tmp_path, capsys):
        code = cli.main(
            ["solve", "--example", "I", "--method", "igal_fixed",
             "-n", "10", "-m", "16", "-o", str(tmp_path / "out")]
        )
        assert code == 0
        assert (tmp_path / "out.csv").exists()
        out = capsys.readouterr().out
        assert "e_T" in out and "normal_cholesky" in out

    def test_solve_with_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"example": "I", "method": "igac", "n": [8]})
        )
        code = cli.main(["solve", "--config", str(cfg), "-n", "10"])
        assert code == 0
        assert "n=10" in capsys.readouterr().out

    def test_converge_command(self, tmp_path):
        code = cli.main(
            ["converge", "--example", "I", "--method", "igac",
             "--method", "igal_variable", "--n-seq", "6", "--n-seq", "8",
             "-o", str(tmp_path / "conv")]
        )
        assert code == 0
        with open(tmp_path / "conv.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"igac", "igal_variable"}

    @pytest.mark.parametrize(
        "flags,failed,code",
        [
            (["--n-seq", "6", "--n-seq", "8", "--boundary-weight", "0"], 2, cli.EXIT_OTHER),
            (["--n-seq", "3", "--n-seq", "8"], 1, 0),
        ],
    )
    def test_converge_exits_nonzero_only_when_every_cell_failed(
        self, tmp_path, capsys, flags, failed, code
    ):
        # The rows are printed and written either way; a sweep in which
        # nothing ran is an error a script can see.
        out = tmp_path / "conv"
        argv = ["converge", "--example", "I", "--method", "igac", *flags, "-o", str(out)]
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out.count("FAILED") == failed
        assert ("every cell of the sweep failed" in captured.err) == (code != 0)
        with open(f"{out}.csv") as fh:
            assert sum(bool(r["error"]) for r in csv.DictReader(fh)) == failed

    def test_stability_command(self, tmp_path, capsys):
        code = cli.main(["stability", "-o", str(tmp_path / "stab")])
        assert code == 0
        out = capsys.readouterr().out
        assert "UNSTABLE" in out and "stable" in out
        payload = json.loads((tmp_path / "stab.json").read_text())
        assert set(payload["summary"]) == {
            "igac_uniform", "igac_greville",
            "igal_fixed_uniform", "igal_fixed_greville",
        }

    @pytest.mark.parametrize(
        "flags",
        [["--method", "igac"], ["--example", "II"], ["--scheme", "uniform"], ["-n", "40"]],
    )
    def test_stability_rejects_options_it_ignores(self, flags, capsys):
        # The experiment fixes example V, both methods and both schemes.
        with pytest.raises(SystemExit) as exc:
            cli.main(["stability", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,m", [([], 24), (["-m", "20"], 20)], ids=["file", "flag-over-file"]
    )
    def test_stability_config_file_sets_m(self, tmp_path, capsys, argv, m):
        cfg = tmp_path / "stab.json"
        cfg.write_text(json.dumps({"m": [24]}))
        assert cli.main(["stability", "--config", str(cfg), *argv]) == 0
        out = capsys.readouterr().out
        assert f"m={m} " in out and "m=16" not in out

    @pytest.mark.parametrize(
        "key,value",
        [("example", "II"), ("method", "igal_fixed"), ("scheme", "uniform"), ("n", [40])],
    )
    def test_stability_config_file_rejects_fixed_keys(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "stab.json"
        cfg.write_text(json.dumps({key: value, "m": [24]}))
        assert cli.main(["stability", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err

    def test_seed_flag_removed(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["solve", "--example", "I", "--method", "igac", "-n", "8",
                      "--seed", "1"])
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_low_quad_order_exit_code(self, capsys):
        code = cli.main(
            ["solve", "--example", "I", "--method", "igac", "-n", "10",
             "--quad-order", "2"]
        )
        assert code == cli.EXIT_OTHER
        err = capsys.readouterr().err
        assert "PreconditionError" in err and "quad_order 2" in err

    def test_cost_model_bracketed_flag(self, capsys):
        code = cli.main(
            ["cost-model", "--dimension", "2", "--degree", "3",
             "-n", "15", "-m", "20", "--kind", "vector", "--bracketed"]
        )
        assert code == 0
        assert "2,213" in capsys.readouterr().out  # 136 (p+1)^2 + 37 at p = 3

    def test_cost_model_command(self, capsys):
        code = cli.main(
            ["cost-model", "--dimension", "2", "--degree", "3",
             "-n", "15", "-m", "20", "--kind", "vector"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2,177" in out  # 134 (p+1)^2 + 33 at p = 3

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"example": "I", "method": "igal_fixed", "n": [10]}))
        code = cli.main(["solve", "--config", str(cfg)])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("key,value", NON_INTEGER_FIELDS)
    def test_non_integer_config_field_exit_code(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"example": "I", "method": "igac", "n": [10], key: value}))
        assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_missing_counts_exit_code(self):
        assert cli.main(["solve", "--example", "I", "--method", "igac"]) == cli.EXIT_CONFIG

    def test_assembly_and_solver_exit_codes(self, monkeypatch):
        def boom_assembly(config):
            raise AssemblyError("singular geometry at interior point (0.5,)")

        monkeypatch.setattr(cli, "run_solve", boom_assembly)
        code = cli.main(["solve", "--example", "I", "--method", "igac", "-n", "8"])
        assert code == cli.EXIT_ASSEMBLY

        def boom_solver(config):
            raise SingularSystemError("pivot below tolerance")

        monkeypatch.setattr(cli, "run_solve", boom_solver)
        code = cli.main(["solve", "--example", "I", "--method", "igac", "-n", "8"])
        assert code == cli.EXIT_SOLVER
