"""Configuration handling, CLI commands, output files and exit codes."""

import csv
import json
import os
import re

import numpy as np
import pytest

import splinecol.cli as cli
from splinecol.bench import _parallel_jobs, run_cells, stability_cells, sweep_cells
from splinecol.config import ExperimentConfig
from splinecol.errors import (
    AssemblyError,
    ConfigError,
    RankDeficientError,
    SingularSystemError,
)


#: Integer configuration fields given values that are not whole numbers.
NON_INTEGER_FIELDS = [("n", [10.6]), ("n", 10.6), ("quad_order", "x"), ("quad_order", 5.5)]


def sweep_rows(config):
    """The rows of every cell of ``config``, in order, written nowhere."""
    return run_cells(sweep_cells(config))[1]["rows"]


def csv_rows(path):
    """A CSV file's rows without the wall-clock column."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row.pop("seconds")
    return rows


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
            ExperimentConfig(method="igac", n=(10,), m_seq=[(12,)])
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
        run_cells(sweep_cells(config), config.output)
        assert (tmp_path / "run.csv").exists()
        assert (tmp_path / "run.json").exists()
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["cells"][0]["config"]["example"] == "I"
        assert payload["rows"][0]["quantity"] == "T"

    def test_csv_determinism(self, tmp_path):
        # Identical configurations must reproduce identical result columns;
        # only the wall-clock column may differ between runs.
        def run(stem):
            config = ExperimentConfig(
                example="I", method="igal_fixed", n=(9,), m=(13,),
                output=str(tmp_path / stem),
            )
            run_cells(sweep_cells(config), config.output)
            return csv_rows(tmp_path / f"{stem}.csv")

        assert run("a") == run("b")

    def test_convergence_continues_after_cell_failure(self):
        config = ExperimentConfig(
            example="I", method="igac", n_seq=[(3,), (8,)]
        )
        rows = sweep_rows(config)
        assert rows[0]["error"] is not None  # n below the geometry count
        assert rows[1]["error"] is None
        assert rows[1]["e_T"] < 0.2

    def test_convergence_sweep_over_m(self):
        config = ExperimentConfig(
            example="I", method="igal_fixed", n=(9,), m_seq=[(11,), (13,), (15,)]
        )
        rows = sweep_rows(config)
        assert [r["m_per_dir"] for r in rows] == ["11", "13", "15"]

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        config = ExperimentConfig(example="I", method="igac", n_seq=[(6,), (8,)])
        serial = sweep_rows(config)
        monkeypatch.setenv("SPLINECOL_JOBS", "2")
        parallel = sweep_rows(config)
        for a, b in zip(serial, parallel):
            assert a["e_T"] == b["e_T"]
            assert a["n_per_dir"] == b["n_per_dir"]

    def test_low_quad_order_marks_row_failed(self):
        config = ExperimentConfig(
            example="I", method="igac", n_seq=[(8,), (10,)], quad_order=2
        )
        rows = sweep_rows(config)
        assert len(rows) == 2
        for row in rows:
            assert row["error"].startswith("PreconditionError")
            assert "quad_order 2" in row["error"]

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_jobs_variable_rejected(self, monkeypatch, value):
        monkeypatch.setenv("SPLINECOL_JOBS", value)
        config = ExperimentConfig(example="I", method="igac", n_seq=[(6,), (8,)])
        with pytest.raises(ConfigError, match=f"SPLINECOL_JOBS.*{re.escape(repr(value))}"):
            sweep_rows(config)

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
        rows = sweep_rows(config)
        errors = np.array([r["e_T"] for r in rows])
        assert errors[-1] < errors[0]
        assert errors[-1] / errors.min() < 3.0

    def test_variable_strategy_beats_interpolatory_at_equal_n(self):
        for n in range(6, 15):
            cfg_c = ExperimentConfig(example="I", method="igac", n=(n,))
            cfg_v = ExperimentConfig(example="I", method="igal_variable", n=(n,))
            e_c = sweep_rows(cfg_c)[0]["e_T"]
            e_v = sweep_rows(cfg_v)[0]["e_T"]
            assert e_v < e_c

    def test_single_entry_sweep_reduces_to_solve(self):
        sweep = ExperimentConfig(example="I", method="igac", n_seq=[(8,)])
        single = ExperimentConfig(example="I", method="igac", n=(8,))
        row_sweep = sweep_rows(sweep)[0]
        row_single = sweep_rows(single)[0]
        for key in ("e_T", "e_DT", "max_abs", "flops", "n_per_dir", "m_per_dir"):
            assert row_sweep[key] == row_single[key]

    def test_stability_summary(self):
        config = ExperimentConfig(example="V", method="igal_fixed", m=(16,))
        _, payload = run_cells(stability_cells(config), summary=True)
        rows, summary = payload["rows"], payload["summary"]
        assert len(rows) == 4
        assert not summary["igac_uniform"]["stable"]
        assert not summary["igac_greville"]["stable"]
        assert summary["igal_fixed_uniform"]["stable"]
        assert summary["igal_fixed_greville"]["stable"]

    def test_missing_counts(self):
        with pytest.raises(ConfigError):
            sweep_cells(ExperimentConfig(example="I", method="igac"))


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

    def test_verbose_logs_stage_seconds(self, capsys, caplog):
        # -v sends one line per fit and per error report to stderr; without
        # it nothing is logged.
        argv = ["solve", "--example", "I", "--method", "igac", "-n", "10"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == "" and caplog.records == []
        assert cli.main(argv + ["-v"]) == 0
        fit, report = [r.getMessage() for r in caplog.records]
        assert fit.startswith("fit I igac: refine=") and "solve=" in fit
        assert report.startswith("error_report I: samples=") and "integrate=" in report
        assert capsys.readouterr().err.splitlines() == [fit, report]

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

    def test_failed_knot_cells_are_labelled_with_their_counts(self, tmp_path, capsys):
        # The stability knots give 10 basis functions; igac collocates at
        # as many points, igal_fixed at the configured 16.
        out = tmp_path / "stab"
        argv = ["stability", "--boundary-weight", "0", "-o", str(out)]
        assert cli.main(argv) == cli.EXIT_OTHER
        failed = [line for line in capsys.readouterr().out.splitlines() if "FAILED" in line]
        assert [line.split()[3:5] for line in failed] == [
            ["n=10", "m=10"], ["n=10", "m=10"], ["n=10", "m=16"], ["n=10", "m=16"],
        ]
        with open(f"{out}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["n_per_dir"], r["m_per_dir"]) for r in rows] == [
            ("10", "10"), ("10", "10"), ("10", "16"), ("10", "16"),
        ]

    def test_stability_exits_nonzero_when_no_cell_ran(self, tmp_path, capsys):
        # A configuration error in every cell is not an unstable method:
        # each cell prints one FAILED line naming its scheme, no summary
        # entry claims an e_T, and the command exits 1.
        out = tmp_path / "stab"
        argv = ["stability", "--boundary-weight", "0", "-o", str(out)]
        assert cli.main(argv) == cli.EXIT_OTHER
        captured = capsys.readouterr()
        failed = [line for line in captured.out.splitlines() if "FAILED" in line]
        assert [line.split()[1:3] for line in failed] == [
            ["igac", "uniform"], ["igac", "greville"],
            ["igal_fixed", "uniform"], ["igal_fixed", "greville"],
        ]
        assert "e_T=inf" not in captured.out and "UNSTABLE" not in captured.out
        assert "every cell of the sweep failed" in captured.err
        assert json.loads(out.with_suffix(".json").read_text())["summary"] == {}

    @pytest.mark.parametrize(
        "argv",
        [
            ["stability"],
            ["converge", "--example", "I", "--method", "igac",
             "--method", "igal_variable", "--n-seq", "6", "--n-seq", "8"],
        ],
        ids=["stability", "converge"],
    )
    def test_parallel_rows_equal_serial_rows(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.delenv("SPLINECOL_JOBS", raising=False)
        assert cli.main([*argv, "-o", str(tmp_path / "serial")]) == 0
        monkeypatch.setenv("SPLINECOL_JOBS", "2")
        assert cli.main([*argv, "-o", str(tmp_path / "parallel")]) == 0
        serial = csv_rows(tmp_path / "serial.csv")
        assert serial == csv_rows(tmp_path / "parallel.csv")
        assert len(serial) == 4
        if argv[0] == "converge":  # method-major, sequence-minor
            assert [(r["method"], r["n_per_dir"]) for r in serial] == [
                ("igac", "6"), ("igac", "8"), ("igal_variable", "6"), ("igal_variable", "8"),
            ]

    def test_converge_reads_method_and_sequence_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "conv.json"
        cfg.write_text(json.dumps(
            {"example": "I", "method": "igal_variable", "n_seq": [[6], [8]]}
        ))
        out = tmp_path / "conv"
        assert cli.main(["converge", "--config", str(cfg), "-o", str(out)]) == 0
        rows = csv_rows(f"{out}.csv")
        assert [(r["method"], r["n_per_dir"]) for r in rows] == [
            ("igal_variable", "6"), ("igal_variable", "8"),
        ]

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
        [("example", "II"), ("method", "igal_fixed"), ("scheme", "uniform"), ("n", [40]),
         ("n_seq", [[10]]), ("m_seq", [[20]])],
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

    def test_cost_model_takes_flags_only(self, tmp_path, capsys):
        # Only the run commands read a configuration file.
        cfg = tmp_path / "cost.json"
        cfg.write_text(json.dumps({"dimension": 2}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["cost-model", "--config", str(cfg), "--dimension", "2",
                      "-n", "5", "-m", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

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
        def boom_assembly(*args):
            raise AssemblyError("singular geometry at interior point (0.5,)")

        monkeypatch.setattr(cli, "run_cells", boom_assembly)
        code = cli.main(["solve", "--example", "I", "--method", "igac", "-n", "8"])
        assert code == cli.EXIT_ASSEMBLY

        def boom_solver(*args):
            raise SingularSystemError("pivot below tolerance")

        monkeypatch.setattr(cli, "run_cells", boom_solver)
        code = cli.main(["solve", "--example", "I", "--method", "igac", "-n", "8"])
        assert code == cli.EXIT_SOLVER

    @pytest.mark.parametrize(
        "exc,code",
        [
            (AssemblyError("singular geometry at interior point (0.5,)"), cli.EXIT_ASSEMBLY),
            (SingularSystemError("pivot below tolerance"), cli.EXIT_SOLVER),
            (RankDeficientError("zero pivot at unknown 3", 3), cli.EXIT_SOLVER),
        ],
        ids=["assembly", "singular", "rank-deficient"],
    )
    def test_solve_keeps_the_cell_error_type(self, monkeypatch, capsys, exc, code):
        # An error raised inside the pipeline keeps its type through the
        # cell runner, so ``solve`` exits with that type's code; the sweep
        # commands record it on the row and exit 1 when no cell ran.
        def fit(self, problem, y=None):
            raise exc

        monkeypatch.setattr("splinecol.bench.CollocationSolver.fit", fit)
        assert cli.main(["solve", "--example", "I", "--method", "igac", "-n", "8"]) == code
        assert str(exc) in capsys.readouterr().err
        argv = ["converge", "--example", "I", "--n-seq", "6", "--n-seq", "8"]
        assert cli.main(argv) == cli.EXIT_OTHER
        out = capsys.readouterr().out
        assert out.count(f"FAILED: {type(exc).__name__}: {exc}") == 2
