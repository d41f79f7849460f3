"""Benchmark harness: single solves, convergence sweeps, stability study.

Every run produces rows with a fixed column set suitable for plotting;
rows serialize to CSV (one row per reported quantity) and the full
reports to JSON. Row order and float formatting are deterministic so
identical configurations reproduce byte-identical files.

The environment variable ``SPLINECOL_JOBS`` controls how many convergence
cells run in parallel (unset or 1 = serial, 0 = one per CPU); any other
value that is not a positive integer raises :class:`ConfigError`.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError, SplineColError
from .estimator import CollocationSolver
from .metrics import error_report
from .problems import STABILITY_KNOTS, make_example
from .solvers import flop_cost_model

CSV_COLUMNS = (
    "example",
    "method",
    "scheme",
    "quantity",
    "n_per_dir",
    "m_per_dir",
    "e_T",
    "e_DT",
    "max_abs",
    "flops",
    "seconds",
    "stable",
    "error",
)

#: Runs whose relative solution error exceeds this are flagged unstable
#: rather than treated as failures.
STABILITY_THRESHOLD = 10.0


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k)) for k in CSV_COLUMNS})


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _counts_label(counts):
    return "x".join(str(c) for c in counts)


def solve_cell(config: ExperimentConfig, n=None, m=None, interior_knots=None):
    """Run one (n, m) cell of the pipeline and report rows + diagnostics."""
    problem = make_example(config.example)
    dim = problem.dim
    n = n if n is not None else config.n
    m = m if m is not None else config.m
    solver = CollocationSolver(
        method=config.method,
        n_per_dir=n,
        m_per_dir=m,
        scheme=config.scheme,
        boundary_weight=config.boundary_weight,
        interior_knots=interior_knots,
    )
    start = time.perf_counter()
    rows = []
    base = {
        "example": config.example,
        "method": config.method,
        "scheme": config.scheme,
        "n_per_dir": None if n is None else _counts_label(np.atleast_1d(n)),
        "m_per_dir": None if m is None else _counts_label(np.atleast_1d(m)),
    }
    try:
        solver.fit(problem)
        report = error_report(problem, solver.field_, quad_order=config.quad_order)
        elapsed = time.perf_counter() - start
        n_dirs = tuple(kv.n_basis for kv in solver.field_.kvs)
        m_dirs = tuple(len(a) for a in solver.points_.axes)
        base["n_per_dir"] = _counts_label(n_dirs)
        base["m_per_dir"] = _counts_label(m_dirs)
        for q in report.quantities:
            rows.append(
                dict(
                    base,
                    quantity=q.name,
                    e_T=q.relative,
                    e_DT=report.e_DT,
                    max_abs=q.max_abs,
                    flops=solver.solve_report_.flop_estimate,
                    seconds=elapsed,
                    stable=q.relative <= STABILITY_THRESHOLD,
                    error=None,
                )
            )
        return rows, report, solver.solve_report_
    except SplineColError as exc:
        elapsed = time.perf_counter() - start
        rows.append(
            dict(
                base,
                quantity=None,
                e_T=None,
                e_DT=None,
                max_abs=None,
                flops=None,
                seconds=elapsed,
                stable=False,
                error=f"{type(exc).__name__}: {exc}",
            )
        )
        return rows, None, None


def _require_counts(config: ExperimentConfig):
    if config.n is None and not config.n_seq:
        raise ConfigError(f"method {config.method!r} needs control counts n")


def run_solve(config: ExperimentConfig):
    """Full pipeline for a single configuration; writes CSV + JSON reports."""
    _require_counts(config)
    rows, report, solve_report = solve_cell(config)
    if report is None:
        raise SplineColError(rows[0]["error"])
    payload = {
        "config": config.to_dict(),
        "report": report.to_dict(),
        "solver": {
            "method": solve_report.method,
            "residual_norm": solve_report.residual_norm,
            "flop_estimate": solve_report.flop_estimate,
            "condition_estimate": solve_report.condition_estimate,
        },
        "rows": rows,
    }
    _write_outputs(config, rows, payload)
    return rows, report, solve_report


def _convergence_cells(config: ExperimentConfig):
    cells = []
    if config.m_seq:
        for m in config.m_seq:
            cells.append({"n": config.n, "m": m})
    elif config.n_seq:
        for n in config.n_seq:
            cells.append({"n": n, "m": None})
    else:
        cells.append({"n": config.n, "m": config.m})
    return cells


def _run_cell_task(args):
    config_dict, cell = args
    config = ExperimentConfig.from_dict(config_dict)
    rows, _, _ = solve_cell(config, n=cell["n"], m=cell["m"])
    return rows


def run_convergence(config: ExperimentConfig):
    """One row group per (n, m) cell, in configuration order.

    A failing cell annotates its row and the sweep continues.
    """
    _require_counts(config)
    cells = _convergence_cells(config)
    jobs = _parallel_jobs()
    if jobs > 1 and len(cells) > 1:
        args = [(config.to_dict(), cell) for cell in cells]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            groups = list(pool.map(_run_cell_task, args))
    else:
        groups = [solve_cell(config, n=cell["n"], m=cell["m"])[0] for cell in cells]
    rows = [row for group in groups for row in group]
    payload = {"config": config.to_dict(), "rows": rows}
    _write_outputs(config, rows, payload)
    return rows


def run_stability(config: ExperimentConfig):
    """The 1D stability experiment: interpolatory vs least-squares collocation.

    Solves the mixed-boundary problem on the non-uniform knot vector with
    both point layouts, interpolatory (m = n) and least-squares (m points),
    and flags each run stable or unstable.
    """
    if config.example != "V":
        raise SplineColError("the stability experiment is defined for example V")
    m = config.m or (16,)
    rows = []
    summary = {}
    for method, m_counts in (("igac", None), ("igal_fixed", m)):
        for scheme in ("uniform", "greville"):
            cell_cfg = ExperimentConfig(
                example="V",
                method=method,
                scheme=scheme,
                m=m_counts,
                quad_order=config.quad_order,
                boundary_weight=config.boundary_weight,
            )
            cell_rows, report, _ = solve_cell(
                cell_cfg, interior_knots=STABILITY_KNOTS
            )
            rows.extend(cell_rows)
            e_t = report.e_T if report is not None else float("inf")
            summary[f"{method}_{scheme}"] = {
                "e_T": e_t,
                "stable": bool(e_t <= STABILITY_THRESHOLD),
            }
    payload = {"config": config.to_dict(), "summary": summary, "rows": rows}
    _write_outputs(config, rows, payload)
    return rows, summary


def cost_model_rows(dimension, degree, n, m, kind="scalar", bracketed=False):
    model = flop_cost_model(dimension, degree, n, m, kind, bracketed)
    rows = [
        ("solve 1st derivatives / point", model.first_derivs),
        ("rhs + 2nd derivatives / point", model.second_derivs),
        ("basis total / point", model.basis_total),
    ]
    if model.navier_global is not None:
        rows.append(("equilibrium equations / point", model.navier_global))
    rows.append(("local rows total / point", model.point_total))
    rows.append(("square solve (m = n)", model.solve_igac))
    rows.append(("least-squares solve", model.solve_igal))
    return rows


def _parallel_jobs() -> int:
    raw = os.environ.get("SPLINECOL_JOBS", "1")
    try:
        jobs = int(raw)
        if jobs < 0:
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"SPLINECOL_JOBS must be a non-negative integer, got {raw!r}"
        ) from None
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _write_outputs(config: ExperimentConfig, rows, payload):
    if not config.output:
        return
    write_csv(f"{config.output}.csv", rows)
    write_json(f"{config.output}.json", payload)
