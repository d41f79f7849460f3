"""Benchmark harness: one runner for single solves, sweeps and the stability study.

A cell is one concrete configuration of the pipeline (fixed counts, plus
explicit interior knots for the stability study). Every run command expands
to a list of cells, runs them through :func:`run_cells` and writes one CSV
(one row per reported quantity) and one JSON file. Row order and float
formatting are deterministic so identical configurations reproduce
byte-identical files.

The environment variable ``SPLINECOL_JOBS`` controls how many cells run in
parallel (unset or 1 = serial, 0 = one per CPU); any other value that is
not a positive integer raises :class:`ConfigError`.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from ._validation import per_direction
from .collocation import build_field_from_knots
from .config import ExperimentConfig
from .errors import ConfigError, SplineColError
from .estimator import CollocationSolver, point_counts
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


@dataclass(frozen=True)
class Cell:
    """One concrete run: counts fixed (no sequences), optional interior knots."""

    config: ExperimentConfig
    interior_knots: tuple | None = None


@dataclass(frozen=True)
class CellResult:
    """The rows of one cell, its report and solver summary, or its error."""

    cell: Cell
    rows: list
    report: dict | None = None
    solver: dict | None = None
    error: SplineColError | None = None

    def to_dict(self) -> dict:
        knots = self.cell.interior_knots
        return {
            "config": self.cell.config.to_dict(),
            "interior_knots": None if knots is None else list(knots),
            "report": self.report,
            "solver": self.solver,
        }


def sweep_cells(config: ExperimentConfig) -> list[Cell]:
    """One cell per ``m_seq`` or ``n_seq`` step, else the configuration itself."""
    if config.n is None and not config.n_seq:
        raise ConfigError(f"method {config.method!r} needs control counts n")
    if config.m_seq:
        return [Cell(replace(config, m=m, m_seq=())) for m in config.m_seq]
    if config.n_seq:
        return [Cell(replace(config, n=n, n_seq=())) for n in config.n_seq]
    return [Cell(config)]


def stability_cells(config: ExperimentConfig) -> list[Cell]:
    """The 1D stability experiment: interpolatory vs least-squares collocation.

    The mixed-boundary example V on the non-uniform stability knots, with
    m = n (igac) and with the configuration's m points (igal_fixed), each
    at uniform and Greville points.
    """
    return [
        Cell(
            replace(config, example="V", method=method, scheme=scheme, n=None,
                    m=config.m if method == "igal_fixed" else None),
            STABILITY_KNOTS,
        )
        for method in ("igac", "igal_fixed")
        for scheme in ("uniform", "greville")
    ]


def _counts_label(counts):
    return "x".join(str(c) for c in counts)


#: Each example is built once per process, so a sweep's cells share its samples.
_example = functools.cache(make_example)


def solve_cell(cell: Cell) -> CellResult:
    """Run one cell; a library error fails the cell and is kept on its result."""
    config = cell.config
    problem = _example(config.example)
    solver = CollocationSolver(
        method=config.method,
        n_per_dir=config.n,
        m_per_dir=config.m,
        scheme=config.scheme,
        boundary_weight=config.boundary_weight,
        interior_knots=cell.interior_knots,
    )
    base = dict.fromkeys(CSV_COLUMNS)
    base.update(
        example=config.example,
        method=config.method,
        scheme=config.scheme,
    )
    start = time.perf_counter()
    try:
        # Labelled by the calls the fit makes, so a cell that fails later
        # still names its counts.
        if cell.interior_knots is None:
            n_counts = per_direction(config.n, problem.dim, "n_per_dir")
        else:
            n_counts = build_field_from_knots(problem.geometry, cell.interior_knots).shape
        base["n_per_dir"] = _counts_label(n_counts)
        base["m_per_dir"] = _counts_label(point_counts(config.method, n_counts, config.m))
        solver.fit(problem)
        report = error_report(problem, solver.field_, quad_order=config.quad_order)
    except SplineColError as exc:
        row = dict(
            base,
            seconds=time.perf_counter() - start,
            stable=False,
            error=f"{type(exc).__name__}: {exc}",
        )
        return CellResult(cell, [row], error=exc)
    elapsed = time.perf_counter() - start
    solve = solver.solve_report_
    rows = [
        dict(
            base,
            quantity=q.name,
            e_T=q.relative,
            e_DT=report.e_DT,
            max_abs=q.max_abs,
            flops=solve.flop_estimate,
            seconds=elapsed,
            stable=q.relative <= STABILITY_THRESHOLD,
        )
        for q in report.quantities
    ]
    solver_summary = {
        "method": solve.method,
        "residual_norm": solve.residual_norm,
        "flop_estimate": solve.flop_estimate,
        "condition_estimate": solve.condition_estimate,
    }
    return CellResult(cell, rows, report.to_dict(), solver_summary)


def run_cells(cells, output=None, summary=False):
    """Run ``cells`` in order, serially or on ``SPLINECOL_JOBS`` workers.

    Returns the results and the JSON payload; with ``output`` set, writes
    the rows to ``<output>.csv`` and the payload to ``<output>.json``. The
    payload holds every cell (``cells``: its configuration, interior knots,
    error report and solver summary; the last two None when it failed) and
    every row (``rows``). With ``summary``, it also maps each cell that ran
    to its e_T and stability flag under ``"<method>_<scheme>"``.
    """
    jobs = _parallel_jobs()
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            results = list(pool.map(solve_cell, cells))
    else:
        results = [solve_cell(cell) for cell in cells]
    rows = [row for result in results for row in result.rows]
    payload = {"cells": [result.to_dict() for result in results], "rows": rows}
    if summary:
        payload["summary"] = {
            f"{row['method']}_{row['scheme']}": {"e_T": row["e_T"], "stable": row["stable"]}
            for row in rows
            if not row["error"]
        }
    if output:
        write_outputs(output, payload)
    return results, payload


def write_outputs(stem, payload):
    """``payload["rows"]`` to ``<stem>.csv`` and ``payload`` to ``<stem>.json``."""
    with open(f"{stem}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in payload["rows"]:
            writer.writerow({k: _fmt(row[k]) for k in CSV_COLUMNS})
    with open(f"{stem}.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
    except ValueError:
        jobs = None
    if jobs is None or jobs < 0:
        raise ConfigError(f"SPLINECOL_JOBS must be a non-negative integer, got {raw!r}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs
