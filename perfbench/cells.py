"""One timed pass over a workload's cells, with every answer checked.

A cell times the three public calls a user makes, ``CollocationSolver.fit``,
``error_report`` and ``CollocationSolver.predict``, and then, outside the
timed region, checks the answers against the cell's pinned reference.
"""

from __future__ import annotations

import gc
import math
import time
import traceback
from contextlib import nullcontext

import numpy as np
from splinecol import STABILITY_KNOTS, CollocationSolver, error_report, make_example

from calibration import HostSpeed

perf = time.perf_counter

#: Of each cell's predict points, how many are compared against a lattice
#: evaluation of the field.
PREDICT_CHECKED = 25
PREDICT_RTOL = 1e-9
#: One-sided tolerance on e_T and e_DT relative to the pinned reference.
ERROR_RTOL = 1e-6
#: The unstable cells of the stability experiment must stay above this e_T.
UNSTABLE_FLOOR = 1e3


def make_problems(workload) -> dict:
    return {example: make_example(example) for example in workload.examples}


def predict_points(workload, problems, seed) -> list:
    """Uniform points in each cell's parametric box, drawn from the seed."""
    points = []
    for index, cell in enumerate(workload.cells):
        kvs = problems[cell.example].geometry.kvs
        rng = np.random.default_rng([seed, index])
        lo = [kv.start for kv in kvs]
        hi = [kv.end for kv in kvs]
        points.append(rng.uniform(lo, hi, size=(workload.predict_points, len(kvs))))
    return points


def _solver(cell):
    params = dict(method=cell.method, n_per_dir=cell.n, m_per_dir=cell.m, scheme=cell.scheme)
    if cell.stability_knots:
        params["interior_knots"] = STABILITY_KNOTS
    return CollocationSolver(**params)


def _gate(cell, shape, e_t, e_dt):
    """Reasons the cell's answers break its pinned reference (empty if none)."""
    reasons = []
    if tuple(shape) != tuple(cell.shape):
        reasons.append(f"matrix shape {tuple(shape)} != pinned {cell.shape}")
    if not math.isfinite(e_t):
        reasons.append(f"e_T is {e_t}")
    elif cell.unstable:
        if e_t < UNSTABLE_FLOOR:
            reasons.append(f"e_T {e_t:.6g} no longer unstable (floor {UNSTABLE_FLOOR:g})")
    else:
        if e_t > cell.e_T * (1 + ERROR_RTOL):
            reasons.append(f"e_T {e_t!r} worse than pinned {cell.e_T!r}")
        if cell.e_DT is not None and (e_dt is None or e_dt > cell.e_DT * (1 + ERROR_RTOL)):
            reasons.append(f"e_DT {e_dt!r} worse than pinned {cell.e_DT!r}")
    return reasons


def _check_predict(solver, theta, values):
    """Compare predict against single-point lattice evaluations of the field."""
    field = solver.field_
    expected_shape = (len(theta), field.ncomp)
    if np.shape(values) != expected_shape:
        return [f"predict shape {np.shape(values)} != {expected_shape}"]
    if not np.all(np.isfinite(values)):
        return ["predict returned non-finite values"]
    step = max(1, len(theta) // PREDICT_CHECKED)
    for i in range(0, len(theta), step):
        axes = [np.array([u]) for u in theta[i]]
        ref = field.evaluate_lattice(axes).value.reshape(-1)
        scale = max(1.0, float(np.abs(ref).max()))
        if np.abs(values[i] - ref).max() > PREDICT_RTOL * scale:
            return [f"predict at {tuple(theta[i])} gives {values[i]}, field gives {ref}"]
    return []


def _untraced(name, layer, fn, args):
    return fn(*args)


def run_cell(cell, problem, theta, speed, tracer=None) -> dict:
    """Fit, report and predict one cell; time the calls, then check the answers.

    Each call is made once, traced or not, so a traced cell's ``wall_s``,
    the sum of the three call times, is the time its span self times add
    up to, and measures the same work as an untraced one. The host's
    ``speed`` is sampled after each call, outside the timed calls.
    """
    solver = _solver(cell)
    call = _untraced if tracer is None else tracer.call
    out = {"cell": cell.label, "fit_s": 0.0, "report_s": 0.0, "predict_s": 0.0}
    start = perf()
    try:
        with tracer.instrumented() if tracer is not None else nullcontext():
            call("fit", "estimator", solver.fit, (problem,))
            out["fit_s"] = perf() - start
            speed.sample()
            start = perf()
            report = call("error_report", "metrics", error_report, (problem, solver.field_))
            out["report_s"] = perf() - start
            speed.sample()
            start = perf()
            values = call("predict", "estimator", solver.predict, (theta,))
            out["predict_s"] = perf() - start
            speed.sample()
    except Exception:  # a failing cell is counted and the pass goes on
        out["wall_s"] = out["fit_s"] + out["report_s"] + out["predict_s"] + perf() - start
        out["failure"] = traceback.format_exc(limit=4)
        return out

    system, solve = solver.system_, solver.solve_report_
    rows, cols = system.matrix.shape
    out.update(
        wall_s=out["fit_s"] + out["report_s"] + out["predict_s"],
        shape=[rows, cols],
        nnz=int(np.count_nonzero(system.matrix)),
        model_flops=float(solve.flop_estimate),
        cond_est=float(solve.condition_estimate),
        e_T=float(report.e_T),
        e_DT=None if report.e_DT is None else float(report.e_DT),
    )
    reasons = _gate(cell, (rows, cols), out["e_T"], out["e_DT"])
    reasons += _check_predict(solver, theta, values)
    if reasons:
        out["failure"] = "; ".join(reasons)
    return out


def run_pass(workload, problems, thetas, tracer=None, pass_index=0) -> dict:
    """Every cell of the workload once, serially, in the workload's order.

    The host's speed is sampled throughout, to calibrate the pass's times.
    """
    cells, speed = [], HostSpeed()
    for cell, theta in zip(workload.cells, thetas):
        gc.collect()
        speed.sample(force=not cells)
        problem = problems[cell.example]
        if tracer is not None:
            tracer.begin_cell()
        result = run_cell(cell, problem, theta, speed, tracer)
        if tracer is not None:
            result["trace"] = tracer.end_cell()
        cells.append(result)
    speed.sample(force=True)
    totals = {
        key: sum(c[key] for c in cells)
        for key in ("wall_s", "fit_s", "report_s", "predict_s")
    }
    return dict(
        totals,
        pass_index=pass_index,
        traced=tracer is not None,
        cells=cells,
        reference_s=speed.samples,
        speed_scale=speed.scale,
    )


def warm_up(workload, problems):
    """Run a shrunken copy of each distinct cell kind once, untimed.

    This loads lazily imported modules and fills first-call caches, so the
    first timed pass measures the same work as the later ones.
    """
    seen = set()
    for cell in workload.cells:
        key = (cell.example, cell.method, cell.scheme, cell.stability_knots)
        if key in seen:
            continue
        seen.add(key)
        solver = _solver(cell)
        if not cell.stability_knots:
            small = 6 if cell.example != "I" else 20
            solver.set_params(n_per_dir=small, m_per_dir=None if cell.m is None else small + 2)
        problem = problems[cell.example]
        solver.fit(problem)
        error_report(problem, solver.field_)
        solver.predict(np.full((4, problem.dim), 0.5))
