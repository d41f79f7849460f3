"""Pipeline benchmark for splinecol: fit, error_report and predict, timed.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-2d --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --smoke

Each run is one process. It pins BLAS to one thread, leaves
``SPLINECOL_JOBS`` unset so every cell runs serially, measures set-up in
fresh interpreters, then repeats full passes over the workload's cells
until ``--seconds`` is used up. ``--trace 0`` reports the user-facing
metrics as medians over the passes; ``--trace 1`` alternates untraced and
traced passes and reports per-layer metrics, plus a per-cell table. Every
cell's answers are checked against its pinned reference. Times other than
``setup_s`` are in calibrated seconds (see ``calibration.py``): each pass
is scaled by the host speed sampled between its calls, so runs made
minutes apart on a drifting shared host stay comparable.
The last line of standard output is one JSON object; a fuller result file
with the run's metadata goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SMOKE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

END_TO_END_UNITS = {
    "wall_s": "s",
    "fit_s": "s",
    "report_s": "s",
    "predict_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "e_T.geomean": "1",
}

PER_LAYER_UNITS = {
    "splines.point_calls": "count",
    "splines.lattice_calls": "count",
    "splines.self_s": "s",
    "geometry.pullback_calls": "count",
    "geometry.self_s": "s",
    "collocation.self_s": "s",
    "collocation.rows": "count",
    "collocation.nnz": "count",
    "collocation.density": "1",
    "collocation.matrix_mb": "MB",
    "solvers.self_s": "s",
    "solvers.model_gflop": "GFLOP",
    "solvers.gflop_per_s": "GFLOP/s",
    "solvers.cond_est.max": "1",
    "problems.callback_calls": "count",
    "problems.callback_points": "count",
    "problems.self_s": "s",
    "metrics.self_s": "s",
    "metrics.quad_points": "count",
    "metrics.sample_points": "count",
    "estimator.refine_s": "s",
    "estimator.points_s": "s",
    "estimator.self_s": "s",
    "trace.overhead": "1",
}

#: Per-layer metrics that count work; they must repeat exactly between runs.
EXACT_COUNTS = tuple(
    name
    for name in PER_LAYER_UNITS
    if name.endswith(("_calls", "_points", ".rows", ".nnz", ".model_gflop"))
)

SETUP_PROBES = 9
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import splinecol\n"
    "for example in sys.argv[1:]:\n"
    "    splinecol.make_example(example)\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pin_environment():
    """One BLAS thread; serial cells; the checkout's source.

    One thread, as the host-speed reference runs on one core: with two BLAS
    threads on a 2-vCPU shared host, large-3d's calibrated times spread
    0.16-0.26 (IQR/median of 5 runs), with one thread 0.06-0.15.
    """
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("SPLINECOL_JOBS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    return nproc


def measure_setup(examples, probes=SETUP_PROBES):
    """Median time of ``import splinecol`` plus ``make_example`` in fresh processes.

    Measured seconds, not calibrated: start-up and imports do not follow the
    host-speed reference, and their measured median was the steadier one.
    """
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, *examples],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_metadata(workload, args, nproc):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "NUMPY_MADVISE_HUGEPAGE": os.environ.get("NUMPY_MADVISE_HUGEPAGE", "unset"),
        "nproc": nproc,
        "SPLINECOL_JOBS": os.environ.get("SPLINECOL_JOBS", "unset"),
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cells": [cell.label for cell in workload.cells],
    }


def run_passes(workload, problems, thetas, seconds, traced_kinds):
    """Passes cycling through ``traced_kinds`` until the time is used up.

    Every kind runs at least once; another pass starts only if the median
    elapsed time of its kind still fits in ``seconds``.
    """
    from cells import run_pass
    from tracing import Tracer

    tracer = Tracer()
    wrapped = {ex: tracer.wrap_problem(p) for ex, p in problems.items()}
    passes = []
    start = time.perf_counter()
    while True:
        traced = traced_kinds[len(passes) % len(traced_kinds)]
        t0 = time.perf_counter()
        result = run_pass(
            workload,
            wrapped if traced else problems,
            thetas,
            tracer if traced else None,
            pass_index=len(passes),
        )
        result["elapsed_s"] = time.perf_counter() - t0
        passes.append(result)
        if len(passes) < len(traced_kinds):
            continue
        upcoming = traced_kinds[len(passes) % len(traced_kinds)]
        estimate = statistics.median(
            p["elapsed_s"] for p in passes if p["traced"] == upcoming
        )
        if time.perf_counter() - start + estimate > seconds:
            return passes


def end_to_end_metrics(workload, passes, setup_s):
    """Times are per-cell medians over the untraced passes, summed over cells.

    Each pass's times are calibrated by the host speed sampled during it.
    """
    untraced = [p for p in passes if not p["traced"]]

    def summed_median(key):
        return sum(
            statistics.median(p["cells"][i][key] * p["speed_scale"] for p in untraced)
            for i in range(len(workload.cells))
        )

    e_ts = [
        c["e_T"]
        for cell, c in zip(workload.cells, untraced[0]["cells"])
        if not cell.unstable and c.get("e_T", 0.0) > 0.0
    ]
    geomean = statistics.geometric_mean(e_ts) if e_ts else float("nan")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": summed_median("wall_s"),
        "fit_s": summed_median("fit_s"),
        "report_s": summed_median("report_s"),
        "predict_s": summed_median("predict_s"),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "e_T.geomean": geomean,
    }


def pass_layer_metrics(traced_pass) -> dict:
    """Per-layer metrics of one traced pass (overhead excluded), times calibrated."""
    cells = [c for c in traced_pass["cells"] if "shape" in c]
    scale = traced_pass["speed_scale"]

    def self_s(layer):
        return scale * sum(c["trace"]["self_s"].get(layer, 0.0) for c in cells)

    def count(key):
        return sum(c["trace"]["counts"].get(key, 0) for c in cells)

    stored = sum(c["shape"][0] * c["shape"][1] for c in cells)
    nnz = sum(c["nnz"] for c in cells)
    gflop = sum(c["model_flops"] for c in cells) / 1e9
    solve_s = self_s("solvers")
    return {
        "splines.point_calls": count("evaluate.calls") + count("basis_jets.calls"),
        "splines.lattice_calls": count("evaluate_lattice.calls"),
        "splines.self_s": self_s("splines"),
        "geometry.pullback_calls": count("pullback.calls"),
        "geometry.self_s": self_s("geometry"),
        "collocation.self_s": self_s("collocation"),
        "collocation.rows": sum(c["shape"][0] for c in cells),
        "collocation.nnz": nnz,
        "collocation.density": nnz / stored if stored else 0.0,
        "collocation.matrix_mb": stored * 8 / 1e6,
        "solvers.self_s": solve_s,
        "solvers.model_gflop": gflop,
        "solvers.gflop_per_s": gflop / solve_s if solve_s > 0 else 0.0,
        "solvers.cond_est.max": max((c["cond_est"] for c in cells), default=0.0),
        "problems.callback_calls": count("callback.calls"),
        "problems.callback_points": count("callback.points"),
        "problems.self_s": self_s("problems"),
        "metrics.self_s": self_s("metrics"),
        "metrics.quad_points": count("quad_points"),
        "metrics.sample_points": count("sample_points"),
        "estimator.refine_s": self_s("estimator.refine"),
        "estimator.points_s": self_s("estimator.points"),
        "estimator.self_s": self_s("estimator"),
    }


def trace_overhead(passes):
    def wall(traced):
        return statistics.median(
            p["wall_s"] * p["speed_scale"] for p in passes if p["traced"] is traced
        )

    return wall(True) / wall(False)


def per_layer_metrics(passes) -> dict:
    """Times are medians over the traced passes; counts repeat, so the first pass's."""
    per_pass = [pass_layer_metrics(p) for p in passes if p["traced"]]
    out = {
        name: value if name in EXACT_COUNTS else statistics.median(m[name] for m in per_pass)
        for name, value in per_pass[0].items()
    }
    out["trace.overhead"] = trace_overhead(passes)
    return out


def cell_table(traced_pass) -> list[str]:
    """One row per cell: config, system, per-layer self times (measured), answers."""
    head = (
        f"{'cell':<30} {'A shape':>11} {'density':>8} {'fit':>7} {'assemble':>8} "
        f"{'report':>7} {'est':>6} {'coll':>6} {'solve':>6} {'spl':>6} {'geo':>6} "
        f"{'prob':>6} {'met':>6} {'e_T':>10} {'e_DT':>10}"
    )
    lines = [head]
    for c in traced_pass["cells"]:
        if "shape" not in c:
            lines.append(f"{c['cell']:<30} FAILED")
            continue
        t = c["trace"]["self_s"]
        est = sum(t.get(k, 0.0) for k in ("estimator", "estimator.refine", "estimator.points"))
        rows, cols = c["shape"]
        e_dt = "-" if c["e_DT"] is None else f"{c['e_DT']:.3e}"
        lines.append(
            f"{c['cell']:<30} {f'{rows}x{cols}':>11} {c['nnz'] / (rows * cols):>8.2%} "
            f"{c['fit_s']:>7.3f} {c['trace']['span_s'].get('assemble', 0.0):>8.3f} "
            f"{c['report_s']:>7.3f} {est:>6.3f} {t.get('collocation', 0.0):>6.3f} "
            f"{t.get('solvers', 0.0):>6.3f} {t.get('splines', 0.0):>6.3f} "
            f"{t.get('geometry', 0.0):>6.3f} {t.get('problems', 0.0):>6.3f} "
            f"{t.get('metrics', 0.0):>6.3f} {c['e_T']:>10.3e} {e_dt:>10}"
        )
    return lines


def failures(passes):
    return [
        (p["pass_index"], c["cell"], c["failure"])
        for p in passes
        for c in p["cells"]
        if "failure" in c
    ]


def print_metrics(metrics, units):
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {units[name]}")


def write_result(name, payload):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def run_workload(workload, args, nproc):
    from cells import make_problems, predict_points, warm_up

    setup_s, setup_times = measure_setup(workload.examples)
    problems = make_problems(workload)
    thetas = predict_points(workload, problems, args.seed)
    warm_up(workload, problems)
    kinds = (False, True) if args.trace else (False,)
    passes = run_passes(workload, problems, thetas, args.seconds, kinds)

    if args.trace:
        metrics, units = per_layer_metrics(passes), PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(workload, passes, setup_s)
        units = END_TO_END_UNITS
    broken = failures(passes)
    attempted = sum(len(p["cells"]) for p in passes)
    return {
        "meta": run_metadata(workload, args, nproc),
        "setup_probes_s": setup_times,
        "metrics": metrics,
        "units": units,
        "attempted": attempted,
        "failed": len(broken),
        "failures": broken,
        "passes": passes,
    }


def report(workload, result, trace):
    passes = result["passes"]
    kinds = "untraced/traced" if trace else "untraced"
    print(
        f"workload {workload.name}: {len(passes)} {kinds} passes of "
        f"{len(workload.cells)} cells, seed {result['meta']['seed']}"
    )
    if trace:
        for line in cell_table(next(p for p in passes if p["traced"])):
            print("  " + line)
    scale = statistics.median(p["speed_scale"] for p in passes)
    print(
        f"  times in calibrated seconds (measured x {scale:.4g}, median over "
        "passes), setup_s in measured seconds"
    )
    print_metrics(result["metrics"], result["units"])
    print(f"  {'cells_failed':<26} {result['failed']:>14d} of {result['attempted']} attempted")
    for index, cell, reason in result["failures"]:
        print(f"  FAILED pass {index} {cell}: {reason}")


def summary_line(result):
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": result["units"][name]}
                for name, value in result["metrics"].items()
            },
        }
    )


def run_all(args):
    """Every workload in its own process; metrics printed by name and unit."""
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed}))
    return 0


def smoke():
    """Self-test on tiny cells: names and units, exact counts, self-time sums."""
    from cells import make_problems, predict_points, run_pass, warm_up
    from tracing import Tracer

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = make_problems(SMOKE)
    thetas = predict_points(SMOKE, problems, seed=0)
    setup_s, _ = measure_setup(SMOKE.examples, probes=2)
    warm_up(SMOKE, problems)
    untraced = run_pass(SMOKE, problems, thetas)
    runs = []
    for index in (1, 2):
        tracer = Tracer()
        wrapped = {ex: tracer.wrap_problem(p) for ex, p in problems.items()}
        runs.append(run_pass(SMOKE, wrapped, thetas, tracer, pass_index=index))
    errors = [f"{cell}: {reason}" for _, cell, reason in failures([untraced, *runs])]

    e2e = end_to_end_metrics(SMOKE, [untraced], setup_s)
    overhead = trace_overhead([untraced, *runs])
    layers = [dict(pass_layer_metrics(r), **{"trace.overhead": overhead}) for r in runs]
    for section, units, produced in (
        ("end_to_end", END_TO_END_UNITS, e2e),
        ("per_layer", PER_LAYER_UNITS, layers[0]),
    ):
        for entry in declared[section]:
            name = entry["name"]
            if name not in produced:
                errors.append(f"{section} metric {name} is not produced")
            elif units.get(name) != entry["unit"]:
                errors.append(f"{name}: unit {units.get(name)} != declared {entry['unit']}")
        extra = set(produced) - {e["name"] for e in declared[section]}
        errors += [f"{section} metric {name} is not declared" for name in sorted(extra)]

    for name in EXACT_COUNTS:
        if layers[0][name] != layers[1][name]:
            errors.append(f"{name} differs between runs: {layers[0][name]} vs {layers[1][name]}")

    for plain, c in zip(untraced["cells"], runs[0]["cells"]):
        if "trace" not in c:
            continue
        allowance = max(c["wall_s"] - plain["wall_s"], 0.0) + 1e-3
        gap = c["wall_s"] - sum(c["trace"]["self_s"].values())
        if not 0.0 <= gap <= allowance:
            errors.append(
                f"{c['cell']}: self times miss the cell wall time by {gap:.6f} s "
                f"(measured tracing overhead {allowance - 1e-3:.6f} s)"
            )

    print_metrics(e2e, END_TO_END_UNITS)
    print_metrics(layers[0], PER_LAYER_UNITS)
    for line in cell_table(runs[0]):
        print("  " + line)
    for error in errors:
        print(f"  SMOKE FAILED {error}")
    print("smoke: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 0 if not errors else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the self-test only")
    args = parser.parse_args(argv)

    if not (SRC / "splinecol" / "__init__.py").is_file():
        fail(f"no splinecol source under {SRC}; run from a source checkout")
    nproc = pin_environment()
    import splinecol

    if Path(splinecol.__file__).resolve().parent != (SRC / "splinecol").resolve():
        fail(f"imported splinecol from {splinecol.__file__}, not from {SRC}")

    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload]
    result = run_workload(workload, args, nproc)
    path = write_result(
        f"{workload.name}-seed{args.seed}-trace{args.trace}.json", result
    )
    report(workload, result, args.trace)
    print(f"  result file {path.relative_to(ROOT)}")
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
