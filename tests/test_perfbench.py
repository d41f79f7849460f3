"""The benchmark's smoke workload runs on the current API.

``perfbench/`` drives the public calls a user makes and reads the fitted
system, so a change to that API fails here rather than only when the
benchmark runs. Its tracer wraps functions at the names their callers
resolve, and skips a name that no longer exists, so a traced pass checks
that every layer of the benchmark's per-layer split is still seen.
Nothing is timed.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Calls the tracer must see in every cell: assembly, the solve, the
#: geometry pullback of the error report and the lattice spline kernel.
TRACED_CALLS = ("assemble", "solve", "lattice_pullbacks", "evaluate_lattice")


def test_smoke_workload_has_no_failing_cell(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import cells
    from workloads import SMOKE

    problems = cells.make_problems(SMOKE)
    thetas = cells.predict_points(SMOKE, problems, seed=0)
    result = cells.run_pass(SMOKE, problems, thetas)
    assert len(result["cells"]) == len(SMOKE.cells)
    failures = {c["cell"]: c["failure"] for c in result["cells"] if "failure" in c}
    assert not failures


def test_traced_smoke_pass_sees_every_layer(monkeypatch):
    # As ``perfbench/run.py --smoke`` traces its passes.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import cells
    from tracing import Tracer
    from workloads import SMOKE

    problems = cells.make_problems(SMOKE)
    thetas = cells.predict_points(SMOKE, problems, seed=0)
    tracer = Tracer()
    wrapped = {example: tracer.wrap_problem(p) for example, p in problems.items()}
    result = cells.run_pass(SMOKE, wrapped, thetas, tracer, pass_index=1)
    assert len(result["cells"]) == len(SMOKE.cells)
    failures = {c["cell"]: c["failure"] for c in result["cells"] if "failure" in c}
    assert not failures
    unseen = {
        (c["cell"], name)
        for c in result["cells"]
        for name in TRACED_CALLS
        if c["trace"]["counts"].get(f"{name}.calls", 0) < 1
    }
    assert not unseen
