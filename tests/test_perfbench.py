"""The benchmark's smoke workload runs on the current API.

``perfbench/`` drives the public calls a user makes and reads the fitted
system, so a change to that API fails here rather than only when the
benchmark runs. Nothing is timed.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
