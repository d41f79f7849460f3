"""The fit/predict estimator facade."""

import logging
import time
import tracemalloc

import numpy as np
import pytest

from splinecol.errors import InvalidSchemeError, PreconditionError, SplineColError
from splinecol.estimator import FIT_STAGES, CollocationSolver
from splinecol.metrics import error_report
from splinecol.problems import (
    STABILITY_KNOTS,
    example_1d_dirichlet,
    example_1d_mixed,
    example_3d_cube,
    make_example,
)
from splinecol.splines import TensorSpline


class TestParams:
    def test_get_set_roundtrip(self):
        solver = CollocationSolver(method="igal_fixed", n_per_dir=10, m_per_dir=16)
        params = solver.get_params()
        clone = CollocationSolver().set_params(**params)
        assert clone.get_params() == params

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            CollocationSolver().set_params(points=16)

    def test_sklearn_clone_compatibility(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        solver = CollocationSolver(method="igal_variable", n_per_dir=8)
        clone = sklearn_base.clone(solver)
        assert clone.get_params() == solver.get_params()


class TestFit:
    def test_fit_populates_attributes(self):
        prob = example_1d_dirichlet()
        solver = CollocationSolver(method="igac", n_per_dir=10).fit(prob)
        assert solver.field_.n_coeffs == 10
        assert solver.system_.shape[0] == solver.system_.shape[1]
        assert solver.solve_report_.method == "gauss"
        assert solver.system_.shape[1] == 10

    def test_method_rules(self):
        prob = example_1d_dirichlet()
        var = CollocationSolver(method="igal_variable", n_per_dir=10).fit(prob)
        assert var.points_.n_points == 12
        fixed = CollocationSolver(method="igal_fixed", n_per_dir=10, m_per_dir=16).fit(prob)
        assert fixed.points_.n_points == 16
        assert fixed.solve_report_.method == "normal_cholesky"

    def test_validation(self):
        prob = example_1d_dirichlet()
        with pytest.raises(ValueError, match="n_per_dir"):
            CollocationSolver(method="igac").fit(prob)
        with pytest.raises(ValueError, match="method"):
            CollocationSolver(method="galerkin", n_per_dir=8).fit(prob)
        with pytest.raises(InvalidSchemeError):
            CollocationSolver(method="igal_fixed", n_per_dir=10, m_per_dir=8).fit(prob)
        with pytest.raises(TypeError):
            CollocationSolver(n_per_dir=8).fit("not a problem")

    def test_bad_calls_raise_library_errors(self):
        # A caller that catches SplineColError, as a benchmark cell does,
        # sees a point array of the wrong width and a missing m as failures.
        prob = make_example("I")
        fitted = CollocationSolver(method="igac", n_per_dir=10).fit(prob)
        with pytest.raises(SplineColError, match="expected points of shape"):
            fitted.predict([[0.5, 0.5]])
        with pytest.raises(SplineColError, match="m_per_dir"):
            CollocationSolver(method="igal_fixed", n_per_dir=10).fit(prob)

    @pytest.mark.parametrize("m", [16, 9, (10, 12)])
    def test_igac_takes_no_point_count_but_n(self, m):
        # igac collocates at exactly n points: any other m is an error, not
        # silently dropped; m = n is the same fit as no m.
        prob = make_example("II")
        with pytest.raises(InvalidSchemeError, match="igac"):
            CollocationSolver(method="igac", n_per_dir=10, m_per_dir=m).fit(prob)
        same = CollocationSolver(method="igac", n_per_dir=10, m_per_dir=(10, 10)).fit(prob)
        assert same.points_.n_points == 100

    @pytest.mark.parametrize("m", [12, 40])
    def test_igal_variable_takes_no_point_count(self, m):
        # igal_variable derives m = n + 2, so even the count it would use is refused.
        with pytest.raises(InvalidSchemeError, match="igal_variable"):
            CollocationSolver(method="igal_variable", n_per_dir=10, m_per_dir=m).fit(
                make_example("I")
            )

    @pytest.mark.parametrize(
        "params,name",
        [
            ({"method": "igac", "n_per_dir": 10.6}, "n_per_dir"),
            ({"method": "igac", "n_per_dir": "10"}, "n_per_dir"),
            ({"method": "igal_fixed", "n_per_dir": 10, "m_per_dir": 16.9}, "m_per_dir"),
            ({"method": "igal_fixed", "n_per_dir": 10, "m_per_dir": [16.5]}, "m_per_dir"),
        ],
    )
    def test_counts_must_be_whole_numbers(self, params, name):
        # A fractional count is an error naming the parameter, not a floor.
        with pytest.raises(PreconditionError, match=f"{name} must be an integer"):
            CollocationSolver(**params).fit(example_1d_dirichlet())

    def test_whole_float_counts_accepted(self):
        solver = CollocationSolver(method="igal_fixed", n_per_dir=10.0, m_per_dir=16.0)
        solver.fit(example_1d_dirichlet())
        assert solver.field_.n_coeffs == 10 and solver.points_.n_points == 16

    def test_interior_knots_override_counts(self):
        prob = example_1d_mixed()
        solver = CollocationSolver(
            method="igac", interior_knots=STABILITY_KNOTS
        ).fit(prob)
        assert solver.field_.kvs[0].n_basis == 10
        assert set(STABILITY_KNOTS) <= set(solver.field_.kvs[0].breakpoints)

    def test_predict_matches_analytic_to_discretization_error(self):
        prob = example_1d_dirichlet()
        solver = CollocationSolver(
            method="igal_fixed", n_per_dir=10, m_per_dir=16
        ).fit(prob)
        theta = np.linspace(0, 1, 33)
        predicted = solver.predict(theta)[:, 0]
        exact = np.sin(2 * np.pi * theta)  # identity geometry
        assert np.abs(predicted - exact).max() < 5e-3

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="not been fitted"):
            CollocationSolver().predict([0.5])

    def test_physical_points(self):
        prob = example_1d_dirichlet()
        solver = CollocationSolver(method="igac", n_per_dir=8).fit(prob)
        pts = solver.physical_points([0.25, 0.75])
        assert np.allclose(pts[:, 0], [0.25, 0.75])

    def test_predict_2d_vector_problem(self):
        from splinecol.problems import example_beam

        prob = example_beam()
        solver = CollocationSolver(method="igal_fixed", n_per_dir=7, m_per_dir=9).fit(prob)
        values = solver.predict([[0.5, 0.5], [0.25, 0.75]])
        assert values.shape == (2, 2)
        single = solver.predict([0.5, 0.5])  # one flat point is accepted too
        assert single.shape == (1, 2)
        assert np.allclose(single[0], values[0])

    def test_numeric_boundary_weight(self):
        prob = example_1d_dirichlet()
        solver = CollocationSolver(
            method="igal_fixed", n_per_dir=10, m_per_dir=16, boundary_weight=50.0
        ).fit(prob)
        bnd = solver.system_.row_kind == "boundary"
        norms = np.linalg.norm(solver.system_.matrix[bnd], axis=1)
        assert np.all(norms > 10.0)  # Dirichlet rows have unit-scale bases

    def test_auto_boundary_weight_beats_unit_weight(self):
        # On the cube the boundary rows of unit weight are swamped by the
        # second-derivative interior rows: e_T 0.835 with weight 1.0 against
        # 0.0353 with "auto".
        prob = example_3d_cube()
        e_t = {
            weight: error_report(
                prob,
                CollocationSolver(
                    method="igal_variable", n_per_dir=8, boundary_weight=weight
                ).fit(prob).field_,
            ).e_T
            for weight in ("auto", 1.0)
        }
        assert e_t["auto"] < 0.05
        assert e_t[1.0] >= 10.0 * e_t["auto"]

    def test_fit_never_allocates_the_dense_matrix(self):
        prob = make_example("II")
        solver = CollocationSolver(method="igal_variable", n_per_dir=40)
        tracemalloc.start()
        try:
            solver.fit(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows, cols = solver.system_.shape
        assert (rows, cols) == (1764, 1600)
        assert peak < rows * cols * 8  # 22.6 MB, one dense copy of A

    @pytest.mark.parametrize("method", ["igac", "igal_variable"])
    def test_stage_timings(self, method):
        # Every stage of fit is timed, and the stages nest inside the call.
        solver = CollocationSolver(method=method, n_per_dir=12)
        start = time.perf_counter()
        solver.fit(make_example("II"))
        wall = time.perf_counter() - start
        assert tuple(solver.timings_) == FIT_STAGES == ("refine", "points", "assemble", "solve")
        assert all(t >= 0.0 for t in solver.timings_.values())
        assert sum(solver.timings_.values()) <= wall

    def test_fit_logs_its_stage_seconds(self, caplog):
        solver = CollocationSolver(method="igac", n_per_dir=8)
        solver.fit(example_1d_dirichlet())
        assert caplog.records == []  # nothing is logged by default
        with caplog.at_level(logging.DEBUG, logger="splinecol"):
            solver.fit(example_1d_dirichlet())
        [record] = caplog.records
        assert record.levelno == logging.DEBUG and record.name == "splinecol"
        stages = " ".join(f"{s}={t:.6f}s" for s, t in solver.timings_.items())
        assert record.getMessage() == f"fit I igac: {stages}"

    def test_square_least_squares_reproduces_interpolation(self):
        prob = example_1d_dirichlet()
        igac = CollocationSolver(method="igac", n_per_dir=10).fit(prob)
        igal = CollocationSolver(method="igal_fixed", n_per_dir=10, m_per_dir=10).fit(prob)
        rel = np.linalg.norm(
            igal.solve_report_.coefficients - igac.solve_report_.coefficients
        ) / np.linalg.norm(igac.solve_report_.coefficients)
        assert rel < 1e-10


def test_predict_and_physical_points_ask_for_values_only(monkeypatch):
    solver = CollocationSolver(method="igac", n_per_dir=6).fit(make_example("II"))
    entries = []
    rows = TensorSpline.row_table

    def recording(spline, theta, coeffs):
        entries.append(len(coeffs))
        return rows(spline, theta, coeffs)

    # One coefficient per point: the row table of the values alone.
    monkeypatch.setattr(TensorSpline, "row_table", recording)
    solver.predict([[0.3, 0.7]])
    solver.physical_points([[0.3, 0.7]])
    assert entries == [1, 1]
