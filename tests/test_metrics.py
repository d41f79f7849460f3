"""Error functionals: quadrature, relative errors, absolute error fields."""

import logging
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import field_l2_norm, lapack_det_inv, push_gradient, push_hessian
from splinecol import metrics
from splinecol.collocation import build_field
from splinecol.errors import PreconditionError, UndefinedMetricError
from splinecol.estimator import CollocationSolver
from splinecol.metrics import absolute_error_field, error_report
from splinecol.geometry import lattice_pullbacks
from splinecol.problems import (
    BvpDefinition,
    DirichletBC,
    FieldQuantity,
    ScreenedPoissonOperator,
    curve_unit_interval,
    example_1d_dirichlet,
    example_2d_annulus,
    example_beam,
    example_3d_cube,
    make_example,
)


def cubic_exact_problem(scale=1.0):
    """T = scale * x^3 lies exactly in the cubic spline space."""

    def analytic(x):
        return scale * x[..., 0] ** 3

    def source(x):
        return scale * (-6.0 * x[..., :1] + x[..., :1] ** 3)

    return BvpDefinition(
        example_id="cubic",
        geometry=curve_unit_interval(),
        operator=ScreenedPoissonOperator(),
        source=source,
        boundary_conditions=(
            DirichletBC(axis=0, side=0, value=lambda x: np.zeros((len(x), 1))),
            DirichletBC(axis=0, side=1, value=lambda x: np.full((len(x), 1), scale)),
        ),
        analytic_solution=lambda x: analytic(x)[:, None],
        quantities=(
            FieldQuantity(
                "T",
                analytic=lambda x: np.asarray(analytic(x), dtype=float),
                extract=lambda value, grad: value[..., 0],
            ),
        ),
    )


class IdentityOperator:
    """D T = T; makes the operator error coincide with the solution error."""

    order = 0
    components = 1

    def apply(self, value, grad, hess):
        return value


class TestExactSolution:
    def test_spline_exact_solution_has_zero_errors(self):
        prob = cubic_exact_problem()
        solver = CollocationSolver(method="igac", n_per_dir=6).fit(prob)
        report = error_report(prob, solver.field_)
        assert report.e_T < 1e-12
        assert report.e_DT < 1e-10
        _, errors = absolute_error_field(prob, solver.field_)
        assert errors["T"].max() < 1e-12


class TestQuadrature:
    def test_denominator_closed_form(self):
        # The squared L2 norm of sin(2 pi x) over [0, 1] is exactly 1/2.
        prob = example_1d_dirichlet()
        field = build_field(prob.geometry, (10,))
        norm = field_l2_norm(
            prob, lambda pts: np.sin(2 * np.pi * pts[:, 0]), field, quad_order=6
        )
        assert abs(norm**2 - 0.5) < 1e-12

    def test_order_below_degree_rejected(self):
        prob = example_1d_dirichlet()
        field = build_field(prob.geometry, (10,))
        with pytest.raises(PreconditionError, match="quad_order 3"):
            error_report(prob, field, quad_order=3)

    @pytest.mark.parametrize(
        "factory,n",
        [(example_1d_dirichlet, 10), (example_2d_annulus, 8), (example_3d_cube, 5)],
    )
    def test_quadrature_convergence(self, factory, n):
        # Trigonometric integrands on the coarsest 3D cells need a few
        # orders beyond the degree-matched default before successive rules
        # agree at this precision.
        prob = factory()
        solver = CollocationSolver(method="igac", n_per_dir=n).fit(prob)
        q = max(solver.field_.degrees) + 6
        e1 = error_report(prob, solver.field_, quad_order=q).e_T
        e2 = error_report(prob, solver.field_, quad_order=q + 2).e_T
        assert abs(e1 - e2) < 1e-8 * e1


class TestOperatorError:
    def test_identity_operator_coincides_with_solution_error(self):
        base = cubic_exact_problem()
        prob = replace(
            base,
            operator=IdentityOperator(),
            source=lambda x: x[:, :1] ** 3,
        )
        solver = CollocationSolver(method="igal_fixed", n_per_dir=6, m_per_dir=9).fit(
            prob
        )
        report = error_report(prob, solver.field_)
        assert report.e_DT == pytest.approx(report.e_T, rel=1e-12, abs=1e-15)

    def test_decline_along_refinement(self):
        # Interpolatory collocation on the 1D benchmark: the operator error
        # decreases along n = 6..14 (monotone up to a 1.5x noise factor).
        prob = example_1d_dirichlet()
        errors = []
        for n in range(6, 15, 2):
            solver = CollocationSolver(method="igac", n_per_dir=n).fit(prob)
            errors.append(error_report(prob, solver.field_).e_DT)
        for previous, current in zip(errors, errors[1:]):
            assert current <= 1.5 * previous
        assert errors[-1] < errors[0]

    @pytest.mark.parametrize(
        "example_id,n,m",
        [("I", 12, 16), ("II", 7, 9), ("III", 5, None), ("IV", 7, 9), ("V", 9, None)],
    )
    def test_e_dt_matches_the_oracle_push(self, example_id, n, m):
        # e_DT through the pulled-back coefficients against the operator
        # applied to physical jets from the einsum pushes of the oracles,
        # on the same quadrature lattice (a pure-traction beam has a zero
        # source, so there both must be undefined).
        prob = make_example(example_id)
        method = "igac" if m is None else "igal_fixed"
        field = CollocationSolver(method=method, n_per_dir=n, m_per_dir=m).fit(prob).field_
        axes, w, _ = metrics.quadrature_rule(field)
        x, jac, _, _, second = lattice_pullbacks(prob.geometry, axes)
        det, inv = lapack_det_inv(jac)
        jet = field.evaluate_lattice(axes, 2)
        d, c = prob.dim, field.ncomp
        grad_x = push_gradient(inv, jet.grad.reshape(-1, d, c))
        hess_x = push_hessian(inv, second, grad_x, jet.hess.reshape(-1, d, d, c))
        applied = prob.operator.apply(jet.value.reshape(-1, c), grad_x, hess_x)
        source = prob.source(x)
        dw = np.abs(det) * w
        norm = np.sum((source**2).sum(axis=1) * dw)
        e_dt = error_report(prob, field).e_DT
        if norm == 0.0:
            assert e_dt is None
        else:
            want = np.sqrt(np.sum(((source - applied) ** 2).sum(axis=1) * dw) / norm)
            assert e_dt == pytest.approx(want, rel=1e-10)

    def test_zero_source_is_undefined(self):
        prob = example_beam()
        solver = CollocationSolver(method="igac", n_per_dir=5).fit(prob)
        report = error_report(prob, solver.field_)
        assert report.e_DT is None


class TestScaleEquivariance:
    def test_absolute_scales_and_relatives_invariant(self):
        alpha = -3.7
        base = cubic_exact_problem()
        scaled = cubic_exact_problem(scale=alpha)
        solver = CollocationSolver(method="igal_fixed", n_per_dir=5, m_per_dir=8)
        f_base = solver.fit(base).field_
        f_scaled = f_base.with_coefficients(alpha * f_base.coeffs)

        # Perturb both fields identically so the errors are nonzero.
        bump = np.zeros_like(f_base.coeffs)
        bump[2] = 0.01
        f_base = f_base.with_coefficients(f_base.coeffs + bump)
        f_scaled = f_scaled.with_coefficients(f_scaled.coeffs + alpha * bump)

        _, e_base = absolute_error_field(base, f_base, (101,))
        _, e_scaled = absolute_error_field(scaled, f_scaled, (101,))
        assert np.allclose(e_scaled["T"], abs(alpha) * e_base["T"], atol=1e-12)

        r_base = error_report(base, f_base).e_T
        r_scaled = error_report(scaled, f_scaled).e_T
        assert r_scaled == pytest.approx(r_base, rel=1e-12)


class TestVectorQuantities:
    def test_beam_reports_three_stresses(self):
        prob = example_beam()
        solver = CollocationSolver(method="igal_fixed", n_per_dir=7, m_per_dir=9).fit(
            prob
        )
        report = error_report(prob, solver.field_)
        assert [q.name for q in report.quantities] == ["sigma_x", "sigma_y", "tau_xy"]
        assert all(q.relative >= 0 and q.max_abs >= 0 for q in report.quantities)

    def test_report_serialization(self):
        prob = example_1d_dirichlet()
        solver = CollocationSolver(method="igac", n_per_dir=8).fit(prob)
        report = error_report(prob, solver.field_)
        payload = report.to_dict()
        assert payload["example"] == "I"
        assert payload["quantities"][0]["name"] == "T"


@pytest.mark.parametrize("factory", [example_1d_dirichlet, example_2d_annulus, example_3d_cube])
def test_report_stage_timings(factory):
    # Every stage of error_report is timed, and the stages nest inside the call.
    prob = factory()
    field = CollocationSolver(method="igac", n_per_dir=6).fit(prob).field_
    start = time.perf_counter()
    report = error_report(prob, field)
    wall = time.perf_counter() - start
    stages = ("samples", "pullback", "evaluate", "integrate")
    assert tuple(report.timings) == metrics.REPORT_STAGES == stages
    assert all(t >= 0.0 for t in report.timings.values())
    assert sum(report.timings.values()) <= wall
    # Timings vary from run to run, so they take no part in equality.
    assert replace(report, timings={}) == report


def test_reports_compare_by_their_scalar_results():
    # Two reports of one fit hold equal results.
    prob = example_1d_dirichlet()
    field = CollocationSolver(method="igac", n_per_dir=8).fit(prob).field_
    first, second = error_report(prob, field), error_report(prob, field)
    assert first == second
    assert replace(first, e_DT=2 * first.e_DT) != first


def test_report_logs_its_stage_seconds(caplog):
    prob = example_1d_dirichlet()
    field = CollocationSolver(method="igac", n_per_dir=8).fit(prob).field_
    with caplog.at_level(logging.DEBUG, logger="splinecol"):
        report = error_report(prob, field)
    [record] = caplog.records
    assert record.levelno == logging.DEBUG and record.name == "splinecol"
    stages = " ".join(f"{s}={t:.6f}s" for s, t in report.timings.items())
    assert record.getMessage() == f"error_report I: {stages}"


def test_error_report_memory_stays_bounded():
    # The n = 1000 field's quadrature lattice holds about 5000 points; a
    # dense (3, points, basis) table per direction would take 120 MB.
    prob = example_1d_dirichlet()
    field = CollocationSolver(method="igac", n_per_dir=1000).fit(prob).field_
    tracemalloc.start()
    try:
        error_report(prob, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


class TestSinglePass:
    def test_one_pullback_and_field_evaluation_per_lattice(self, monkeypatch):
        # The quadrature lattice serves every relative error and e_DT; the
        # absolute-error samples have their own lattice.
        prob = example_2d_annulus()
        field = CollocationSolver(method="igac", n_per_dir=6).fit(prob).field_
        lattices, evaluations = [], []
        pullbacks = metrics.lattice_pullbacks
        evaluate = type(field).evaluate_lattice

        def counting_pullbacks(geometry, axes, max_deriv=2):
            lattices.append(tuple(len(a) for a in axes))
            return pullbacks(geometry, axes, max_deriv)

        def counting_evaluate(spline, axes, max_deriv=0):
            if spline is field:
                evaluations.append(tuple(len(a) for a in axes))
            return evaluate(spline, axes, max_deriv)

        monkeypatch.setattr(metrics, "lattice_pullbacks", counting_pullbacks)
        monkeypatch.setattr(type(field), "evaluate_lattice", counting_evaluate)
        report = error_report(prob, field, sample_counts=(11, 13))
        quad_axes, _, _ = metrics.quadrature_rule(field)
        quad_lattice = tuple(len(a) for a in quad_axes)
        assert sorted(lattices) == sorted([quad_lattice, (11, 13)])
        assert sorted(evaluations) == sorted(lattices)
        assert report.e_DT is not None

    @pytest.mark.parametrize("factory", [example_2d_annulus, example_beam])
    def test_pullback_orders(self, monkeypatch, factory):
        # The samples read values only on the annulus and gradients on the
        # beam (its stresses); only the quadrature lattice needs geometry
        # second derivatives, for e_DT.
        prob = factory()
        field = CollocationSolver(method="igac", n_per_dir=7).fit(prob).field_
        calls = []
        pullbacks = metrics.lattice_pullbacks

        def recording(geometry, axes, max_deriv=2):
            calls.append((tuple(len(a) for a in axes), max_deriv))
            return pullbacks(geometry, axes, max_deriv)

        monkeypatch.setattr(metrics, "lattice_pullbacks", recording)
        error_report(prob, field, sample_counts=(11, 13))
        quad_axes, _, _ = metrics.quadrature_rule(field)
        quad_lattice = tuple(len(a) for a in quad_axes)
        sample_order = 1 if factory is example_beam else 0
        assert sorted(calls) == sorted([((11, 13), sample_order), (quad_lattice, 2)])

    @pytest.mark.parametrize("factory", [example_2d_annulus, example_beam])
    def test_gradient_pushed_only_for_quantities_that_read_it(self, monkeypatch, factory):
        # e_DT reads the parametric jet, so only the beam's stresses need
        # physical gradients, on both of its lattices.
        prob = factory()
        field = CollocationSolver(method="igac", n_per_dir=7).fit(prob).field_
        calls = []
        push = metrics.lattice_push_gradient

        def recording(inv_jac, grad_theta):
            calls.append(len(inv_jac))
            return push(inv_jac, grad_theta)

        monkeypatch.setattr(metrics, "lattice_push_gradient", recording)
        error_report(prob, field, sample_counts=(11, 13))
        quad_axes, _, _ = metrics.quadrature_rule(field)
        if factory is example_beam:
            assert sorted(calls) == sorted([11 * 13, np.prod([len(a) for a in quad_axes])])
        else:
            assert calls == []

    @pytest.mark.parametrize("counts", [(11.5, 13), 12.2])
    def test_fractional_sample_counts_rejected(self, counts):
        prob = example_2d_annulus()
        field = CollocationSolver(method="igac", n_per_dir=6).fit(prob).field_
        with pytest.raises(PreconditionError, match="sample_counts must be an integer"):
            error_report(prob, field, sample_counts=counts)

    @pytest.mark.parametrize("counts", [(0, 5), -3])
    def test_sample_counts_below_one_rejected(self, counts):
        prob = example_2d_annulus()
        field = CollocationSolver(method="igac", n_per_dir=6).fit(prob).field_
        with pytest.raises(PreconditionError, match="sample_counts must be an integer >= 1"):
            error_report(prob, field, sample_counts=counts)

    def test_fractional_quad_order_rejected(self):
        prob = example_2d_annulus()
        field = CollocationSolver(method="igac", n_per_dir=6).fit(prob).field_
        with pytest.raises(PreconditionError, match="quad_order must be an integer"):
            error_report(prob, field, quad_order=4.5)

    def test_gauss_legendre_rule_is_shared_and_read_only(self):
        nodes, weights = metrics._gauss_legendre(5)
        assert metrics._gauss_legendre(5)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable

    def test_missing_analytic_solution_is_undefined(self):
        prob = example_1d_dirichlet()
        field = CollocationSolver(method="igac", n_per_dir=8).fit(prob).field_
        with pytest.raises(UndefinedMetricError, match="no analytic solution"):
            error_report(replace(prob, analytic_solution=None), field)
