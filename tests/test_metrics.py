"""Error functionals: quadrature, relative errors, absolute error fields."""

import logging
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import field_l2_norm, lapack_det_inv, push_gradient, push_hessian
from splinecol import metrics, splines
from splinecol.collocation import build_field
from splinecol.errors import PreconditionError, SingularGeometryError, UndefinedMetricError
from splinecol.estimator import CollocationSolver
from splinecol.metrics import absolute_error_field, error_report
from splinecol.geometry import GeometryMap, lattice_pullbacks
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
from splinecol.splines import TensorSpline


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
        # absolute-error samples have their own lattice. The field's
        # numerator w q is contracted once on each, counted at the helper
        # that every lattice jet goes through; W is contracted apart on the
        # samples and held by the reference on the quadrature lattice.
        prob = example_2d_annulus()
        field = CollocationSolver(method="igac", n_per_dir=6).fit(prob).field_
        numerator = field.weights[..., None] * field.coeffs
        lattices, evaluations = [], []
        pullbacks = metrics.lattice_pullbacks
        lattice_sums = splines._lattice_sums

        def counting_pullbacks(geometry, axes, max_deriv=2):
            lattices.append(tuple(len(a) for a in axes))
            return pullbacks(geometry, axes, max_deriv)

        def counting_sums(x, ops, order):
            sums = lattice_sums(x, ops, order)
            if x.shape[:-1] == field.shape and np.array_equal(x[..., : field.ncomp], numerator):
                evaluations.append(sums.shape[2:])
            return sums

        monkeypatch.setattr(metrics, "lattice_pullbacks", counting_pullbacks)
        monkeypatch.setattr(splines, "_lattice_sums", counting_sums)
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


class TestSampleReference:
    """The absolute-error reference is computed once per problem and sample lattice."""

    @staticmethod
    def fitted(example_id, problem=None):
        prob = problem or make_example(example_id)
        method, m = ("igac", None) if example_id == "II" else ("igal_fixed", 9)
        return prob, CollocationSolver(method=method, n_per_dir=7, m_per_dir=m).fit(prob).field_

    @pytest.mark.parametrize("example_id", ["II", "IV"])
    def test_cold_and_warm_reports_are_bit_identical(self, example_id):
        prob, field = self.fitted(example_id)
        cold = error_report(prob, field)
        warm = error_report(prob, field)
        assert warm.to_dict() == cold.to_dict()
        assert (warm.e_T, warm.e_DT, warm.max_abs) == (cold.e_T, cold.e_DT, cold.max_abs)
        # A replace() copy starts without the entry, so its field is cold.
        cold_points, cold_errors = absolute_error_field(replace(prob), field)
        warm_points, warm_errors = absolute_error_field(prob, field)
        np.testing.assert_array_equal(warm_points, cold_points)
        assert warm_errors.keys() == cold_errors.keys()
        for name, errors in cold_errors.items():
            np.testing.assert_array_equal(warm_errors[name], errors)

    @staticmethod
    def counted(example_id):
        """Example whose quantities record the point count of every analytic call."""
        calls = []

        def recording(fn):
            def analytic(x):
                calls.append(len(x))
                return fn(x)

            return analytic

        prob = make_example(example_id)
        quantities = tuple(replace(q, analytic=recording(q.analytic)) for q in prob.quantities)
        return replace(prob, quantities=quantities), calls

    def test_second_report_skips_the_sample_lattice(self, monkeypatch):
        # The beam's samples need the geometry to order 1 and three
        # analytic stresses; a warm report asks for neither on either
        # lattice, while new sample counts pull back the new sample lattice
        # alone, since the quadrature lattice's knot cells are unchanged.
        prob, analytic_calls = self.counted("IV")
        prob, field = self.fitted("IV", prob)
        error_report(prob, field, sample_counts=(11, 13))
        lattices = []
        pullbacks = metrics.lattice_pullbacks

        def counting(geometry, axes, max_deriv=2):
            lattices.append(tuple(len(a) for a in axes))
            return pullbacks(geometry, axes, max_deriv)

        monkeypatch.setattr(metrics, "lattice_pullbacks", counting)
        analytic_calls.clear()
        error_report(prob, field, sample_counts=(11, 13))
        assert lattices == []
        assert analytic_calls == []
        error_report(prob, field, sample_counts=(12, 13))
        assert lattices == [(12, 13)]
        assert analytic_calls == [12 * 13] * 3

    def test_replaced_problem_gets_its_own_reference(self):
        # Against a zero field the errors are |exact|, so a copy whose
        # analytic is doubled must see doubled errors, not its parent's.
        prob, field = self.fitted("II")
        zero = field.with_coefficients(np.zeros_like(field.coeffs))
        _, base = absolute_error_field(prob, zero)
        [qty] = prob.quantities
        twice = replace(qty, analytic=lambda x: 2.0 * qty.analytic(x))
        doubled = replace(prob, quantities=(twice,))
        _, errors = absolute_error_field(doubled, zero)
        np.testing.assert_array_equal(errors["T"], 2.0 * base["T"])
        # The filled slot takes no part in comparisons.
        assert replace(doubled) == doubled
        np.testing.assert_array_equal(absolute_error_field(prob, zero)[1]["T"], base["T"])

    @pytest.mark.parametrize("example_id", ["II", "IV"])
    def test_returned_points_are_read_only(self, example_id):
        prob, field = self.fitted(example_id)
        for _ in range(2):
            points, _ = absolute_error_field(prob, field)
            assert not points.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                points[0, 0] = 1.0

    def test_failing_analytic_raises_on_every_call(self):
        # Nothing is kept from a failed call: each call reaches the
        # callback again, and once it succeeds its errors match a cold copy.
        prob, field = self.fitted("II")
        [qty] = prob.quantities
        state = {"broken": True, "calls": 0}

        def flaky(x):
            state["calls"] += 1
            if state["broken"]:
                raise RuntimeError("analytic failed")
            return qty.analytic(x)

        flaky_prob = replace(prob, quantities=(replace(qty, analytic=flaky),))
        for calls in (1, 2):
            with pytest.raises(RuntimeError, match="analytic failed"):
                absolute_error_field(flaky_prob, field)
            assert state["calls"] == calls
        state["broken"] = False
        _, errors = absolute_error_field(flaky_prob, field)
        np.testing.assert_array_equal(errors["T"], absolute_error_field(prob, field)[1]["T"])


class TestQuadratureReference:
    """The quadrature reference is computed once per problem, knot cells and order."""

    @staticmethod
    def sweep(example_id, problem=None):
        """Two least-squares fields on the same knots (an m-sweep) and one on other knots."""
        prob = problem or make_example(example_id)
        n = 5 if example_id == "III" else 7

        def fit(n, m):
            solver = CollocationSolver(method="igal_fixed", n_per_dir=n, m_per_dir=m)
            return solver.fit(prob).field_

        return prob, fit(n, n + 1), fit(n, n + 2), fit(n + 1, n + 2)

    @staticmethod
    def answers(report):
        return repr(
            (report.e_T, report.e_DT, [(q.name, q.relative, q.max_abs) for q in report.quantities])
        )

    @staticmethod
    def held_arrays(prob):
        _, ref = prob._references["quadrature"]
        value, blocks = ref.operator
        arrays = [ref.weights, ref.source, *ref.exact.values(), value, *blocks]
        return arrays + [x for x in (ref.inv, ref.weight) if x is not None]

    @pytest.mark.parametrize("example_id", ["I", "II", "III", "IV", "V"])
    def test_cold_and_warm_reports_are_bit_identical(self, example_id):
        prob, first, second, _ = self.sweep(example_id)
        error_report(prob, first)
        for field in (first, second):
            warm = error_report(prob, field)
            cold = error_report(replace(prob), field)
            assert self.answers(warm) == self.answers(cold)
            assert warm == cold

    def test_warm_report_makes_no_pullback_and_no_callback(self, monkeypatch):
        # The beam reads gradients, so its reference also holds the
        # quadrature lattice's inverse Jacobians.
        calls = []

        def recording(name, fn):
            def callback(x):
                calls.append(name)
                return fn(x)

            return callback

        prob = make_example("IV")
        prob = replace(
            prob,
            source=recording("source", prob.source),
            quantities=tuple(
                replace(q, analytic=recording(q.name, q.analytic)) for q in prob.quantities
            ),
        )
        prob, first, second, _ = self.sweep("IV", prob)
        error_report(prob, first)
        assert "source" in calls
        calls.clear()
        for name in ("lattice_pullbacks", "pull_back_coefficients", "row_coefficients"):
            monkeypatch.setattr(metrics, name, lambda *a, name=name, **k: calls.append(name))
        error_report(prob, first)
        error_report(prob, second)
        assert calls == []

    def test_other_knots_replace_the_entry(self):
        prob, first, _, other = self.sweep("II")
        error_report(prob, first)
        key, ref = prob._references["quadrature"]
        error_report(prob, other)
        assert sorted(prob._references) == ["quadrature", "samples"]
        other_key, other_ref = prob._references["quadrature"]
        assert other_key != key and other_ref is not ref
        assert error_report(prob, first) == error_report(replace(prob), first)
        assert prob._references["quadrature"][0] == key

    def test_replaced_copy_starts_empty(self):
        prob, first, _, _ = self.sweep("II")
        error_report(prob, first)
        held = dict(prob._references)
        copy = replace(prob)
        assert copy._references == {}
        error_report(copy, first)
        assert prob._references == held
        assert copy._references["quadrature"][1] is not held["quadrature"][1]

    def test_failing_source_raises_on_every_call(self):
        prob, first, _, _ = self.sweep("II")
        state = {"broken": True, "calls": 0}

        def flaky(x):
            state["calls"] += 1
            if state["broken"]:
                raise RuntimeError("source failed")
            return prob.source(x)

        flaky_prob = replace(prob, source=flaky)
        for calls in (1, 2):
            with pytest.raises(RuntimeError, match="source failed"):
                error_report(flaky_prob, first)
            assert state["calls"] == calls
            assert "quadrature" not in flaky_prob._references
        state["broken"] = False
        assert error_report(flaky_prob, first) == error_report(prob, first)
        assert state["calls"] == 3

    def test_singular_geometry_raises_on_every_call(self):
        # A geometry collapsed to a point: the annulus's samples read values
        # only, so the quadrature lattice's order-2 pullback is the first
        # to find the singular Jacobian.
        prob, first, _, _ = self.sweep("II")
        kvs = prob.geometry.kvs
        collapsed = GeometryMap(TensorSpline.polynomial(kvs, np.zeros((4, 4, 2))))
        singular = replace(prob, geometry=collapsed)
        for _ in range(2):
            with pytest.raises(SingularGeometryError, match="singular"):
                error_report(singular, first)
            assert "quadrature" not in singular._references

    @pytest.mark.parametrize("example_id", ["II", "IV"])
    def test_held_arrays_are_read_only(self, example_id):
        # The beam reads gradients; the annulus's field is rational, so its
        # reference holds W's sums.
        prob, first, second, _ = self.sweep(example_id)
        for field in (first, second):
            error_report(prob, field)
            arrays = self.held_arrays(prob)
            ref = prob._references["quadrature"][1]
            assert (ref.inv is not None) == (example_id == "IV")
            assert (ref.weight is not None) == (example_id == "II")
            assert not any(array.flags.writeable for array in arrays)
            with pytest.raises(ValueError, match="read-only"):
                arrays[0][0] = 1.0

    def test_other_weights_on_the_same_knots_miss(self):
        # W follows from the field's weights, not from its knots: a field
        # with other positive weights on the same knots gets a new entry and
        # the answer of a cold report.
        prob, first, _, _ = self.sweep("II")
        error_report(prob, first)
        key, _ = prob._references["quadrature"]
        bump = 1.0 + 0.25 * np.sin(np.arange(first.weights.size)).reshape(first.weights.shape)
        other = TensorSpline(first.kvs, first.coeffs, first.weights * bump)
        warm = error_report(prob, other)
        assert prob._references["quadrature"][0] != key
        cold = error_report(replace(prob), other)
        assert self.answers(warm) == self.answers(cold)
        assert warm != error_report(prob, first)

    def test_report_jet_matches_evaluate_lattice(self, monkeypatch):
        # The report contracts w q alone and divides by the held W; its
        # order-2 jet is evaluate_lattice's, which contracts [w q | w].
        prob, first, second, _ = self.sweep("II")
        jets = []
        operator_values = metrics._operator_values

        def recording(operator, jet):
            jets.append(jet)
            return operator_values(operator, jet)

        monkeypatch.setattr(metrics, "_operator_values", recording)
        for field in (first, second):
            error_report(prob, field)
            axes, _, _ = metrics.quadrature_rule(field)
            want = field.evaluate_lattice(axes, max_deriv=2)
            got = jets.pop()
            for part in ("value", "grad", "hess"):
                x, y = getattr(got, part), getattr(want, part)
                assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max()
