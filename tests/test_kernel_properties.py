"""Property tests of the vectorised basis kernel and of knot refinement on random NURBS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batched import basis_jets, values_at
from oracles import (
    all_basis_derivs,
    basis_values,
    boehm_insert,
    homogeneous_lattice_jet,
    point_basis_ders,
    point_basis_jets,
    point_find_span,
    point_jet,
    vectorised_basis_ders,
)
from splinecol.collocation import build_field
from splinecol.metrics import DEFAULT_ABS_SAMPLES, quadrature_rule
from splinecol.problems import make_example
from splinecol.splines import KnotVector, TensorSpline, _direction_tables

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def knot_vectors(draw, max_degree=4, min_degree=1, full_multiplicity=False):
    """Clamped knot vectors on [0, 1] with interior knots on a 1/16 grid.

    With ``full_multiplicity`` every interior knot is repeated p times.
    """
    p = draw(st.integers(min_degree, max_degree))
    drawn = sorted(draw(st.lists(st.integers(1, 15), max_size=8)))
    if full_multiplicity:
        drawn = sorted(list(set(drawn)) * p)
    interior = [k for i, k in enumerate(drawn) if drawn[:i].count(k) < p]
    knots = [0.0] * (p + 1) + [k / 16 for k in interior] + [1.0] * (p + 1)
    return KnotVector(knots, p)


# The recursive oracle is half-open, so parameters stay below the last knot.
parameters = st.lists(
    st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False), min_size=1, max_size=12
)


def assert_matches_naive_recursion(kv, us):
    """Every order up to p + 1 at ``us``; the rows above the degree are exact zeros."""
    p = kv.degree
    first, tables = _direction_tables(kv, us, p + 1)
    assert tables.shape == (p + 2, len(us), p + 1)
    assert np.all(tables[p + 1] == 0.0)
    for j, u in enumerate(us):
        for k in range(p + 1):
            full = np.zeros(kv.n_basis)
            full[first[j] : first[j] + p + 1] = tables[k, j]
            oracle = all_basis_derivs(kv.knots, p, u, k)
            scale = max(1.0, np.abs(oracle).max())
            assert np.allclose(full, oracle, rtol=0, atol=1e-10 * scale)


@SETTINGS
@given(kv=knot_vectors(max_degree=5, min_degree=0), us=parameters)
def test_vectorised_kernel_matches_naive_recursion(kv, us):
    assert_matches_naive_recursion(kv, np.array(us))


@SETTINGS
@given(kv=knot_vectors(max_degree=5, full_multiplicity=True), us=parameters)
def test_kernel_at_interior_knots_of_multiplicity_p(kv, us):
    # The basis is only C0 there; spans and the oracle both take the right limit.
    interior = np.unique(kv.knots[(kv.knots > kv.start) & (kv.knots < kv.end)])
    assert_matches_naive_recursion(kv, np.concatenate([us, interior]))


@SETTINGS
@given(kv=knot_vectors(max_degree=5, min_degree=0))
def test_kernel_at_the_ends_matches_scalar_a23(kv):
    # The recursive oracle is half-open, so the right end is checked against
    # the scalar A2.3, whose values the row blocks reproduce bit for bit.
    p = kv.degree
    us = np.array([kv.start, kv.end])
    first, tables = _direction_tables(kv, us, p + 1)
    for j, u in enumerate(us):
        span = point_find_span(kv.knots, p, u)
        assert first[j] == span - p
        ref = point_basis_ders(kv.knots, p, span, u, p + 1)
        assert np.array_equal(tables[0, j], ref[0])
        assert np.array_equal(tables[p + 1, j], ref[p + 1])
        scale = np.maximum(1.0, np.abs(ref).max(axis=1, keepdims=True))
        assert np.all(np.abs(tables[:, j] - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("degree", range(6))
@pytest.mark.parametrize("max_deriv", range(4))
def test_empty_parameters_give_empty_tables(degree, max_deriv):
    kv = KnotVector([0.0] * (degree + 1) + [1.0] * (degree + 1), degree)
    first, tables = _direction_tables(kv, np.array([]), max_deriv)
    assert first.shape == (0,)
    assert tables.shape == (max_deriv + 1, 0, degree + 1)


@pytest.mark.parametrize("example,n", [("I", 1000), ("II", 60), ("III", 12)])
def test_row_blocks_match_vectorised_a23_on_benchmark_axes(example, n):
    # The error report's quadrature and sample nodes on the benchmark's
    # largest fields: values bit for bit, derivatives within 1e-15 of each
    # row's largest entry.
    problem = make_example(example)
    field = build_field(problem.geometry, n)
    quad_axes, _, _ = quadrature_rule(field)
    for a, kv in enumerate(field.kvs):
        samples = np.linspace(kv.start, kv.end, DEFAULT_ABS_SAMPLES[field.dim])
        for u in (quad_axes[a], samples):
            spans = kv.find_span(u)
            ref = np.moveaxis(vectorised_basis_ders(kv.knots, kv.degree, spans, u, 2), 1, 0)
            _, tables = _direction_tables(kv, u, 2)
            assert np.array_equal(tables[0], ref[0])
            scale = np.abs(ref[1:]).max(axis=-1, keepdims=True)
            assert np.all(np.abs(tables[1:] - ref[1:]) <= 1e-15 * scale)


@SETTINGS
@given(kv=knot_vectors(), us=parameters)
def test_partition_of_unity_and_derivative_sums(kv, us):
    ders = basis_values(kv, np.array(us), kv.degree)
    assert np.all(ders[:, 0] >= 0.0)
    assert np.allclose(ders[:, 0].sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    scale = np.maximum(1.0, np.abs(ders[:, 1:]).max(axis=-1))
    assert np.all(np.abs(ders[:, 1:].sum(axis=-1)) <= 1e-10 * scale)


@st.composite
def nurbs_and_points(draw):
    dim = draw(st.integers(1, 3))
    kvs = tuple(draw(knot_vectors(max_degree=4 if dim < 3 else 3)) for _ in range(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(kv.n_basis for kv in kvs)
    rational = draw(st.booleans())
    weights = rng.uniform(0.5, 2.0, shape) if rational else np.ones(shape)
    spline = TensorSpline(kvs, np.zeros(shape + (1,)), weights)
    n = draw(st.integers(1, 6))
    theta = rng.uniform(0.0, 1.0, (n, dim))
    # Include the clamped ends, where the last span closes the domain.
    theta[0] = draw(st.sampled_from([0.0, 1.0]))
    return spline, theta


@SETTINGS
@given(case=nurbs_and_points())
def test_batched_basis_jets_match_per_point_oracle(case):
    # The row table of unit coefficients of each jet entry is the basis jet.
    spline, theta = case
    cols, val, grad, hess = basis_jets(spline, theta)
    for n, point in enumerate(theta):
        ref_cols, ref_val, ref_grad, ref_hess = point_basis_jets(spline, point)
        assert np.array_equal(cols[n], ref_cols)
        scale = max(1.0, np.abs(ref_hess).max())
        assert np.allclose(val[n], ref_val, rtol=0, atol=1e-13)
        assert np.allclose(grad[n], ref_grad.T, rtol=0, atol=1e-11 * scale)
        assert np.allclose(hess[n], np.moveaxis(ref_hess, 0, -1), rtol=0, atol=1e-11 * scale)


@st.composite
def rational_lattices(draw, components=st.just(2)):
    """A random rational 1-3D spline, lattice axes and an order up to 2.

    The spline has two components unless ``components`` draws others.
    """
    dim = draw(st.integers(1, 3))
    kvs = tuple(draw(knot_vectors(max_degree=4 if dim < 3 else 3)) for _ in range(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(kv.n_basis for kv in kvs)
    c = draw(components)
    spline = TensorSpline(kvs, rng.normal(size=shape + (c,)), rng.uniform(0.5, 2.0, shape))
    axes = [np.append(rng.uniform(0.0, 1.0, draw(st.integers(0, 3))), 1.0) for _ in kvs]
    return spline, axes, draw(st.integers(0, 2))


@SETTINGS
@given(case=rational_lattices())
def test_rational_lattice_jets_match_per_point_quotient_rule(case):
    # evaluate_lattice solves the Leibniz system of the numerator's sums
    # forward; the oracle writes the quotient rule out term by term.
    spline, axes, order = case
    jet = spline.evaluate_lattice(axes, order)
    for index in np.ndindex(*(len(a) for a in axes)):
        point = [a[i] for a, i in zip(axes, index)]
        value, grad, hess, _ = point_jet(spline, point, max_deriv=order)
        scale = max(1.0, np.abs(value).max())
        assert np.allclose(jet.value[index], value, rtol=0, atol=1e-13 * scale)
        for got, want in ((jet.grad, grad), (jet.hess, hess)):
            if want is None:
                assert got is None
            else:
                scale = max(1.0, np.abs(want).max())
                assert np.allclose(got[index], want, rtol=0, atol=1e-11 * scale)


@SETTINGS
@given(case=rational_lattices(components=st.integers(1, 3)))
def test_rational_lattice_jets_match_the_homogeneous_path(case):
    # W contracted apart from w q rounds as the stacked [w q | w] did, to
    # within a few units in the last place of each part's largest entry.
    spline, axes, order = case
    jet, oracle = spline.evaluate_lattice(axes, order), homogeneous_lattice_jet(spline, axes, order)
    for got, want in zip((jet.value, jet.grad, jet.hess), (oracle.value, oracle.grad, oracle.hess)):
        assert (got is None) == (want is None)
        if got is not None:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@st.composite
def refinements(draw):
    """A random rational 1-3D spline, a direction and knots it may take there."""
    dim = draw(st.integers(1, 3))
    kvs = tuple(draw(knot_vectors(max_degree=4 if dim < 3 else 3)) for _ in range(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(kv.n_basis for kv in kvs)
    spline = TensorSpline(kvs, rng.normal(size=shape + (2,)), rng.uniform(0.5, 2.0, shape))
    axis = draw(st.integers(0, dim - 1))
    kv = kvs[axis]
    knots = []
    for k in draw(st.lists(st.integers(1, 31), min_size=1, max_size=10)):
        u = k / 32
        if np.count_nonzero(kv.knots == u) + knots.count(u) < kv.degree:
            knots.append(u)
    return spline, axis, knots


@SETTINGS
@given(case=refinements())
def test_refinement_preserves_geometry_and_matches_sequential_insertion(case):
    spline, axis, knots = case
    refined = spline.insert_knots(axis, knots)

    rng = np.random.default_rng(len(knots))
    theta = rng.uniform(0.0, 1.0, (50, spline.dim))
    before, after = values_at(spline, theta), values_at(refined, theta)
    assert np.abs(after - before).max() <= 1e-13 * max(1.0, np.abs(before).max())

    w = spline.weights[..., None]
    hom = np.moveaxis(np.concatenate([w * spline.coeffs, w], axis=-1), axis, 0)
    flat = hom.reshape(len(hom), -1)
    seq = spline.kvs[axis].knots
    for u in knots:
        seq, flat = boehm_insert(seq, spline.kvs[axis].degree, flat, u)
    expected = np.moveaxis(flat.reshape((len(flat),) + hom.shape[1:]), 0, axis)
    assert np.array_equal(refined.kvs[axis].knots, seq)
    assert np.allclose(refined.weights, expected[..., -1], rtol=1e-13, atol=0)
    coeffs = expected[..., :-1] / expected[..., -1:]
    assert np.allclose(refined.coeffs, coeffs, rtol=0, atol=1e-13 * np.abs(coeffs).max())


@pytest.mark.parametrize("example,n", [("I", 1000), ("II", 60)])
def test_uniform_refinement_at_benchmark_size_matches_sequential_insertion(example, n):
    # The benchmark's largest fields: hundreds of knots in one pass, along
    # every direction.
    geometry = make_example(example).geometry
    spline = geometry.spline
    knots = [
        kv.start + np.arange(1, n - kv.n_basis + 1) * (kv.end - kv.start) / (n - kv.n_basis + 1)
        for kv in spline.kvs
    ]
    refined = spline
    for axis, uniform in enumerate(knots):
        refined = refined.insert_knots(axis, uniform)
    field = build_field(geometry, n)
    assert field.kvs == refined.kvs and np.array_equal(field.weights, refined.weights)

    w = spline.weights[..., None]
    expected = np.concatenate([w * spline.coeffs, w], axis=-1)
    for axis, (kv, uniform) in enumerate(zip(spline.kvs, knots)):
        hom = np.moveaxis(expected, axis, 0)
        flat = hom.reshape(len(hom), -1)
        seq = kv.knots
        for u in uniform:
            seq, flat = boehm_insert(seq, kv.degree, flat, u)
        assert np.array_equal(refined.kvs[axis].knots, seq)
        expected = np.moveaxis(flat.reshape((len(flat),) + hom.shape[1:]), 0, axis)
    assert refined.shape == (n,) * spline.dim
    assert np.allclose(refined.weights, expected[..., -1], rtol=1e-13, atol=0)
    coeffs = expected[..., :-1] / expected[..., -1:]
    assert np.allclose(refined.coeffs, coeffs, rtol=0, atol=1e-13 * np.abs(coeffs).max())
