"""Property tests of the vectorised basis kernel and of knot refinement on random NURBS."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from batched import values_at
from oracles import all_basis_derivs, boehm_insert, point_basis_jets
from splinecol.splines import KnotVector, TensorSpline

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def knot_vectors(draw, max_degree=4):
    """Clamped knot vectors on [0, 1] with interior knots on a 1/16 grid."""
    p = draw(st.integers(1, max_degree))
    drawn = sorted(draw(st.lists(st.integers(1, 15), max_size=8)))
    interior = [k for i, k in enumerate(drawn) if drawn[:i].count(k) < p]
    knots = [0.0] * (p + 1) + [k / 16 for k in interior] + [1.0] * (p + 1)
    return KnotVector(knots, p)


# The recursive oracle is half-open, so parameters stay below the last knot.
parameters = st.lists(
    st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False), min_size=1, max_size=12
)


@SETTINGS
@given(kv=knot_vectors(), us=parameters)
def test_vectorised_kernel_matches_naive_recursion(kv, us):
    us = np.array(us)
    order = min(kv.degree, 3)
    spans = kv.find_span(us)
    ders = kv.basis_values(us, order)
    assert ders.shape == (len(us), order + 1, kv.degree + 1)
    for j, u in enumerate(us):
        for k in range(order + 1):
            full = np.zeros(kv.n_basis)
            full[spans[j] - kv.degree : spans[j] + 1] = ders[j, k]
            oracle = all_basis_derivs(kv.knots, kv.degree, u, k)
            scale = max(1.0, np.abs(oracle).max())
            assert np.allclose(full, oracle, rtol=0, atol=1e-10 * scale)


@SETTINGS
@given(kv=knot_vectors(), us=parameters)
def test_partition_of_unity_and_derivative_sums(kv, us):
    ders = kv.basis_values(np.array(us), kv.degree)
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
    spline, theta = case
    cols, val, grad, hess = spline.basis_jets(theta)
    for n, point in enumerate(theta):
        ref_cols, ref_val, ref_grad, ref_hess = point_basis_jets(spline, point)
        assert np.array_equal(cols[n], ref_cols)
        scale = max(1.0, np.abs(ref_hess).max())
        assert np.allclose(val[n], ref_val, rtol=0, atol=1e-13)
        assert np.allclose(grad[n], ref_grad.T, rtol=0, atol=1e-11 * scale)
        assert np.allclose(hess[n], np.moveaxis(ref_hess, 0, -1), rtol=0, atol=1e-11 * scale)


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
