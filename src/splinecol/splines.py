"""B-spline / NURBS fundamentals.

Knot vectors, basis-function evaluation with derivatives, Greville
abscissae, knot insertion, and tensor-product (rational) spline objects
of dimension 1 to 3.

A tensor spline is evaluated in two ways, both batched: field jets on a
lattice of parameters (``TensorSpline.evaluate_lattice``) and, at
scattered points, linear combinations of its basis functions' partials
(``TensorSpline.row_table``), whose unit value coefficients give the
basis values themselves. A rational spline divides by its weight
function W in one place: the Leibniz system of P = q W, solved forward
for a field's partials and transposed for a row's coefficients.

All objects are immutable after construction; refinement operations
return new objects. Coefficients are stored densely in lexicographic
order with the last parametric axis fastest.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._validation import as_float_array, as_points
from .errors import (
    DomainError,
    InvalidRefinementError,
    PreconditionError,
    UnsupportedDerivativeError,
)


def _basis_ders(knots, degree, spans, u, max_deriv):
    """Nonzero basis functions and derivatives at parameters ``u``, as (max_deriv+1, m, degree+1).

    ``spans`` and ``u`` have shape (m,); entry [k, j] holds the k-th
    derivatives of the degree+1 functions supported on ``spans[j]``, and
    rows above the degree are exact zeros. Level q of the loop takes a
    block of degree q-1 rows to degree q for all parameters at once:

    - values follow the Cox-de Boor triangle with the arithmetic of The
      NURBS Book's A2.3, so they match it bit for bit;
    - the k-th derivative row starts as the values of degree p-k and
      takes de Boor's N'_{i,q} = q (N_{i,q-1} / (t_{i+q} - t_i) -
      N_{i+1,q-1} / (t_{i+q+1} - t_{i+1})) at levels p-k+1 .. p, dividing
      by the triangle's own interval lengths. Each interval contains the
      nonempty span, so none is zero. The factors q are applied once at
      the end, as p!/(p-k)!.

    The last level writes straight into the returned table.
    """
    p, order = degree, min(max_deriv, degree)
    out = np.empty((max_deriv + 1, len(u), p + 1))
    out[order + 1 :] = 0.0
    # Row i of left holds u - t[span-p+i], row i of right t[span+1+i] - u.
    ext = knots[spans + np.arange(-p, p + 2)[:, None]]
    left = np.subtract(u, ext[: p + 1], out=ext[: p + 1])
    right = np.subtract(ext[p + 1 :], u, out=ext[p + 1 :])
    # A block holds the values, then the derivative rows begun so far; its
    # quotients by the interval lengths sit between zero rows in ``pad``.
    final = np.moveaxis(out[: order + 1], 2, 1)
    block = np.empty((order + 1, p + 1, len(u))) if p else final
    block[0, 0] = 1.0
    pad = np.zeros((order + 1, p + 2, len(u)))
    rows = 1
    for q in range(1, p + 1):
        np.divide(block[:rows, :q], right[:q] + left[p - q + 1 :], out=pad[:rows, 1 : q + 1])
        block = final if q == p else block
        rows += q > p - order
        # Value r is right * quotient r + left * quotient r-1; derivative
        # row r is the difference of quotients r-1 and r, and the row begun
        # at this level takes the values' quotients.
        quot = pad[0, : q + 2]
        np.multiply(right[: q + 1], quot[1:], out=block[0, : q + 1])
        block[0, : q + 1] += left[p - q :] * quot[:-1]
        if rows > 1:
            quots = pad[: rows - 1, : q + 2]
            np.subtract(quots[:, :-1], quots[:, 1:], out=block[1:rows, : q + 1])
    for k in range(1, order + 1):
        out[k] *= math.perm(p, k)
    return out


def _direction_tables(kv, u, max_deriv):
    """First basis index (m,) and local tables (max_deriv+1, m, p+1) at parameters ``u``.

    Row k of the tables holds the k-th derivatives of the p+1 functions
    first .. first+p; orders above the degree are zero rows.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    spans = kv.find_span(u)
    return spans - kv.degree, _basis_ders(kv.knots, kv.degree, spans, u, max_deriv)


#: Largest dense direction table, in entries (orders x points x basis), that
#: ``evaluate_lattice`` builds; a larger direction is contracted through its
#: band as a CSR matrix with p+1 entries per row. Placed by timing both
#: forms on every ``evaluate_lattice`` call of the benchmark's error reports
#: (one BLAS thread, median ms per call, dense -> band): 1D fields gain from
#: about 3e4 entries on (29820: 1.11 -> 0.99, 59820: 2.00 -> 1.56, 250250:
#: 0.60 -> 0.40, 1.5e7: 37 -> 2.9) and tie below that; the widest 2D/3D
#: table, II n = 60 at 51300 entries, ties (7.3 -> 7.2 over 60 alternating
#: calls), and smaller ones lose up to 2.7 ms (30375: 4.6 -> 4.9, III's
#: 45^3 lattice at 1620: 3.2 -> 5.5, II's geometry at 3420: 12.4 -> 15.2).
#: 2**16 keeps every 2D/3D direction of the benchmark dense.
DENSE_TABLE_LIMIT = 1 << 16


def _direction_operators(kv, u, max_deriv):
    """One (points, basis) matrix per derivative order at parameters ``u``.

    The matrices are dense while their table fits ``DENSE_TABLE_LIMIT``
    and CSR over the band of p+1 nonzero columns per row above it.
    """
    first, local = _direction_tables(kv, u, max_deriv)
    orders, m, width = local.shape
    if orders * m * kv.n_basis <= DENSE_TABLE_LIMIT:
        # One flat index into each order's (points x basis) table scatters
        # about twice as fast as two broadcast index arrays.
        flat = ((first + kv.n_basis * np.arange(m))[:, None] + np.arange(width)).ravel()
        table = np.zeros((orders, m * kv.n_basis))
        for row, values in zip(table, local):
            row[flat] = values.ravel()
        return list(table.reshape(orders, m, kv.n_basis))
    cols = first[:, None] + np.arange(width)
    indptr = np.arange(0, m * width + 1, width)
    shape = (m, kv.n_basis)
    return [sp.csr_array((k.ravel(), cols.ravel(), indptr), shape=shape) for k in local]


def _contract_leading(op, x, out=None):
    """Contract the leading axis of ``x`` (basis, rest) with the (points, basis) ``op``.

    Returns the (rest, points) product, so the new lattice axis comes
    last; a dense ``op`` is one GEMM on transposed views, written into
    ``out`` when given.
    """
    if not sp.issparse(op):
        return np.matmul(x.T, op.T, out=out)
    y = (op @ x).T
    if out is not None:
        out[...] = y
    return y


@dataclass(frozen=True, eq=False)
class KnotVector:
    """A clamped (open) knot vector with its polynomial degree.

    Invariants enforced at construction: knots nondecreasing, the first and
    last knots each repeated exactly degree+1 times, at least degree+1 basis
    functions, and no interior knot of multiplicity above the degree.
    """

    knots: np.ndarray
    degree: int

    def __eq__(self, other):
        if not isinstance(other, KnotVector):
            return NotImplemented
        return self.degree == other.degree and np.array_equal(self.knots, other.knots)

    def __hash__(self):
        return hash((self.degree, self.knots.tobytes()))

    def __post_init__(self):
        knots = as_float_array(self.knots, "knots", ndim=1).copy()
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        p = self.degree
        if int(p) != p or p < 0:
            raise PreconditionError(f"degree must be a non-negative integer, got {p!r}")
        object.__setattr__(self, "degree", int(p))
        if np.any(np.diff(knots) < 0):
            raise PreconditionError("knots must be nondecreasing")
        n = len(knots) - p - 1
        if n < p + 1:
            raise PreconditionError(
                f"need at least {2 * (p + 1)} knots for degree {p}, got {len(knots)}"
            )
        if knots[0] != knots[p] or (knots[p + 1] == knots[0]):
            raise PreconditionError("first knot must be repeated exactly degree+1 times")
        if knots[-1] != knots[-p - 1] or (knots[-p - 2] == knots[-1]):
            raise PreconditionError("last knot must be repeated exactly degree+1 times")
        interior = knots[(knots > knots[0]) & (knots < knots[-1])]
        if interior.size:
            _, counts = np.unique(interior, return_counts=True)
            if np.any(counts > p):
                raise PreconditionError("interior knot multiplicity exceeds degree")

    @property
    def n_basis(self) -> int:
        """Number of basis functions."""
        return len(self.knots) - self.degree - 1

    @property
    def start(self) -> float:
        return float(self.knots[0])

    @property
    def end(self) -> float:
        return float(self.knots[-1])

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knot values, i.e. the cell boundaries."""
        return np.unique(self.knots)

    def find_span(self, u):
        """Index i with knots[i] <= u < knots[i+1], for a scalar or an array of parameters.

        The right end of the domain maps to the last nonempty span so that
        boundary evaluation at the final parameter is valid. An array of
        parameters gives an array of spans of the same shape.
        """
        u = np.asarray(u, dtype=float)
        bad = ~((u >= self.start) & (u <= self.end))
        if bad.any():
            first = float(u.reshape(-1)[np.argmax(bad.reshape(-1))])
            raise DomainError(
                f"parameter {first!r} outside knot range [{self.start}, {self.end}]"
            )
        span = np.searchsorted(self.knots, u, side="right") - 1
        span = np.clip(span, self.degree, self.n_basis - 1)
        return int(span) if span.ndim == 0 else span

    def greville_abscissae(self) -> np.ndarray:
        """Per-basis averages of degree consecutive knots; the end sites are the end knots."""
        p = self.degree
        if p == 0:
            raise PreconditionError("Greville abscissae are undefined for degree 0")
        windows = np.lib.stride_tricks.sliding_window_view(self.knots[1:-1], p)
        sites = windows[: self.n_basis].mean(axis=1)
        sites[[0, -1]] = self.start, self.end
        return sites

    def insert(self, knots) -> "KnotVector":
        """New knot vector with ``knots`` (one value or several) inserted, no coefficient update.

        Raises :class:`InvalidRefinementError` when a knot does not lie
        strictly inside the domain or would raise its multiplicity above the
        degree.
        """
        new = np.atleast_1d(np.asarray(knots, dtype=float))
        outside = ~((new > self.start) & (new < self.end))
        if outside.any():
            raise InvalidRefinementError(
                f"insertion parameter {float(new[outside][0])!r} must lie strictly "
                f"inside ({self.start}, {self.end})"
            )
        values, counts = np.unique(new, return_counts=True)
        have = np.searchsorted(self.knots, values, "right") - np.searchsorted(
            self.knots, values, "left"
        )
        over = have + counts > self.degree
        if over.any():
            raise InvalidRefinementError(
                f"inserting {float(values[over][0])!r} would raise its multiplicity "
                "above the degree"
            )
        return KnotVector(np.sort(np.concatenate([self.knots, new])), self.degree)


@dataclass(frozen=True)
class LatticeJet:
    """Batched jet on a tensor lattice of parameters.

    ``value`` has shape (m1, ..., md, c); ``grad`` appends (d, c) and
    ``hess`` (d, d, c). All three are views of one buffer that is
    derivative-major and then component-major, so each entry
    ``grad[..., a, k]`` or ``hess[..., a, b, k]`` is a contiguous array
    over the lattice. The views are in general not C-contiguous, and
    callers must not write to them.
    """

    value: np.ndarray
    grad: np.ndarray | None
    hess: np.ndarray | None


def jet_size(dim, order):
    """Number of rows of a jet buffer up to ``order``: 1 + d + d*d at order 2."""
    return sum(dim**k for k in range(order + 1))


@functools.lru_cache(maxsize=None)
def _jet_rows(dim, order):
    """Rows of each partial in a jet buffer up to ``order`` (at most 2), keyed by multi-index.

    A jet buffer's rows hold the value, the d first partials and the d*d
    second partials (a, b) in C order, so a mixed partial has two rows,
    (a, b) with a < b first. The keys come in row order, so each partial
    follows every partial it is a derivative of. The mapping is read-only,
    as calls share it.
    """
    units = [tuple(int(k == a) for k in range(dim)) for a in range(dim)]
    alphas = [(0,) * dim] + units
    alphas += [tuple(x + y for x, y in zip(u, v)) for u in units for v in units]
    rows = {}
    for row, alpha in enumerate(alphas[: jet_size(dim, order)]):
        rows.setdefault(alpha, []).append(row)
    return types.MappingProxyType({alpha: tuple(r) for alpha, r in rows.items()})


def _jet_views(buf, dim, order):
    """Value, gradient and Hessian views of a jet buffer whose first row of each partial is filled.

    Copies each mixed second partial to its (b, a) row, then moves the
    lattice axes, the last d of each row, to the front, so the views have
    the shapes of :class:`LatticeJet`. Entries above ``order`` are None.
    """
    d = dim
    for first, *twin in _jet_rows(d, order).values():
        if twin:
            buf[twin[0]] = buf[first]
    blocks = [buf[0]]
    if order >= 1:
        blocks.append(buf[1 : 1 + d])
    if order == 2:
        blocks.append(buf[1 + d :].reshape((d, d) + buf.shape[1:]))
    views = [np.moveaxis(x, range(-d, 0), range(d)) for x in blocks]
    return tuple(views + [None] * (2 - order))


def _lattice_operators(kvs, axes, order):
    """Each direction's operators (:func:`_direction_operators`) up to ``order`` at ``axes``.

    Isotropic fields repeat a knot vector and axis; each table is built once.
    """
    ops = []
    for kv, pts in zip(kvs, axes):
        same = [o for k, p, o in zip(kvs, axes, ops) if k == kv and np.array_equal(p, pts)]
        ops.append(same[0] if same else _direction_operators(kv, pts, order))
    return ops


def _lattice_sums(x, ops, order):
    """Sums of coefficients ``x`` (n1, ..., nd, k) and their partials up to ``order`` on a lattice.

    ``ops`` holds each direction's operators (:func:`_lattice_operators`).
    Returns a jet buffer (rows, k, m1, ..., md) in the layout of
    :class:`LatticeJet` whose first row of each partial is filled. Each
    step is one matrix product that contracts the leading basis axis and
    appends the lattice axis, so after d steps a partial is laid out
    (k, m1, ..., md), its block of the buffer, and the last step writes it
    there. Prefixes are shared: direction 0 is contracted once per order,
    direction 1 once per pair of orders, and so on.
    """
    d, shape = len(ops), x.shape[: len(ops)]
    lattice = tuple(o[0].shape[0] for o in ops)
    rows = _jet_rows(d, order)
    sums = np.empty((jet_size(d, order), x.shape[d]) + lattice)
    prefixes = {(): x.reshape(shape[0], -1)}
    for a in range(d - 1):
        prefixes = {
            prefix + (k,): _contract_leading(ops[a][k], y).reshape(shape[a + 1], -1)
            for prefix, y in prefixes.items()
            for k in range(order - sum(prefix) + 1)
        }
    # The last step's block is sized from y, as -1 is ambiguous when md = 0.
    for prefix, y in prefixes.items():
        for k in range(order - sum(prefix) + 1):
            out = sums[rows[prefix + (k,)][0]].reshape(y.shape[1], lattice[-1])
            _contract_leading(ops[-1][k], y, out)
    return sums


def _weight_sums(spline, ops, order):
    """W's partials up to ``order`` on the lattice of ``ops``, as (partials, m1, ..., md).

    W is the sum of ``spline``'s weights against its basis; its partials
    come in the order of :func:`_jet_rows`, the first row of each.
    """
    sums = _lattice_sums(spline.weights[..., None], ops, order)
    return sums[[r[0] for r in _jet_rows(spline.dim, order).values()], 0]


def _lattice_jet(spline, ops, order, weight=None):
    """``spline``'s jet up to ``order`` on the lattice of ``ops`` (see ``evaluate_lattice``).

    A B-spline contracts its coefficients. A rational spline contracts its
    homogeneous coefficients [w q | w], or only w q when ``weight`` holds
    W's partials (:func:`_weight_sums` on the same ``ops``), and solves
    the Leibniz system forward for its partials.
    """
    d, c = spline.dim, spline.ncomp
    if spline.is_polynomial:
        return LatticeJet(*_jet_views(_lattice_sums(spline.coeffs, ops, order), d, order))
    rows = _jet_rows(d, order)
    first = [r[0] for r in rows.values()]
    if weight is None:
        sums = _lattice_sums(spline._homogeneous(), ops, order)
        buf = np.empty((len(sums), c) + sums.shape[2:])
        weight, sums = [sums[i, c:] for i in first], sums[:, :c]
    else:
        buf = sums = _lattice_sums(spline.weights[..., None] * spline.coeffs, ops, order)
    plan = _leibniz_plan(tuple(rows))
    _solve_leibniz(plan, weight, [sums[i] for i in first], out=[buf[i] for i in first])
    return LatticeJet(*_jet_views(buf, d, order))


@dataclass(frozen=True)
class TensorSpline:
    """Tensor-product NURBS object (all weights 1 means a plain B-spline).

    ``coeffs`` has shape (n1, ..., nd, c) with c >= 1 value components;
    ``weights`` has shape (n1, ..., nd) and must be strictly positive.
    """

    kvs: tuple[KnotVector, ...]
    coeffs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        kvs = tuple(self.kvs)
        object.__setattr__(self, "kvs", kvs)
        if not 1 <= len(kvs) <= 3:
            raise PreconditionError("tensor splines support dimensions 1 to 3")
        shape = tuple(kv.n_basis for kv in kvs)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape == shape:  # scalar-valued input: add component axis
            coeffs = coeffs[..., None]
        if coeffs.shape[:-1] != shape or coeffs.ndim != len(shape) + 1:
            raise PreconditionError(
                f"coefficients must have shape {shape + ('c',)}, got {coeffs.shape}"
            )
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != shape:
            raise PreconditionError(f"weights must have shape {shape}, got {weights.shape}")
        if np.any(weights <= 0):
            raise PreconditionError("all weights must be strictly positive")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        weights = weights.copy()
        weights.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def polynomial(cls, kvs, coeffs) -> "TensorSpline":
        """B-spline with all weights equal to 1."""
        kvs = tuple(kvs)
        shape = tuple(kv.n_basis for kv in kvs)
        return cls(kvs, coeffs, np.ones(shape))

    @property
    def dim(self) -> int:
        return len(self.kvs)

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[-1]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(kv.n_basis for kv in self.kvs)

    @property
    def n_coeffs(self) -> int:
        return int(np.prod(self.shape))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(kv.degree for kv in self.kvs)

    @property
    def is_polynomial(self) -> bool:
        return bool(np.all(self.weights == 1.0))

    def with_coefficients(self, coeffs) -> "TensorSpline":
        """Same basis and weights, ``coeffs`` (a solve's flat vector, say) in this shape."""
        if np.size(coeffs) != self.coeffs.size:
            raise PreconditionError(f"need {self.coeffs.size} coefficients, got {np.size(coeffs)}")
        return TensorSpline(self.kvs, np.reshape(coeffs, self.coeffs.shape), self.weights)

    # -- evaluation ---------------------------------------------------------

    def _homogeneous(self):
        w = self.weights[..., None]
        return np.concatenate([w * self.coeffs, w], axis=-1)

    def evaluate_lattice(self, axes, max_deriv: int = 0) -> LatticeJet:
        """Jet on the tensor lattice spanned by per-direction parameter arrays.

        The field is contracted one direction at a time with 1D derivative
        tables (sum factorization, :func:`_lattice_sums`), once, on its
        coefficients or, for a rational field, on its homogeneous
        coefficients [w q | w]. A rational field's partials q_f then solve
        the Leibniz system of its homogeneous sums P = q W forward:
        q_f = (P_f - sum_{g < f} C(f, g) W_(f-g) q_g) / W_0. Rational
        derivatives are supported up to order 2; B-splines with unit
        weights accept any order, but the jet holds partials up to order 2
        only.
        """
        axes = [as_float_array(a, f"axes[{i}]", ndim=1) for i, a in enumerate(axes)]
        if len(axes) != self.dim:
            raise PreconditionError(f"expected {self.dim} axes, got {len(axes)}")
        if max_deriv > 2 and not self.is_polynomial:
            raise UnsupportedDerivativeError(
                "rational derivatives are supported up to order 2"
            )

        # The jet exposes partials up to order 2, so none above it is computed.
        order = min(max_deriv, 2)
        return _lattice_jet(self, _lattice_operators(self.kvs, axes, order), order)

    def row_table(self, theta, coeffs):
        """Rows sum_e K_e d^e R_l of the nonzero basis functions R_l at N points.

        ``theta`` has shape (N, d) and ``coeffs`` (E, ..., N): per-point
        coefficients K_e of the jet entries up to order 0, 1 or 2, which
        E = 1, 1 + d or 1 + d + d*d selects. The entries are those of a
        jet buffer: the value, the d first partials, then the d*d second
        partials (a, b) in C order, so (a, b) and (b, a) both weigh the
        same mixed partial. Returns ``(cols, table)``: ``cols`` (N, L) holds
        the flat coefficient indices of each point's local support block of
        L = prod(degree + 1) functions, in C order, and ``table`` (..., N, L)
        the rows. One unit coefficient per point (E = 1) gives the basis
        values R_l themselves. Derivatives above a direction's degree are
        zero.

        The sum is factorised direction by direction on the points' own 1D
        tables t_a: in 3D, sum_e0 t0^e0 (x) [sum_e1 t1^e1 (x) (sum_e2 K_e t2^e2)],
        so no basis jet is formed. A rational basis R_l = w_l N_l / W needs
        no second path: the row is w_l sum_g K'_g d^g N_l, where K' solves
        the transpose of the Leibniz system of :meth:`evaluate_lattice`
        backward, W_0 K'_g = K_g - sum_{f > g} C(f, g) W_(f-g) K'_f, and W's
        jets are per-point sums of this spline's own weights.
        """
        theta = as_points(theta, self.dim)
        coeffs = np.asarray(coeffs, dtype=float)
        d, n = self.dim, len(theta)
        orders = {1: 0, 1 + d: 1, 1 + d + d * d: 2}
        if len(coeffs) not in orders:
            raise UnsupportedDerivativeError(
                f"row tables take the coefficients of {sorted(orders)} jet entries, "
                f"got {len(coeffs)}"
            )
        order = orders[len(coeffs)]
        cols = np.zeros((n, 1), dtype=np.intp)
        tables = []
        for a, kv in enumerate(self.kvs):
            first, tab = _direction_tables(kv, theta[:, a], order)
            tables.append(tab)
            width = cols.shape[1] * (kv.degree + 1)
            cols = (cols * kv.n_basis + first[:, None])[:, :, None] + np.arange(kv.degree + 1)
            cols = cols.reshape(n, width)
        rows = _jet_rows(d, order)
        # (a, b) and (b, a) weigh the same mixed partial.
        coeffs = [coeffs[r[0]] + coeffs[r[1]] if r[1:] else coeffs[r[0]] for r in rows.values()]
        polynomial = self.is_polynomial
        if not polynomial:
            w_loc = self.weights.reshape(-1)[cols]
            w = _local_sums(w_loc, tables, order)
            rhs = [np.array(k) for k in coeffs]  # solved in place
            coeffs = _solve_leibniz(
                _leibniz_plan(tuple(rows)), [w[alpha] for alpha in rows], rhs, transpose=True
            )
        # Contract the last direction first; each key is the multi-index
        # prefix that is still to be contracted.
        blocks = {alpha: k[..., None] for alpha, k in zip(rows, coeffs)}
        for a in reversed(range(d)):
            merged = {}
            for alpha, x in blocks.items():
                term = tables[a][alpha[a]][:, :, None] * x[..., None, :]
                term = term.reshape(term.shape[:-2] + (term.shape[-2] * term.shape[-1],))
                if alpha[:a] in merged:
                    merged[alpha[:a]] += term
                else:
                    merged[alpha[:a]] = term
            blocks = merged
        table = blocks[()]
        if not polynomial:
            table *= w_loc
        return cols, table

    # -- refinement ---------------------------------------------------------

    def insert_knots(self, direction: int, knots) -> "TensorSpline":
        """Insert ``knots`` along ``direction`` in one pass; geometry is preserved exactly.

        :func:`_refine` refines the coefficients: a rational spline's in
        homogeneous coordinates, a B-spline's alone, so its weights stay
        exactly 1.
        """
        if not 0 <= direction < self.dim:
            raise PreconditionError(f"direction {direction} out of range for dim {self.dim}")
        polynomial = self.is_polynomial
        kv, x = self.kvs[direction], self.coeffs if polynomial else self._homogeneous()
        new_kv, out, _ = _refine(x, kv, knots, direction)
        if new_kv.n_basis == kv.n_basis:
            return self
        kvs = self.kvs[:direction] + (new_kv,) + self.kvs[direction + 1 :]
        if polynomial:
            return TensorSpline.polynomial(kvs, out)
        weights = out[..., -1]
        return TensorSpline(kvs, out[..., :-1] / weights[..., None], weights)


def _refine(x, kv, knots, direction, known=None):
    """``kv`` with ``knots`` inserted, and ``x`` (n1, ..., nd, ...) refined along ``direction``.

    Returns the new knot vector, the refined ``x`` and the Oslo rows
    (:func:`_oslo_rows`), which one gather and one contraction apply to
    ``x``; they are None when ``x`` is None or no knot is new. ``known``,
    the new knot vector and Oslo rows of an earlier refinement of ``kv``
    by the same knots, stands in for both. The errors of
    :meth:`KnotVector.insert` name the direction.
    """
    if known is None:
        try:
            known = kv.insert(knots), None
        except InvalidRefinementError as exc:
            raise InvalidRefinementError(f"direction {direction}: {exc}") from None
    new_kv, oslo = known
    if x is None or new_kv.n_basis == kv.n_basis:
        return new_kv, x, oslo
    first, rows = oslo = oslo or _oslo_rows(kv.knots, new_kv.knots, kv.degree)
    x = np.moveaxis(x, direction, 0)
    flat = x.reshape(kv.n_basis, -1)[first[:, None] + np.arange(kv.degree + 1)]
    out = np.einsum("nk,nkr->nr", rows, flat).reshape((new_kv.n_basis,) + x.shape[1:])
    return new_kv, np.moveaxis(out, 0, direction), oslo


def _oslo_rows(tau, t, p):
    """Rows of the Oslo knot-insertion matrix from knots ``tau`` to their refinement ``t``.

    Returns ``first`` (n_new,) and ``rows`` (n_new, p+1): new basis
    coefficient i is ``rows[i] @ old[first[i] : first[i] + p + 1]``. Row i
    is the product of the Cox-de Boor matrices R_1(t[i+1]) ... R_p(t[i+p])
    on the old span mu holding t[i] (the Oslo algorithm of Cohen, Lyche and
    Riesenfeld, 1980); each denominator is the length of an interval of
    ``tau`` that contains that nonempty span, so none is zero. The loop
    runs over the degree only.
    """
    n_new = len(t) - p - 1
    mu = np.clip(np.searchsorted(tau, t[:n_new], "right") - 1, p, len(tau) - p - 2)
    rows = np.ones((n_new, 1))
    for j in range(1, p + 1):
        r = np.arange(j)
        left = tau[mu[:, None] + 1 - j + r]
        right = tau[mu[:, None] + 1 + r]
        x = t[j : j + n_new, None]
        scaled = rows / (right - left)
        rows = np.zeros((n_new, j + 1))
        rows[:, :-1] = scaled * (right - x)
        rows[:, 1:] += scaled * (x - left)
    return mu - p, rows


def _local_sums(x, tables, order):
    """Per-point sums sum_l x_l d^alpha N_l for every alpha up to ``order``, keyed by alpha.

    ``x`` (N, L) holds one value per function of each point's local support
    block, in C order, and ``tables`` the points' (order+1, N, p+1)
    direction tables; directions are contracted last first.
    """
    sums = {(): x.reshape((len(x),) + tuple(t.shape[-1] for t in tables))}
    for a in reversed(range(len(tables))):
        sums = {
            (k,) + key: np.einsum("n...q,nq->n...", y, tables[a][k])
            for key, y in sums.items()
            for k in range(order - sum(key) + 1)
        }
    return sums


@functools.lru_cache(maxsize=None)
def _leibniz_plan(alphas):
    """Entries (f, g, C(f, g), f - g) of the Leibniz system over ``alphas``, as positions in it.

    ``alphas`` lists every multi-index up to a total order of at most 2,
    each after the multi-indices below it (as :func:`_jet_rows` orders
    them). Differentiating P = q W by the Leibniz rule gives
    P_f = sum_{g <= f} C(f, g) W_(f-g) q_g, a lower-triangular system
    L q = P. Its entries come row by row, each row's diagonal (f, f, 1, 0)
    last.
    """
    return tuple(
        (i, j, math.prod(math.comb(fi, gi) for fi, gi in zip(f, g)),
         alphas.index(tuple(fi - gi for fi, gi in zip(f, g))))
        for i, f in enumerate(alphas)
        for j, g in enumerate(alphas)
        if all(gi <= fi for gi, fi in zip(g, f))
    )


def _solve_leibniz(terms, w, rhs, out=None, transpose=False):
    """Solve L x = rhs, or L^T x = rhs, in place for the Leibniz system L of :func:`_leibniz_plan`.

    ``terms`` is the plan, and ``w`` (the jet of W) and ``rhs`` are lists in
    the order of its multi-indices whose arrays broadcast against each
    other. L is solved forward over the entries and L^T backward over the
    same entries in reverse; W_0 is the only divisor. The arrays of ``rhs``
    are overwritten, and each x_f is written into ``out[f]`` when ``out``
    is given. Returns the list of x_f.
    """
    x = list(rhs)
    for f, g, scale, h in reversed(terms) if transpose else terms:
        if f == g:
            x[f] = np.divide(x[f], w[0], out=x[f] if out is None else out[f])
        else:
            i, j = (g, f) if transpose else (f, g)
            x[i] -= (w[h] if scale == 1 else scale * w[h]) * x[j]
    return x
