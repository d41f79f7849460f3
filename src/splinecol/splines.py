"""B-spline / NURBS fundamentals.

Knot vectors, basis-function evaluation with derivatives, Greville
abscissae, knot insertion and uniform refinement, and tensor-product
(rational) spline objects of dimension 1 to 3.

All objects are immutable after construction; refinement operations
return new objects. Coefficients are stored densely in lexicographic
order with the last parametric axis fastest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._validation import as_float_array, as_points
from .errors import (
    DomainError,
    InvalidRefinementError,
    UnsupportedDerivativeError,
)


def _basis_ders(knots, degree, spans, u, n_ders):
    """Nonzero basis functions and derivatives at parameters ``u`` (The NURBS Book A2.3).

    ``spans`` and ``u`` are arrays of shape (m,). Returns an array of shape
    (m, n_ders+1, degree+1); entry [j, k] holds the k-th derivatives of the
    degree+1 basis functions supported on ``spans[j]``. The recurrences act
    on all parameters at once; the loops run over the degree only.
    """
    p = degree
    m = len(u)
    ndu = np.empty((p + 1, p + 1, m))
    left = np.empty((p + 1, m))
    right = np.empty((p + 1, m))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = u - knots[spans + 1 - j]
        right[j] = knots[spans + j] - u
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((n_ders + 1, p + 1, m))
    ders[0] = ndu[:, p]
    a = np.empty((2, p + 1, m))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, n_ders + 1):
            d = np.zeros(m)
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d += a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    r = p
    for k in range(1, n_ders + 1):
        ders[k] *= r
        r *= p - k
    return np.moveaxis(ders, -1, 0)


def _local_basis(kv, u, max_deriv):
    """Spans (m,) and local derivative tables (m, max_deriv+1, p+1) at parameters ``u``."""
    if max_deriv > kv.degree:
        raise UnsupportedDerivativeError(
            f"derivative order {max_deriv} exceeds degree {kv.degree}"
        )
    u = np.asarray(u, dtype=float).reshape(-1)
    spans = kv.find_span(u)
    return spans, _basis_ders(kv.knots, kv.degree, spans, u, max_deriv)


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
            raise ValueError(f"degree must be a non-negative integer, got {p!r}")
        object.__setattr__(self, "degree", int(p))
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be nondecreasing")
        n = len(knots) - p - 1
        if n < p + 1:
            raise ValueError(
                f"need at least {2 * (p + 1)} knots for degree {p}, got {len(knots)}"
            )
        if knots[0] != knots[p] or (knots[p + 1] == knots[0]):
            raise ValueError("first knot must be repeated exactly degree+1 times")
        if knots[-1] != knots[-p - 1] or (knots[-p - 2] == knots[-1]):
            raise ValueError("last knot must be repeated exactly degree+1 times")
        interior = knots[(knots > knots[0]) & (knots < knots[-1])]
        if interior.size:
            _, counts = np.unique(interior, return_counts=True)
            if np.any(counts > p):
                raise ValueError("interior knot multiplicity exceeds degree")

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

    @property
    def spans(self) -> list[tuple[float, float]]:
        """Nonempty knot intervals as (left, right) pairs."""
        bp = self.breakpoints
        return list(zip(bp[:-1], bp[1:]))

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

    def basis_values(self, u, max_deriv: int = 0) -> np.ndarray:
        """Nonzero basis functions and derivatives at ``u`` (a scalar or an array).

        A scalar gives an array of shape (max_deriv+1, degree+1); an array of
        parameters prepends its shape. Row 0 sums to 1, higher rows sum to 0.
        The columns correspond to basis indices span-degree .. span.
        """
        _, ders = _local_basis(self, u, max_deriv)
        return ders.reshape(np.shape(u) + ders.shape[1:])

    def greville_abscissae(self) -> np.ndarray:
        """Per-basis averages of degree consecutive knots (collocation sites)."""
        p = self.degree
        if p == 0:
            raise ValueError("Greville abscissae are undefined for degree 0")
        windows = np.lib.stride_tricks.sliding_window_view(self.knots[1:-1], p)
        # Rounding must not push boundary sites outside the knot range.
        return np.clip(windows[: self.n_basis].mean(axis=1), self.start, self.end)

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
    ``hess`` (d, d, c).
    """

    value: np.ndarray
    grad: np.ndarray | None
    hess: np.ndarray | None


def _deriv_multi_indices(dim, max_total):
    """All per-direction order tuples with total order <= max_total."""
    out = []
    for total in range(max_total + 1):
        for alpha in itertools.product(range(total + 1), repeat=dim):
            if sum(alpha) == total:
                out.append(alpha)
    return out


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
            raise ValueError("tensor splines support dimensions 1 to 3")
        shape = tuple(kv.n_basis for kv in kvs)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape == shape:  # scalar-valued input: add component axis
            coeffs = coeffs[..., None]
        if coeffs.shape[:-1] != shape or coeffs.ndim != len(shape) + 1:
            raise ValueError(
                f"coefficients must have shape {shape + ('c',)}, got {coeffs.shape}"
            )
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != shape:
            raise ValueError(f"weights must have shape {shape}, got {weights.shape}")
        if np.any(weights <= 0):
            raise ValueError("all weights must be strictly positive")
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
        """Same basis and weights, different coefficients."""
        return TensorSpline(self.kvs, coeffs, self.weights)

    # -- evaluation ---------------------------------------------------------

    def _homogeneous(self):
        w = self.weights[..., None]
        return np.concatenate([w * self.coeffs, w], axis=-1)

    def evaluate_lattice(self, axes, max_deriv: int = 0) -> LatticeJet:
        """Jet on the tensor lattice spanned by per-direction parameter arrays.

        The field is contracted one direction at a time with full 1D
        derivative tables (sum factorization). Rational derivatives are
        supported up to order 2; B-splines with unit weights additionally
        support any order up to the degree.
        """
        axes = [as_float_array(a, f"axes[{i}]", ndim=1) for i, a in enumerate(axes)]
        if len(axes) != self.dim:
            raise ValueError(f"expected {self.dim} axes, got {len(axes)}")
        polynomial = self.is_polynomial
        if max_deriv > 2 and not polynomial:
            raise UnsupportedDerivativeError(
                "rational derivatives are supported up to order 2"
            )

        # Full (max_deriv+1, n_points, n_basis) derivative tables per direction.
        tables = []
        for kv, pts in zip(self.kvs, axes):
            spans, ders = _local_basis(kv, pts, max_deriv)
            tab = np.zeros((max_deriv + 1, len(pts), kv.n_basis))
            cols = spans[:, None] + np.arange(-kv.degree, 1)
            tab[:, np.arange(len(pts))[:, None], cols] = np.moveaxis(ders, 1, 0)
            tables.append(tab)

        source = self.coeffs if polynomial else self._homogeneous()
        subs = {
            1: "ui,ic->uc",
            2: "ui,vj,ijc->uvc",
            3: "ui,vj,wk,ijkc->uvwc",
        }[self.dim]

        sums = {}
        for alpha in _deriv_multi_indices(self.dim, max_deriv):
            ops = [tables[a][alpha[a]] for a in range(self.dim)]
            sums[alpha] = np.einsum(subs, *ops, source, optimize=True)

        if not polynomial:
            c = self.ncomp
            num = {alpha: s[..., :c] for alpha, s in sums.items()}
            den = {alpha: s[..., c:] for alpha, s in sums.items()}
            sums = _quotient_rule(num, den)
        return LatticeJet(*_stack_jet(sums, self.dim, max_deriv))

    def basis_jets(self, theta):
        """Jets of the nonzero (rational) basis functions at N parameter points.

        ``theta`` has shape (N, d). Returns ``(cols, value, grad, hess)``:
        ``cols`` (N, L) holds the flat coefficient indices of each point's
        local support block of L = prod(degree + 1) functions, ``value`` has
        shape (N, L), ``grad`` (N, d, L) and ``hess`` (N, d, d, L), the
        layout of :class:`LatticeJet` with the basis functions in place of
        the value components. These are the functions the unknown
        coefficients multiply, so rows of collocation systems are linear
        combinations of them. Derivatives above a direction's degree are
        zero.
        """
        theta = as_points(theta, self.dim)
        n = len(theta)
        cols = np.zeros((n, 1), dtype=np.intp)
        tables = []
        for a, kv in enumerate(self.kvs):
            order = min(2, kv.degree)
            spans, ders = _local_basis(kv, theta[:, a], order)
            tab = np.zeros((3, n, kv.degree + 1))
            tab[: order + 1] = np.moveaxis(ders, 1, 0)
            tables.append(tab)
            local = spans[:, None] + np.arange(-kv.degree, 1)
            cols = _flat_outer(cols * kv.n_basis, local, np.add)

        def outer(alpha):
            x = tables[0][alpha[0]]
            for a in range(1, self.dim):
                x = _flat_outer(x, tables[a][alpha[a]], np.multiply)
            return x

        w_loc = self.weights.reshape(-1)[cols]
        num = {alpha: w_loc * outer(alpha) for alpha in _deriv_multi_indices(self.dim, 2)}
        den = {alpha: x.sum(axis=1, keepdims=True) for alpha, x in num.items()}
        return (cols,) + _stack_jet(_quotient_rule(num, den), self.dim, 2)

    # -- refinement ---------------------------------------------------------

    def insert_knots(self, direction: int, knots) -> "TensorSpline":
        """Insert ``knots`` along ``direction`` in one pass; geometry is preserved exactly.

        Weights and weighted coefficients are updated together, in
        homogeneous coordinates, by knot-vector refinement (The NURBS Book
        A5.4).
        """
        if not 0 <= direction < self.dim:
            raise ValueError(f"direction {direction} out of range for dim {self.dim}")
        kv = self.kvs[direction]
        new_kv = kv.insert(knots)  # validates range and multiplicity
        inserted = np.sort(np.atleast_1d(np.asarray(knots, dtype=float)))
        if not inserted.size:
            return self
        hom = np.moveaxis(self._homogeneous(), direction, 0)
        out = _refine_homogeneous(kv, new_kv, inserted, hom)
        out = np.moveaxis(out, 0, direction)
        weights = out[..., -1]
        coeffs = out[..., :-1] / weights[..., None]
        kvs = list(self.kvs)
        kvs[direction] = new_kv
        return TensorSpline(tuple(kvs), coeffs, weights)

    def insert_knot(self, direction: int, u: float) -> "TensorSpline":
        """Insert ``u`` once along ``direction``; geometry is preserved exactly."""
        return self.insert_knots(direction, [u])

    def refine_uniform(self, counts) -> "TensorSpline":
        """Uniformly insert interior knots per direction (count per direction)."""
        counts = tuple(int(c) for c in np.atleast_1d(counts))
        if len(counts) != self.dim:
            raise ValueError(f"expected {self.dim} counts, got {counts}")
        s = self
        for a, count in enumerate(counts):
            lo, hi = s.kvs[a].start, s.kvs[a].end
            s = s.insert_knots(a, lo + np.arange(1, count + 1) * (hi - lo) / (count + 1))
        return s


def _refine_homogeneous(kv, new_kv, X, hom):
    """Homogeneous coefficients on ``new_kv`` after refining ``kv`` (The NURBS Book A5.4).

    ``X`` holds the inserted knots in ascending order and ``new_kv`` is
    ``kv`` with them merged in; ``hom`` (n, ...) holds the homogeneous
    coefficients with the refined direction first. The loops run over the
    inserted knots and the degree; each step updates a whole slice.
    """
    p, U, Ubar = kv.degree, kv.knots, new_kv.knots
    r = len(X) - 1
    n = len(hom) - 1
    a = kv.find_span(X[0])
    b = kv.find_span(X[r]) + 1
    Q = np.empty((n + r + 2,) + hom.shape[1:])
    Q[: a - p + 1] = hom[: a - p + 1]
    Q[b + r :] = hom[b - 1 :]
    i, k = b + p - 1, b + p + r
    for j in range(r, -1, -1):
        while X[j] <= U[i] and i > a:
            Q[k - p - 1] = hom[i - p - 1]
            k -= 1
            i -= 1
        Q[k - p - 1] = Q[k - p]
        for l in range(1, p + 1):
            ind = k - p + l
            alpha = Ubar[k + l] - X[j]
            if alpha == 0.0:
                Q[ind - 1] = Q[ind]
            else:
                alpha /= Ubar[k + l] - U[i - p + l]
                Q[ind - 1] = alpha * Q[ind - 1] + (1.0 - alpha) * Q[ind]
        k -= 1
    return Q


def _unit(dim, axis):
    e = [0] * dim
    e[axis] = 1
    return tuple(e)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _split_second_order(alpha):
    """Split a total-order-2 multi-index into two unit multi-indices."""
    first = None
    d = len(alpha)
    for axis in range(d):
        for _ in range(alpha[axis]):
            if first is None:
                first = _unit(d, axis)
            else:
                return first, _unit(d, axis)
    raise ValueError(f"not a second-order multi-index: {alpha}")


def _flat_outer(x, y, op):
    """Per-row outer ``op`` of x (N, A) and y (N, B), flattened to (N, A*B) in C order."""
    return op(x[:, :, None], y[:, None, :]).reshape(len(x), x.shape[1] * y.shape[1])


def _quotient_rule(num, den):
    """Partial derivatives of num / den up to total order 2.

    ``num`` and ``den`` map per-direction derivative orders to arrays that
    broadcast against each other: the weighted sums of a NURBS object and
    of its weights. Differentiating num = q * den by the Leibniz rule gives
    the derivatives of the rational quotient q.
    """
    zero = next(iter(num))
    w0 = den[zero]
    q = {zero: num[zero] / w0}
    for alpha in num:
        if sum(alpha) == 1:
            q[alpha] = (num[alpha] - den[alpha] * q[zero]) / w0
        elif sum(alpha) == 2:
            a, b = _split_second_order(alpha)
            q[alpha] = (
                num[alpha] - den[alpha] * q[zero] - den[a] * q[b] - den[b] * q[a]
            ) / w0
    return q


def _stack_jet(partials, dim, max_deriv):
    """Value, gradient (..., d, c) and Hessian (..., d, d, c) from partials (..., c)."""
    d = dim
    grad = hess = None
    if max_deriv >= 1:
        grad = np.stack([partials[_unit(d, a)] for a in range(d)], axis=-2)
    if max_deriv >= 2:
        rows = []
        for a in range(d):
            cols = [partials[_add(_unit(d, a), _unit(d, b))] for b in range(d)]
            rows.append(np.stack(cols, axis=-2))
        hess = np.stack(rows, axis=-3)
    return partials[(0,) * d], grad, hess
