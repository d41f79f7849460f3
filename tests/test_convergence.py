"""Convergence of IGA-C and IGA-L under refinement in n.

Cubic fields on Greville points converge at order p - 1 = 2, the known
order of odd-degree collocation (Auricchio, Beirao da Veiga, Hughes,
Reali and Sangalli, M3AS 2010). The observed order of each error is
log2(e(n) / e(2n)); on the finest pair it reads 2.08 to 2.36 on I and
II, and the test asks for at least 1.9. III runs n = 10 and 20, past
the preasymptotic pair n = 5 and 10 (orders 2.5 to 4.8): e_T and e_DT
read 2.49 and 2.51 with igac, 2.52 and 2.69 with igal_variable. Its two
fits and reports take about 0.7 s per method. e_DT is the strong-form
residual: the operator's coefficients are pulled back to the parameter
domain and applied to the field's parametric Hessian on the quadrature
lattice, so its order also guards that pullback in one, two and three
dimensions.

Least squares at the two ends plus two Gauss-Legendre points per knot
cell converge at order p + 1 = 4 in e_T, measured against the cell
count: 4.01 on I and 4.17 on II, where Greville points at the same
count give 1.99 and 2.05.
"""

import numpy as np
import pytest

from splinecol.collocation import CollocationSet, assemble, build_field
from splinecol.estimator import CollocationSolver
from splinecol.metrics import error_report
from splinecol.problems import make_example
from splinecol.solvers import solve_normal_equations

MIN_ORDER = 1.9
SEQUENCES = {"I": (10, 20, 40, 80), "II": (8, 16, 32), "III": (10, 20)}
MIN_GAUSS_ORDER = 3.8


@pytest.mark.parametrize("method", ["igac", "igal_variable"])
@pytest.mark.parametrize("example", sorted(SEQUENCES))
def test_finest_pair_order_in_n(example, method):
    prob = make_example(example)
    errors = []
    for n in SEQUENCES[example]:
        field = CollocationSolver(method=method, n_per_dir=n).fit(prob).field_
        report = error_report(prob, field)
        errors.append((report.e_T, report.e_DT))
    orders = np.log2(np.divide(*errors[-2:]))
    print(f"{example} {method}: finest-pair orders e_T {orders[0]:.3f}, e_DT {orders[1]:.3f}")
    assert np.all(orders >= MIN_ORDER)


def gauss_points(kvs, per_cell=2):
    """The two ends of each direction plus ``per_cell`` Gauss-Legendre points per knot cell."""
    nodes = (np.polynomial.legendre.leggauss(per_cell)[0] + 1) / 2
    axes = []
    for kv in kvs:
        lo, hi = kv.breakpoints[:-1, None], kv.breakpoints[1:, None]
        axes.append(np.concatenate([[kv.start], (lo + (hi - lo) * nodes).ravel(), [kv.end]]))
    return CollocationSet(tuple(axes))


@pytest.mark.parametrize("example", ["I", "II"])
def test_gauss_points_reach_order_p_plus_1_in_the_cell_count(example):
    prob = make_example(example)
    errors, cells = [], []
    for n in SEQUENCES[example]:
        field = build_field(prob.geometry, n, components=prob.field_components)
        system = assemble(prob, field, gauss_points(field.kvs))
        solve = solve_normal_equations(system.csr, system.rhs)
        errors.append(error_report(prob, field.with_coefficients(solve.coefficients)).e_T)
        cells.append(len(field.kvs[0].breakpoints) - 1)
    order = np.log(errors[-2] / errors[-1]) / np.log(cells[-1] / cells[-2])
    print(f"{example} Gauss points: finest-pair e_T order {order:.3f} in the cell count")
    assert order >= MIN_GAUSS_ORDER
