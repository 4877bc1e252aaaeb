"""Symbolic oracle for the metric components and the jet engine.

The deformed metric g_a and its rescaling g~_a are rebuilt in sympy straight
from their closed forms (geometry module docstring).  Their values, and the
Christoffel symbols formed from symbolic derivatives, are evaluated at
rational exterior points in 30-digit arithmetic.  Nothing here goes through
the jet code, so the comparison checks the metric formula and the engine's
derivative propagation end to end.
"""

import numpy as np
import pytest

from liccheck5 import curvature as C
from liccheck5 import geometry as geo

sp = pytest.importorskip("sympy")

A = sp.Integer(1)
POINTS = (
    (sp.Rational(1, 5), sp.Rational(1, 2), sp.Rational(1, 3),
     sp.Rational(-1, 4), sp.Rational(1, 6)),
    (sp.Rational(-1, 3), sp.Rational(2, 5), sp.Rational(-1, 2),
     sp.Rational(1, 7), sp.Rational(3, 10)),
    (sp.Rational(1, 2), sp.Rational(-3, 5), sp.Rational(1, 4),
     sp.Rational(2, 3), sp.Rational(-1, 8)),
)


def _symbolic_metric(family):
    """g_a = g0 - r^2 (a r_o)^4 sigma3^2 + a^4 (r beta)^-2 r_o^2 alpha^2 on
    the exterior side; g~_a = (r^2 - x0^2)^-2 g_a."""
    X = sp.symbols("x0:5", real=True)
    x0 = X[0]
    r2 = sum(X[i] ** 2 for i in range(1, 5))
    r = sp.sqrt(r2)
    ro = (r2 - x0 ** 2) / r
    beta2 = 1 - (A * ro) ** 4
    sig3 = [0, -X[4] / r2, -X[3] / r2, X[2] / r2, X[1] / r2]
    w = r2 + x0 ** 2
    alpha = [-2 * x0 * r] + [w * X[i] / r for i in range(1, 5)]
    g = sp.diag(-1, 1, 1, 1, 1)
    for i in range(5):
        for j in range(5):
            g[i, j] += (-r2 * (A * ro) ** 4 * sig3[i] * sig3[j]
                        + A ** 4 * ro ** 2 / (r2 * beta2) * alpha[i] * alpha[j])
    if family == "gatilde":
        g = g / (r2 - x0 ** 2) ** 2
    return X, g


def _symbolic_christoffel(X, g, point, digits=30):
    """Gamma^k_ij at one point, layout [k, i, j], as float64."""
    subs = dict(zip(X, point))
    gv = sp.Matrix(5, 5, lambda i, j: g[i, j].evalf(digits, subs=subs))
    dg = [[[None] * 5 for _ in range(5)] for _ in range(5)]  # dg[l][i][j]
    for i in range(5):
        for j in range(i, 5):
            for l in range(5):
                v = sp.diff(g[i, j], X[l]).evalf(digits, subs=subs)
                dg[l][i][j] = dg[l][j][i] = v
    gi = gv.inv()
    out = np.empty((5, 5, 5))
    for k in range(5):
        for i in range(5):
            for j in range(5):
                s = sum(gi[k, l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                        for l in range(5))
                out[k, i, j] = float(s / 2)
    return out


def _rel_res(got, want):
    return np.max(np.abs(got - want)) / (
        1.0 + np.max(np.abs(got)) + np.max(np.abs(want)))


@pytest.mark.parametrize("family", ["ga", "gatilde"])
def test_metric_values_match_symbolic(family):
    X, g = _symbolic_metric(family)
    spec = geo.MetricSpec(family, float(A))
    for point in POINTS:
        x = np.array([[float(v) for v in point]])
        gv = np.array(g.evalf(30, subs=dict(zip(X, point))), dtype=float)
        got = geo.metric_jets(spec, x, order=0).val[0]
        res = _rel_res(got, gv)
        assert res < 1e-12, (family, point, res)


@pytest.mark.parametrize("family", ["ga", "gatilde"])
def test_christoffel_matches_symbolic_derivatives(family):
    X, g = _symbolic_metric(family)
    spec = geo.MetricSpec(family, float(A))
    for point in POINTS:
        x = np.array([[float(v) for v in point]])
        assert geo.classify(x[0], float(A)).tag == "B_a"
        want = _symbolic_christoffel(X, g, point)
        gam = C.christoffel(spec, x, order=1)
        got = np.array([[[gam[k, i, j].val[0] for j in range(5)]
                         for i in range(5)] for k in range(5)])
        res = _rel_res(got, want)
        assert res < 1e-12, (family, point, res)
