"""Regions, radial functions, invariant forms and the metric family on R^5.

Coordinates are (x0, x1, x2, x3, x4) with r = |(x1..x4)|.  The closed solid
cone L is {r <= |x0|}, its boundary L_o = {r = |x0|}; the exterior shell
B_a = {0 < r_o < 1/a} uses the odd radial coordinate r_o = (r^2 - x0^2)/r,
extended by zero on L.  The metric family:

    g0       flat diag(-1,1,1,1,1)
    ga       g0 - r^2 (a r_o)^4 sigma3^2 + a^4 (r beta)^-2 r_o^2 alpha^2
             on the exterior side, g0 on L
    gatilde  (r^2 - x0^2)^-2 ga
    ha       4d: dr^2/(1-(ar)^4) + r^2(sigma1^2+sigma2^2+(1-(ar)^4) sigma3^2)
    eh       4d: dR^2/(1-(a/R)^4) + R^2(sigma1^2+sigma2^2+(1-(a/R)^4) sigma3^2)

with beta = sqrt(1 - (a r_o)^4) and alpha = (r^2+x0^2) dr - 2 x0 r dx0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets as J
from .errors import AmbiguousError, DimensionError, DomainError

ETA = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])
ETA.setflags(write=False)

REGION_TAGS = ("L_interior", "L_boundary", "B_a", "OutsideClosure")

_FAMILIES = ("g0", "ga", "gatilde", "ha", "eh")


@dataclass(frozen=True)
class Region:
    tag: str
    on_axis_r0: bool = False
    at_origin: bool = False


@dataclass(frozen=True)
class MetricSpec:
    family: str
    a: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError("unknown metric family %r" % (self.family,))
        if self.family != "g0" and not self.a > 0:
            raise ValueError("family %r needs a > 0" % self.family)

    @property
    def dim(self):
        return 4 if self.family in ("ha", "eh") else 5


def classify(p, a):
    """Region of a single point p = (x0, x1, x2, x3, x4)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (5,):
        raise DimensionError("classify expects a single 5d point")
    x0 = p[0]
    r, _, ro = map(float, radial_values(p))
    on_axis = r == 0.0
    origin = on_axis and x0 == 0.0
    if r < abs(x0):
        return Region("L_interior", on_axis_r0=on_axis)
    if r == abs(x0):
        return Region("L_boundary", on_axis_r0=on_axis, at_origin=origin)
    if ro < 1.0 / a:
        return Region("B_a")
    return Region("OutsideClosure")


def radial_values(x):
    """(r, d, r_o) as arrays for points (..., 5): r = |(x1..x4)|,
    d = r^2 - x0^2, and r_o = d/r off the closed cone L, 0 on it."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x[..., 1:] ** 2, axis=-1)
    r = np.sqrt(r2)
    d = r2 - x[..., 0] ** 2
    off = r > np.abs(x[..., 0])
    return r, d, np.where(off, d / np.where(off, r, 1.0), 0.0)


def cone_gap(x):
    """r - |x0| for points (..., 5): positive off the closed cone L, zero on
    its boundary, negative inside."""
    x = np.asarray(x, dtype=float)
    return radial_values(x)[0] - np.abs(x[..., 0])


def cone_side(x):
    """+1 if every point has r > |x0|, -1 if every point lies in the closed
    cone L (boundary included); a batch mixing the two raises.  The one
    place the package decides a batch's cone side."""
    d = cone_gap(x)
    if np.all(d > 0.0):
        return 1
    if np.all(d <= 0.0):
        return -1
    raise AmbiguousError("batch mixes the two sides of the cone")


def _r2(xj):
    return xj[1] * xj[1] + xj[2] * xj[2] + xj[3] * xj[3] + xj[4] * xj[4]


def radial_r(xj):
    """r = |(x1..x4)| as a jet; xj is the list of 5 coordinate jets."""
    return _r2(xj).sqrt()


def cone_d(xj):
    """d = r^2 - x0^2 as a jet: positive off the closed cone L, negative
    inside."""
    return _r2(xj) - xj[0] * xj[0]


def r2_r_d(xj):
    """(r^2, r, d = r^2 - x0^2) as jets, all from one r^2; r must not
    vanish."""
    r2 = _r2(xj)
    return r2, r2.sqrt(), r2 - xj[0] * xj[0]


def _branch(xj):
    """cone_side of the jets' base points, raising on the cone itself, where
    the jets of r_o and g_a are not defined."""
    x = np.stack([np.asarray(j.val) for j in xj], axis=-1)
    if np.any(cone_gap(x) == 0.0):
        raise AmbiguousError("point(s) on the cone boundary r = |x0|")
    return cone_side(x)


def radial_ro(xj, r, d):
    """Odd radial coordinate r_o as a jet from the r and d jets of the same
    batch: d/r off L, 0 on L."""
    if _branch(xj) < 0:
        return J.constant(0.0, dim=xj[0].dim, order=xj[0].order,
                          shape=np.shape(xj[0].val))
    return d / r


def beta_jet(ro, a):
    """beta = sqrt(1 - (a r_o)^4) from the r_o jet; equals 1 identically on
    L.  Raises DomainError outside the closure of B_a."""
    bsq = (-1.0) * (float(a) ** 4) * ro.pow_int(4) + 1.0
    if np.any(bsq.val <= 0.0):
        raise DomainError("point(s) outside the closure of B_a (r_o >= 1/a)")
    return bsq.sqrt()


@dataclass(frozen=True)
class RadialJets:
    """The cone's radial coordinate functions over one batch of coordinate
    jets, each built once: r^2, r, d = r^2 - x0^2, r_o and beta."""
    r2: J.Jet
    r: J.Jet
    d: J.Jet
    ro: J.Jet
    beta: J.Jet


def radial_jets(xj, a):
    """RadialJets of the coordinate jets xj for the family parameter a.  On
    L, r_o = 0 and beta = 1; the cone itself and a batch mixing the two
    sides raise AmbiguousError."""
    r2, r, d = r2_r_d(xj)
    ro = radial_ro(xj, r, d)
    return RadialJets(r2, r, d, ro, beta_jet(ro, a))


def sigma_forms(spatial):
    """The three invariant coframes as covector component jets.

    ``spatial`` is the list of 4 jets for (x1, x2, x3, x4); components refer to
    the same four slots.  sigma_i = (1/r^2) * (linear coefficients).
    """
    s1, s2, s3, s4 = spatial
    ir2 = (s1 * s1 + s2 * s2 + s3 * s3 + s4 * s4).reciprocal()
    sig1 = [(-1.0) * s2 * ir2, s1 * ir2, (-1.0) * s4 * ir2, s3 * ir2]
    sig2 = [(-1.0) * s3 * ir2, s4 * ir2, s1 * ir2, (-1.0) * s2 * ir2]
    sig3 = [(-1.0) * s4 * ir2, (-1.0) * s3 * ir2, s2 * ir2, s1 * ir2]
    return sig1, sig2, sig3


def sigma_dual_vectors(spatial):
    """Vector fields dual to the sigma coframe (tangent to the 3-spheres)."""
    s1, s2, s3, s4 = spatial
    k1 = [(-1.0) * s2, s1, (-1.0) * s4, s3]
    k2 = [(-1.0) * s3, s4, s1, (-1.0) * s2]
    k3 = [(-1.0) * s4, (-1.0) * s3, s2, s1]
    return k1, k2, k3


def alpha_form(xj, r):
    """alpha = (r^2+x0^2) dr - 2 x0 r dx0 as a 5-slot covector of jets,
    given the r jet of the same batch."""
    ir = r.reciprocal()
    w = (r * r + xj[0] * xj[0]) * ir
    a0 = (-2.0) * xj[0] * r
    return [a0, w * xj[1], w * xj[2], w * xj[3], w * xj[4]]


def _quadratic_form(base, terms):
    """The jet matrix base + sum of c v v^T over the (c, v) terms, in order.

    ``base`` is a constant (n, n) array; each v lists n scalar jets, None
    where the covector has no component."""
    n = len(base)
    rows = [[float(base[i][j]) for j in range(n)] for i in range(n)]
    for c, v in terms:
        for i in range(n):
            for j in range(i, n):
                if v[i] is None or v[j] is None:
                    continue
                term = c * v[i] * v[j]
                rows[i][j] = rows[i][j] + term
                if i != j:
                    rows[j][i] = rows[j][i] + term
    return J.stack(rows)


def metric_jets(spec: MetricSpec, x, order=3):
    """Metric components as a (dim, dim) tensor jet.

    For family 'ga'/'gatilde' the batch must lie entirely on one side of the
    cone (AmbiguousError otherwise); the L side returns the exact flat branch.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != spec.dim:
        raise DimensionError("family %r needs %dd points, got %dd"
                             % (spec.family, spec.dim, x.shape[-1]))
    xj = J.seed(x, order=order)
    shape = x.shape[:-1]

    if spec.family == "g0":
        return J.constant(ETA, 5, order, shape)

    if spec.family in ("ga", "gatilde"):
        if _branch(xj) < 0:
            rad, g = None, J.constant(ETA, 5, order, shape)
        else:
            rad = radial_jets(xj, spec.a)
            g = _metric_ga(xj, rad, spec.a)
        if spec.family == "gatilde":
            d = cone_d(xj) if rad is None else rad.d
            g = J.jeinsum(",ij->ij", (d * d).reciprocal(), g)
        return g

    # 4d families
    n = x.shape[-1]
    rad2 = xj[0] * xj[0] + xj[1] * xj[1] + xj[2] * xj[2] + xj[3] * xj[3]
    rv = np.sqrt(np.sum(x * x, axis=-1))
    a = spec.a
    if spec.family == "ha":
        if np.any(a * rv >= 1.0):
            raise DomainError("ha needs r < 1/a")
        u = (a ** 4) * rad2.pow_int(2)
    else:
        if np.any(rv <= a):
            raise DomainError("eh needs R > a")
        u = (a ** 4) * rad2.pow_int(-2)
    irad2 = rad2.reciprocal()
    w = u * ((-1.0) * u + 1.0).reciprocal() * irad2
    _, _, sig3 = sigma_forms(xj)
    return _quadratic_form(np.eye(4), [(w, xj), ((-1.0) * u * rad2, sig3)])


def _metric_ga(xj, rad, a):
    """g_a on the exterior side from the batch's radial jets.  r^2 and
    beta^2 = 1 - (a r_o)^4 are formed before any square root: squaring the
    bundle's r and beta instead moves the suite's residuals by up to 5x."""
    r2 = rad.r2
    ro2 = rad.ro * rad.ro
    u = (a ** 4) * ro2 * ro2          # (a r_o)^4
    _, _, sig3 = sigma_forms(xj[1:])
    c = (a ** 4) * ro2 * (r2 * ((-1.0) * u + 1.0)).reciprocal()
    return _quadratic_form(ETA, [((-1.0) * u * r2, [None] + sig3),
                                 (c, alpha_form(xj, rad.r))])


def mu_jet(d):
    """mu = ln|d| from the jet d = r^2 - x0^2 (single-signed batch)."""
    if np.all(d.val > 0):
        return d.ln()
    if np.all(d.val < 0):
        return ((-1.0) * d).ln()
    raise AmbiguousError("mu undefined / mixed sign across the cone")
