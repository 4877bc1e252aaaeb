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
The closed forms below are the a = 1 members; metric_jets alone reads a,
by Jet.dilate: ga_a(x) = ga_1(a x), gatilde_a(x) = a^4 gatilde_1(a x),
ha_a(y) = ha_1(a y) and eh_a(y) = eh_1(y / a), component for component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
        if self.family != "g0" and not 0 < self.a < np.inf:
            raise ValueError("family %r needs a > 0 and finite, got a = %r"
                             % (self.family, self.a))

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


def sum_squares(js):
    """js[0]^2 + js[1]^2 + ... as a jet, summed left to right: r^2 from the
    spatial jets (x1..x4), R^2 from the four 4d coordinate jets."""
    out = js[0] * js[0]
    for j in js[1:]:
        out = out + j * j
    return out


class RadialJets:
    """The cone's radial coordinate functions at a = 1 over one batch of
    coordinate jets xj, each built on first read from those before it:
    r^2, r, d = r^2 - x0^2, w = r^2 + x0^2, the batch's cone side, r_o
    (d/r off L, 0 on L), beta = sqrt(1 - r_o^4) (1 on L) and mu = ln|d|.
    The side, and so r_o, beta and mu, raise AmbiguousError on the cone
    itself and for a batch mixing the two sides; beta raises DomainError
    outside the closure of B_1."""

    def __init__(self, xj):
        self.xj = xj

    @cached_property
    def r2(self):
        return sum_squares(self.xj[1:])

    @cached_property
    def r(self):
        return self.r2.sqrt()

    @cached_property
    def d(self):
        return self.r2 - self.xj[0] * self.xj[0]

    @cached_property
    def w(self):
        return self.r * self.r + self.xj[0] * self.xj[0]

    @cached_property
    def side(self):
        """cone_side of the jets' base points, raising on the cone itself,
        where the jets of r_o and g_a are not defined."""
        x = np.stack([np.asarray(j.val) for j in self.xj], axis=-1)
        if np.any(cone_gap(x) == 0.0):
            raise AmbiguousError("point(s) on the cone boundary r = |x0|")
        return cone_side(x)

    @cached_property
    def ro(self):
        if self.side < 0:
            x0 = self.xj[0]
            return J.constant(0.0, dim=x0.dim, order=x0.order,
                              shape=np.shape(x0.val))
        return self.d / self.r

    @cached_property
    def beta(self):
        bsq = (-1.0) * self.ro.pow_int(4) + 1.0
        if not np.all(bsq.val > 0.0):        # NaN included
            raise DomainError("point(s) outside the closure of B_a (r_o >= 1/a)")
        return bsq.sqrt()

    @cached_property
    def mu(self):
        return (self.d if self.side > 0 else (-1.0) * self.d).ln()


def sigma_dual_vectors(spatial):
    """The left-invariant fields K1, K2, K3 of S^3 (tangent to the 3-spheres,
    dual to the sigma coframe) as component jets; ``spatial`` is the list of
    4 jets for (x1, x2, x3, x4), and components refer to the same slots."""
    s1, s2, s3, s4 = spatial
    k1 = [(-1.0) * s2, s1, (-1.0) * s4, s3]
    k2 = [(-1.0) * s3, s4, s1, (-1.0) * s2]
    k3 = [(-1.0) * s4, (-1.0) * s3, s2, s1]
    return k1, k2, k3


def sigma_form(k, spatial, ir2):
    """The invariant coframe sigma_k = K_k / r^2 (k = 1, 2, 3) as covector
    component jets, given the 1/r^2 jet of the same spatial jets."""
    return [c * ir2 for c in sigma_dual_vectors(spatial)[k - 1]]


def alpha_form(xj, rad):
    """alpha = (r^2+x0^2) dr - 2 x0 r dx0 as a 5-slot covector of jets,
    given the RadialJets of the same batch."""
    r = rad.r
    w = rad.w * r.reciprocal()
    a0 = (-2.0) * xj[0] * r
    return [a0, w * xj[1], w * xj[2], w * xj[3], w * xj[4]]


# K3 = _K3 @ x on the spatial slots, read off sigma_dual_vectors' table: a
# signed permutation, so K3_i K3_j = sign_i sign_j x_p(i) x_p(j)
_K3 = np.array(sigma_dual_vectors(list(np.eye(4)))[2])
_K3_PERM = np.argmax(np.abs(_K3), axis=1)
_K3_SIGNS = np.outer(_K3.sum(axis=1), _K3.sum(axis=1))


def _times_coordinates(f, x, slots):
    """The jet f x_s for each s in slots, on a new last tensor axis, where x
    are the points f is seeded at.  x_s is linear, so level k of f x_s is
    x_s f_k with f_{k-1} added into each of the k derivative slots of d_s:
    a scatter, where the Leibniz product f * seed[s] forms full outer
    products; the two agree bit for bit."""
    xs = x[..., slots]
    nb = xs.ndim - 1
    out = []
    for k, fk in enumerate(f.levels):
        dk = (slice(None),) * k
        xk = xs.reshape(xs.shape[:-1] + (1,) * (fk.ndim - nb - k)
                        + (len(slots),) + (1,) * k)
        hk = fk[(Ellipsis, None) + dk] * xk
        if k:
            prev, cross = f.levels[k - 1], np.zeros_like(hk)
            for m in range(k):
                for j, s in enumerate(slots):
                    cross[(Ellipsis, j) + dk[:m] + (s,) + dk[m + 1:]] += prev
            hk += cross
        out.append(hk)
    return J.Jet(*out)


def _closed_form(x, A, B, C=None, D=None):
    """The metric jet whose spatial block, over the last four coordinates
    of the points x, is delta + A x x^T + B K3 K3^T; in 5d the time row is
    g_0j = C x_j and the corner g_00 = D.  A, B, C, D are scalar jets
    seeded at x."""
    n = x.shape[-1]
    slots = list(range(n - 4, n))
    lin = _times_coordinates(J.stack([A, B] if C is None else [A, B, C]),
                             x, slots)
    quad = _times_coordinates(lin[:2, :], x, slots)   # A x x^T, B x x^T
    levels = []
    for k, q in enumerate(quad.levels):
        dk = (slice(None),) * k
        g = np.empty(x.shape[:-1] + (n, n) + (n,) * k)
        block = g[(Ellipsis, slice(n - 4, None), slice(n - 4, None)) + dk]
        np.multiply(q[(Ellipsis, 1, _K3_PERM[:, None], _K3_PERM[None, :]) + dk],
                    _K3_SIGNS[(Ellipsis,) + (None,) * k], out=block)
        block += q[(Ellipsis, 0, slice(None), slice(None)) + dk]
        if k == 0:
            block += np.eye(4)
        if C is not None:
            row = lin.levels[k][(Ellipsis, 2, slice(None)) + dk]
            g[(Ellipsis, 0, slice(1, None)) + dk] = row
            g[(Ellipsis, slice(1, None), 0) + dk] = row
            g[(Ellipsis, 0, 0) + dk] = D.levels[k]
        levels.append(g)
    return J.Jet(*levels)


def _over_blocks(spec: MetricSpec, x, order, fn):
    """fn(points) over blocks of the batch x, each sized for spec's metric
    jet of the given order (jets._blocked), once the points' dimension is
    checked.  For 'ga'/'gatilde' a batch too large for one block has its
    cone side decided as a whole before it is split, so exactly the
    batches that raise unsplit raise split."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != spec.dim:
        raise DimensionError("family %r needs %dd points, got %dd"
                             % (spec.family, spec.dim, x.shape[-1]))
    whole = None
    if spec.family in ("ga", "gatilde"):
        def whole(pts):
            RadialJets(J.seed(pts, order=0)).side
    # the metric's top level holds dim^(order + 2) float64 entries a point
    return J._blocked(fn, x, 8 * spec.dim ** (order + 2), whole)


def metric_jets(spec: MetricSpec, x, order=3):
    """Metric components as a (dim, dim) tensor jet.

    For family 'ga'/'gatilde' the batch must lie entirely on one side of the
    cone (AmbiguousError otherwise); the L side returns the exact flat branch.
    A large batch is built block by block (_over_blocks), with the same result.
    """
    return _over_blocks(spec, x, order, lambda p: _metric_block(spec, p, order))


def _metric_block(spec, x, order):
    """metric_jets on points x whose dimension is already checked: the
    a = 1 closed form at the dilated points, scaled back by Jet.dilate."""
    if spec.family == "g0":
        return J.constant(ETA, 5, order, x.shape[:-1])
    a = spec.a
    y = x / a if spec.family == "eh" else a * x
    xj = J.seed(y, order=order)

    if spec.family in ("ga", "gatilde"):
        rad = RadialJets(xj)
        g = (J.constant(ETA, 5, order, x.shape[:-1]) if rad.side < 0
             else _metric_ga(y, xj, rad))
        if spec.family == "ga":
            return g.dilate(a)
        # the weight a^4 is formed only once the domain tests have passed
        g = J.jeinsum(",ij->ij", (rad.d * rad.d).reciprocal(), g)
        return g.dilate(a, a ** 4)

    # 4d families: u = R^4 (ha) or R^-4 (eh) at the dilated points
    ha = spec.family == "ha"
    rv = np.sqrt(np.sum(y * y, axis=-1))
    if not np.all(rv < 1.0 if ha else rv > 1.0):
        raise DomainError("ha needs r < 1/a" if ha else "eh needs R > a")
    rad2 = sum_squares(xj)
    u = rad2.pow_int(2 if ha else -2)
    irad2 = rad2.reciprocal()
    w = u * ((-1.0) * u + 1.0).reciprocal() * irad2
    return _closed_form(y, w, (-1.0) * u * irad2).dilate(a if ha else 1.0 / a)


def _metric_ga(x, xj, rad):
    """g_1 on the exterior side from the radial jets of the batch x:
    eta + c alpha alpha^T - u r^2 sigma3 sigma3^T with u = r_o^4 and
    c = r_o^2 / (r^2 (1 - u)), where alpha = (-2 x0 r, (w/r) x) and
    sigma3 = K3/r^2.  r^2 and beta^2 = 1 - u are formed before any square
    root: squaring the bundle's r and beta instead moves the suite's
    residuals by up to 5x.  Raises DomainError unless 1 - u > 0, inside
    the closure of B_1."""
    r2, w, x0 = rad.r2, rad.w, xj[0]
    ro2 = rad.ro * rad.ro
    u = ro2 * ro2
    bsq = (-1.0) * u + 1.0
    if not np.all(bsq.val > 0.0):        # NaN included
        raise DomainError("point(s) outside the closure of B_a (r_o >= 1/a)")
    ir2 = r2.reciprocal()
    c = ro2 * (r2 * bsq).reciprocal()
    cw = c * w
    return _closed_form(x, cw * w * ir2, (-1.0) * u * ir2, (-2.0) * cw * x0,
                        4.0 * c * x0 * x0 * r2 - 1.0)
