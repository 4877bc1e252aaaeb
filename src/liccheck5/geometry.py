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
The closed forms below are the a = 1 members of the metrics and of their
frames; _over_blocks alone reads a, by Jet.dilate with the weights of the
table _FORMS: ga_a(x) = ga_1(a x), gatilde_a(x) = a^4 gatilde_1(a x),
ha_a(y) = ha_1(a y) and eh_a(y) = eh_1(y / a), component for component,
and the frames likewise.

Every metric, every frame and every vector-frame transition (G, Q, kappa)
is a sum of coefficients times polynomial tensors: eta (delta in 4d) and
outer products u v^T of the fields c_i (constant unit vectors), xh (the
spatial part of x) and K1, K2, K3.  Its coefficients depend on the U(2)
invariants alone: x0 and rho = r^2 in 5d (gatilde's 1/d^2 folded into
each of them), R^2 in 4d.  They are built once a batch as jets in those
one or two variables (RadialJets), which decides the batch's cone side
and domain; then, block by block, they are pulled back to x through the
invariants' exact jets and multiplied with the tensors' exact jets as
batched matmuls.  That loop, _over_blocks, is the package's one cut of a
batch into blocks: metric_jets, the frames and the transitions return its
jets, and the curvature entries read their pieces inside it.
Every other reader of a radial function pulls it back from a RadialJets
bundle the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import jets as J
from .errors import (AmbiguousError, CaViolationError, DimensionError,
                     DomainError)

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
        return _FORMS[self.family][0]


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
    cone L (boundary included); a batch mixing the two raises."""
    return _side_of(cone_gap(x))


def _side_of(gap):
    """cone_side of points with the cone gaps gap: the one place the
    package decides a batch's cone side."""
    if np.all(gap > 0.0):
        return 1
    if np.all(gap <= 0.0):
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
    """The radial functions at a = 1 of the points x (..., 5), as jets of
    the given order in the two invariants x0 and r^2 (the seeds), each
    built on first read from those before it: r, d = r^2 - x0^2,
    w = r^2 + x0^2, the cone gap and side of the batch, r_o (d/r off L, 0
    on L), r_o^2, bsq = 1 - r_o^4, beta = sqrt(bsq) (1 on L) and
    mu = ln|d|.  4d points seed r2 = R^2 alone, and give r2 and r.  The
    side, and so r_o and what is built from it, raise AmbiguousError on the
    cone itself and for a batch mixing the two sides; bsq raises
    DomainError outside the closure of B_1.  pullback gives any of these
    jets as a jet in x."""

    def __init__(self, x, order):
        self.points = x = np.asarray(x, dtype=float)
        rho = sum_squares(list(np.moveaxis(x[..., -4:], -1, 0)))
        if x.shape[-1] == 4:
            self.x0, (self.r2,) = None, J.seed(rho[..., None], order)
        else:
            self.x0, self.r2 = J.seed(np.stack([x[..., 0], rho], -1), order)

    def pullback(self, *fields):
        """The jets in x of the scalar jets fields of this bundle, which
        are jets in the invariants: their pullbacks (_pullback)."""
        F = _pullback(J.stack(list(fields)), self.points)
        return [F[i] for i in range(len(fields))]

    def exterior(self, who):
        """Raise DomainError unless every point lies off the closed cone
        L, where who is defined."""
        if not np.all(self.gap > 0.0):
            raise DomainError(f"{who} is only defined off the cone, on r > |x0|")

    @cached_property
    def r(self):
        return self.r2.sqrt()

    @cached_property
    def d(self):
        return self.r2 - self.x0 * self.x0

    @cached_property
    def w(self):
        return self.r * self.r + self.x0 * self.x0

    @cached_property
    def gap(self):
        return cone_gap(self.points)

    @cached_property
    def side(self):
        if np.any(self.gap == 0.0):
            raise AmbiguousError("point(s) on the cone boundary r = |x0|")
        return _side_of(self.gap)

    @cached_property
    def ro(self):
        if self.side < 0:
            return J.constant(0.0, dim=self.x0.dim, order=self.x0.order,
                              shape=np.shape(self.x0.val))
        return self.d / self.r

    @cached_property
    def ro2(self):
        return self.ro * self.ro

    @cached_property
    def bsq(self):
        bsq = (-1.0) * (self.ro2 * self.ro2) + 1.0
        if not np.all(bsq.val > 0.0):        # NaN included
            raise DomainError("point(s) outside the closure of B_a (r_o >= 1/a)")
        return bsq

    @cached_property
    def beta(self):
        return self.bsq.sqrt()

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


def alpha_form(xj):
    """alpha = (r^2+x0^2) dr - 2 x0 r dx0 as a 5-slot covector of jets of
    the 5d coordinate jets xj, its r and w built from them: an oracle of
    the closed forms, which read none of it."""
    r = sum_squares(xj[1:]).sqrt()
    w = (r * r + xj[0] * xj[0]) * r.reciprocal()
    a0 = (-2.0) * xj[0] * r
    return [a0, w * xj[1], w * xj[2], w * xj[3], w * xj[4]]


# The closed forms' polynomial tensors, each named by its terms: "eta" is
# eta (delta in 4d), and "u v + u' v'" is u v^T + u' v'^T for the fields
# c0, c1, ... (the constant unit vectors), x (the spatial part of x, its
# last four slots) and k1, k2, k3 (K_k = _K[k - 1] x, the table of
# sigma_dual_vectors).
_K = np.array(sigma_dual_vectors(list(np.eye(4))))
_FLAT = {5: ETA, 4: np.eye(4)}


@lru_cache
def _monomials(n, sel):
    """Every entry of the tensors sel, named as above, in n dimensions is
    one monomial c x_a x_b, where x_n = 1 stands in for a missing factor:
    the field components are single terms (K_k is a signed permutation of
    x), and the products of a tensor never share an entry.  So are the
    entries' exact partials, c (x_b [a = d] + x_a [b = d]) and then
    c ([a = d][b = e] + [a = e][b = d]), and there are no third ones.
    sel lists the tensors by degree, 0 first.  Returns, for the tensors of
    degree >= 0, >= 1 and 2 (trailing runs of sel, after k1 and k2
    others), the level tables (c, ab) with ab = a (n + 1) + b (n, n, m),
    (c1, a1) (n, n, n, m - k1) and c2 (n, n, n, n, m - k2), and k1, k2."""
    one = [(0.0, n)] * n
    fields = {"c%d" % i: one[:i] + [(1.0, n)] + one[i + 1:] for i in range(n)}
    fields["x"] = one[:n - 4] + [(1.0, i) for i in range(n - 4, n)]
    for k, K in enumerate(_K, 1):
        perm = np.argmax(np.abs(K), axis=1)
        fields["k%d" % k] = one[:n - 4] + [(K[i, p], n - 4 + p)
                                           for i, p in enumerate(perm)]
    m = len(sel)
    c, a, b = np.zeros((n, n, m)), np.full((n, n, m), n), np.full((n, n, m), n)
    for i, j, t in np.ndindex(n, n, m):
        if sel[t] == "eta":
            c[i, j, t] = _FLAT[n][i, j]
            continue
        terms = [(cu * cv, au, av) for u, v in map(str.split, sel[t].split("+"))
                 for (cu, au), (cv, av) in [(fields[u][i], fields[v][j])]
                 if cu * cv]
        assert len(terms) <= 1, "an entry that is not one monomial"
        if terms:
            c[i, j, t], a[i, j, t], b[i, j, t] = terms[0]
    degree = np.max((a < n) * 1 + (b < n), axis=(0, 1))
    assert np.all(np.diff(degree) >= 0), "tensors out of degree order"
    k1, k2 = (int(np.sum(degree < k)) for k in (1, 2))
    d = np.arange(n)[:, None]
    hit_a, hit_b = (a[:, :, None] == d) * 1, (b[:, :, None] == d) * 1
    c1 = c[:, :, None] * (hit_a + hit_b)
    a1 = np.where(hit_a, b[:, :, None], a[:, :, None])     # the other factor
    c2 = c1[:, :, :, None] * (a1[:, :, :, None] == d)
    c, ab, c1, a1, c2 = tables = [np.ascontiguousarray(t) for t in (
        c, a * (n + 1) + b, c1[..., k1:], a1[..., k1:], c2[..., k2:])]
    for t in tables:                          # shared by every caller
        t.setflags(write=False)
    return (c, ab), (c1, a1), c2, k1, k2


def _tensor_jets(x, sel, order):
    """The jets of the tensors sel at the points x (..., n), stacked on a
    last axis, up to the order asked: T0 (..., n, n, m); T1
    (..., n, n, n, m - k1) over the tensors of degree >= 1, a constant
    (n, n, n, m - k1) where none has degree 2, and the constant T2
    (n, n, n, n, m - k2) over those of degree 2, trailing runs of sel;
    returned with k1 and k2.  Each level is a gather of x (_monomials)."""
    n = x.shape[-1]
    (c, ab), (c1, a1), c2, k1, k2 = _monomials(n, tuple(sel))
    xp = np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)
    xx = (xp[..., :, None] * xp[..., None, :]).reshape(x.shape[:-1] + (-1,))
    levels = [c * np.take(xx, ab, axis=-1)]
    if order >= 1:
        levels.append(c1 if k2 == len(sel) else c1 * np.take(xp, a1, axis=-1))
    if order >= 2:
        levels.append(c2)
    return levels, k1, k2


def _pullback(F, x):
    """The jets in x of the scalar jets F (a (..., m) tensor jet) in the
    invariants phi = (x0, rho) of 5d points x, or phi = rho of 4d ones,
    where rho = |xh|^2.  phi's jets are exact and short: gradient
    (e0, 2 xh), Hessian twice the spatial identity on rho and zero on x0,
    no third level.  So the chain rule reads f_ab dphi^a dphi^b +
    f_b d2phi^b at level 2, and at level 3 f_abc dphi^a dphi^b dphi^c plus
    the symmetrized f_a,rho dphi^a d2rho."""
    n = x.shape[-1]
    p, sp = n - 3, slice(n - 4, n)          # p invariants
    grad = np.zeros(x.shape[:-1] + (p, n))
    grad[..., 0, 0] = 1.0                   # x0's gradient, in 5d
    grad[..., -1, sp] = 2.0 * x[..., sp]    # rho's
    hess = np.zeros((n, n))
    hess[sp, sp] = 2.0 * np.eye(4)          # rho's; x0's is zero
    out = [F.val]
    if F.order >= 1:
        out.append(J.contract("ta,ax->tx", F.grad, grad))
    if F.order >= 2:
        f_x = J.contract("tab,ax->tbx", F.hess, grad)
        out.append(J.contract("tbx,by->txy", f_x, grad)
                   + F.grad[..., -1, None, None] * hess)
    if F.order >= 3:
        f_xy = J.contract("tcbx,by->tcxy",
                          J.contract("tabc,ax->tcbx", F.third, grad), grad)
        out.append(J.contract("tcxy,cz->txyz", f_xy, grad)
                   + J._sym3(f_x[..., -1, :, None, None] * hess))
    return J.Jet(*out)


def _closed_form(x, F, sel, const):
    """The jet const + sum_t f_t T_t at the points x, where the f_t are the
    coefficient jets F (in the invariants, pulled back here) of the tensors
    sel and const is a constant tensor or None.  T_t's jets stop at level
    2, so level k of the sum is a sum of matmuls over t in the output's
    layout: T0 f_k, the symmetrized T1 f_(k-1) and T2 f_(k-2), the last
    where sel has tensors of degree 2."""
    f = _pullback(F, x).levels
    order = len(f) - 1
    t, k1, k2 = _tensor_jets(x, sel, min(order, 2))
    quadratic = k2 < len(sel)
    out = [J.contract("ijt,t->ij", t[0], f[0])]
    if const is not None:
        out[0] += const
    if order >= 1:
        out.append(J.contract("ijt,tx->ijx", t[0], f[1])
                   + J.contract("ijxt,t->ijx", t[1], f[0][..., k1:]))
    # the top levels are summed in place, so a block holds few of them
    if order >= 2:
        cross = J.contract("ijxt,ty->ijxy", t[1], f[1][..., k1:, :])
        cross = cross + np.swapaxes(cross, -1, -2)
        cross += J.contract("ijt,txy->ijxy", t[0], f[2])
        if quadratic:
            cross += J.contract("ijxyt,t->ijxy", t[2], f[0][..., k2:])
        out.append(cross)
    if order >= 3:
        cross = J.contract("ijxt,tyz->ijxyz", t[1], f[2][..., k1:, :, :])
        if quadratic:
            cross += J.contract("ijyzt,tx->ijxyz", t[2], f[1][..., k2:, :])
        cross = J._sym3(cross)
        cross += J.contract("ijt,txyz->ijxyz", t[0], f[3])
        out.append(cross)
    return J.Jet(*out)


# ------------------------------------------- the closed forms' coefficients
# Each takes the RadialJets of a batch at a = 1 and returns the list of its
# coefficient jets with the tensors they multiply, or ([], ()) where the
# form is its constant alone.

_GA = ("c0 c0", "c0 x + x c0", "x x", "k3 k3")


def _metric_ga(rad):
    """g_1 on the exterior side, flat (eta alone) on L: g_1 = eta +
    4 c x0^2 r^2 e0 e0^T - 2 c w x0 (e0 xh^T + xh e0^T) + (c w^2 / r^2)
    xh xh^T - (u / r^2) K3 K3^T, with u = r_o^4 and c = r_o^2 / (r^2 bsq),
    bsq = 1 - u; that is eta + c alpha alpha^T - u r^2 sigma3 sigma3^T with
    alpha = (-2 x0 r, (w/r) xh) and sigma3 = K3/r^2.  r^2 is the seed
    itself, with no square root at all, and bsq is formed from r_o^2 before
    any square root of it: squaring the bundle's r and beta instead moves
    the suite's residuals by up to 5x."""
    if rad.side < 0:
        return [], ()
    r2, w, x0, ro2 = rad.r2, rad.w, rad.x0, rad.ro2
    ir2 = r2.reciprocal()
    c = ro2 * (r2 * rad.bsq).reciprocal()
    cw = c * w
    return [4.0 * c * x0 * x0 * r2, (-2.0) * cw * x0, cw * w * ir2,
            (-1.0) * (ro2 * ro2) * ir2], _GA


def _metric_gatilde(rad):
    """g_1 / d^2, the 1/d^2 folded into every coefficient, eta's too."""
    coef, sel = _metric_ga(rad)
    id2 = (rad.d * rad.d).reciprocal()
    return [id2] + [f * id2 for f in coef], ("eta",) + sel


def _instanton_u(rad, inner):
    """u = R^4 for ha, on R < 1 (inner), or R^-4 for eh and its frame, on
    R > 1; DomainError off that domain."""
    rv = rad.r2.val
    if not np.all(rv < 1.0 if inner else rv > 1.0):
        raise DomainError("ha needs r < 1/a" if inner else "eh needs R > a")
    return rad.r2.pow_int(2 if inner else -2)


def _metric_instanton(rad, inner):
    """ha (inner) or eh: delta + u/((1 - u) R^2) xh xh^T - (u/R^2) K3 K3^T."""
    u = _instanton_u(rad, inner)
    irad2 = rad.r2.reciprocal()
    w = u * ((-1.0) * u + 1.0).reciprocal() * irad2
    return [w, (-1.0) * u * irad2], ("x x", "k3 k3")


# frames e, f and etilde: the columns 0 and 1 in the (x0, xh) plane, then
# the sphere directions K1, K2, K3 as columns 2, 3 and 4
_E = ("c0 c0", "c0 c1", "x c0", "x c1", "k1 c2", "k2 c3", "k3 c4")


def _e_scalars(rad):
    """Frame e's scalars 4 x0^2 c + 1, 2 x0 w c / r, 1 - w^2 c / r^2 and
    1 / r, with c = r_o^2 / (1 + beta); frame htilde reuses them."""
    c = rad.ro2 * (rad.beta + 1.0).reciprocal()
    ir = rad.r.reciprocal()
    x0, w = rad.x0, rad.w
    return (4.0 * x0 * x0 * c + 1.0, 2.0 * x0 * w * c * ir,
            1.0 + (-1.0) * w * w * c * ir * ir, ir)


def _frame_e_coefficients(rad):
    """e = (4 x0^2 c + 1) c0 c0^T - (2 x0 w c / r) c0 c1^T + (2 x0 w c / r^2)
    xh c0^T + ((1 - w^2 c / r^2) / r) xh c1^T + K1 c2^T / r + K2 c3^T / r +
    K3 c4^T / (r beta) with c = r_o^2 / (1 + beta), on both sides of the
    cone (c = 0 and beta = 1 on L)."""
    e00, xwc, s, ir = _e_scalars(rad)
    return [e00, (-1.0) * xwc, xwc * ir, s * ir, ir, ir,
            ir * rad.beta.reciprocal()], _E


def _frame_f_coefficients(rad):
    """f = w c0 c0^T + 2 r x0 beta c0 c1^T + 2 x0 xh c0^T + (w beta / r)
    xh c1^T + r_o (K1 c2^T + K2 c3^T + K3 c4^T / beta), off the cone."""
    rad.exterior("frame f")
    r, ro, beta, w, x0 = rad.r, rad.ro, rad.beta, rad.w, rad.x0
    return [w, 2.0 * r * x0 * beta, 2.0 * x0, w * beta * r.reciprocal(),
            ro, ro, ro * beta.reciprocal()], _E


def _frame_etilde_coefficients(rad):
    """etilde = d e with d = r^2 - x0^2: frame e's coefficients times d, off
    the cone.  Written out, its (x0, xh) block divides numerators of order
    d^2 by d, which loses digits near the cone; the product does not."""
    rad.exterior("frame etilde")
    coef, sel = _frame_e_coefficients(rad)
    return [rad.d * c for c in coef], sel


def _frame_htilde_coefficients(rad):
    """The non-singular C^1 frame htilde = e.(QG) on C_1: exactly I on L
    (cone and axis included).  On the B_1 side the product is expanded and
    the 1/r factors cancelled algebraically, so the evaluation stays finite
    near the origin: with e's scalars E = 4 x0^2 c + 1, X = 2 x0 w c / r and
    S = 1 - w^2 c / r^2 (_e_scalars) and (k, q) of Q,

        htilde = I + (k E - q X - 1) c0 c0^T + ((k X + q S) / r) xh c0^T
                 + ((q E - k X) / r) c0 xh^T + ((q X + k S - 1) / r^2) xh xh^T
                 + ((1/beta - 1) / r^2) K3 K3^T

    whose column 0 is k e_0 + q e_1."""
    if _side_of(rad.gap) < 0:
        return [], ()
    k, q = _k_q(rad)
    e00, xwc, s, ir = _e_scalars(rad)
    ir2 = ir * ir
    return [k * e00 + (-1.0) * q * xwc + (-1.0), (k * xwc + q * s) * ir,
            (q * e00 + (-1.0) * k * xwc) * ir,
            (q * xwc + k * s + (-1.0)) * ir2,
            (rad.beta.reciprocal() + (-1.0)) * ir2], (
        "c0 c0", "x c0", "c0 x", "x x", "k3 k3")


def _eh_frame_coefficients(rad):
    """The instanton frame: the inward unit radial vector -beta xh / R,
    then K1 / R, K2 / R and K3 / (R beta), with beta = sqrt(1 - R^-4)."""
    beta = ((-1.0) * _instanton_u(rad, False) + 1.0).sqrt()
    ir = rad.r.reciprocal()
    return [(-1.0) * beta * ir, ir, ir, ir * beta.reciprocal()], (
        "x c0", "k1 c1", "k2 c2", "k3 c3")


def _k_q(rad):
    """The boost entries (k, q) of Q at a = 1 on the exterior side;
    CaViolationError outside C_1.  They are derived, not copied: h_0 :=
    k e_0 + q e_1 must be the unit-normalized d/dx_0, which forces
    k = -ga(h_0, e_0) and q = +ga(h_0, e_1).  In closed form, with
    rho = beta^-2 r_o^2,

        k = (1 - 4 x0^2 rho beta/(1+beta)) / sqrt(1 - 4 x0^2 rho)
        q = -2 x0 w beta rho / (r (1+beta) sqrt(1 - 4 x0^2 rho))

    which satisfies k^2 - q^2 = 1 identically on C_1."""
    beta, x0 = rad.beta, rad.x0
    ib = beta.reciprocal()
    rho = rad.ro2 * ib * ib
    gate = 4.0 * x0 * x0 * rho
    if np.any(gate.val >= 1.0):
        raise CaViolationError("4 x0^2 rho >= 1: point(s) outside C_a")
    iS = (((-1.0) * gate + 1.0).sqrt()).reciprocal()
    ip1 = (beta + 1.0).reciprocal()
    k = (1.0 + (-1.0) * gate * beta * ip1) * iS
    q = (-2.0) * x0 * rad.w * beta * rho * rad.r.reciprocal() * ip1 * iS
    if np.any(k.val <= 0.0):
        raise CaViolationError("k <= 0: point(s) outside C_a")
    return k, q


# the vector-frame transitions: G turns frame e's columns 1 to 4, the
# directions (xh, K1, K2, K3) / r on L, into the coordinate axes; Q and
# kappa are boosts of the (0, 1) plane
def _transition_g(rad):
    """G = c0 c0^T + (c1 xh^T + c2 K1^T + c3 K2^T + c4 K3^T) / r, its
    constant c0 c0^T; DomainError on the axis."""
    if np.any(rad.r2.val == 0.0):
        raise DomainError("G is singular on the axis r = 0")
    ir = rad.r.reciprocal()
    return [ir, ir, ir, ir], ("c1 x", "c2 k1", "c3 k2", "c4 k3")


def _boost(ch, sh):
    """The boost I + (ch - 1)(c0 c0^T + c1 c1^T) + sh (c0 c1^T + c1 c0^T)
    of the (0, 1) plane, its constant I."""
    return [ch + (-1.0), sh], ("c0 c0 + c1 c1", "c0 c1 + c1 c0")


def _transition_q(rad):
    """Q, the boost by (k, q) (_k_q) on the exterior side, exactly I on L
    (cone and axis included), like htilde."""
    if _side_of(rad.gap) < 0:
        return [], ()
    return _boost(*_k_q(rad))


def _transition_kappa(rad):
    """The cone boost kappa, by (w / d, -2 x0 r / d), off the cone."""
    rad.exterior("kappa")
    idet = rad.d.reciprocal()
    return _boost(rad.w * idet, (-2.0) * rad.x0 * rad.r * idet)


# Every closed form by name, a metric family, a frame id or a transition
# id: its dimension n, the dilation (p, q) by which its a-member at x is
# a^q times its a = 1 member at a^p x (level k scaled by a^(q + p k),
# README), its constant term, and the builder of its coefficients (None:
# the constant alone).
_I5, _E00 = np.eye(5), np.diag([1.0, 0.0, 0.0, 0.0, 0.0])
_I5.setflags(write=False)
_E00.setflags(write=False)
_FORMS = {
    "g0": (5, 1, 0, ETA, None),
    "ga": (5, 1, 0, ETA, _metric_ga),
    "gatilde": (5, 1, 4, None, _metric_gatilde),
    "ha": (4, 1, 0, _FLAT[4], lambda rad: _metric_instanton(rad, True)),
    "eh": (4, -1, 0, _FLAT[4], lambda rad: _metric_instanton(rad, False)),
    "u": (5, 1, 0, _I5, None),
    "e": (5, 1, 0, None, _frame_e_coefficients),
    "htilde": (5, 1, 0, _I5, _frame_htilde_coefficients),
    "f": (5, 1, -2, None, _frame_f_coefficients),
    "etilde": (5, 1, -2, None, _frame_etilde_coefficients),
    "eh_frame": (4, -1, 0, None, _eh_frame_coefficients),
    "G": (5, 1, 0, _E00, _transition_g),
    "Q": (5, 1, 0, _I5, _transition_q),
    "kappa": (5, 1, 0, _I5, _transition_kappa),
}


# Bytes the largest jet level of one block may take.  _over_blocks
# runs a larger batch block by block, so a call's intermediates stay near
# this size instead of growing with the batch.  On a 2-core Xeon with 2 MiB
# of L2 cache a core, budgets of 1 to 8 MiB ran 1200-point batches equally
# fast within noise, and peak memory grew above 2 MiB.  The loop is
# private, so a tracer that wraps the public functions charges each
# block's work to the layer that asked for it.
BLOCK_BYTES = 2 << 20


def metric_jets(spec: MetricSpec, x, order):
    """Metric components as a (dim, dim) tensor jet.

    For family 'ga'/'gatilde' the batch must lie entirely on one side of the
    cone (AmbiguousError otherwise); the L side returns the exact flat branch.
    The coefficient jets, and with them the cone side and the domain, are
    built once for the whole batch; a large batch then runs block by block
    (_over_blocks), with the same result.
    """
    return _over_blocks(spec.family, spec.a, x, order, lambda g: g)


def _over_blocks(name, a, x, order, read):
    """read(g) for the jet g of the given order of the closed form named
    (_FORMS) at parameter a over the batch x, block by block: the
    package's one block loop.  read maps a jet to a Jet or an ndarray with
    one leading axis per batch axis.

    The points are checked (n-dimensional) and dilated, and the closed
    form's coefficient jets built in their invariants, once for the whole
    batch, so its cone side and domain are decided before any block runs.
    Each block pulls its share of them back, forms the closed form (or the
    constant), dilates it and reads it.  A batch whose top level fits in
    BLOCK_BYTES is one block as it is; a larger one is flattened to (N, n)
    and cut into the fewest blocks that fit, their sizes differing by at
    most one, and each block's result is written into outputs allocated
    once before the batch shape is restored."""
    n, p, q, const, build = _FORMS[name]
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n:
        raise DimensionError("%r needs %dd points, got %dd"
                             % (name, n, x.shape[-1]))
    y = a * x if p > 0 else x / a
    coef, sel = ([], ()) if build is None else build(RadialJets(y, order))
    # a weight a^q is formed only once the domain tests have passed
    s, weight = (a if p > 0 else 1.0 / a), (a ** q if q else 1.0)

    def block(pts, *f):
        g = (_closed_form(pts, J.Jet(*f), sel, const) if f
             else J.constant(const, n, order, pts.shape[:-1]))
        return read(g.dilate(s, weight))

    f = J.stack(coef).levels if coef else ()
    size = max(BLOCK_BYTES // (8 * n ** (order + 2)), 1)     # top level, float64
    base = y.shape[:-1]
    count = int(np.prod(base))
    if count <= size:
        return block(y, *f)
    blocks = -(-count // size)                  # ceil division
    edges = [count * i // blocks for i in range(blocks + 1)]
    y = y.reshape(count, n)
    f = [e.reshape((count,) + e.shape[len(base):]) for e in f]
    outs = None
    for lo, hi in zip(edges[:-1], edges[1:]):
        part = block(y[lo:hi], *[e[lo:hi] for e in f])
        is_jet = isinstance(part, J.Jet)
        levels = part.levels if is_jet else (part,)
        if outs is None:
            outs = [np.empty((count,) + v.shape[1:], v.dtype) for v in levels]
        for out, v in zip(outs, levels):
            out[lo:hi] = v
        del part, levels, v     # copied: not kept alive while the next block runs
    outs = [out.reshape(base + out.shape[1:]) for out in outs]
    return J.Jet(*outs) if is_jet else outs[0]
