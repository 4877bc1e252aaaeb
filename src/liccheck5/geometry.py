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

Every metric is a sum of coefficients times the polynomial tensors eta,
e0 e0^T, e0 xh^T + xh e0^T, xh xh^T and K3 K3^T (xh the spatial part of
x), and its coefficients depend on the U(2) invariants alone: x0 and
rho = r^2 for ga and gatilde (gatilde's 1/d^2 folded into each of them),
R^2 for ha and eh.  They are built once a batch as jets in those one or
two variables, which decides the batch's cone side and domain; then, block
by block, they are pulled back to x through the invariants' exact jets and
multiplied with the tensors' exact jets as batched matmuls.  That loop,
_over_blocks, is the package's one cut of a batch into blocks: metric_jets
returns its jets, and the curvature entries read their pieces inside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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


def _side_off_the_cone(x):
    """cone_side of the points x, raising on the cone itself, where the
    jets of r_o and g_a are not defined."""
    if np.any(cone_gap(x) == 0.0):
        raise AmbiguousError("point(s) on the cone boundary r = |x0|")
    return cone_side(x)


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
        return _side_off_the_cone(
            np.stack([np.asarray(j.val) for j in self.xj], axis=-1))

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


# The closed forms' polynomial tensors, ordered by degree in x: eta (delta in
# 4d), e0 e0^T, e0 xh^T + xh e0^T, xh xh^T and K3 K3^T, with xh the spatial
# part of x (its last four slots) and K3 = _K3 xh the Hopf field of
# sigma_dual_vectors' table; 4d has no e0 terms.  Each tensor after the
# first is a sum of outer products u v^T of the fields e0, xh and K3.
_K3 = np.array(sigma_dual_vectors(list(np.eye(4)))[2])
_TENSORS = {5: ((), (("e0", "e0"),), (("e0", "xh"), ("xh", "e0")),
                (("xh", "xh"),), (("k3", "k3"),)),
            4: ((), (("xh", "xh"),), (("k3", "k3"),))}


@lru_cache
def _monomials(n, sel):
    """Every entry of the tensors sel of _TENSORS[n] is one monomial
    c x_a x_b, where x_n = 1 stands in for a missing factor: the field
    components are single terms (K3 is a signed permutation of xh), and
    the two products of e0 xh^T + xh e0^T never share an entry.  So are the
    entries' exact partials, c (x_b [a = d] + x_a [b = d]) and then
    c ([a = d][b = e] + [a = e][b = d]), and there are no third ones.
    Returns, for the tensors of degree >= 0, >= 1 and 2 (trailing runs of
    sel, after k1 and k2 others), the level tables (c, ab) with
    ab = a (n + 1) + b (n, n, m), (c1, a1) (n, n, n, m - k1) and c2
    (n, n, n, n, m - k2), and k1, k2."""
    sp, perm = range(n - 4, n), np.argmax(np.abs(_K3), axis=1)
    fields = {"e0": [(1.0, n)] + [(0.0, n)] * (n - 1),
              "xh": [(0.0, n)] * (n - 4) + [(1.0, i) for i in sp],
              "k3": [(0.0, n)] * (n - 4) + [(_K3[i, p], n - 4 + p)
                                             for i, p in enumerate(perm)]}
    m = len(sel)
    c, a, b = np.zeros((n, n, m)), np.full((n, n, m), n), np.full((n, n, m), n)
    for i, j, t in np.ndindex(n, n, m):
        pairs = _TENSORS[n][sel[t]]
        if not pairs:
            c[i, j, t] = _FLAT[n][i, j]
            continue
        terms = [(cu * cv, au, av) for u, v in pairs
                 for (cu, au), (cv, av) in [(fields[u][i], fields[v][j])]
                 if cu * cv]
        assert len(terms) <= 1, "an entry that is not one monomial"
        if terms:
            c[i, j, t], a[i, j, t], b[i, j, t] = terms[0]
    degree = np.max((a < n) * 1 + (b < n), axis=(0, 1))
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


_FLAT = {5: ETA, 4: np.eye(4)}


def _tensor_jets(x, sel, order):
    """The jets of the tensors sel of _TENSORS at the points x (..., n),
    stacked on a last axis, up to the order asked: T0 (..., n, n, m); T1
    (..., n, n, n, m - k1) over the tensors of degree >= 1 and the constant
    T2 (n, n, n, n, m - k2) over those of degree 2, trailing runs of sel;
    returned with k1 and k2.  Each level is a gather of x (_monomials),
    made contiguous: np.matmul's bits follow its operands' layout."""
    n = x.shape[-1]
    (c, ab), (c1, a1), c2, k1, k2 = _monomials(n, tuple(sel))
    xp = np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)
    xx = (xp[..., :, None] * xp[..., None, :]).reshape(x.shape[:-1] + (-1,))
    levels = [c * np.take(xx, ab, axis=-1)]
    if order >= 1:
        levels.append(c1 * np.take(xp, a1, axis=-1))
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


def _closed_form(x, F, sel):
    """The metric jet sum_t f_t T_t at the points x, where the f_t are the
    coefficient jets F (in the invariants, pulled back here) of the tensors
    sel of _TENSORS, and eta (delta in 4d) is added with coefficient 1
    unless sel lists it.  T_t's jets stop at level 2, so level k of the
    product is a sum of matmuls over t in the output's layout: T0 f_k, the
    symmetrized T1 f_(k-1) and T2 f_(k-2)."""
    f = _pullback(F, x).levels
    order = len(f) - 1
    t, k1, k2 = _tensor_jets(x, sel, min(order, 2))
    out = [J.contract("ijt,t->ij", t[0], f[0])]
    if 0 not in sel:
        out[0] += _FLAT[x.shape[-1]]
    if order >= 1:
        out.append(J.contract("ijt,tx->ijx", t[0], f[1])
                   + J.contract("ijxt,t->ijx", t[1], f[0][..., k1:]))
    # the top levels are summed in place, so a block holds few of them
    if order >= 2:
        cross = J.contract("ijxt,ty->ijxy", t[1], f[1][..., k1:, :])
        cross = cross + np.swapaxes(cross, -1, -2)
        cross += J.contract("ijt,txy->ijxy", t[0], f[2])
        cross += J.contract("ijxyt,t->ijxy", t[2], f[0][..., k2:])
        out.append(cross)
    if order >= 3:
        cross = J.contract("ijxt,tyz->ijxyz", t[1], f[2][..., k1:, :, :])
        cross += J.contract("ijyzt,tx->ijxyz", t[2], f[1][..., k2:, :])
        cross = J._sym3(cross)
        cross += J.contract("ijt,txyz->ijxyz", t[0], f[3])
        out.append(cross)
    return J.Jet(*out)


class _InvariantJets(RadialJets):
    """RadialJets at the points x (..., 5) as jets in the two invariants
    (x0, rho = r^2) alone: x0 and rho are the seeds, so every field is a
    jet in two variables, and the side is decided from the points."""

    def __init__(self, x, order):
        rho = sum_squares(list(np.moveaxis(x[..., 1:], -1, 0)))
        x0, self.r2 = J.seed(np.stack([x[..., 0], rho], axis=-1), order)
        super().__init__([x0])
        self.points = x

    @cached_property
    def side(self):
        return _side_off_the_cone(self.points)


# Bytes the largest metric jet level of one block may take.  _over_blocks
# runs a larger batch block by block, so a call's intermediates stay near
# this size instead of growing with the batch.  On a 2-core Xeon with 2 MiB
# of L2 cache a core, budgets of 1 to 8 MiB ran 1200-point batches equally
# fast within noise, and peak memory grew above 2 MiB.  The loop is
# private, so a tracer that wraps the public functions charges each
# block's work to the layer that asked for it.
BLOCK_BYTES = 2 << 20


def metric_jets(spec: MetricSpec, x, order=3):
    """Metric components as a (dim, dim) tensor jet.

    For family 'ga'/'gatilde' the batch must lie entirely on one side of the
    cone (AmbiguousError otherwise); the L side returns the exact flat branch.
    The coefficient jets, and with them the cone side and the domain, are
    built once for the whole batch; a large batch then runs block by block
    (_over_blocks), with the same result.
    """
    return _over_blocks(spec, x, order, lambda g: g)


def _over_blocks(spec: MetricSpec, x, order, read):
    """read(g) for the metric jet g of the given order over the batch x,
    block by block: the package's one block loop.  read maps a jet to a
    Jet or an ndarray with one leading axis per batch axis.

    The points are checked (spec.dim-dimensional) and dilated by a, and
    the closed form's coefficient jets built in their invariants, once for
    the whole batch, so its cone side and domain are decided before any
    block runs.  Each block pulls its share of them back, forms the closed
    form (or the flat metric), dilates it and reads it.  A batch whose top
    metric level fits in BLOCK_BYTES is one block as it is; a larger one is
    flattened to (N, n) and cut into the fewest blocks that fit, their
    sizes differing by at most one, and each block's result is written
    into outputs allocated once before the batch shape is restored."""
    a, n, eh = spec.a, spec.dim, spec.family == "eh"
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n:
        raise DimensionError("family %r needs %dd points, got %dd"
                             % (spec.family, n, x.shape[-1]))
    y = x / a if eh else a * x
    F, sel = _coefficients(spec.family, y, order)
    # the weight a^4 is formed only once the domain tests have passed
    s, weight = (1.0 / a if eh else a,
                 a ** 4 if spec.family == "gatilde" else 1.0)

    def block(p, *f):
        g = (_closed_form(p, J.Jet(*f), sel) if f
             else J.constant(_FLAT[n], n, order, p.shape[:-1]))
        return read(g.dilate(s, weight))

    f = () if F is None else F.levels
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


def _coefficients(family, x, order):
    """The a = 1 closed form's coefficient jets at the points x, as one
    (..., m) tensor jet in the invariants, with the table indices (sel) of
    the tensors they multiply, or (None, ()) for the flat metric.  ga and
    gatilde are jets in (x0, rho) (_InvariantJets), gatilde's 1/d^2 folded
    into every coefficient, eta's included; ha and eh in R^2 alone, with
    u = R^4 (ha) or R^-4 (eh)."""
    if family == "g0":
        return None, ()
    if family in ("ha", "eh"):
        ha = family == "ha"
        rv = np.sqrt(np.sum(x * x, axis=-1))
        if not np.all(rv < 1.0 if ha else rv > 1.0):
            raise DomainError("ha needs r < 1/a" if ha else "eh needs R > a")
        (rad2,) = J.seed(sum_squares(list(np.moveaxis(x, -1, 0)))[..., None],
                         order)
        u = rad2.pow_int(2 if ha else -2)
        irad2 = rad2.reciprocal()
        w = u * ((-1.0) * u + 1.0).reciprocal() * irad2
        return J.stack([w, (-1.0) * u * irad2]), (1, 2)
    rad = _InvariantJets(x, order)
    coef, sel = ([], ()) if rad.side < 0 else (_metric_ga(rad), (1, 2, 3, 4))
    if family == "gatilde":               # eta's coefficient too: 1/d^2
        id2 = J.stack([(rad.d * rad.d).reciprocal()])
        return (J.stack([1.0] + coef) * id2 if coef else id2), (0,) + sel
    return (J.stack(coef) if coef else None), sel


def _metric_ga(rad):
    """The coefficients of g_1 on the exterior side, from the invariant
    radial jets: g_1 = eta + 4 c x0^2 r^2 e0 e0^T - 2 c w x0 (e0 xh^T +
    xh e0^T) + (c w^2 / r^2) xh xh^T - (u / r^2) K3 K3^T, with u = r_o^4
    and c = r_o^2 / (r^2 (1 - u)); that is eta + c alpha alpha^T -
    u r^2 sigma3 sigma3^T with alpha = (-2 x0 r, (w/r) xh) and sigma3 =
    K3/r^2.  On the seeds (x0, rho), r^2 is the seed rho itself, with no
    square root at all, and beta^2 = 1 - u is formed from r_o = d/r before
    any square root of it: squaring the bundle's r and beta instead moves
    the suite's residuals by up to 5x.  Raises DomainError unless 1 - u > 0,
    inside the closure of B_1."""
    r2, w, x0 = rad.r2, rad.w, rad.xj[0]
    ro2 = rad.ro * rad.ro
    u = ro2 * ro2
    bsq = (-1.0) * u + 1.0
    if not np.all(bsq.val > 0.0):        # NaN included
        raise DomainError("point(s) outside the closure of B_a (r_o >= 1/a)")
    ir2 = r2.reciprocal()
    c = ro2 * (r2 * bsq).reciprocal()
    cw = c * w
    return [4.0 * c * x0 * x0 * r2, (-2.0) * cw * x0, cw * w * ir2,
            (-1.0) * u * ir2]
