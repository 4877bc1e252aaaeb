"""Numerical smoothness-class probing across the light cone.

Every deformation term of the metric family is a power of the odd radial
coordinate r_o times a rational monomial

    f_l = r**(-l_r) * x0**l0 * ... * x4**l4,     order s_l = -l_r + sum(l_i),

extended by zero to the inside of the cone.  Such a field is of class
C^(k-1) but not C^k with k = min(m, m + s_l), where m is the power of r_o:
the order-m defect lives on the cone away from the vertex, the order-(m+s_l)
defect (which only bites when s_l < 0) lives at the vertex.

The probe walks transversal curves with geometrically shrinking parameters
t_j = t0 / 2**j, evaluates all jet partials up to the requested order on both
sides -- at each spacing, the points of all the curves of a call as one batch
per cone side and field (every monomial field counting as one) -- and
classifies each derivative order by its one-sided gap sequence:

    continuous   gaps -> 0       (below floor, or last ratios <= 0.75)
    jump         gaps -> const   (last three ratios within 5% of 1)
    divergent    gaps grow       (last three ratios >= 1.5)

Anything else raises: an unclassifiable sequence is a result worth seeing,
not smoothing over.  A straight line cannot cross the cone at the vertex, so
a curve based there walks two rays (`direction` for t > 0, `inward` for
t < 0); probing the vertex is what distinguishes s_l < 0.  Curves are probed
along sampled parameters only -- a verdict certifies the tested curves, not
an open neighbourhood.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import curvature as C
from . import geometry as geo
from . import jets as J
from .errors import NonTransversalError, OrderError


@dataclass(frozen=True)
class MonomialSpec:
    """r_o**m * f_l with l = (l_r, l0, l1, l2, l3, l4)."""

    m: int
    l: tuple

    def __post_init__(self):
        m = int(self.m)
        l = tuple(int(v) for v in self.l)
        if m != self.m or m < 1:
            raise ValueError("m must be a positive integer")
        if len(l) != 6 or any(v < 0 for v in l) or l != tuple(self.l):
            raise ValueError("l must be six nonnegative integers")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "l", l)

    @property
    def s_l(self):
        return -self.l[0] + sum(self.l[1:])

    @property
    def predicted_class(self):
        """k such that the field is C^(k-1) but not C^k."""
        return min(self.m, self.m + self.s_l)


RO2 = MonomialSpec(2, (0, 0, 0, 0, 0, 0))
N_SPACINGS = 12                 # parameters t0 / 2**j, j < N_SPACINGS, per curve


@dataclass
class CrossingCurve:
    base: object
    direction: object
    t0: float = 0.1
    inward: np.ndarray = field(init=False)      # leg for t < 0, derived

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float).reshape(5)
        self.direction = np.asarray(self.direction, dtype=float).reshape(5)
        # the timelike axis at the vertex, the line continued elsewhere
        self.inward = (np.array([1.0, 0, 0, 0, 0]) if np.all(self.base == 0.0)
                       else -self.direction)
        if self.t0 <= 0:
            raise ValueError("need t0 > 0")

    def spacings(self):
        return self.t0 * 0.5 ** np.arange(N_SPACINGS)

    def point(self, t):
        """The point at parameter t, or a (..., 5) array of them for an
        array of t: base + |t| * leg, on `direction` for t >= 0, else on
        `inward`."""
        t = np.asarray(t, dtype=float)[..., None]
        return self.base + np.abs(t) * np.where(t >= 0, self.direction,
                                                self.inward)


def _monomial_jets(m, l, x, order):
    """Jets of r_o**m * f_l at the points x (k, 5) for per-point integer
    exponents m (k,) and l (k, 6).  D[:, i, e] is the e-th derivative of
    x_i**l_(i+1), so a partial of x**l[:, 1:] whose indices hold each i E_i
    times is the product over i of D[:, i, E_i] (_index_counts)."""
    if np.all(geo.cone_gap(x) < 0):
        return J.constant(0.0, dim=5, order=order, shape=x.shape[:-1])
    rad = geo.RadialJets(x, order)
    f = rad.ro.pow_int(m)
    if np.any(l[:, 0]):                 # factors that are 1 cost a product
        f = f * rad.r.reciprocal().pow_int(l[:, 0])
    (out,) = rad.pullback(f)
    if not np.any(l[:, 1:]):
        return out
    lp, e = l[:, 1:, None], np.arange(order + 1)
    D = np.power(x[..., None], np.maximum(lp - e, 0))        # (k, 5, e)
    for t in range(order):
        D *= np.where(e > t, lp - t, 1)         # the falling factorial
    return out * J.Jet(*[np.prod(D[:, np.arange(5), _index_counts(k)], -1)
                         for k in range(order + 1)])


@lru_cache(maxsize=None)
def _index_counts(k):
    """E[i1, ..., ik, i]: how often i occurs among the k indices."""
    return np.eye(5, dtype=int)[np.indices((5,) * k)].sum(0)


def _field_jets(field_tag, x, order, a):
    """Jets at the points x of g_a's entry ("ga", i, j), or of the monomial
    fields ("monomial", m, l) with per-point exponents."""
    if field_tag[0] == "monomial":
        return _monomial_jets(field_tag[1], field_tag[2], x, order)
    if field_tag[0] == "ga":
        i, j = field_tag[1], field_tag[2]
        g = geo.metric_jets(geo.MetricSpec("ga", a), np.asarray(x, float),
                            order=order)
        return g[i, j]
    raise ValueError("unknown field tag %r" % (field_tag[0],))


def _classify(gaps, scale):
    floor = 1e-10 * max(scale, 1.0)
    if gaps[-1] <= floor:
        return "continuous"
    tail = np.maximum(gaps[-4:], 1e-300)
    rho = tail[1:] / tail[:-1]
    if np.all(rho <= 0.75):
        return "continuous"
    if np.all(np.abs(rho - 1.0) <= 0.05):
        return "jump"
    if np.all(rho >= 1.5):
        return "divergent"
    raise ValueError("unclassifiable gap sequence %s"
                     % np.array2string(gaps[-4:], precision=3))


@dataclass
class ProbeReport:
    verdicts: tuple
    gaps: np.ndarray           # (max_order+1, n) sup gap per order and spacing
    spacings: np.ndarray
    scales: np.ndarray         # sup |one-sided partials| per order

    @property
    def smoothness_class(self):
        """Largest k with all orders <= k continuous, as k; None if every
        probed order is continuous (class at least max_order)."""
        for p, v in enumerate(self.verdicts):
            if v != "continuous":
                return p - 1
        return None


def smoothness_probe(field_tag, curve, max_order=3, a=1.0):
    return _probe_curves([field_tag], [curve], max_order, a)[0]


def _probe_curves(fields, curves, max_order, a):
    """One ProbeReport per curve, in order, for one field tag per curve.
    The legs are grouped once into field calls; at each spacing each group
    is one _field_jets call.  A point's jets do not depend on its batch."""
    if not 0 <= max_order <= 3:
        raise OrderError("max_order must be in 0..3, got %r" % (max_order,))
    legs, sides = [], []
    for c in curves:
        ts = c.spacings()
        pm = np.stack([c.point(ts), c.point(-ts)])        # (2, spacing, 5)
        sp, sm = (set(np.sign(geo.cone_gap(leg))) for leg in pm)
        if len(sp) != 1 or len(sm) != 1 or 0 in (sp | sm) or sp == sm:
            raise NonTransversalError(
                "curve samples do not separate cleanly across the cone")
        legs.append(pm)
        sides.append(sp.pop())
    n = len(curves)
    legs = np.stack(legs, axis=2)                   # (2, spacing, curve, 5)
    # per cone side, one call per metric entry tag and one for all the
    # monomials, with per-leg exponents; in order of first use
    tags, groups, calls = list(fields) * 2, {}, []
    sides = np.concatenate([sides, np.negative(sides)])
    for col, (tag, side) in enumerate(zip(tags, sides)):
        key = "monomial" if isinstance(tag, MonomialSpec) else tag
        groups.setdefault((key, side), []).append(col)
    for (key, _), cols in groups.items():
        if key == "monomial":
            key = ("monomial", np.array([tags[c].m for c in cols]),
                   np.array([tags[c].l for c in cols]))
        calls.append((key, cols))
    out = [np.empty((N_SPACINGS, 2 * n, 5 ** p)) for p in range(max_order + 1)]
    for j in range(N_SPACINGS):
        x = legs[:, j].reshape(2 * n, 5)             # plus legs, then minus
        for tag, cols in calls:
            levels = _field_jets(tag, x[cols], max_order, a).levels
            for o, t in zip(out, levels):
                o[j, cols] = np.real(t).reshape(len(t), -1)
    # per curve: sup gap per order and spacing, sup |partial| per order
    gaps = np.stack([np.max(np.abs(o[:, :n] - o[:, n:]), axis=2).T
                     for o in out], axis=1)
    scales = np.stack([np.max(np.abs(o), axis=(0, 2)).reshape(2, n).max(0)
                       for o in out], axis=1)
    return [ProbeReport(tuple(map(_classify, g, s)), g, c.spacings(), s)
            for c, g, s in zip(curves, gaps, scales)]


# ------------------------------------------------------------ curve families

def _unit_no_small(rng, k):
    """Unit vector with every component bounded away from zero."""
    w = rng.uniform(0.25, 1.0, k) * rng.choice([-1.0, 1.0], k)
    return w / np.linalg.norm(w)


def random_crossing_curve(rng, a=1.0):
    """Affine curve through a generic cone point away from the vertex.  Its
    base and spacings scale with 1/a, tracking the family's own dilation
    g_a(x/a) = g_1(x)."""
    u = rng.uniform(0.4, 1.0)
    s = rng.choice([-1.0, 1.0])
    w = _unit_no_small(rng, 4)
    base = np.concatenate([[s * u], u * w])
    xi = rng.uniform(-0.3, 0.3, 4)
    direction = np.concatenate([[-s], w + xi])
    return CrossingCurve(base / a, direction, t0=0.1 / a)


def vertex_curve(rng, a=1.0):
    """Two-ray curve through the vertex: exterior for t > 0, timelike
    axis (where the extension is zero) for t < 0.  Its spacings scale with
    1/a."""
    d = np.concatenate([[rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.6)],
                        _unit_no_small(rng, 4)])
    return CrossingCurve(np.zeros(5), d, t0=0.1 / a)


def family_curves(a, n_curves, seed):
    """n_curves random transversal curves and one vertex curve, drawn from
    one generator seeded with seed."""
    rng = np.random.default_rng(seed)
    curves = [random_crossing_curve(rng, a) for _ in range(n_curves)]
    return curves + [vertex_curve(rng, a)]


def family_class(reports):
    """A field's class over a family: the min over its curves (None =
    every probed order continuous on every curve)."""
    classes = [r.smoothness_class for r in reports]
    return min((k for k in classes if k is not None), default=None)


def probe_family(field_tag, a=1.0, n_curves=10, seed=0, max_order=3):
    """Probe a field along a family of random transversal curves plus one
    vertex curve (family_curves); its reports and class (family_class)."""
    curves = family_curves(a, n_curves, seed)
    reports = _probe_curves([field_tag] * len(curves), curves, max_order, a)
    return reports, family_class(reports)


# ------------------------------------------------------------------ decay

def weyl_decay_exponent(curve, a=1.0):
    """Fitted power of r_o with which the deformed metric's Weyl tensor
    vanishes toward the cone, along the exterior side of a crossing curve."""
    ts = curve.spacings()
    sgn = 1.0 if geo.cone_gap(curve.point(ts[0])) > 0 else -1.0
    pts = curve.point(sgn * ts)
    if np.any(geo.cone_gap(pts) <= 0):
        raise NonTransversalError("curve has no clean exterior side")
    W = C.weyl(geo.MetricSpec("ga", a), pts)
    sup = np.max(np.abs(W), axis=(1, 2, 3, 4))
    ro = geo.radial_values(pts)[2]
    return float(np.polyfit(np.log(ro), np.log(sup), 1)[0])
