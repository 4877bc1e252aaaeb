"""Numerical smoothness-class probing across the light cone.

Every deformation term of the metric family is a power of the odd radial
coordinate r_o times a rational monomial

    f_l = r**(-l_r) * x0**l0 * ... * x4**l4,     order s_l = -l_r + sum(l_i),

extended by zero to the inside of the cone.  Such a field is of class
C^(k-1) but not C^k with k = min(m, m + s_l), where m is the power of r_o:
the order-m defect lives on the cone away from the vertex, the order-(m+s_l)
defect (which only bites when s_l < 0) lives at the vertex.

The probe walks a transversal curve with geometrically shrinking parameters
t_j = t0 / 2**j, evaluates all jet partials up to the requested order on both
sides, and classifies each derivative order by its one-sided gap sequence:

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
        leg = self.direction if t >= 0 else self.inward
        return self.base + abs(t) * leg


def _monomial_jets(spec, x, order):
    x = np.asarray(x, dtype=float)
    if geo.cone_gap(x) < 0:
        return J.constant(0.0, dim=5, order=order)
    xj = J.seed(x, order=order)
    _, r, d = geo.r2_r_d(xj)
    out = geo.radial_ro(xj, r, d).pow_int(spec.m)
    if spec.l[0]:
        out = out * r.reciprocal().pow_int(spec.l[0])
    for i, p in enumerate(spec.l[1:]):
        if p:
            out = out * xj[i].pow_int(p)
    return out


def _field_jets(field_tag, x, order, a):
    if isinstance(field_tag, MonomialSpec):
        return _monomial_jets(field_tag, x, order)
    tag = field_tag[0]
    if tag == "ga":
        i, j = field_tag[1], field_tag[2]
        g = geo.metric_jets(geo.MetricSpec("ga", a), np.asarray(x, float),
                            order=order)
        return g[i, j]
    raise ValueError("unknown field tag %r" % (tag,))


def _partial_arrays(jet, max_order):
    return [np.ravel(np.asarray(t, dtype=float)) for t in jet.levels[:max_order + 1]]


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
    if not 0 <= max_order <= 3:
        raise OrderError("partials are carried to order 3 at most")
    ts = curve.spacings()
    plus = np.array([curve.point(t) for t in ts])
    minus = np.array([curve.point(-t) for t in ts])
    sp = set(np.sign(geo.cone_gap(plus)))
    sm = set(np.sign(geo.cone_gap(minus)))
    if len(sp) != 1 or len(sm) != 1 or 0 in (sp | sm) or sp == sm:
        raise NonTransversalError(
            "curve samples do not separate cleanly across the cone")
    gaps = np.zeros((max_order + 1, len(ts)))
    scales = np.zeros(max_order + 1)
    for j in range(len(ts)):
        A = _partial_arrays(_field_jets(field_tag, plus[j], max_order, a),
                            max_order)
        B = _partial_arrays(_field_jets(field_tag, minus[j], max_order, a),
                            max_order)
        for p in range(max_order + 1):
            gaps[p, j] = np.max(np.abs(A[p] - B[p]))
            scales[p] = max(scales[p], np.max(np.abs(A[p])),
                            np.max(np.abs(B[p])))
    verdicts = tuple(_classify(gaps[p], scales[p])
                     for p in range(max_order + 1))
    return ProbeReport(verdicts, gaps, ts, scales)


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


def probe_family(field_tag, a=1.0, n_curves=10, seed=0, max_order=3):
    """Probe a field along a family of random transversal curves plus one
    vertex curve; the field's class is the min over curves (None = every
    probed order continuous on every curve)."""
    rng = np.random.default_rng(seed)
    curves = [random_crossing_curve(rng, a) for _ in range(n_curves)]
    curves.append(vertex_curve(rng, a))
    reports = [smoothness_probe(field_tag, c, max_order=max_order, a=a)
               for c in curves]
    classes = [r.smoothness_class for r in reports]
    if all(k is None for k in classes):
        overall = None
    else:
        overall = min(k for k in classes if k is not None)
    return reports, overall


# ------------------------------------------------------------------ decay

def weyl_decay_exponent(curve, a=1.0):
    """Fitted power of r_o with which the deformed metric's Weyl tensor
    vanishes toward the cone, along the exterior side of a crossing curve."""
    ts = curve.spacings()
    sgn = 1.0 if geo.cone_gap(curve.point(ts[0])) > 0 else -1.0
    pts = np.array([curve.point(sgn * t) for t in ts])
    if np.any(geo.cone_gap(pts) <= 0):
        raise NonTransversalError("curve has no clean exterior side")
    W = C.weyl(geo.MetricSpec("ga", a), pts)
    sup = np.max(np.abs(W), axis=(1, 2, 3, 4))
    ro = geo.radial_values(pts)[2]
    return float(np.polyfit(np.log(ro), np.log(sup), 1)[0])
