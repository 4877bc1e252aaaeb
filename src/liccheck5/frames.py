"""Orthonormal frames for the metric family and the transitions between them.

A frame is its (n, n) tensor jet in column convention: ``F[mu, i]`` is
Cartesian component mu of the i-th frame vector, so a right matrix action
"frame . M" is ``jets.jeinsum("mi,ij->mj", F, M)``.  The caller names the
metric the frame is orthonormal for.

Vector-frame transitions (G, Q, kappa) are (5, 5) tensor jets; the spinor
lifts (Gtilde, Qtilde, kappatilde) are plain complex value arrays, batched as
(..., 4, 4).

The closed forms below are the a = 1 members; the public functions build
them at a x (y / a for eh_frame) and restore a with Jet.dilate, where
frames f and etilde carry the weight a^-2 and rho the weight a^2 (README).

The Q entries are *derived*, not copied: h_0 := (k e_0 + q e_1) must be the
unit-normalized d/dx_0, which forces k = -ga(h_0, e_0) and q = +ga(h_0, e_1).
In closed form, with rho = beta^-2 r_o^2 and w = r^2 + x_0^2 at a = 1,

    k = (1 - 4 x_0^2 rho beta/(1+beta)) / sqrt(1 - 4 x_0^2 rho)
    q = -2 x_0 w beta rho / (r (1+beta) sqrt(1 - 4 x_0^2 rho))

which satisfies k^2 - q^2 = 1 identically on C_a and reduces to (1, 0) on L.
"""

import numpy as np

from . import geometry as geo
from . import jets as J
from .errors import CaViolationError, DimensionError, DomainError

# ----------------------------------------------------------------- plumbing

def _seed(x, order):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 5:
        raise DimensionError("expected points with 5 components")
    return x, J.seed(x, order=order)


def _require_exterior(x, who):
    if np.any(geo.cone_gap(x) <= 0.0):
        raise DomainError(f"{who} is only defined off the cone, on r > |x0|")


# ------------------------------------------------------------- Q entries

def k_q_rho(x, a=1.0, order=3):
    """Boost entries (k, q) of Q and rho = a^4 beta^-2 r_o^2, as jets.

    On the L side this is exactly (1, 0, 0).  Raises CaViolationError when
    4 x_0^2 rho >= 1 (outside the C_a neighbourhood of the cone).
    """
    x, xj = _seed(a * np.asarray(x, dtype=float), order)
    if geo.cone_side(x) < 0:
        return tuple(J.constant(v, 5, order, x.shape[:-1])
                     for v in (1.0, 0.0, 0.0))
    k, q, rho = _k_q_rho(xj, geo.RadialJets(xj))
    return k.dilate(a), q.dilate(a), rho.dilate(a, a ** 2)


def _k_q_rho(xj, rad):
    """k_q_rho at a = 1 on the exterior side from the batch's radial jets."""
    ro, beta, r, w = rad.ro, rad.beta, rad.r, rad.w
    ib = beta.reciprocal()
    rho = ro * ro * ib * ib
    gate = 4.0 * xj[0] * xj[0] * rho
    if np.any(gate.val >= 1.0):
        raise CaViolationError("4 x0^2 rho >= 1: point(s) outside C_a")
    iS = (((-1.0) * gate + 1.0).sqrt()).reciprocal()
    ip1 = (beta + 1.0).reciprocal()
    k = (1.0 + (-1.0) * gate * beta * ip1) * iS
    q = (-2.0) * xj[0] * w * beta * rho * r.reciprocal() * ip1 * iS
    if np.any(k.val <= 0.0):
        raise CaViolationError("k <= 0: point(s) outside C_a")
    return k, q, rho


# ------------------------------------------------------------ transforms

def _g_matrix(x, xj):
    if np.any(geo.radial_values(x)[0] == 0.0):
        raise DomainError("G is singular on the axis r = 0")
    ir = geo.RadialJets(xj).r.reciprocal()
    rows = [xj[1:], *geo.sigma_dual_vectors(xj[1:])]        # x, K1, K2, K3
    return J.stack([[1.0, 0.0, 0.0, 0.0, 0.0]]
                   + [[0.0] + [v * ir for v in row] for row in rows])


def _gtilde_matrix(x):
    r = geo.radial_values(x)[0]
    if np.any(r == 0.0):
        raise DomainError("Gtilde is singular on the axis r = 0")
    s = x[..., 1:]
    m = np.zeros(r.shape + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = 1.0
    m[..., 2, 2] = (s[..., 0] + 1j * s[..., 1]) / r
    m[..., 2, 3] = (s[..., 2] + 1j * s[..., 3]) / r
    m[..., 3, 2] = (-s[..., 2] + 1j * s[..., 3]) / r
    m[..., 3, 3] = (s[..., 0] - 1j * s[..., 1]) / r
    return m


def _boost(ch, sh):
    """The (5, 5) jet matrix acting by [[ch, sh], [sh, ch]] on the (0, 1)
    plane and trivially on the rest."""
    rows = [[float(i == j) for j in range(5)] for i in range(5)]
    rows[0][0] = rows[1][1] = ch
    rows[0][1] = rows[1][0] = sh
    return J.stack(rows)


def _qtilde_matrix(k, q):
    kv = np.asarray(k.val, dtype=float)
    qv = np.asarray(q.val, dtype=float)
    big = np.sqrt((kv + 1.0) / 2.0)
    lil = qv / np.sqrt(2.0 * (kv + 1.0))
    m = np.zeros(kv.shape + (4, 4), dtype=complex)
    for i in range(4):
        m[..., i, i] = big
    m[..., 0, 2] = m[..., 2, 0] = -lil
    m[..., 1, 3] = m[..., 3, 1] = lil
    return m


def _kappa_matrix(x, order):
    x, xj = _seed(x, order)
    _require_exterior(x, "kappa")
    rad = geo.RadialJets(xj)
    idet = rad.d.reciprocal()
    ch = rad.w * idet
    sh = 2.0 * xj[0] * rad.r * idet
    return _boost(ch, (-1.0) * sh)


def _kappatilde_matrix(x):
    _require_exterior(x, "kappatilde")
    r, d, _ = geo.radial_values(x)
    x0 = x[..., 0]
    sd = np.sqrt(d)
    m = np.zeros(r.shape + (4, 4), dtype=complex)
    for i in range(4):
        m[..., i, i] = r / sd
    m[..., 0, 2] = m[..., 2, 0] = x0 / sd
    m[..., 1, 3] = m[..., 3, 1] = -x0 / sd
    return m


def transform_eval(id, x, a=1.0, order=3):
    """One of the transition matrices {G, Gtilde, Q, Qtilde, kappa,
    kappatilde} evaluated at x: a tensor jet for the vector transforms,
    complex values for the lifts Gtilde, Qtilde and kappatilde."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 5:
        raise DimensionError("expected points with 5 components")
    if id == "G":
        _, xj = _seed(x, order)
        return _g_matrix(x, xj)
    if id == "Gtilde":
        return _gtilde_matrix(x)
    if id == "Q":
        return _boost(*k_q_rho(x, a, order)[:2])
    if id == "Qtilde":
        return _qtilde_matrix(*k_q_rho(x, a, order=0)[:2])
    if id == "kappa":
        return _kappa_matrix(x, order)
    if id == "kappatilde":
        return _kappatilde_matrix(x)
    raise ValueError(f"unknown transform id {id!r}")


# ---------------------------------------------------------------- frames

def _columns(cols):
    """Frame jet from a list of columns, each a list of 5 components."""
    return J.stack([[col[mu] for col in cols] for mu in range(5)])


def _sphere_columns(kvs, scales):
    """Columns along the sphere directions: no x0 part, scale * K^m."""
    return [[0.0] + [sc * kv[m] for m in range(4)] for kv, sc in zip(kvs, scales)]


def _frame_e_parts(xj, rad):
    """The columns e_0, e_1 of frame e, the K table and the scalars (c, 1/r,
    1/r^2) they are built from, with c = r_o^2 / (1 + beta); frame htilde
    reuses all of them."""
    r, ro, beta, w = rad.r, rad.ro, rad.beta, rad.w
    c = ro * ro * (beta + 1.0).reciprocal()
    ir = r.reciprocal()
    ir2 = ir * ir
    x0 = xj[0]
    e0 = [4.0 * x0 * x0 * c + 1.0] + [2.0 * x0 * w * c * xj[m] * ir2
                                      for m in range(1, 5)]
    e1c = (1.0 + (-1.0) * w * w * c * ir2) * ir
    e1 = [(-2.0) * x0 * w * c * ir] + [e1c * xj[m] for m in range(1, 5)]
    return e0, e1, geo.sigma_dual_vectors(xj[1:]), (c, ir, ir2)


def _frame_e(xj, rad):
    e0, e1, ks, (_, ir, _) = _frame_e_parts(xj, rad)
    ib = rad.beta.reciprocal()
    return [e0, e1] + _sphere_columns(ks, (ir, ir, ir * ib))


def _frame_f(xj, rad):
    r, ro, beta, w = rad.r, rad.ro, rad.beta, rad.w
    x0 = xj[0]
    f0 = [w] + [2.0 * x0 * xj[m] for m in range(1, 5)]
    fc = w * beta * r.reciprocal()
    f1 = [2.0 * r * x0 * beta] + [fc * xj[m] for m in range(1, 5)]
    ib = beta.reciprocal()
    return [f0, f1] + _sphere_columns(geo.sigma_dual_vectors(xj[1:]),
                                      (ro, ro, ro * ib))


def _frame_etilde(xj, rad):
    r, ro, beta, w = rad.r, rad.ro, rad.beta, rad.w
    x0 = xj[0]
    idet = rad.d.reciprocal()
    c0 = 2.0 * x0 * w * (1.0 + (-1.0) * beta) * idet
    e0 = [(w * w + (-4.0) * x0 * x0 * r * r * beta) * idet] + [
        c0 * xj[m] for m in range(1, 5)]
    c1 = (w * w * beta + (-4.0) * x0 * x0 * r * r) * idet * r.reciprocal()
    e1 = [2.0 * x0 * r * w * (beta + (-1.0)) * idet] + [
        c1 * xj[m] for m in range(1, 5)]
    ib = beta.reciprocal()
    return [e0, e1] + _sphere_columns(geo.sigma_dual_vectors(xj[1:]),
                                      (ro, ro, ro * ib))


def _frame_htilde(x, xj):
    """The non-singular C^1 frame htilde = e.(QG) on C_1.

    On the L side (cone and axis included) this is exactly the standard
    frame.  On the B_1 side the product is expanded and the 1/r factors
    cancelled algebraically, so the evaluation stays finite near the origin:
    with W := 2 q x0 w c / r + k (1 - w^2 c / r^2),

        htilde_j^0 = [q (1 + 4 x0^2 c) - 2 k x0 w c / r] x_j / r
        htilde_j^m = delta_mj + (W - 1) x_m x_j / r^2
                     + (1/beta - 1) K3^m K3^j / r^2          (j = 1..4)

    and htilde_0 = k e_0 + q e_1, which is regular anyway.
    """
    if geo.cone_side(x) < 0:
        return J.constant(np.eye(5), 5, xj[0].order, x.shape[:-1])
    rad = geo.RadialJets(xj)
    k, q, _ = _k_q_rho(xj, rad)
    e0, e1, (_, _, k3), (c, ir, ir2) = _frame_e_parts(xj, rad)
    x0, w = xj[0], rad.w
    cols = [[k * e0[m] + q * e1[m] for m in range(5)]]
    tcoef = (q * (1.0 + 4.0 * x0 * x0 * c) + (-2.0) * k * x0 * w * c * ir) * ir
    wm1 = 2.0 * q * x0 * w * c * ir + k * (1.0 + (-1.0) * w * w * c * ir2) + (-1.0)
    bm1 = rad.beta.reciprocal() + (-1.0)
    for j in range(1, 5):
        col = [tcoef * xj[j]]
        for m in range(1, 5):
            t = wm1 * xj[m] * xj[j] * ir2 + bm1 * k3[m - 1] * k3[j - 1] * ir2
            col.append((t + 1.0) if m == j else t)
        cols.append(col)
    return _columns(cols)


def frame_eval(id, x, a=1.0, order=1):
    """One of the frames {e, f, etilde, u, htilde} at x, as a (5, 5) tensor
    jet: e and htilde are orthonormal for ga, f and etilde for gatilde, and
    u for g0.

    The default order 1 is what connection_forms needs for the spin
    connection and the twistor residual: the frame's values and first
    partials.  The structure equations read omega's partials, so they need
    order 2."""
    x, xj = _seed(a * np.asarray(x, dtype=float), order)
    if id == "u":
        return J.constant(np.eye(5), 5, order, x.shape[:-1])
    if id == "htilde":
        return _frame_htilde(x, xj).dilate(a)
    if id == "e":
        return _columns(_frame_e(xj, geo.RadialJets(xj))).dilate(a)
    if id in ("f", "etilde"):
        _require_exterior(x, "frame " + id)
        build = _frame_f if id == "f" else _frame_etilde
        return _columns(build(xj, geo.RadialJets(xj))).dilate(a, a ** -2)
    raise ValueError(f"unknown frame id {id!r}")


def eh_frame(y, a=1.0):
    """Orthonormal frame for the 4d gravitational instanton metric (R > a),
    an order-2 tensor jet: the inward unit radial vector followed by the
    three sphere directions."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != 4:
        raise DimensionError("expected points with 4 components")
    y = y / a
    if not np.all(np.sqrt(np.sum(y * y, axis=-1)) > 1.0):
        raise DomainError("instanton frame needs R > a")
    yj = J.seed(y, order=2)
    rad2 = geo.sum_squares(yj)
    beta = ((-1.0) * rad2.pow_int(-2) + 1.0).sqrt()
    ir = rad2.sqrt().reciprocal()
    k1, k2, k3 = geo.sigma_dual_vectors(yj)
    ib = beta.reciprocal()
    return J.stack([[(-1.0) * beta * yj[m] * ir, k1[m] * ir, k2[m] * ir,
                     k3[m] * ir * ib] for m in range(4)]).dilate(1.0 / a)


def gram_matrix(Fv, gv):
    """Pointwise Gram matrix F^T g F of frame values Fv under metric values
    gv, both (..., n, n)."""
    return np.einsum("...mi,...mn,...nj->...ij", Fv, gv, Fv, optimize=True)
