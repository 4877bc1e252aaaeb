"""Orthonormal frames for the metric family and the transitions between them.

A frame is its (n, n) tensor jet in column convention: ``F[mu, i]`` is
Cartesian component mu of the i-th frame vector, so a right matrix action
"frame . M" is ``jets.jeinsum("mi,ij->mj", F, M)``.  The caller names the
metric the frame is orthonormal for.  Every frame is a closed form of
geometry, built like the metrics: coefficient jets in the invariants times
outer products of the fields c_i, xh, K1, K2, K3, in the one block loop
geometry._over_blocks, which reads a and the frame's dilation weights
(frames f and etilde carry a^-2) from geometry's table of closed forms.

Vector-frame transitions (G, Q, kappa) are (5, 5) tensor jets; the spinor
lifts (Gtilde, Qtilde, kappatilde) are plain complex value arrays, batched as
(..., 4, 4).  G, Q and kappa read their radial functions from a
geometry.RadialJets bundle, pulled back to x.

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
from .errors import DimensionError, DomainError

# ------------------------------------------------------------- Q entries

def k_q_rho(x, a=1.0, *, order):
    """Boost entries (k, q) of Q and rho = a^4 beta^-2 r_o^2, as jets.

    On the L side this is exactly (1, 0, 0).  Raises CaViolationError when
    4 x_0^2 rho >= 1 (outside the C_a neighbourhood of the cone).
    """
    x = _points(a * np.asarray(x, dtype=float))
    rad = geo.RadialJets(x, order)
    if geo._side_of(rad.gap) < 0:
        return tuple(J.constant(v, 5, order, x.shape[:-1])
                     for v in (1.0, 0.0, 0.0))
    k, q, rho = rad.pullback(*geo._k_q_rho(rad))
    return k.dilate(a), q.dilate(a), rho.dilate(a, a ** 2)


# ------------------------------------------------------------ transforms

def _points(x):
    if x.shape[-1] != 5:
        raise DimensionError("expected points with 5 components")
    return x


def _g_matrix(x, order):
    rad = geo.RadialJets(x, order)
    if np.any(rad.r2.val == 0.0):
        raise DomainError("G is singular on the axis r = 0")
    (ir,) = rad.pullback(rad.r.reciprocal())
    xj = J.seed(x, order)
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
    rad = geo.RadialJets(x, order)
    rad.exterior("kappa")
    idet = rad.d.reciprocal()
    return _boost(*rad.pullback(rad.w * idet,
                                (-2.0) * rad.x0 * rad.r * idet))


def _kappatilde_matrix(x):
    rad = geo.RadialJets(x, 0)
    rad.exterior("kappatilde")
    sd = np.sqrt(rad.d.val)
    m = np.zeros(sd.shape + (4, 4), dtype=complex)
    for i in range(4):
        m[..., i, i] = rad.r.val / sd
    m[..., 0, 2] = m[..., 2, 0] = x[..., 0] / sd
    m[..., 1, 3] = m[..., 3, 1] = -x[..., 0] / sd
    return m


def transform_eval(id, x, a=1.0, *, order):
    """One of the transition matrices {G, Gtilde, Q, Qtilde, kappa,
    kappatilde} evaluated at x: a tensor jet of the given order for the
    vector transforms, complex values for the lifts Gtilde, Qtilde and
    kappatilde, which read no order."""
    x = _points(np.asarray(x, dtype=float))
    if id == "G":
        return _g_matrix(x, order)
    if id == "Gtilde":
        return _gtilde_matrix(x)
    if id == "Q":
        return _boost(*k_q_rho(x, a, order=order)[:2])
    if id == "Qtilde":
        return _qtilde_matrix(*k_q_rho(x, a, order=0)[:2])
    if id == "kappa":
        return _kappa_matrix(x, order)
    if id == "kappatilde":
        return _kappatilde_matrix(x)
    raise ValueError(f"unknown transform id {id!r}")


# ---------------------------------------------------------------- frames

def frame_eval(id, x, a=1.0, order=1):
    """One of the frames {e, f, etilde, u, htilde} at x, as a (5, 5) tensor
    jet: e and htilde are orthonormal for ga, f and etilde for gatilde, and
    u for g0.

    The default order 1 is what connection_forms needs for the spin
    connection and the twistor residual: the frame's values and first
    partials.  The structure equations read omega's partials, so they need
    order 2."""
    if id not in ("e", "f", "etilde", "u", "htilde"):
        raise ValueError(f"unknown frame id {id!r}")
    return geo._over_blocks(id, a, x, order, lambda fr: fr)


def eh_frame(y, a=1.0):
    """Orthonormal frame for the 4d gravitational instanton metric (R > a),
    an order-2 tensor jet: the inward unit radial vector followed by the
    three sphere directions."""
    return geo._over_blocks("eh_frame", a, y, 2, lambda fr: fr)


def gram_matrix(Fv, gv):
    """Pointwise Gram matrix F^T g F of frame values Fv under metric values
    gv, both (..., n, n)."""
    return np.einsum("...mi,...mn,...nj->...ij", Fv, gv, Fv, optimize=True)
