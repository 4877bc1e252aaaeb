"""Orthonormal frames for the metric family and the transitions between them.

A frame is its (n, n) tensor jet in column convention: ``F[mu, i]`` is
Cartesian component mu of the i-th frame vector, so a right matrix action
"frame . M" is ``jets.jeinsum("mi,ij->mj", F, M)``.  The caller names the
metric the frame is orthonormal for.  Every frame, and every vector-frame
transition, is a closed form of geometry, built like the metrics:
coefficient jets in the invariants times outer products of the fields
c_i, xh, K1, K2, K3, in the one block loop geometry._over_blocks, which
reads a and the form's dilation weights (frames f and etilde carry a^-2)
from geometry's table of closed forms.

The vector transitions are G, which turns frame e's sphere directions into
the coordinate axes, and the boosts of the (0, 1) plane Q (by (k, q), on
C_a, so that htilde = e.(QG)) and kappa (the cone boost, with
etilde = f.kappa).  Their spinor lifts (Gtilde, Qtilde, kappatilde) are
plain complex value arrays, batched as (..., 4, 4); Qtilde and kappatilde
are the one boost lift of the values of Q and kappa.
"""

import numpy as np

from . import geometry as geo
from .errors import DimensionError, DomainError

_FRAMES = ("e", "f", "etilde", "u", "htilde")
# the vector transitions, rows of geometry._FORMS, and each spin lift with
# the transition it covers
_TRANSITIONS = ("G", "Q", "kappa")
_LIFTS = {"Gtilde": "G", "Qtilde": "Q", "kappatilde": "kappa"}


# ------------------------------------------------------------ transforms

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


def _boost_lift(B):
    """The spin lift of the boost values B (..., 5, 5) of the (0, 1) plane,
    with (ch, sh) = (B_00, B_01): sqrt((ch + 1) / 2) on the diagonal,
    -sh / sqrt(2 (ch + 1)) in the slots (0, 2) and (2, 0), and +sh over the
    same in (1, 3) and (3, 1)."""
    ch, sh = B[..., 0, 0], B[..., 0, 1]
    big = np.sqrt((ch + 1.0) / 2.0)
    lil = sh / np.sqrt(2.0 * (ch + 1.0))
    m = np.zeros(ch.shape + (4, 4), dtype=complex)
    for i in range(4):
        m[..., i, i] = big
    m[..., 0, 2] = m[..., 2, 0] = -lil
    m[..., 1, 3] = m[..., 3, 1] = lil
    return m


def transform_eval(id, x, a=1.0, *, order):
    """One of the transition matrices {G, Gtilde, Q, Qtilde, kappa,
    kappatilde} evaluated at x: a tensor jet of the given order for the
    vector transitions G, Q and kappa, complex values for the lifts Gtilde,
    Qtilde and kappatilde, which read no order."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 5:
        raise DimensionError("expected points with 5 components")
    if id == "Gtilde":
        return _gtilde_matrix(x)
    if id in _LIFTS:
        return _boost_lift(transform_eval(_LIFTS[id], x, a, order=0).val)
    if id not in _TRANSITIONS:
        raise ValueError(f"unknown transform id {id!r}")
    return geo._over_blocks(id, a, x, order, lambda m: m)


# ---------------------------------------------------------------- frames

def frame_eval(id, x, a=1.0, order=1):
    """One of the frames {e, f, etilde, u, htilde} at x, as a (5, 5) tensor
    jet: e and htilde are orthonormal for ga, f and etilde for gatilde, and
    u for g0.

    The default order 1 is what connection_forms needs for the spin
    connection and the twistor residual: the frame's values and first
    partials.  The structure equations read omega's partials, so they need
    order 2."""
    if id not in _FRAMES:
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
