"""Orthonormal frames for the metric family, their transitions and lifts.

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
the coordinate axes, and the boosts Q (by (k, q), on C_a) and kappa (the
cone boost) of the (0, 1) plane.  EDGES, the construction's frame graph,
gives each edge (from, to) the transitions whose product T makes
F_to = F_from . T: u = e.G on L, htilde = e.(QG) and etilde = f.kappa.
Each spin lift (Gtilde, Qtilde, kappatilde) is read off its transition's
values, as complex (..., 4, 4) arrays; clifford.spin_inverse inverts it.
"""

import numpy as np

from . import geometry as geo

_FRAMES = ("e", "f", "etilde", "u", "htilde")
# the vector transitions, rows of geometry._FORMS
_TRANSITIONS = ("G", "Q", "kappa")
# the frame graph: F_to = F_from . T, T the product of the listed transitions
EDGES = {("e", "u"): ("G",), ("e", "htilde"): ("Q", "G"),
         ("f", "etilde"): ("kappa",)}


# ------------------------------------------------------------ transforms

def _rotation_lift(G):
    """The spin lift of the rotation values G (..., 5, 5), read from G's
    row 1, (n1, n2, n3, n4) = xh / r: the identity on slots 0 and 1, and
    [[n1 + i n2, n3 + i n4], [-n3 + i n4, n1 - i n2]] on slots 2 and 3."""
    n = G[..., 1, 1:]
    m = np.zeros(n.shape[:-1] + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = 1.0
    m[..., 2, 2] = n[..., 0] + 1j * n[..., 1]
    m[..., 2, 3] = n[..., 2] + 1j * n[..., 3]
    m[..., 3, 2] = -n[..., 2] + 1j * n[..., 3]
    m[..., 3, 3] = n[..., 0] - 1j * n[..., 1]
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


# each spin lift: the transition it covers and how it is read off its values
_LIFTS = {"Gtilde": ("G", _rotation_lift), "Qtilde": ("Q", _boost_lift),
          "kappatilde": ("kappa", _boost_lift)}


def transform_eval(id, x, a=1.0, *, order):
    """One of the transition matrices {G, Gtilde, Q, Qtilde, kappa,
    kappatilde} evaluated at x: a tensor jet of the given order for the
    vector transitions G, Q and kappa, complex values for the lifts Gtilde,
    Qtilde and kappatilde, which read no order and raise the errors of the
    transition they cover."""
    if id in _LIFTS:
        covered, lift = _LIFTS[id]
        return lift(transform_eval(covered, x, a, order=0).val)
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
