"""Curvature stack for the metric family: Christoffel symbols, Riemann,
Ricci, scalar and Weyl curvature, frame connection/curvature forms, the 4d
(anti-)self-dual split, Lie derivatives, Hessians, and the conformal identity
linking the deformed metric to its Ricci-flat rescaling.

Conventions, fixed once and used everywhere:

    R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y]
    riemann[l, k, i, j]  =  component along d_l of R(d_i, d_j) d_k
    ricci[k, j]          =  sum_i riemann[i, k, i, j]
    lowered[i, j, k, l]  =  sum_m g[l, m] riemann[m, k, i, j]

The first/third Ricci contraction makes round spheres come out positive
(Ric = 3 g for the unit 4-sphere, see the stereographic test).  In the
lowered slot layout above the trace removal reads weyl = lowered + P * g
(Kulkarni-Nomizu product of the Schouten tensor with the metric).

Everything is computed per batch from jet evaluations of the metric at the
requested points, each carried only to the order its reader needs.  One
_CurvaturePieces bundle per metric jet builds what the jet gives, each
piece on first read; connection forms keep the bundle omega was built from.
Riemann is one kernel on values, the metric's value, gradient and Hessian
with its inverse and Christoffel values; Christoffel jets are formed only
for the readers of their derivatives, and Riemann by differentiating them
(riemann_from_christoffel) is the oracle the tests hold the kernel to.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Callable

import numpy as np

from . import geometry as geo
from . import jets as J
from .errors import (DimensionError, FrameMismatchError, OrderError,
                     SingularError)
from .frames import gram_matrix

# ------------------------------------------------------------------ types


@dataclass
class ConnectionForms:
    eps: np.ndarray              # frame signature, diag of the Gram matrix
    omega: J.Jet                 # (n, n, n) tensor jet, [i, j, mu]:
                                 # coordinate components of omega_ij (lowered),
                                 # one order below the frame
    omega_frame: np.ndarray      # (..., n, n, n) values, [i,j,k] = omega_ij(f_k)
    frame: J.Jet                 # the frame jet, [mu, k] = component mu of f_k
    pieces: Callable[[], "_CurvaturePieces"]  # the bundle omega was built
                                 # from, or an order-2 one if its g is order 1

    @cached_property
    def curvature_frame(self):
        """(..., n, n, n, n) values, [i,j,k,l] = Omega_ij(f_k, f_l); built
        on first read, from the second-order metric."""
        P = self.pieces()
        if P.g.order < 2:
            raise OrderError("curvature forms need a metric jet of order >= 2,"
                             " got order %d" % P.g.order)
        return _frame_components(P.lowered, self.frame.val)


# ------------------------------------------------------------- raw pieces


def christoffel_from_jets(g):
    """Levi-Civita symbols, [k, i, j] = Gamma^k_ij, from a metric jet; the
    result is one order below the metric."""
    return _christoffel(J.jmat_inv(g.truncate(g.order - 1)), g.d())


def _christoffel(ginv, dg):
    """Gamma^k_ij = g^kl t_ijl / 2 from the inverse metric's jets (or
    values) and the jets of the metric's first partials dg[i, j, l] =
    d_l g_ij."""
    t = J.jeinsum("jli->ijl", dg) + J.jeinsum("ilj->ijl", dg) - dg
    # t[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    return 0.5 * J.jeinsum("kl,ijl->kij", ginv, t)


def riemann_from_christoffel(gam):
    """R^l_kij values from Christoffel jets of order >= 1: the Christoffel
    route, kept as the oracle the bundle's riemann is compared with."""
    dgam = gam.truncate(1).d()                  # dgam[l, j, k, i] = d_i Gamma^l_jk
    g0 = gam.truncate(0)
    half = (J.jeinsum("ljki->lkij", dgam)
            + J.jeinsum("lim,mjk->lkij", g0, g0))
    return (half - J.jeinsum("lkij->lkji", half)).val


class _CurvaturePieces:
    """What one metric jet g gives, each piece formed on first read and
    kept.  Riemann is built from values only: g's value, gradient and
    Hessian, its inverse ginv and the Christoffel values gamv; reading
    ric forms those, Riemann and its trace, not the Christoffel jets gam,
    the lowered tensor or the Weyl tensor.  gam, one order below g, is
    formed only for the connection forms, which read its derivatives."""

    def __init__(self, g):
        self.g = g

    @cached_property
    def gam(self):
        return christoffel_from_jets(self.g)

    @cached_property
    def gamv(self):
        return _christoffel(self.ginv, J.Jet(self.g.grad)).val

    @cached_property
    def gv(self):
        return self.g.val

    @cached_property
    def ginv(self):
        return J.jmat_inv(self.g.truncate(0)).val

    @cached_property
    def riemann(self):
        return _riemann_from_values(self.g, self.ginv, self.gamv)

    @cached_property
    def ric(self):
        return np.einsum('...ikij->...kj', self.riemann)

    @cached_property
    def scalar(self):
        return np.einsum('...kj,...kj->...', self.ginv, self.ric)

    @cached_property
    def lowered(self):
        return J.contract("lm,mkij->ijkl", self.gv, self.riemann)

    @cached_property
    def weyl(self):
        gv, n = self.gv, self.gv.shape[-1]
        P = ((self.ric - self.scalar[..., None, None] * gv / (2.0 * (n - 1)))
             / (n - 2))
        return self.lowered + _kulkarni_nomizu(P, gv)


def _riemann_from_values(g, ginv, gam):
    """R^l_kij values from the value, gradient and Hessian of the metric jet
    g (order >= 2), its inverse and its Christoffel values gam[m, j, k].

    Gamma = g^-1 t / 2, with t[j, k, n] = d_j g_kn + d_k g_jn - d_n g_jk,
    and d_i g^-1 = -g^-1 (d_i g) g^-1 give d_i Gamma^l_jk = g^ln (D/2 - E)
    up to a part symmetric in i, j, where D[n, k, i, j] = d_k d_i g_nj -
    d_n d_i g_jk and E[n, k, i, j] = d_i g_nm Gamma^m_jk.  R is W = that
    + Gamma^l_im Gamma^m_jk less W with i, j swapped, every product through
    jets.contract."""
    hg = g.hess                                 # hg[a, b, c, d] = d_c d_d g_ab
    nd = hg.ndim
    lead = tuple(range(nd - 4))
    cycle = lead + (nd - 4, nd - 1, nd - 3, nd - 2)   # [a,b,c,d] -> [a,d,b,c]
    # A[n, i, j, k] = D[n, k, i, j] / 2 - E[n, k, i, j], in the layout in
    # which each contraction below reads and writes C-contiguous arrays
    A = np.subtract(hg.transpose(cycle),
                    hg.transpose(lead + (nd - 2, nd - 1, nd - 4, nd - 3)))
    A *= 0.5
    A -= J.contract("nmi,mjk->nijk", g.grad, gam)
    W = J.contract("ln,nijk->lijk", ginv, A)
    W += J.contract("lim,mjk->lijk", gam, gam)
    R = W - np.swapaxes(W, -3, -2)              # R[l, i, j, k] = R^l_kij
    return R.transpose(cycle)


def _kulkarni_nomizu(P, g):
    """P_ik g_jl + P_jl g_ik - P_il g_jk - P_jk g_il from one outer product
    X = P_ik g_jl: the second term is X with i, j and k, l swapped, the
    third, Y, is X with k, l swapped, and the fourth Y with i, j and k, l
    swapped; summed in that order, in place."""
    X = P[..., :, None, :, None] * g[..., None, :, None, :]
    Y = np.swapaxes(X, -1, -2)
    n = X.ndim
    pairs = tuple(range(n - 4)) + (n - 3, n - 4, n - 1, n - 2)
    kn = X + X.transpose(pairs)
    kn -= Y
    kn -= Y.transpose(pairs)
    return kn


# ------------------------------------------------------------ public ops


def _piece(spec, x, key):
    """One entry of _CurvaturePieces at a point batch, read inside the
    metric's own blocks (geometry._over_blocks) from each block's metric
    jet: of order 1 for the Christoffel symbols, 2 for the rest."""
    return geo._over_blocks(spec.family, spec.a, x, 1 if key == "gamv" else 2,
                            lambda g: getattr(_CurvaturePieces(g), key))


def christoffel(spec, x):
    """Gamma^k_ij values, [k, i, j], for a metric family at a point batch."""
    return _piece(spec, x, "gamv")


def riemann(spec, x):
    """R^l_kij values for a metric family at a point batch."""
    return _piece(spec, x, "riemann")


def ricci(spec, x):
    return _piece(spec, x, "ric")


def riemann_lowered(spec, x):
    return _piece(spec, x, "lowered")


def weyl(spec, x):
    """Weyl tensor values with all indices lowered, layout [i, j, k, l]."""
    return _piece(spec, x, "weyl")


def bianchi_residual(spec, x):
    """(sup |cyclic sum|, sup |riemann|) for the first Bianchi identity."""
    V = riemann(spec, x)
    cyc = V + np.einsum('...lijk->...lkij', V) + np.einsum('...ljki->...lkij', V)
    return float(np.max(np.abs(cyc))), float(np.max(np.abs(V)))


# -------------------------------------------------------- connection forms


def connection_forms(F, spec, x):
    """Connection forms omega_ij = g(nabla f_i, f_j) of the frame jet F and
    its curvature 2-forms Omega_ij(X, Y) = g(R(X, Y) f_i, f_j), both with
    lowered indices.

    The metric follows the frame's order, up to 2, so omega comes out one
    order below the frame: an order-1 frame gives omega's values, an order-2
    frame adds the first partials the structure equations read.  The
    curvature forms are built when curvature_frame is first read, from the
    order-2 metric's bundle: omega's, or one built then."""
    n = spec.dim
    if F.val.shape[-2:] != (n, n):
        raise DimensionError("frame is %s but the metric is %dd"
                             % (F.val.shape[-2:], n))
    g = geo.metric_jets(spec, x, order=min(F.order, 2))
    forms = forms_from_jets(F, g, label=spec.family)
    if g.order < 2:
        x = np.array(x, dtype=float)    # the points as they are now
        forms.pieces = lambda: _CurvaturePieces(geo.metric_jets(spec, x, order=2))
    return forms


def _frame_signature(Fv, gv, label, tol=1e-8):
    """Signs eps of an orthonormal frame's Gram matrix diagonal; a frame
    whose Gram matrix strays from diag(eps) by more than tol raises."""
    n = Fv.shape[-1]
    gram = gram_matrix(Fv, gv)
    eps = np.sign(np.mean(gram.reshape(-1, n, n), axis=0).diagonal())
    if np.max(np.abs(gram - np.diag(eps))) > tol:
        raise FrameMismatchError("frame fails the Gram check for %s" % (label,))
    return eps


def forms_from_jets(F, g, label="custom", tol=1e-8):
    """connection_forms for an explicit (frame jets, metric jets) pair.

    omega comes out one order below the lower of the two jets, and
    curvature_frame is read from g's own bundle, so reading it needs g of
    order >= 2."""
    if min(F.order, g.order) < 1:
        raise OrderError("connection forms need frame and metric jets of"
                         " order >= 1")
    P = _CurvaturePieces(g)
    Fv = F.val
    eps = _frame_signature(Fv, P.gv, label, tol)
    # cov[l, i, mu]: component l of nabla_mu f_i; low[m, i, mu] = g(nabla_mu f_i, d_m)
    cov = F.d() + J.jeinsum("lun,ni->liu", P.gam, F)
    low = J.jeinsum("lm,liu->miu", g, cov)
    omega = J.jeinsum("miu,mj->iju", low, F)
    omega_frame = np.einsum('...ijm,...mk->...ijk', omega.val, Fv)
    return ConnectionForms(eps=eps, omega=omega, omega_frame=omega_frame,
                           frame=F, pieces=lambda: P)


def structure_residuals(forms):
    """Sup residuals of the two structure equations on frame pairs, for
    the frame and metric the forms were built from.

    First:  d f^i = sum_k omega^i_k wedge f^k, checked in lowered form
    d theta_i = sum_k eps_k omega_ik wedge theta_k.  Second:  Omega_ij =
    d omega_ij - sum_k eps_k omega_ik wedge omega_kj.
    """
    if forms.omega.order < 1:
        raise OrderError("structure equations need omega's first partials,"
                         " i.e. forms of a frame jet of order >= 2")
    g, F = forms.pieces().g, forms.frame
    Fv = F.val
    eps = forms.eps
    theta = J.jeinsum("un,ni->iu", g, F)       # theta[i, mu]: lowered coframe
    tg = theta.grad                            # tg[i, nu, mu] = d_mu theta[i, nu]
    og = forms.omega.grad
    dth = np.swapaxes(tg, -1, -2) - tg
    dom = np.swapaxes(og, -1, -2) - og
    tv = theta.val
    ov = forms.omega.val
    wedge1 = (np.einsum('k,...ikm,...kn->...imn', eps, ov, tv, optimize=True)
              - np.einsum('k,...ikn,...km->...imn', eps, ov, tv, optimize=True))
    res1 = np.einsum('...imn,...ma,...nb->...iab', dth - wedge1, Fv, Fv,
                     optimize=True)
    wedge2 = (np.einsum('k,...ikm,...kjn->...ijmn', eps, ov, ov, optimize=True)
              - np.einsum('k,...ikn,...kjm->...ijmn', eps, ov, ov, optimize=True))
    rhs2 = np.einsum('...ijmn,...ma,...nb->...ijab', dom - wedge2, Fv, Fv,
                     optimize=True)
    res2 = forms.curvature_frame - rhs2
    return float(np.max(np.abs(res1))), float(np.max(np.abs(res2)))


# ------------------------------------------------------------- ASD split

_LEVI4 = np.zeros((4, 4, 4, 4))
for _p in permutations(range(4)):
    _s = 1.0
    _l = list(_p)
    for _i in range(4):
        for _j in range(_i + 1, 4):
            if _l[_i] > _l[_j]:
                _s = -_s
    _LEVI4[_p] = _s
_LEVI4.setflags(write=False)


def asd_project(two_forms, orientation=1.0):
    """Split frame-component 2-forms (..., i, j, k, l) into (SD, ASD) parts.

    The Hodge star acts on the argument slots (k, l) of an orthonormal
    4-frame; ``orientation`` (+-1, broadcastable) says whether the frame
    order agrees with the reference orientation."""
    two_forms = np.asarray(two_forms)
    if two_forms.shape[-1] != 4:
        raise DimensionError("self-dual split needs 4d frame components")
    star = 0.5 * np.einsum('klmn,...ijmn->...ijkl', _LEVI4, two_forms)
    star = star * np.asarray(orientation)[..., None, None, None, None]
    return 0.5 * (two_forms + star), 0.5 * (two_forms - star)


def asd_split(F, spec, x):
    """(W+, W-) parts of the Weyl curvature 2-forms in the orthonormal
    4-frame jet F.

    Duality is taken against the standard coordinate orientation, so frames
    listed in an order of negative determinant get the sign-corrected star."""
    if spec.dim != 4:
        raise DimensionError("self-dual split is a 4d operation")
    P = _CurvaturePieces(geo.metric_jets(spec, x, order=2))
    Fv = F.val
    _frame_signature(Fv, P.gv, spec.family)
    return asd_project(_frame_components(P.weyl, Fv),
                       orientation=np.sign(np.linalg.det(Fv)))


def _frame_components(T, Fv):
    """Frame components of (0, 4) tensor values T, laid out like the
    curvature 2-forms: [i, j, k, l] = T(f_k, f_l, f_i, f_j)."""
    return np.einsum('...abcd,...ak,...bl,...ci,...dj->...ijkl',
                     T, Fv, Fv, Fv, Fv, optimize=True)


# ------------------------------------------------- vector fields and Lie


def vector_field_jets(x, order=2):
    """Components of the distinguished vector field V, as a (5,) tensor
    jet: V = -(r^2 + x0^2) d0 - 2 x0 x_m d_m."""
    xj = J.seed(np.asarray(x, dtype=float), order=order)
    x0 = xj[0]
    w = geo.sum_squares(xj[1:]) + x0 * x0
    return J.stack([(-1.0) * w] + [(-2.0) * x0 * xj[m] for m in range(1, 5)])


def lie_derivative_metric(g, V):
    """(L_V g)_ij values from a 5d metric jet g and the vector field jet V
    (both of order >= 1) at the same points: V^k d_k g_ij + g_kj d_i V^k
    + g_ik d_j V^k."""
    gv, dg = g.val, g.grad                      # dg[i, j, k] = d_k g_ij
    Vv, dV = V.val, V.grad                      # dV[k, i] = d_i V^k
    return (np.einsum('...k,...ijk->...ij', Vv, dg)
            + np.einsum('...kj,...ki->...ij', gv, dV)
            + np.einsum('...ik,...kj->...ij', gv, dV))


def divergence(gam, V):
    """div V = d_i V^i + Gamma^i_im V^m as a scalar jet, one order below
    the vector field jet V, from the Christoffel jets gam of a 5d metric at
    the same points."""
    trace = J.jeinsum("iim->m", gam)            # Gamma^i_im
    return J.jeinsum("ii->", V.d()) + J.jeinsum("m,m->", trace, V)


# --------------------------------------------------- scalars and traces


def hessian_scalar(u, P):
    """Covariant Hessian values of a scalar jet, d_i d_j u - Gamma^k_ij d_k u,
    from the Christoffel values of the bundle P of the metric at the same
    points."""
    if u.order < 2:
        raise OrderError("hessian needs a scalar jet of order >= 2")
    return u.hess - np.einsum('...kij,...k->...ij', P.gamv, u.grad)


def trace_free(T, P):
    """Remove the trace under the metric of the bundle P: T - (tr_g T / n) g,
    for (..., n, n) values."""
    gv = P.gv
    n = gv.shape[-1]
    T = np.asarray(T)
    tr = np.einsum('...ij,...ij->...', P.ginv, T)
    return T - tr[..., None, None] * gv / float(n)


# --------------------------------------------------- conformal identities


def conformal_ricci_check(x, a=1.0):
    """Both sides (Ric, rhs) of the conformal Ricci identity at a
    single-side point batch.

    The deformed metric is exp(2 mu) times its Ricci-flat rescaling with
    mu = ln|r^2 - x0^2|, so its Ricci tensor must equal _conformal_rhs of
    mu against the rescaled metric."""
    rad = geo.RadialJets(x, 2)
    if np.any(rad.d.val == 0.0):
        raise SingularError("identity breaks down on the cone r = |x0|")
    (mu,) = rad.pullback(rad.mu)
    gt = geo.metric_jets(geo.MetricSpec("gatilde", a), x, order=1)
    return ricci(geo.MetricSpec("ga", a), x), _conformal_rhs(mu, gt)


def _conformal_rhs(mu, gt):
    """Ricci tensor of exp(2 mu) gt for a Ricci-flat 5d metric jet gt
    (order >= 1) and a scalar jet mu (order >= 2) at the same points:
    -3 (Hess(mu) - dmu dmu) - (Lap(mu) + 3 |dmu|^2) gt, every piece taken
    with respect to gt."""
    P = _CurvaturePieces(gt)
    H = hessian_scalar(mu, P)
    gtv, gti = P.gv, P.ginv
    lap = np.einsum('...ij,...ij->...', gti, H)
    grad2 = np.einsum('...ij,...i,...j->...', gti, mu.grad, mu.grad,
                      optimize=True)
    dmu2 = mu.grad[..., :, None] * mu.grad[..., None, :]
    return -3.0 * (H - dmu2) - (lap + 3.0 * grad2)[..., None, None] * gtv
