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

Everything is computed per batch from a single jet evaluation of the metric
at the requested points; there is no global state, so point batches can be
mapped in parallel and results merged in any order.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import geometry as geo
from . import jets as J
from .errors import (DimensionError, FrameMismatchError, OrderError,
                     SingularError)

# ------------------------------------------------------------------ types


@dataclass
class ConnectionForms:
    eps: np.ndarray              # frame signature, diag of the Gram matrix
    omega: J.Jet                 # (n, n, n) tensor jet, [i, j, mu]:
                                 # coordinate components of omega_ij (lowered)
    omega_frame: np.ndarray      # (..., n, n, n) values, [i,j,k] = omega_ij(f_k)
    curvature_frame: np.ndarray  # (..., n, n, n, n) values,
                                 # [i,j,k,l] = Omega_ij(f_k, f_l)


# ------------------------------------------------------------- raw pieces


def christoffel_from_jets(g):
    """Levi-Civita symbols, [k, i, j] = Gamma^k_ij, from a metric jet; the
    result is one order below the metric."""
    ginv = J.jmat_inv(g.truncate(g.order - 1))
    dg = g.d()                                  # dg[i, j, l] = d_l g_ij
    t = J.jeinsum("jli->ijl", dg) + J.jeinsum("ilj->ijl", dg) - dg
    # t[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    return 0.5 * J.jeinsum("kl,ijl->kij", ginv, t)


def riemann_from_christoffel(gam, order=1):
    """R^l_kij jets from Christoffel jets (one derivative is spent)."""
    dgam = gam.truncate(order + 1).d()          # dgam[l, j, k, i] = d_i Gamma^l_jk
    g1 = gam.truncate(order)
    half = (J.jeinsum("ljki->lkij", dgam)
            + J.jeinsum("lim,mjk->lkij", g1, g1))
    return half - J.jeinsum("lkij->lkji", half)


def _curvature_pieces(g, gam=None):
    """Curvature values derivable from one metric jet; ``gam`` reuses
    Christoffel jets already built from the same metric."""
    n = g.val.shape[-1]
    if gam is None:
        gam = christoffel_from_jets(g)
    R = riemann_from_christoffel(gam, order=0)
    gv = g.val.real
    V = R.val
    ginv = np.linalg.inv(gv)
    ric = np.einsum('...ikij->...kj', V)
    sc = np.einsum('...kj,...kj->...', ginv, ric)
    low = np.einsum('...lm,...mkij->...ijkl', gv, V)
    P = (ric - sc[..., None, None] * gv / (2.0 * (n - 1))) / (n - 2)
    kn = (np.einsum('...ik,...jl->...ijkl', P, gv)
          + np.einsum('...jl,...ik->...ijkl', P, gv)
          - np.einsum('...il,...jk->...ijkl', P, gv)
          - np.einsum('...jk,...il->...ijkl', P, gv))
    return {"gv": gv, "ric": ric, "scalar": sc, "lowered": low,
            "weyl": low + kn}


# ------------------------------------------------------------ public ops


def christoffel(spec, x, order=2):
    """Gamma^k_ij jets for a metric family at a point batch."""
    if not 1 <= order <= 2:
        raise OrderError("christoffel supports jet orders 1 and 2")
    g = geo.metric_jets(spec, x, order=order + 1)
    return christoffel_from_jets(g)


def riemann(spec, x, order=1):
    """R^l_kij jets; order 0 gives plain values, order 1 adds first partials."""
    if not 0 <= order <= 1:
        raise OrderError("riemann supports jet orders 0 and 1")
    g = geo.metric_jets(spec, x, order=order + 2)
    return riemann_from_christoffel(christoffel_from_jets(g), order=order)


def ricci(spec, x):
    g = geo.metric_jets(spec, x, order=2)
    return _curvature_pieces(g)["ric"]


def riemann_lowered(spec, x):
    g = geo.metric_jets(spec, x, order=2)
    return _curvature_pieces(g)["lowered"]


def weyl(spec, x):
    """Weyl tensor values with all indices lowered, layout [i, j, k, l]."""
    g = geo.metric_jets(spec, x, order=2)
    return _curvature_pieces(g)["weyl"]


def bianchi_residual(spec, x):
    """(sup |cyclic sum|, sup |riemann|) for the first Bianchi identity."""
    V = riemann(spec, x, order=0).val
    cyc = V + np.einsum('...lijk->...lkij', V) + np.einsum('...ljki->...lkij', V)
    return float(np.max(np.abs(cyc))), float(np.max(np.abs(V)))


# -------------------------------------------------------- connection forms


def connection_forms(frame, spec, x, tol=1e-8):
    """Frame connection forms omega_ij = g(nabla f_i, f_j) and the curvature
    2-forms Omega_ij(X, Y) = g(R(X, Y) f_i, f_j), both with lowered indices.

    The metric is carried to second order: curvature values need first
    derivatives of the Christoffel symbols, omega keeps its first partials."""
    n = spec.dim
    F = frame.vectors
    if F.val.shape[-2:] != (n, n):
        raise DimensionError("frame is %s but the metric is %dd"
                             % (F.val.shape[-2:], n))
    g = geo.metric_jets(spec, x, order=2)
    return forms_from_jets(F, g, label=spec.family, tol=tol)


def forms_from_jets(F, g, label="custom", tol=1e-8):
    """connection_forms for an explicit (frame jets, metric jets) pair."""
    n = F.val.shape[-1]
    Fv = F.val.real
    gv = g.val.real
    gram = np.einsum('...mn,...mi,...nj->...ij', gv, Fv, Fv, optimize=True)
    eps = np.sign(np.mean(gram.reshape(-1, n, n), axis=0).diagonal())
    target = np.zeros((n, n))
    np.fill_diagonal(target, eps)
    if np.max(np.abs(gram - target)) > tol:
        raise FrameMismatchError("frame fails the Gram check for %s" % (label,))
    gam = christoffel_from_jets(g)
    # cov[l, i, mu]: component l of nabla_mu f_i; low[m, i, mu] = g(nabla_mu f_i, d_m)
    cov = F.d() + J.jeinsum("lun,ni->liu", gam, F)
    low = J.jeinsum("lm,liu->miu", g, cov)
    omega = J.jeinsum("miu,mj->iju", low, F)
    omega_frame = np.einsum('...ijm,...mk->...ijk', omega.val.real, Fv)
    pieces = _curvature_pieces(g, gam=gam)
    curv = np.einsum('...abcd,...ak,...bl,...ci,...dj->...ijkl',
                     pieces["lowered"], Fv, Fv, Fv, Fv, optimize=True)
    return ConnectionForms(eps=eps, omega=omega, omega_frame=omega_frame,
                           curvature_frame=curv)


def structure_residuals(forms, frame, spec, x):
    """Sup residuals of the two structure equations on frame pairs.

    First:  d f^i = sum_k omega^i_k wedge f^k, checked in lowered form
    d theta_i = sum_k eps_k omega_ik wedge theta_k.  Second:  Omega_ij =
    d omega_ij - sum_k eps_k omega_ik wedge omega_kj.
    """
    g = geo.metric_jets(spec, x, order=2)
    F = frame.vectors
    Fv = F.val.real
    eps = forms.eps
    theta = J.jeinsum("un,ni->iu", g, F)       # theta[i, mu]: lowered coframe
    tg = theta.grad.real                        # tg[i, nu, mu] = d_mu theta[i, nu]
    og = forms.omega.grad.real
    dth = np.swapaxes(tg, -1, -2) - tg
    dom = np.swapaxes(og, -1, -2) - og
    tv = theta.val.real
    ov = forms.omega.val.real
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


def asd_split(frame, spec, x, tol=1e-8):
    """(W+, W-) parts of the Weyl curvature 2-forms in an orthonormal 4-frame.

    Duality is taken against the standard coordinate orientation, so frames
    listed in an order of negative determinant get the sign-corrected star."""
    if spec.dim != 4:
        raise DimensionError("self-dual split is a 4d operation")
    n = 4
    g = geo.metric_jets(spec, x, order=2)
    Fv = frame.vectors.val.real
    gv = g.val.real
    gram = np.einsum('...mn,...mi,...nj->...ij', gv, Fv, Fv, optimize=True)
    if np.max(np.abs(gram - np.eye(n))) > tol:
        raise FrameMismatchError("frame fails the Gram check for %s"
                                 % (spec.family,))
    W = _curvature_pieces(g)["weyl"]
    Wf = np.einsum('...abcd,...ak,...bl,...ci,...dj->...ijkl', W, Fv, Fv, Fv, Fv,
                   optimize=True)
    return asd_project(Wf, orientation=np.sign(np.linalg.det(Fv)))


# ------------------------------------------------- vector fields and Lie


def vector_field_jets(field, x, order=2):
    """Components of the named vector field "V" or a custom one, as an (n,)
    tensor jet.

    A custom field is a callable mapping the point array to an (n,) tensor
    jet or a list of n scalar jets (or such a value directly)."""
    if not isinstance(field, str):
        if callable(field):
            field = field(x)
        return field if isinstance(field, J.Jet) else J.stack(field)
    if field != "V":
        raise ValueError("unknown vector field tag %r" % (field,))
    xj = J.seed(np.asarray(x, dtype=float), order=order)
    x0 = xj[0]
    w = xj[1] * xj[1] + xj[2] * xj[2] + xj[3] * xj[3] + xj[4] * xj[4] + x0 * x0
    return J.stack([(-1.0) * w] + [(-2.0) * x0 * xj[m] for m in range(1, 5)])


def lie_derivative_metric(field, spec, x):
    """(L_X g)_ij values: X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k."""
    n = spec.dim
    g = geo.metric_jets(spec, x, order=1)
    X = vector_field_jets(field, x, order=1)
    if X.val.shape[-1:] != (n,):
        raise DimensionError("field has %s components, metric is %dd"
                             % (X.val.shape[-1:], n))
    gv, dg = g.val.real, g.grad.real            # dg[i, j, k] = d_k g_ij
    Xv, dX = X.val.real, X.grad.real            # dX[k, i] = d_i X^k
    return (np.einsum('...k,...ijk->...ij', Xv, dg)
            + np.einsum('...kj,...ki->...ij', gv, dX)
            + np.einsum('...ik,...kj->...ij', gv, dX))


def divergence(field, spec, x):
    """div X = d_i X^i + Gamma^i_im X^m under the given metric, values."""
    gam = christoffel(spec, x, order=1)
    X = vector_field_jets(field, x, order=1)
    return (np.einsum('...ii->...', X.grad.real)
            + np.einsum('...iim,...m->...', gam.val, X.val.real))


# --------------------------------------------------- scalars and traces


def hessian_scalar(u, spec, x):
    """Covariant Hessian values of a scalar jet: d_i d_j u - Gamma^k_ij d_k u."""
    if u.order < 2:
        raise OrderError("hessian needs a scalar jet of order >= 2")
    gam = christoffel(spec, x, order=1)
    return u.hess - np.einsum('...kij,...k->...ij', gam.val, u.grad)


def trace_free(T, spec, x):
    """Remove the metric trace: T - (tr_g T / n) g, for (..., n, n) values."""
    n = spec.dim
    T = np.asarray(T)
    gv = geo.metric_jets(spec, x, order=0).val.real
    tr = np.einsum('...ij,...ij->...', np.linalg.inv(gv), T)
    return T - tr[..., None, None] * gv / float(n)


# --------------------------------------------------- conformal identities


def conformal_ricci_check(x, a=1.0, flat_variant=False):
    """Both sides (Ric, rhs) of the conformal Ricci identity at a
    single-side point batch.

    The deformed metric is exp(2 mu) times its Ricci-flat rescaling with
    mu = ln|r^2 - x0^2|, so its Ricci tensor must equal the rhs
    -3 (Hess(mu) - dmu dmu) - (Lap(mu) + 3 |dmu|^2) gtilde, every piece on
    the right taken with respect to the rescaled metric.  With
    ``flat_variant`` the same identity is run for exp(2 mu) * eta against a
    flat background instead (independent sanity case)."""
    x = np.asarray(x, dtype=float)
    xj = J.seed(x, order=2)
    d = geo.cone_d(xj)
    if np.any(d.val == 0.0):
        raise SingularError("identity breaks down on the cone r = |x0|")
    mu = geo.mu_jet(d)
    if flat_variant:
        lhs = _curvature_pieces(J.jeinsum(",ij->ij", d * d, geo.ETA))["ric"]
        gt = J.constant(geo.ETA, 5, 1, x.shape[:-1])
    else:
        lhs = ricci(geo.MetricSpec("ga", a), x)
        gt = geo.metric_jets(geo.MetricSpec("gatilde", a), x, order=1)
    H = mu.hess - np.einsum('...kij,...k->...ij', christoffel_from_jets(gt).val,
                            mu.grad)
    gtv = gt.val.real
    gti = np.linalg.inv(gtv)
    lap = np.einsum('...ij,...ij->...', gti, H)
    grad2 = np.einsum('...ij,...i,...j->...', gti, mu.grad, mu.grad,
                      optimize=True)
    dmu2 = mu.grad[..., :, None] * mu.grad[..., None, :]
    rhs = -3.0 * (H - dmu2) - (lap + 3.0 * grad2)[..., None, None] * gtv
    return lhs, rhs
