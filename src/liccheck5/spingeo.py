"""Spin connection, spinor derivative operators, and the distinguished
spinor fields of the metric family, together with their vector squares.

Conventions, all pinned by the flat oracles in the test suite:

  * Components always refer to the spin lift of a pseudo-orthonormal frame;
    the frame id travels with every value (see clifford.SpinorValue).
  * Spin connection acting on components: for frame directions f_k,

        Sigma_k = 1/2 sum_{i<j} eps_i eps_j omega_ij(f_k) gamma_i gamma_j

    with omega_ij = g(nabla f_i, f_j) lowered.  Raising both indices with
    the frame signature is forced by requiring Clifford multiplication to
    be parallel under the convention X.X = -g(X,X).
  * Dirac operator D = sum_k eps_k f_k . nabla_k (minus on the timelike
    direction), twistor residual P_k = nabla_k phi + (1/5) f_k . D phi.
  * grad h = g^{-1} dh.  The essentiality identity between the square of
    D psi and grad(div) of the square of psi holds with the relative sign
    ESSENTIAL_SIGN = -1 under these conventions.  The sign is a constant,
    not measured here: what fixes it are the frozen closed-form values at
    the zero in test_essentiality_identity_at_zero, lhs = -25 s e_0 and
    rhs = +25 s e_0 with s = b^2 + c^2.

Everything here is values-in/values-out per point batch and stateless.
"""

from dataclasses import dataclass

import numpy as np

from . import clifford as CL
from . import curvature as C
from . import frames as F
from . import geometry as geo
from . import jets as J
from .clifford import GAMMA, SpinorValue
from .errors import SingularError, UnknownTransitionError

N = 5
ESSENTIAL_SIGN = -1.0

_GG = np.einsum('iab,jbc->ijac', GAMMA, GAMMA)
_GG.setflags(write=False)


@dataclass
class SpinorField:
    """Closed-form spinor component functions w.r.t. one frame's spin lift."""

    frame_id: str
    components: object     # callable (x, order) -> (4,) tensor jet

    def values(self, x):
        return np.asarray(self.components(x, order=0).val, dtype=complex)


@dataclass
class TwistorResidual:
    directions: list       # five SpinorValue, one per frame direction
    norm: float            # sup |P_k| over directions and components
    scale: float           # sup |nabla phi|, for relative thresholds


@dataclass
class EssentialityProbe:
    lhs: np.ndarray        # square of D psi, Cartesian components (..., 5)
    rhs: np.ndarray        # (5/2) grad(div(square of psi)), same layout
    diff: float            # sup |lhs - ESSENTIAL_SIGN * rhs|


# ------------------------------------------------------- the spinor fields

def psi_bc(b, c, frame="e"):
    """The deformed family's twistor spinor with components pinned in the
    frame 'e' (exterior side) or 'u' (flat side, polynomial, global)."""
    b, c = complex(b), complex(c)
    if frame == "e":
        def comps(x, order):
            xj = J.seed(x, order=order)
            rad = geo.RadialJets(x, order)
            (r,) = rad.pullback(rad.r)
            return J.stack([(-b) * xj[0], c * xj[0], b * r, c * r])
        return SpinorField("e", comps)
    if frame == "u":
        def comps(x, order):
            xj = J.seed(x, order=order)
            return J.stack([
                (-b) * xj[0],
                c * xj[0],
                b * xj[1] + (-1j * b) * xj[2] + (-c) * xj[3] + (-1j * c) * xj[4],
                b * xj[3] + (-1j * b) * xj[4] + c * xj[1] + (1j * c) * xj[2]])
        return SpinorField("u", comps)
    raise ValueError("psi_bc components are pinned for frames 'e' and 'u' only")


def nu_bc(b, c):
    """The parallel spinor of the rescaled exterior metric, frame f."""
    b, c = complex(b), complex(c)

    def comps(x, order):
        return J.constant([0j, 0j, b, c], N, order, np.shape(x)[:-1])
    return SpinorField("f", comps)


# --------------------------------------------------------- spin connection

def _spin_matrices(forms):
    """Per-direction matrices Sigma_k from lowered connection forms."""
    ee = np.outer(forms.eps, forms.eps).astype(float)
    np.fill_diagonal(ee, 0.0)
    return 0.25 * np.einsum('ij,...ijk,ijab->...kab', ee, forms.omega_frame, _GG,
                            optimize=True)


def _cov_all(phi, spec, x, forms=None):
    """Covariant derivative of phi along every frame direction and the frame
    signature, (cov (..., n, 4), eps).  ``forms`` overrides the connection
    forms (for probing against a modified metric)."""
    x = np.asarray(x, dtype=float)
    fr = F.frame_eval(phi.frame_id, x, a=spec.a, order=1)
    if forms is None:
        forms = C.connection_forms(fr, spec, x)
    comp = phi.components(x, order=1)
    sig = _spin_matrices(forms)
    cov = (np.einsum('...mk,...am->...ka', fr.val, comp.grad)
           + np.einsum('...kab,...b->...ka', sig, comp.val))
    return cov, forms.eps


def _dirac_w(cov, eps):
    """Components of D phi = sum_k eps_k f_k . nabla_k phi."""
    return J.contract("kab,kb->a", eps[:, None, None] * GAMMA, cov)


def dirac(phi, spec, x):
    """D phi = sum_k eps_k f_k . nabla_k phi."""
    return SpinorValue(_dirac_w(*_cov_all(phi, spec, x)), phi.frame_id)


def twistor_residual(phi, spec, x, forms=None):
    """All five residuals P_k = nabla_k phi + (1/5) f_k . D phi."""
    cov, eps = _cov_all(phi, spec, x, forms=forms)
    dw = _dirac_w(cov, eps)
    P = cov + np.einsum('kab,...b->...ka', GAMMA, dw) / float(N)
    dirs = [SpinorValue(P[..., k, :], phi.frame_id) for k in range(N)]
    return TwistorResidual(directions=dirs,
                           norm=float(np.max(np.abs(P))),
                           scale=float(np.max(np.abs(cov))))


# -------------------------------------------------------- frame transitions

def _lift(ids, x, a):
    """Product of lift matrices, listed in application (rightmost-first)
    order."""
    m = None
    for tid, inv in ids:
        v = F.transform_eval(tid, x, a=a, order=0)
        v = np.linalg.inv(v) if inv else v
        m = v if m is None else np.einsum('...ab,...bc->...ac', v, m)
    return m


def change_spinor_frame(phi, from_frame, to_frame, x, a=1.0):
    """Re-express the SpinorValue phi, in frame from_frame, in another
    frame's spin lift.  Known transitions: e <-> u (rotation lift),
    e <-> htilde (boost-rotation lift) and f <-> etilde (cone boost lift)."""
    if phi.frame != from_frame:
        raise UnknownTransitionError("value is in frame %r, not %r"
                                     % (phi.frame, from_frame))
    x = np.asarray(x, dtype=float)
    key = (from_frame, to_frame)
    if from_frame == to_frame:
        return SpinorValue(phi.w.copy(), to_frame)
    table = {
        ("e", "u"): [("Gtilde", True)],
        ("u", "e"): [("Gtilde", False)],
        ("e", "htilde"): [("Qtilde", True), ("Gtilde", True)],
        ("htilde", "e"): [("Gtilde", False), ("Qtilde", False)],
        ("etilde", "f"): [("kappatilde", False)],
        ("f", "etilde"): [("kappatilde", True)],
    }
    if key not in table:
        raise UnknownTransitionError("no spin lift registered for %s -> %s"
                                     % (from_frame, to_frame))
    m = _lift(table[key], x, a)
    return SpinorValue(np.einsum('...ab,...b->...a', m, phi.w), to_frame)


# ------------------------------------------------------------ squares

def spinor_square(phi, spec, x):
    """Cartesian components of the vector square V_phi, defined through
    g(V_phi, f_i) = <phi, f_i . phi> on the field's frame.

    phi may be a SpinorField (components evaluated at x) or a SpinorValue
    already holding components at x."""
    x = np.asarray(x, dtype=float)
    if isinstance(phi, SpinorValue):
        frame_id, w = phi.frame, phi.w
    else:
        frame_id, w = phi.frame_id, phi.values(x)
    fr = F.frame_eval(frame_id, x, a=spec.a, order=0)
    p = CL.spinor_square_components(SpinorValue(w, frame_id))
    vf = CL.EPS * p
    Fv = fr.val
    return np.einsum('...mi,...i->...m', Fv, vf)


def length_square_u(b, c, x):
    """<psi_bc, psi_bc> from the global polynomial components: vanishes
    exactly on the cone r = |x0| and nowhere else."""
    w = psi_bc(b, c, frame="u").values(x)
    val = CL.spinor_inner(SpinorValue(w, "u"), SpinorValue(w, "u"))
    if np.max(np.abs(np.asarray(val).imag)) > 1e-12 * (1.0 + np.max(np.abs(val))):
        raise ValueError("length square came out non-real")
    return np.asarray(val).real


def einstein_rescale_residual(b, c, x, a=1.0):
    """Both sides (-u . Ric0, 3 Hess(u)0) of the rescaling identity for the
    spinor length square u under the deformed metric (trace-free parts,
    single-side batches)."""
    rad = geo.RadialJets(x, 2)
    if np.any(rad.d.val == 0.0):
        raise SingularError("residual is not defined on the cone r = |x0|")
    (d,) = rad.pullback(rad.d)
    s = float(np.real(complex(b)) ** 2 + np.real(complex(c)) ** 2)
    u = d * s
    P = C._CurvaturePieces(geo.metric_jets(geo.MetricSpec("ga", a), x,
                                           order=2))
    ric0 = C.trace_free(P.ric, P.g)
    hess0 = C.trace_free(C.hessian_scalar(u, P.gam), P.g)
    uv = np.asarray(u.val)
    return -uv[..., None, None] * ric0, 3.0 * hess0


# ----------------------------------------------- essentiality at the zero

def _div_grad_of_square(b, c, spec, x):
    """(5/2) grad(div V_psi) under spec, Cartesian components."""
    s = float(np.real(complex(b)) ** 2 + np.real(complex(c)) ** 2)
    g = geo.metric_jets(spec, x, order=2)
    div = C.divergence(C.christoffel_from_jets(g),
                       C.vector_field_jets(x, order=2))
    gi = np.linalg.inv(g.val)
    return 2.5 * s * np.einsum('...ij,...j->...i', gi, div.grad)


def essentiality_probe(b, c, a=1.0, radii=(1e-2,), n=16, seed=0):
    """Compare the square of D psi_bc with (5/2) grad(div V_psi) on spheres
    of the given radii about the zero, sampling both metric branches; one
    EssentialityProbe per radius.  Every sphere has the same directions,
    and the points of all radii are one batch per branch."""
    rng = np.random.default_rng(seed)
    th_in = rng.uniform(0.05, 0.55, size=n)        # r/|x0| = tan < 0.62
    th_out = rng.uniform(1.05, 1.45, size=n)       # r/|x0| = tan > 1.74
    sgn = rng.choice([-1.0, 1.0], size=2 * n)
    dirs = rng.normal(size=(2 * n, 4))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    th = np.concatenate([th_in, th_out])
    rad = np.asarray(radii, dtype=float)[:, None]
    pts = np.empty((len(rad), 2 * n, 5))
    pts[..., 0] = sgn * rad * np.cos(th)
    pts[..., 1:] = (rad * np.sin(th))[..., None] * dirs
    spec = geo.MetricSpec("ga", a)
    lhs = np.empty_like(pts)
    rhs = np.empty_like(pts)
    for sl, frame in ((slice(0, n), "u"), (slice(n, 2 * n), "e")):
        x = pts[:, sl].reshape(-1, 5)
        dphi = dirac(psi_bc(b, c, frame=frame), spec, x)
        lhs[:, sl] = spinor_square(dphi, spec, x).reshape(len(rad), n, 5)
        rhs[:, sl] = _div_grad_of_square(b, c, spec, x).reshape(len(rad), n, 5)
    diffs = np.max(np.abs(lhs - ESSENTIAL_SIGN * rhs), axis=(1, 2))
    return [EssentialityProbe(lhs=l, rhs=r, diff=float(d))
            for l, r, d in zip(lhs, rhs, diffs)]


# ------------------------------------------- extension across the interface

def psi_components_htilde(b, c, x, a=1.0):
    """psi_bc components in the spin lift of the global C^1 frame, values.

    On the flat side this is the polynomial display; on the exterior side
    the pinned frame-e components pushed through the boost-rotation lift."""
    x = np.asarray(x, dtype=float)
    if geo.cone_side(x) < 0:
        return psi_bc(b, c, frame="u").values(x)
    w = SpinorValue(psi_bc(b, c, frame="e").values(x), "e")
    return change_spinor_frame(w, "e", "htilde", x, a=a).w


def c1_extension_check(b, c, a=1.0, n_curves=10, t0=0.02, seed=0):
    """Continuity and first-order convergence of the htilde components
    across the interface r = |x0|.

    Walks n_curves transversal rays hitting the cone from the exterior
    side, comparing against the flat-side values at the foot point.  The
    one-sided limit and the limiting difference quotient are estimated by
    Richardson extrapolation over the three closest samples (the sampled
    values themselves only close in at first order).  Returns (sup jump of
    the extrapolated limit, sup drift of the difference quotients, sup
    mismatch of the extrapolated quotient against the flat-side directional
    derivative).
    """
    rng = np.random.default_rng(seed)
    jump = 0.0
    drift = 0.0
    mismatch = 0.0
    ts = t0 * 0.5 ** np.arange(6)
    for _ in range(n_curves):
        x0 = rng.uniform(0.4, 1.2) * rng.choice([-1.0, 1.0])
        d = rng.normal(size=4)
        d /= np.linalg.norm(d)
        foot = np.concatenate(([x0], np.abs(x0) * d))
        ray = np.concatenate(([0.0], d))
        pts = foot[None, :] + ts[:, None] * ray[None, :]
        wb = psi_components_htilde(b, c, pts, a=a)
        comp = psi_bc(b, c, frame="u").components(foot, order=1)
        w0 = comp.val
        dw0 = comp.grad @ ray
        # nodes (t, 2t, 4t) -> value at 0 with O(t^3) error
        lim = (8.0 * wb[-1] - 6.0 * wb[-2] + wb[-3]) / 3.0
        jump = max(jump, float(np.max(np.abs(lim - w0))))
        quot = (wb - w0[None, :]) / ts[:, None]
        qlim = (8.0 * quot[-1] - 6.0 * quot[-2] + quot[-3]) / 3.0
        steps = np.max(np.abs(np.diff(quot, axis=0)), axis=1)
        drift = max(drift, float(steps[-1]))
        mismatch = max(mismatch, float(np.max(np.abs(qlim - dw0))))
        if not np.all(steps[1:] <= steps[:-1] * 0.75 + 1e-9):
            raise AssertionError("difference quotients are not settling")
    return jump, drift, mismatch
