import inspect

import numpy as np
import pytest

from liccheck5 import clifford as CL
from liccheck5 import curvature as C
from liccheck5 import frames as F
from liccheck5 import geometry as geo
from liccheck5 import jets as J
from liccheck5 import spingeo as S
from liccheck5 import verify as V
from liccheck5.clifford import GAMMA, SpinorValue
from liccheck5.errors import (AmbiguousError, DomainError, FrameMismatchError,
                              OrderError, SingularError, UnknownTransitionError)

G0 = geo.MetricSpec("g0")
GA = geo.MetricSpec("ga", 1.0)
GAT = geo.MetricSpec("gatilde", 1.0)

W0 = np.array([0.3 - 0.2j, 1.1, -0.4j, 0.9 + 0.1j])


# ------------------------------------------------------- spin connection


def test_spin_connection_flat_zero():
    x = np.random.default_rng(0).uniform(-2, 2, size=(20, 5))
    forms = C.connection_forms(F.frame_eval("u", x, order=1), G0, x)
    sig = S._spin_matrices(forms)
    assert np.max(np.abs(sig)) == 0.0


def test_spin_connection_traceless():
    x = V.sample("B_a", 1.0, 20, 1, exclusion=0.15 / np.sqrt(2), outer=0.9)
    forms = C.connection_forms(F.frame_eval("e", x, order=1), GA, x)
    sig = S._spin_matrices(forms)
    assert np.max(np.abs(sig)) > 0.01
    assert np.max(np.abs(np.trace(sig, axis1=-2, axis2=-1))) < 1e-12


def test_nu_bc_parallel():
    x = V.sample("B_a", 1.0, 100, 2, exclusion=0.1 / np.sqrt(2), outer=0.9)
    nu = S.nu_bc(0.7, -1.3)
    cov = S._cov_all(nu, GAT, x)[0]
    forms = C.connection_forms(F.frame_eval("f", x, 1.0), GAT, x)
    # the connection itself is far from zero; the spinor is in its kernel
    assert np.max(np.abs(forms.omega_frame)) > 0.5
    assert np.max(np.abs(cov)) < 1e-9


def test_nu_bc_harmonic():
    x = V.sample("B_a", 1.0, 50, 3, exclusion=0.1 / np.sqrt(2), outer=0.9)
    dnu = S.dirac(S.nu_bc(1.0, 1.0), GAT, x)
    assert np.max(np.abs(dnu.w)) < 1e-9


# --------------------------------------------------------- twistor checks


@pytest.mark.parametrize("b,c", [(1.0, 0.0), (0.6, -1.1)])
def test_psi_twistor_on_exterior(b, c):
    x = V.sample("B_a", 1.0, 300, 4, exclusion=0.1 / np.sqrt(2), outer=0.9)
    res = S.twistor_residual(S.psi_bc(b, c), GA, x)
    assert res.norm < 1e-8 * (1.0 + res.scale)
    assert len(res.directions) == 5
    assert all(p.frame == "e" for p in res.directions)


def test_twistor_residual_takes_forms_of_a_bare_frame_jet():
    # forms built outside from the default-order frame jet give the same
    # residual, bit for bit, as the forms the residual builds itself
    x = V.sample("B_a", 1.0, 40, 8, exclusion=0.02 / np.sqrt(2))
    phi = S.psi_bc(1, 0)
    forms = C.connection_forms(F.frame_eval("e", x, 1.0), GA, x)
    given = S.twistor_residual(phi, GA, x, forms=forms)
    own = S.twistor_residual(phi, GA, x)
    for p, q in zip(given.directions, own.directions):
        assert np.array_equal(p.w, q.w)
    assert (given.norm, given.scale) == (own.norm, own.scale)


def test_frame_default_order_is_what_the_twistor_residual_reads(monkeypatch):
    # the residual asks for the least order connection_forms accepts, and
    # frame_eval's default is that order
    x = V.sample("B_a", 1.0, 5, 17, exclusion=0.02)
    frame_eval = F.frame_eval
    default = inspect.signature(frame_eval).parameters["order"].default
    asked = []

    def recording(*args, order, **kwargs):
        asked.append(order)
        return frame_eval(*args, order=order, **kwargs)

    monkeypatch.setattr(F, "frame_eval", recording)
    S.twistor_residual(S.psi_bc(1, 0), GA, x)
    assert asked == [default] == [1]
    with pytest.raises(OrderError, match="order >= 1"):
        C.connection_forms(frame_eval("e", x, 1.0, order=default - 1), GA, x)


def test_psi_twistor_on_flat_side():
    x = V.sample("L", 1.0, 100, 5, exclusion=0.05)
    res = S.twistor_residual(S.psi_bc(0.8, 0.3, frame="u"), GA, x)
    assert res.norm < 1e-12


def test_flat_twistor_with_zero():
    x = np.random.default_rng(6).uniform(-2, 2, size=(50, 5))
    # the position vector Clifford-multiplied into the constant spinor W0
    coef = np.einsum('iab,b->ia', GAMMA, W0)
    pw = S.SpinorField("u", lambda x, order: J.jeinsum(
        "ia,i->a", coef, J.stack(J.seed(x, order=order))))
    res = S.twistor_residual(pw, G0, x)
    assert res.norm < 1e-10
    dw = S.dirac(pw, G0, x)
    # D psi_w0 is the constant spinor -5 w0: nonzero, so the twistor is
    # not parallel anywhere
    assert np.max(np.abs(dw.w + 5.0 * W0)) < 1e-12
    assert np.min(np.max(np.abs(dw.w), axis=-1)) > 0.1


def test_constant_spinor_flat():
    x = np.random.default_rng(7).uniform(-1, 1, size=(10, 5))
    cw = S.SpinorField("u", lambda x, order: J.constant(
        np.array([1.0, 2.0, 0.5j, -1.0]), 5, order, np.shape(x)[:-1]))
    assert S.twistor_residual(cw, G0, x).norm == 0.0
    assert np.max(np.abs(S.dirac(cw, G0, x).w)) == 0.0


def test_cov_deriv_matches_difference_quotients():
    pt = np.array([0.45, 0.9, 0.35, -0.2, 0.6])
    phi = S.psi_bc(0.7, 0.4)
    Fv = F.frame_eval("e", pt, 1.0, order=1).val.real
    comp = phi.components(pt, order=1)
    h = 1e-6
    for k in range(5):
        dirn = Fv[:, k]
        wp = phi.components(pt + h * dirn, order=0).val
        wm = phi.components(pt - h * dirn, order=0).val
        fd = (wp - wm) / (2 * h)
        exact = comp.grad @ dirn
        assert np.max(np.abs(fd - exact)) < 1e-5


def test_cov_deriv_guards():
    xb = V.sample("B_a", 1.0, 5, 8, exclusion=0.2 / np.sqrt(2), outer=0.8)
    with pytest.raises(FrameMismatchError):
        S.twistor_residual(S.psi_bc(1, 0, frame="u"), GA, xb)
    with pytest.raises(DomainError):
        S.dirac(S.psi_bc(1, 0), GA, np.array([[0.5, 0, 0, 0, 0.0]]))
    with pytest.raises(ValueError):
        S.psi_bc(1, 0, frame="f")


# ------------------------------------------- conformal covariance, generic


def _affine_spinor(seed):
    """A seeded random complex affine spinor field in frame e."""
    rng = np.random.default_rng(seed)
    c0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    lin = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))

    def comps(x, order):
        xj = J.seed(x, order=order)
        return J.stack([c0[s] + sum(lin[s, i] * xj[i] for i in range(5))
                        for s in range(4)])
    return S.SpinorField("e", comps)


def _rescaled(phi, weight):
    """weight(d) phi, d = r^2 - x0^2, in frame etilde = d e, whose spin
    lift is that of e."""
    def comps(x, order):
        rad = geo.RadialJets(x, order)
        (d,) = rad.pullback(rad.d)
        return J.jeinsum(",s->s", weight(d), phi.components(x, order))
    return S.SpinorField("etilde", comps)


def _norm_res_c(A, B):
    """verify._norm_res for complex values: per point sup|A - B| over
    (1 + sup|A| + sup|B|)."""
    A, B = (np.reshape(v, (len(v), -1)) for v in (A, B))
    return np.max(np.abs(A - B), axis=1) / (
        1.0 + np.max(np.abs(A), axis=1) + np.max(np.abs(B), axis=1))


def _twistor_p(phi, spec, x):
    """The five P_k of phi as one (..., 5, 4) array."""
    return np.stack([v.w for v in S.twistor_residual(phi, spec, x).directions],
                    axis=-2)


CONFORMAL_TOL = 1e-10


def _conformal_laws(a, seeds=(0, 1, 2)):
    """Worst normalized residuals of D~(d^2 phi) = d^3 D phi and
    P~(d^-1/2 phi) = d^1/2 P(phi) over affine spinors phi, with g~_a =
    g_a / d^2 in frame etilde against g_a in frame e, on a B_a draw."""
    ga, gt = geo.MetricSpec("ga", a), geo.MetricSpec("gatilde", a)
    x = V.sample("B_a", a, 30, 61, exclusion=0.05 / a, outer=0.9)
    d = np.sum(x[:, 1:] ** 2, axis=1) - x[:, 0] ** 2
    dirac = twistor = 0.0
    for seed in seeds:
        phi = _affine_spinor(seed)
        lhs = S.dirac(_rescaled(phi, lambda d: d * d), gt, x).w
        rhs = d[:, None] ** 3 * S.dirac(phi, ga, x).w
        dirac = max(dirac, np.max(_norm_res_c(lhs, rhs)))
        lhs = _twistor_p(_rescaled(phi, lambda d: d.sqrt().reciprocal()), gt, x)
        rhs = np.sqrt(d)[:, None, None] * _twistor_p(phi, ga, x)
        twistor = max(twistor, np.max(_norm_res_c(lhs, rhs)))
    return dirac, twistor


@pytest.mark.parametrize("a", [0.1, 1.0, 7.0])
def test_dirac_and_twistor_operators_are_conformally_covariant(a):
    """In dimension 5, g~ = g / d^2 and frames d e: D~(d^2 phi) = d^3 D phi
    and P~(d^-1/2 phi) = d^1/2 P(phi) on generic spinors, not only on the
    twistor spinors the suite checks."""
    dirac, twistor = _conformal_laws(a)
    assert dirac <= CONFORMAL_TOL and twistor <= CONFORMAL_TOL


def test_conformal_law_sees_a_defect_on_spinor_component_3(monkeypatch):
    """Scaling column 3 of every spin-connection matrix by 1.5 leaves the
    default suite's spinors unharmed but breaks the twistor law."""
    spin = S._spin_matrices
    monkeypatch.setattr(S, "_spin_matrices",
                        lambda forms: spin(forms) * np.array([1, 1, 1, 1.5]))
    assert _conformal_laws(1.0, seeds=(0,))[1] > CONFORMAL_TOL


# ------------------------------------------------------------ squares


@pytest.mark.parametrize("frame,sampler", [
    ("e", lambda: V.sample("B_a", 1.0, 150, 9, exclusion=0.1 / np.sqrt(2),
                           outer=0.9)),
    ("u", lambda: V.sample("L", 1.0, 100, 10, exclusion=0.05)),
])
def test_square_of_psi_is_the_timelike_field(frame, sampler):
    x = sampler()
    V = S.spinor_square(S.psi_bc(0.9, -0.5, frame=frame), GA, x)
    Vt = C.vector_field_jets(x, order=0).val.real
    s = 0.9 ** 2 + 0.5 ** 2
    assert np.max(np.abs(V - s * Vt)) < 1e-9


def test_square_constant_brute_force():
    x = np.zeros((1, 5))
    w = np.array([0.4 + 0.3j, -1.0, 0.2j, 0.8])
    V = S.spinor_square(SpinorValue(w, "u"), G0, x)[0]
    g0w = GAMMA[0] @ w
    expected = np.array([CL.EPS[i] * np.real(np.vdot(g0w, GAMMA[i] @ w))
                         for i in range(5)])
    assert np.max(np.abs(V - expected)) < 1e-12
    V1 = S.spinor_square(SpinorValue([1, 0, 0, 0], "u"), G0, x)[0]
    assert np.max(np.abs(V1 - np.array([-1.0, 0, 0, 0, 0]))) < 1e-15


def test_square_zero_spinor():
    x = np.zeros((3, 5))
    V = S.spinor_square(SpinorValue(np.zeros((3, 4)), "u"), G0, x)
    assert np.max(np.abs(V)) == 0.0


def test_square_causal_type():
    # timelike off the cone: g_a(V_psi, V_psi) = -(b^2+c^2)^2 (r^2-x0^2)^2
    for x in (V.sample("B_a", 1.0, 60, 11, exclusion=0.1 / np.sqrt(2),
                       outer=0.9),
              V.sample("L", 1.0, 60, 12, exclusion=0.05)):
        gv = geo.metric_jets(GA, x, order=0).val.real
        Vv = C.vector_field_jets(x, order=0).val.real
        q = np.einsum('...ij,...i,...j->...', gv, Vv, Vv)
        d = np.sum(x[:, 1:] ** 2, 1) - x[:, 0] ** 2
        assert np.max(np.abs(q + d ** 2)) < 1e-10
        assert np.all(q < 0)
    # lightlike on the cone (the metric continues with the flat value there)
    cone = np.array([[1.0, 1.0, 0, 0, 0], [0.8, 0.0, 0.8, 0, 0]])
    Vc = S.spinor_square(S.psi_bc(1.0, 0.5, frame="u"), G0, cone)
    q = np.einsum('ij,...i,...j->...', geo.ETA, Vc, Vc)
    assert np.max(np.abs(q)) == 0.0
    assert np.min(np.max(np.abs(Vc), axis=1)) > 0.5


def test_length_square_values():
    u = S.length_square_u(1.0, 1.0, np.array([1.0, 2.0, 0.0, 0.0, 0.0]))
    assert abs(u - 6.0) < 1e-12
    x = V.sample("B_a", 1.0, 50, 13, exclusion=0.1 / np.sqrt(2), outer=0.9)
    ub = S.length_square_u(0.5, 0.25, x)
    d = np.sum(x[:, 1:] ** 2, 1) - x[:, 0] ** 2
    assert np.max(np.abs(ub - d * (0.5 ** 2 + 0.25 ** 2))) < 1e-12
    # zero exactly on the cone, bounded away from zero off it
    assert S.length_square_u(1.0, 0.0, np.array([1.0, 1.0, 0.0, 0.0, 0.0])) == 0.0
    assert np.min(np.abs(ub)) > 1e-12


def test_einstein_rescale_identity():
    xb = V.sample("B_a", 1.0, 150, 14, exclusion=0.1 / np.sqrt(2), outer=0.9)
    xl = V.sample("L", 1.0, 150, 15, exclusion=0.05)
    for x in (xb, xl):
        lhs, rhs = S.einstein_rescale_residual(1.0, 0.5, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-7
    # nontrivial: the two sides of the identity are individually large
    ric0 = C.trace_free(C.ricci(GA, xb), C._CurvaturePieces(
        geo.metric_jets(GA, xb, order=0)))
    assert np.max(np.abs(ric0)) > 1.0


def test_einstein_rescale_singular_on_cone():
    with pytest.raises(SingularError):
        S.einstein_rescale_residual(1, 0, np.array([[1.0, 1.0, 0, 0, 0]]))


# ------------------------------------------------------- essentiality


def test_essentiality_identity_at_zero():
    s = 1.0 + 0.5 ** 2
    probes = S.essentiality_probe(1.0, 0.5, radii=(0.3, 0.1, 0.03, 0.01),
                                  n=12, seed=7)
    for pr in probes:
        # the left side is bounded away from zero near the origin
        assert np.min(np.max(np.abs(pr.lhs), axis=1)) > 0.1
    diffs = [pr.diff for pr in probes]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-6
    # frozen closed-form values at the zero
    assert np.max(np.abs(pr.lhs - np.array([-25.0 * s, 0, 0, 0, 0]))) < 1e-3
    assert np.max(np.abs(pr.rhs - np.array([25.0 * s, 0, 0, 0, 0]))) < 1e-3


def test_essentiality_radii_batch_does_not_change_a_radius():
    radii = (0.3, 0.1, 0.03, 0.01, 0.003)
    probes = S.essentiality_probe(1.0, 0.5, a=2.0, radii=radii, n=6, seed=3)
    assert len(probes) == len(radii)
    for rad, pr in zip(radii, probes):
        (alone,) = S.essentiality_probe(1.0, 0.5, a=2.0, radii=(rad,), n=6,
                                        seed=3)
        assert np.array_equal(pr.lhs, alone.lhs)
        assert np.array_equal(pr.rhs, alone.rhs)
        assert pr.diff == alone.diff


# -------------------------------------------------------- frame changes


def test_change_frame_polynomial_display():
    x = V.sample("B_a", 1.0, 30, 16, exclusion=0.15 / np.sqrt(2), outer=0.9)
    we = SpinorValue(S.psi_bc(0.7, 0.4).values(x), "e")
    wu = S.change_spinor_frame(we, "e", "u", x)
    assert wu.frame == "u"
    wu_direct = S.psi_bc(0.7, 0.4, frame="u").values(x)
    assert np.max(np.abs(wu.w - wu_direct)) < 1e-12


def test_change_frame_round_trips():
    x = V.sample("B_a", 1.0, 30, 17, exclusion=0.15 / np.sqrt(2), outer=0.9)
    we = SpinorValue(S.psi_bc(0.7, 0.4).values(x), "e")
    rt = S.change_spinor_frame(S.change_spinor_frame(we, "e", "u", x), "u", "e", x)
    assert np.max(np.abs(rt.w - we.w)) < 1e-12
    # the boost-rotation lift needs the cone neighbourhood
    xc = V.sample("B_a", 1.0, 30, 18, exclusion=0.05 / np.sqrt(2), outer=0.35)
    wec = SpinorValue(S.psi_bc(0.7, 0.4).values(xc), "e")
    wh = S.change_spinor_frame(wec, "e", "htilde", xc)
    rth = S.change_spinor_frame(wh, "htilde", "e", xc)
    assert np.max(np.abs(rth.w - wec.w)) < 1e-12
    ident = S.change_spinor_frame(we, "e", "e", x)
    assert np.max(np.abs(ident.w - we.w)) == 0.0


def test_change_frame_cone_boost_identity():
    # kappatilde maps the pinned exterior components, divided by the
    # defect factor, to the constant spinor (0, 0, b, c)
    x = V.sample("B_a", 1.0, 40, 19, exclusion=0.15 / np.sqrt(2), outer=0.9)
    d = np.sum(x[:, 1:] ** 2, 1) - x[:, 0] ** 2
    we = S.psi_bc(0.7, 0.4).values(x)
    wf = S.change_spinor_frame(SpinorValue(we, "etilde"), "etilde", "f", x)
    target = np.zeros_like(we)
    target[:, 2], target[:, 3] = 0.7, 0.4
    assert np.max(np.abs(wf.w / np.sqrt(d)[:, None] - target)) < 1e-12


def test_change_frame_unknown():
    x = V.sample("B_a", 1.0, 3, 20, exclusion=0.2 / np.sqrt(2), outer=0.8)
    with pytest.raises(UnknownTransitionError):
        S.change_spinor_frame(SpinorValue(np.zeros(4), "u"), "u", "f", x)
    with pytest.raises(UnknownTransitionError):
        S.change_spinor_frame(SpinorValue(np.zeros(4), "f"), "e", "u", x)


def test_residual_covariance_round_trip():
    x = V.sample("B_a", 1.0, 100, 24, exclusion=0.1 / np.sqrt(2), outer=0.9)
    res_psi = S.twistor_residual(S.psi_bc(0.7, 0.4), GA, x)
    res_nu = S.twistor_residual(S.nu_bc(0.7, 0.4), GAT, x)
    assert res_psi.norm < 1e-8 * (1.0 + res_psi.scale)
    assert res_nu.norm < 1e-8


# ------------------------------------------------ extension and the zero


def test_c1_extension_across_interface():
    for b, c, seed in ((1.0, 0.0, 0), (0.6, -0.8, 23)):
        jump, drift, mismatch = S.c1_extension_check(b, c, n_curves=10, seed=seed)
        assert jump < 1e-8
        assert drift < 1e-2
        assert mismatch < 1e-6


def test_zero_structure():
    rng = np.random.default_rng(25)
    for rad in (1e-3, 1e-2, 1e-1):
        dirs = rng.normal(size=(40, 5))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = rad * dirs
        r = np.sqrt(np.sum(pts[:, 1:] ** 2, 1))
        inside = r < np.abs(pts[:, 0])
        for msk in (inside, ~inside):
            if msk.any():
                w = S.psi_components_htilde(1.0, 0.0, pts[msk])
                assert np.min(np.linalg.norm(w, axis=1)) >= 0.99 * rad
    with pytest.raises(AmbiguousError):
        S.psi_components_htilde(1, 0, np.array([[1.0, 0.5, 0, 0, 0],
                                                [0.2, 1.0, 0, 0, 0]]))


def test_square_is_conformal_killing():
    x = V.sample("B_a", 1.0, 100, 26, exclusion=0.1 / np.sqrt(2), outer=0.9)
    g = geo.metric_jets(GA, x, order=2)
    Vj = C.vector_field_jets(x, order=1)
    LV = C.lie_derivative_metric(g, Vj)
    div = C.divergence(C.christoffel_from_jets(g), Vj).val
    ck = LV - (2.0 / 5.0) * div[:, None, None] * g.val.real
    assert np.max(np.abs(ck)) < 1e-9
