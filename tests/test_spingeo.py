import numpy as np
import pytest

from liccheck5 import clifford as CL
from liccheck5 import curvature as C
from liccheck5 import frames as F
from liccheck5 import geometry as geo
from liccheck5 import spingeo as S
from liccheck5.clifford import GAMMA, SpinorValue
from liccheck5.errors import (AmbiguousError, DomainError, FrameMismatchError,
                              ScaleMismatchError, SingularError,
                              UnknownTransitionError)

from conftest import sample_ba, sample_l

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
    x = sample_ba(20, lo=0.15, hi=0.9, seed=1)
    forms = C.connection_forms(F.frame_eval("e", x, order=1), GA, x)
    sig = S._spin_matrices(forms)
    assert np.max(np.abs(sig)) > 0.01
    assert np.max(np.abs(np.trace(sig, axis1=-2, axis2=-1))) < 1e-12


def test_nu_bc_parallel():
    x = sample_ba(100, lo=0.1, hi=0.9, seed=2)
    nu = S.nu_bc(0.7, -1.3)
    cov = S._cov_all(nu, GAT, x)[0]
    forms = C.connection_forms(F.frame_eval("f", x, 1.0), GAT, x)
    # the connection itself is far from zero; the spinor is in its kernel
    assert np.max(np.abs(forms.omega_frame)) > 0.5
    assert np.max(np.abs(cov)) < 1e-9


def test_nu_bc_harmonic():
    x = sample_ba(50, lo=0.1, hi=0.9, seed=3)
    dnu = S.dirac(S.nu_bc(1.0, 1.0), GAT, x)
    assert np.max(np.abs(dnu.w)) < 1e-9


# --------------------------------------------------------- twistor checks


@pytest.mark.parametrize("b,c", [(1.0, 0.0), (0.6, -1.1)])
def test_psi_twistor_on_exterior(b, c):
    x = sample_ba(300, lo=0.1, hi=0.9, seed=4)
    res = S.twistor_residual(S.psi_bc(b, c), GA, x)
    assert res.norm < 1e-8 * (1.0 + res.scale)
    assert len(res.directions) == 5
    assert all(p.frame == "e" for p in res.directions)


def test_psi_twistor_on_flat_side():
    x = sample_l(100, seed=5, margin=0.1)
    res = S.twistor_residual(S.psi_bc(0.8, 0.3, frame="u"), GA, x)
    assert res.norm < 1e-12


def test_flat_twistor_with_zero():
    x = np.random.default_rng(6).uniform(-2, 2, size=(50, 5))
    pw = S.psi_w0(W0)
    res = S.twistor_residual(pw, G0, x)
    assert res.norm < 1e-10
    dw = S.dirac(pw, G0, x)
    # D psi_w0 is the constant spinor -5 w0: nonzero, so the twistor is
    # not parallel anywhere
    assert np.max(np.abs(dw.w + 5.0 * W0)) < 1e-12
    assert np.min(np.max(np.abs(dw.w), axis=-1)) > 0.1


def test_constant_spinor_flat():
    x = np.random.default_rng(7).uniform(-1, 1, size=(10, 5))
    cw = S.constant_spinor([1.0, 2.0, 0.5j, -1.0])
    assert S.twistor_residual(cw, G0, x).norm == 0.0
    assert np.max(np.abs(S.dirac(cw, G0, x).w)) == 0.0


def test_cov_deriv_matches_difference_quotients():
    pt = np.array([0.45, 0.9, 0.35, -0.2, 0.6])
    phi = S.psi_bc(0.7, 0.4)
    fr = F.frame_eval("e", pt, 1.0, order=1)
    Fv = fr.vectors.val.real
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
    xb = sample_ba(5, lo=0.2, hi=0.8, seed=8)
    with pytest.raises(FrameMismatchError):
        S.twistor_residual(S.psi_bc(1, 0, frame="u"), GA, xb)
    with pytest.raises(DomainError):
        S.dirac(S.psi_bc(1, 0), GA, np.array([[0.5, 0, 0, 0, 0.0]]))
    with pytest.raises(ValueError):
        S.psi_bc(1, 0, frame="f")


# ------------------------------------------------------------ squares


@pytest.mark.parametrize("frame,sampler", [
    ("e", lambda: sample_ba(150, lo=0.1, hi=0.9, seed=9)),
    ("u", lambda: sample_l(100, seed=10, margin=0.1)),
])
def test_square_of_psi_is_the_timelike_field(frame, sampler):
    x = sampler()
    V = S.spinor_square(S.psi_bc(0.9, -0.5, frame=frame), GA, x)
    Vt = C.vector_field_jets("V", x, order=0).val.real
    s = 0.9 ** 2 + 0.5 ** 2
    assert np.max(np.abs(V - s * Vt)) < 1e-9


def test_square_constant_brute_force():
    x = np.zeros((1, 5))
    w = np.array([0.4 + 0.3j, -1.0, 0.2j, 0.8])
    V = S.spinor_square(S.constant_spinor(w), G0, x)[0]
    g0w = GAMMA[0] @ w
    expected = np.array([CL.EPS[i] * np.real(np.vdot(g0w, GAMMA[i] @ w))
                         for i in range(5)])
    assert np.max(np.abs(V - expected)) < 1e-12
    V1 = S.spinor_square(S.constant_spinor([1, 0, 0, 0]), G0, x)[0]
    assert np.max(np.abs(V1 - np.array([-1.0, 0, 0, 0, 0]))) < 1e-15


def test_square_zero_spinor():
    x = np.zeros((3, 5))
    V = S.spinor_square(S.constant_spinor(np.zeros(4)), G0, x)
    assert np.max(np.abs(V)) == 0.0


def test_square_causal_type():
    # timelike off the cone: g_a(V_psi, V_psi) = -(b^2+c^2)^2 (r^2-x0^2)^2
    for x in (sample_ba(60, lo=0.1, hi=0.9, seed=11),
              sample_l(60, seed=12, margin=0.1)):
        gv = geo.metric_jets(GA, x, order=0).val.real
        Vv = C.vector_field_jets("V", x, order=0).val.real
        q = np.einsum('...ij,...i,...j->...', gv, Vv, Vv)
        d = np.sum(x[:, 1:] ** 2, 1) - x[:, 0] ** 2
        assert np.max(np.abs(q + d ** 2)) < 1e-10
        assert np.all(q < 0)
    # lightlike on the cone (the metric continues with the flat value there)
    cone = np.array([[1.0, 1.0, 0, 0, 0], [0.8, 0.0, 0.8, 0, 0]])
    V = S.spinor_square(S.psi_bc(1.0, 0.5, frame="u"), G0, cone)
    q = np.einsum('ij,...i,...j->...', geo.ETA, V, V)
    assert np.max(np.abs(q)) == 0.0
    assert np.min(np.max(np.abs(V), axis=1)) > 0.5


def test_length_square_values():
    u = S.length_square_u(1.0, 1.0, np.array([1.0, 2.0, 0.0, 0.0, 0.0]))
    assert abs(u - 6.0) < 1e-12
    x = sample_ba(50, lo=0.1, hi=0.9, seed=13)
    ub = S.length_square_u(0.5, 0.25, x)
    d = np.sum(x[:, 1:] ** 2, 1) - x[:, 0] ** 2
    assert np.max(np.abs(ub - d * (0.5 ** 2 + 0.25 ** 2))) < 1e-12
    # zero exactly on the cone, bounded away from zero off it
    assert S.length_square_u(1.0, 0.0, np.array([1.0, 1.0, 0.0, 0.0, 0.0])) == 0.0
    assert np.min(np.abs(ub)) > 1e-12


def test_einstein_rescale_identity():
    xb = sample_ba(150, lo=0.1, hi=0.9, seed=14)
    xl = sample_l(150, seed=15, margin=0.1)
    for x in (xb, xl):
        r = S.einstein_rescale_residual(1.0, 0.5, x)
        assert np.max(np.abs(r)) < 1e-7
    # nontrivial: the two sides of the identity are individually large
    ric0 = C.trace_free(C.ricci(GA, xb), GA, xb)
    assert np.max(np.abs(ric0)) > 1.0


def test_einstein_rescale_singular_on_cone():
    with pytest.raises(SingularError):
        S.einstein_rescale_residual(1, 0, np.array([[1.0, 1.0, 0, 0, 0]]))


# ------------------------------------------------------- essentiality


def test_essentiality_identity_at_zero():
    s = 1.0 + 0.5 ** 2
    diffs = []
    for rad in (0.3, 0.1, 0.03, 0.01):
        pr = S.essentiality_probe(1.0, 0.5, radius=rad, n=12, seed=7)
        diffs.append(pr.diff)
        assert pr.sign == -1.0
        # the left side is bounded away from zero near the origin
        assert np.min(np.max(np.abs(pr.lhs), axis=1)) > 0.1
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-6
    # frozen closed-form values at the zero
    assert np.max(np.abs(pr.lhs - np.array([-25.0 * s, 0, 0, 0, 0]))) < 1e-3
    assert np.max(np.abs(pr.rhs - np.array([25.0 * s, 0, 0, 0, 0]))) < 1e-3


# -------------------------------------------------------- frame changes


def test_change_frame_polynomial_display():
    x = sample_ba(30, lo=0.15, hi=0.9, seed=16)
    we = S.psi_bc(0.7, 0.4).values(x)
    wu = S.change_spinor_frame(we, "e", "u", x)
    assert wu.frame == "u"
    wu_direct = S.psi_bc(0.7, 0.4, frame="u").values(x)
    assert np.max(np.abs(wu.w - wu_direct)) < 1e-12


def test_change_frame_round_trips():
    x = sample_ba(30, lo=0.15, hi=0.9, seed=17)
    we = S.psi_bc(0.7, 0.4).values(x)
    rt = S.change_spinor_frame(S.change_spinor_frame(we, "e", "u", x), "u", "e", x)
    assert np.max(np.abs(rt.w - we)) < 1e-12
    # the boost-rotation lift needs the cone neighbourhood
    xc = sample_ba(30, lo=0.05, hi=0.35, seed=18, box=0.9)
    wec = S.psi_bc(0.7, 0.4).values(xc)
    wh = S.change_spinor_frame(wec, "e", "htilde", xc)
    rth = S.change_spinor_frame(wh, "htilde", "e", xc)
    assert np.max(np.abs(rth.w - wec)) < 1e-12
    ident = S.change_spinor_frame(we, "e", "e", x)
    assert np.max(np.abs(ident.w - we)) == 0.0


def test_change_frame_cone_boost_identity():
    # kappatilde maps the pinned exterior components, divided by the
    # defect factor, to the constant spinor (0, 0, b, c)
    x = sample_ba(40, lo=0.15, hi=0.9, seed=19)
    d = np.sum(x[:, 1:] ** 2, 1) - x[:, 0] ** 2
    we = S.psi_bc(0.7, 0.4).values(x)
    wf = S.change_spinor_frame(we, "etilde", "f", x)
    target = np.zeros_like(we)
    target[:, 2], target[:, 3] = 0.7, 0.4
    assert np.max(np.abs(wf.w / np.sqrt(d)[:, None] - target)) < 1e-12


def test_change_frame_unknown():
    x = sample_ba(3, lo=0.2, hi=0.8, seed=20)
    with pytest.raises(UnknownTransitionError):
        S.change_spinor_frame(np.zeros(4), "u", "f", x)
    with pytest.raises(UnknownTransitionError):
        S.change_spinor_frame(SpinorValue(np.zeros(4), "f"), "e", "u", x)


# ------------------------------------------------- conformal covariance


def test_conformal_rescale_to_parallel():
    x = sample_ba(40, lo=0.15, hi=0.9, seed=21)
    d = np.sum(x[:, 1:] ** 2, 1) - x[:, 0] ** 2
    we = S.psi_bc(0.7, 0.4).values(x)
    wt = S.conformal_rescale_spinor(SpinorValue(we, "e"), -np.log(d), GA, GAT, x)
    assert wt.frame == "etilde"
    assert np.max(np.abs(wt.w - we * d[:, None] ** -0.5)) < 1e-12
    nu = S.change_spinor_frame(wt, "etilde", "f", x)
    target = np.zeros_like(we)
    target[:, 2], target[:, 3] = 0.7, 0.4
    assert np.max(np.abs(nu.w - target)) < 1e-12


def test_conformal_rescale_identity_and_mismatch():
    x = sample_ba(10, lo=0.2, hi=0.8, seed=22)
    w = S.psi_bc(1.0, 0.0).values(x)
    same = S.conformal_rescale_spinor(SpinorValue(w, "e"), np.zeros(10), GA, GA, x)
    assert np.max(np.abs(same.w - w)) == 0.0
    with pytest.raises(ScaleMismatchError):
        S.conformal_rescale_spinor(SpinorValue(w, "e"), np.ones(10), GA, GAT, x)


def test_conformal_rescale_flat_random():
    rng = np.random.default_rng(23)
    for seed in range(3):
        coeffs = np.concatenate([[1.5], rng.uniform(-0.15, 0.15, 5)])
        xs = rng.uniform(-1.5, 1.5, (30, 5))
        assert S.conformal_flat_twistor_residual(W0, coeffs, xs) < 1e-10
    with pytest.raises(DomainError):
        S.conformal_flat_twistor_residual(W0, [0.1, 1, 0, 0, 0, 0], xs)


def test_residual_covariance_round_trip():
    x = sample_ba(100, lo=0.1, hi=0.9, seed=24)
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
    x = sample_ba(100, lo=0.1, hi=0.9, seed=26)
    gv = geo.metric_jets(GA, x, order=0).val.real
    LV = C.lie_derivative_metric("V", GA, x)
    div = C.divergence("V", GA, x)
    ck = LV - (2.0 / 5.0) * div[:, None, None] * gv
    assert np.max(np.abs(ck)) < 1e-9
