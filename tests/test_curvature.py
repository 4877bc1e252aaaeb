import numpy as np
import pytest

from liccheck5 import curvature as C
from liccheck5 import frames as F
from liccheck5 import geometry as geo
from liccheck5 import jets as J
from liccheck5.errors import (DimensionError, FrameMismatchError, OrderError,
                              SingularError, SingularMetricError)

from conftest import sample_ba, sample_l

G0 = geo.MetricSpec("g0")
GA = geo.MetricSpec("ga", 1.0)
GAT = geo.MetricSpec("gatilde", 1.0)
HA = geo.MetricSpec("ha", 1.0)
EH = geo.MetricSpec("eh", 1.0)


def sample_eh(n, a=1.0, seed=0, lo=1.15, hi=3.0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        y = rng.uniform(-hi, hi, size=4)
        if lo * a < np.sqrt(np.sum(y * y)) < hi * a:
            out.append(y)
    return np.array(out)


def wedge(i, j):
    """Frame components of f^i ^ f^j (0-based)."""
    w = np.zeros((4, 4))
    w[i, j], w[j, i] = 1.0, -1.0
    return w


# ------------------------------------------------------------ Christoffel


def test_christoffel_flat_zero():
    x = np.random.default_rng(1).uniform(-2, 2, size=(20, 5))
    gam = C.christoffel(G0, x)
    assert np.max(np.abs(gam.val)) == 0.0


def test_riemann_flat_zero():
    x = np.random.default_rng(2).uniform(-2, 2, size=(20, 5))
    R = C.riemann(G0, x)
    assert np.max(np.abs(R.val)) == 0.0


def test_christoffel_ha_matches_finite_differences():
    pt = np.array([0.31, -0.22, 0.11, 0.27])
    h = 1e-5

    def comp(i, j):
        return lambda q: geo.metric_jets(HA, q, order=0).val[..., i, j]

    dg = np.zeros((4, 4, 4))
    for l in range(4):
        alpha = [0] * 4
        alpha[l] = 1
        for i in range(4):
            for j in range(4):
                dg[l, i, j] = J.central_diff(comp(i, j), pt, alpha, h)
    ginv = np.linalg.inv(geo.metric_jets(HA, pt, order=0).val)
    fd = np.zeros((4, 4, 4))
    for k in range(4):
        for i in range(4):
            for j in range(4):
                fd[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                    for l in range(4))
    gam = C.christoffel(HA, pt).val
    assert np.max(np.abs(gam - fd)) < 1e-5


def test_metric_compatibility_ga():
    x = sample_ba(40, lo=0.15, hi=0.9, seed=3)
    g = geo.metric_jets(GA, x, order=2)
    gam = C.christoffel_from_jets(g).val
    gv = g.val
    dg = np.empty(gv.shape[:-2] + (5, 5, 5))
    for i in range(5):
        for j in range(5):
            dg[..., i, j, :] = g[i, j].grad
    nabla_g = (np.einsum('...ijk->...kij', dg)
               - np.einsum('...lki,...lj->...kij', gam, gv)
               - np.einsum('...lkj,...il->...kij', gam, gv))
    assert np.max(np.abs(nabla_g)) < 1e-10


def test_round_sphere_fixes_sign_convention():
    # stereographic round 4-sphere g = 4 delta/(1+|y|^2)^2: the first/third
    # Ricci contraction must come out positive, Ric = 3 g and scal = 12.
    y = np.random.default_rng(7).uniform(-1.5, 1.5, size=(40, 4))
    yj = J.seed(y, order=3)
    c = (yj[0] * yj[0] + yj[1] * yj[1] + yj[2] * yj[2] + yj[3] * yj[3]
         + 1.0).reciprocal() * 2.0
    zero = J.constant(np.zeros(y.shape[:-1]), dim=4, order=3)
    g = J.stack([[c * c if i == j else zero for j in range(4)] for i in range(4)])
    p = C._curvature_pieces(g)
    assert np.max(np.abs(p["ric"] - 3.0 * p["gv"])) < 1e-12
    assert np.max(np.abs(p["scalar"] - 12.0)) < 1e-12
    assert np.max(np.abs(p["weyl"])) < 1e-12


def test_degenerate_metric_raises():
    z = J.constant(0.0, dim=2, order=2)
    o = J.constant(1.0, dim=2, order=2)
    bad = J.stack([[o, z], [z, z]])
    with pytest.raises(SingularMetricError):
        C.christoffel_from_jets(bad)


def test_christoffel_order_cap():
    with pytest.raises(OrderError):
        C.christoffel(G0, np.zeros(5), order=3)


# ------------------------------------------------- Riemann / Ricci / Weyl


def test_ricci_flat_gatilde_exterior():
    x = sample_ba(200, lo=0.1, hi=0.9, seed=11)
    ric = C.ricci(GAT, x)
    scale = np.max(np.abs(C.riemann_lowered(GAT, x)))
    assert np.max(np.abs(ric)) < 1e-8 * scale


def test_riemann_gatilde_zero_inside_cone():
    x = sample_l(100, seed=12, margin=0.12)
    R = C.riemann(GAT, x, order=0).val
    assert np.max(np.abs(R)) < 1e-8


@pytest.mark.parametrize("spec,sampler", [
    (GA, lambda: sample_ba(25, lo=0.15, hi=0.9, seed=21)),
    (GAT, lambda: sample_ba(25, lo=0.15, hi=0.9, seed=22)),
    (HA, lambda: sample_eh(25, seed=23) / 4.0),
    (EH, lambda: sample_eh(25, seed=24)),
])
def test_first_bianchi(spec, sampler):
    res, scale = C.bianchi_residual(spec, sampler())
    assert res < 1e-9 * max(scale, 1.0)


def test_bundle_symmetries_and_traces():
    x = sample_ba(30, lo=0.15, hi=0.9, seed=31)
    R = C.riemann(GA, x, order=0).val
    # antisymmetry in the 2-form slots (last two indices of R^l_kij)
    assert np.max(np.abs(R + np.einsum('...lkij->...lkji', R))) < 1e-9
    ric = C.ricci(GA, x)
    assert np.max(np.abs(ric - np.einsum('...kj->...jk', ric))) < 1e-9
    low = C.riemann_lowered(GA, x)
    s = np.max(np.abs(low))
    assert np.max(np.abs(low + np.einsum('...ijkl->...jikl', low))) < 1e-9 * s
    assert np.max(np.abs(low + np.einsum('...ijkl->...ijlk', low))) < 1e-9 * s
    assert np.max(np.abs(low - np.einsum('...klij->...ijkl', low))) < 1e-9 * s


@pytest.mark.parametrize("spec", [GA, GAT])
def test_weyl_totally_trace_free(spec):
    x = sample_ba(30, lo=0.15, hi=0.9, seed=33)
    W = C.weyl(spec, x)
    gi = np.linalg.inv(geo.metric_jets(spec, x, order=0).val)
    scale = np.max(np.abs(W))
    for sub in ('...ij,...ijkl->...kl', '...ij,...ikjl->...kl',
                '...ij,...iklj->...kl', '...ij,...kilj->...kl',
                '...ij,...kijl->...kl', '...ij,...klij->...kl'):
        assert np.max(np.abs(np.einsum(sub, gi, W))) < 1e-9 * scale


def test_weyl_conformal_covariance():
    x = sample_ba(50, lo=0.15, hi=0.9, seed=13)
    Wga = C.weyl(GA, x)
    Wgt = C.weyl(GAT, x)
    d = np.sum(x[:, 1:] ** 2, axis=1) - x[:, 0] ** 2
    diff = Wgt - Wga / d[:, None, None, None, None] ** 2
    assert np.max(np.abs(diff)) < 1e-8 * np.max(np.abs(Wgt))


def test_eh_riemann_equals_weyl():
    y = sample_eh(60, seed=5)
    low = C.riemann_lowered(EH, y)
    W = C.weyl(EH, y)
    assert np.max(np.abs(W - low)) < 1e-8


# ------------------------------------------------------- connection forms


def test_connection_forms_flat_standard_frame():
    x = np.random.default_rng(0).uniform(-1, 1, size=(30, 5))
    fr = F.frame_eval("u", x, order=2)
    forms = C.connection_forms(fr, G0, x)
    assert np.max(np.abs(forms.omega.val)) == 0.0
    assert np.max(np.abs(forms.curvature_frame)) == 0.0


def test_connection_forms_gram_mismatch():
    x = sample_ba(10, lo=0.2, hi=0.8, seed=4)
    fu = F.frame_eval("u", x, order=2)
    with pytest.raises(FrameMismatchError):
        C.connection_forms(fu, GA, x)


def test_eh_connection_form_displays():
    # omega_12 = omega_34 = -beta sigma1, omega_13 = -omega_24 = -beta sigma2,
    # omega_14 = omega_23 = -gamma f^4 with gamma = beta/R + beta'.
    y = sample_eh(40, seed=6)
    fr = F.eh_frame(y, 1.0)
    forms = C.connection_forms(fr, EH, y)
    om = forms.omega_frame
    rad = np.sqrt(np.sum(y ** 2, axis=-1))
    beta = np.sqrt(1.0 - rad ** -4)
    gamma = beta / rad + 2.0 / (rad ** 5 * beta)
    yj = J.seed(y, order=0)
    s1, s2, _ = geo.sigma_forms(yj)
    Fv = fr.vectors.val
    sig1 = np.einsum('...m,...mk->...k',
                     np.stack([np.broadcast_to(s.val, rad.shape) for s in s1], -1), Fv)
    sig2 = np.einsum('...m,...mk->...k',
                     np.stack([np.broadcast_to(s.val, rad.shape) for s in s2], -1), Fv)
    f4 = np.zeros(om.shape[:-3] + (4,))
    f4[..., 3] = 1.0
    assert np.max(np.abs(om[..., 0, 1, :] + beta[..., None] * sig1)) < 1e-12
    assert np.max(np.abs(om[..., 2, 3, :] + beta[..., None] * sig1)) < 1e-12
    assert np.max(np.abs(om[..., 0, 2, :] + beta[..., None] * sig2)) < 1e-12
    assert np.max(np.abs(om[..., 1, 3, :] - beta[..., None] * sig2)) < 1e-12
    assert np.max(np.abs(om[..., 0, 3, :] + gamma[..., None] * f4)) < 1e-12
    assert np.max(np.abs(om[..., 1, 2, :] + gamma[..., None] * f4)) < 1e-12


def test_eh_connection_form_worked_value():
    p = np.array([2.0, 0.0, 0.0, 0.0])
    forms = C.connection_forms(F.eh_frame(p, 1.0), EH, p)
    assert abs(forms.omega_frame[0, 1, 1] - (-np.sqrt(0.9375) / 2)) < 1e-12


def test_eh_curvature_form_patterns():
    # the structure equations force coefficient magnitudes 2 a^4/R^6 and
    # 4 a^4/R^6 on the three paired curvature forms; at R = 2, a = 1 the big
    # one is 4/64 = 0.0625.
    p = np.array([2.0, 0.0, 0.0, 0.0])
    forms = C.connection_forms(F.eh_frame(p, 1.0), EH, p)
    cf = forms.curvature_frame
    c = 2.0 / 64.0
    assert np.max(np.abs(cf[0, 1] - c * (wedge(0, 1) + wedge(2, 3)))) < 1e-12
    assert np.max(np.abs(cf[0, 2] - c * (wedge(0, 2) + wedge(3, 1)))) < 1e-12
    assert np.max(np.abs(cf[0, 3] + 2 * c * (wedge(0, 3) + wedge(1, 2)))) < 1e-12
    assert abs(abs(cf[0, 3, 0, 3]) - 0.0625) < 1e-12
    assert np.max(np.abs(cf[0, 1] - cf[2, 3])) < 1e-12
    assert np.max(np.abs(cf[0, 2] + cf[1, 3])) < 1e-12
    assert np.max(np.abs(cf[0, 3] - cf[1, 2])) < 1e-12


def test_omega_antisymmetric_lowered():
    x = sample_ba(30, lo=0.15, hi=0.9, seed=8)
    forms = C.connection_forms(F.frame_eval("e", x, 1.0, order=3), GA, x)
    ov = forms.omega.val
    scale = max(np.max(np.abs(ov)), 1.0)
    assert np.max(np.abs(ov + np.einsum('...ijm->...jim', ov))) < 1e-8 * scale


def test_structure_equations_eh():
    y = sample_eh(100, seed=9)
    fr = F.eh_frame(y, 1.0)
    forms = C.connection_forms(fr, EH, y)
    r1, r2 = C.structure_residuals(forms, fr, EH, y)
    assert r1 < 1e-8
    assert r2 < 1e-8


def test_structure_equations_lorentzian_frame():
    x = sample_ba(60, lo=0.15, hi=0.9, seed=8)
    fr = F.frame_eval("e", x, 1.0, order=3)
    forms = C.connection_forms(fr, GA, x)
    assert list(forms.eps) == [-1.0, 1.0, 1.0, 1.0, 1.0]
    r1, r2 = C.structure_residuals(forms, fr, GA, x)
    assert r1 < 1e-8
    assert r2 < 1e-8


# ------------------------------------------------------------- ASD split


def test_asd_basis_is_antiselfdual():
    # e0^e_i - e_j^e_k for the cyclic (i, j, k) of (1, 2, 3)
    lam = np.zeros((3, 4, 4))
    planes = ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
    for n, (i, j, k, l) in enumerate(planes):
        lam[n, i, j], lam[n, j, i] = 1.0, -1.0
        lam[n, k, l], lam[n, l, k] = -1.0, 1.0
    for i in range(3):
        plus, minus = C.asd_project(lam[i][None, None])
        assert np.max(np.abs(plus)) == 0.0
        assert np.max(np.abs(minus - lam[i])) == 0.0


def test_eh_weyl_antiselfdual():
    y = sample_eh(100, seed=14)
    plus, minus = C.asd_split(F.eh_frame(y, 1.0), EH, y)
    assert np.max(np.abs(plus)) < 1e-9 * np.max(np.abs(minus))


def test_asd_split_zero_and_dim_guard():
    zp, zm = C.asd_project(np.zeros((4, 4, 4, 4)))
    assert np.max(np.abs(zp)) == 0.0 and np.max(np.abs(zm)) == 0.0
    x = sample_ba(3, lo=0.2, hi=0.8, seed=1)
    with pytest.raises(DimensionError):
        C.asd_split(F.frame_eval("e", x, 1.0), GA, x)


# ------------------------------------------------------- Lie derivatives


def test_lie_v_flat_metric():
    x = np.random.default_rng(3).uniform(-2, 2, size=(50, 5))
    LV = C.lie_derivative_metric("V", G0, x)
    target = -4.0 * x[:, 0][:, None, None] * geo.ETA
    assert np.max(np.abs(LV - target)) < 1e-12


@pytest.mark.parametrize("sampler", [
    lambda: sample_ba(200, lo=0.1, hi=0.9, seed=15),
    lambda: sample_l(100, seed=16, margin=0.1),
])
def test_lie_v_ga_conformal(sampler):
    x = sampler()
    LV = C.lie_derivative_metric("V", GA, x)
    gv = geo.metric_jets(GA, x, order=0).val
    assert np.max(np.abs(LV + 4.0 * x[:, 0][:, None, None] * gv)) < 1e-9


def test_lie_translation_isometry():
    x = np.random.default_rng(4).uniform(-2, 2, size=(30, 5))

    def shift(x):
        return J.stack([J.constant(np.full(x.shape[:-1], float(k == 2)), dim=5, order=1)
                        for k in range(5)])

    assert np.max(np.abs(C.lie_derivative_metric(shift, G0, x))) == 0.0


@pytest.mark.parametrize("sampler", [
    lambda: sample_ba(100, lo=0.1, hi=0.9, seed=17),
    lambda: sample_l(60, seed=18, margin=0.1),
])
def test_divergence_v_ga(sampler):
    x = sampler()
    div = C.divergence("V", GA, x)
    assert np.max(np.abs(div + 10.0 * x[:, 0])) < 1e-9


def test_unknown_vector_field_tag():
    x = np.array([[0.5, 0.0, 0.0, 0.0, 0.0]])
    for tag in ("T", "W"):
        with pytest.raises(ValueError):
            C.vector_field_jets(tag, x)


# ------------------------------------------------- Hessians and traces


def test_hessian_of_x0_squared_flat():
    x = np.random.default_rng(5).uniform(-1, 1, size=(10, 5))
    u = J.seed(x, order=2)[0]
    H = C.hessian_scalar(u * u, G0, x)
    target = np.zeros((10, 5, 5))
    target[:, 0, 0] = 2.0
    assert np.max(np.abs(H - target)) == 0.0


def test_trace_free_kills_trace():
    x = sample_ba(10, lo=0.2, hi=0.8, seed=6)
    T = np.random.default_rng(8).normal(size=(10, 5, 5))
    tf = C.trace_free(T, GA, x)
    gi = np.linalg.inv(geo.metric_jets(GA, x, order=0).val)
    assert np.max(np.abs(np.einsum('...ij,...ij->...', gi, tf))) < 1e-12


def test_hessian_order_guard():
    x = np.zeros((1, 5))
    u = J.seed(x, order=1)[0]
    with pytest.raises(OrderError):
        C.hessian_scalar(u, G0, x)


# ------------------------------------------------- conformal identities


def test_conformal_ricci_identity_exterior():
    x = sample_ba(200, lo=0.15, hi=0.9, seed=19)
    lhs, rhs = C.conformal_ricci_check(x, 1.0)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_conformal_ricci_identity_inside():
    x = sample_l(100, seed=20, margin=0.12)
    lhs, rhs = C.conformal_ricci_check(x, 1.0)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


@pytest.mark.parametrize("sampler", [
    lambda: sample_ba(50, lo=0.15, hi=0.9, seed=25),
    lambda: sample_l(50, seed=26, margin=0.12),
])
def test_conformal_ricci_flat_variant(sampler):
    lhs, rhs = C.conformal_ricci_check(sampler(), 1.0, flat_variant=True)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_conformal_ricci_singular_on_cone():
    with pytest.raises(SingularError):
        C.conformal_ricci_check(np.array([[1.0, 1.0, 0.0, 0.0, 0.0]]), 1.0)


# ------------------------------------------------------------ Weyl probe


def test_weyl_probe_flat_trivial():
    pts = np.array([1.0, 1.0, 0, 0, 0]) + np.linspace(0.01, 0.2, 8)[:, None] * \
        np.array([0.0, 1, 0, 0, 0])
    assert np.max(np.abs(C.weyl(G0, pts))) == 0.0
