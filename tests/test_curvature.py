import numpy as np
import pytest

from liccheck5 import curvature as C
from liccheck5 import frames as F
from liccheck5 import geometry as geo
from liccheck5 import jets as J
from liccheck5 import verify as V
from liccheck5.errors import (DimensionError, FrameMismatchError, OrderError,
                              SingularError, SingularMetricError)

G0 = geo.MetricSpec("g0")
GA = geo.MetricSpec("ga", 1.0)
GAT = geo.MetricSpec("gatilde", 1.0)
HA = geo.MetricSpec("ha", 1.0)
EH = geo.MetricSpec("eh", 1.0)


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
    x = V.sample("B_a", 1.0, 40, 3, exclusion=0.15 / np.sqrt(2), outer=0.9)
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
    x = V.sample("B_a", 1.0, 200, 11, exclusion=0.1 / np.sqrt(2), outer=0.9)
    ric = C.ricci(GAT, x)
    scale = np.max(np.abs(C.riemann_lowered(GAT, x)))
    assert np.max(np.abs(ric)) < 1e-8 * scale


@pytest.mark.parametrize("a", [3.0, 8.0])
def test_gatilde_riemann_scales_with_the_dilation(a):
    # g_a(x) = g_1(a x), so gatilde_a = a^2 (pullback of gatilde_1 under
    # x -> a x) and the lowered Riemann tensor picks up a^6
    x = V.sample("B_a", a, 60, 13, exclusion=0.1 / a)
    low = C.riemann_lowered(geo.MetricSpec("gatilde", a), x)
    low1 = C.riemann_lowered(GAT, a * x)
    assert np.max(np.abs(low - a ** 6 * low1)) <= 1e-9 * np.max(np.abs(low))


def test_riemann_gatilde_zero_inside_cone():
    x = V.sample("L", 1.0, 100, 12, exclusion=0.05)
    R = C.riemann(GAT, x, order=0).val
    assert np.max(np.abs(R)) < 1e-8


@pytest.mark.parametrize("spec,sampler", [
    (GA, lambda: V.sample("B_a", 1.0, 25, 21, exclusion=0.15 / np.sqrt(2),
                          outer=0.9)),
    (GAT, lambda: V.sample("B_a", 1.0, 25, 22, exclusion=0.15 / np.sqrt(2),
                           outer=0.9)),
    (HA, lambda: V._eh_points(1.0, 23, 25) / 4.0),
    (EH, lambda: V._eh_points(1.0, 24, 25)),
])
def test_first_bianchi(spec, sampler):
    res, scale = C.bianchi_residual(spec, sampler())
    assert res < 1e-9 * max(scale, 1.0)


def test_bundle_symmetries_and_traces():
    x = V.sample("B_a", 1.0, 30, 31, exclusion=0.15 / np.sqrt(2), outer=0.9)
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
    x = V.sample("B_a", 1.0, 30, 33, exclusion=0.15 / np.sqrt(2), outer=0.9)
    W = C.weyl(spec, x)
    gi = np.linalg.inv(geo.metric_jets(spec, x, order=0).val)
    scale = np.max(np.abs(W))
    for sub in ('...ij,...ijkl->...kl', '...ij,...ikjl->...kl',
                '...ij,...iklj->...kl', '...ij,...kilj->...kl',
                '...ij,...kijl->...kl', '...ij,...klij->...kl'):
        assert np.max(np.abs(np.einsum(sub, gi, W))) < 1e-9 * scale


def test_weyl_conformal_covariance():
    x = V.sample("B_a", 1.0, 50, 13, exclusion=0.15 / np.sqrt(2), outer=0.9)
    Wga = C.weyl(GA, x)
    Wgt = C.weyl(GAT, x)
    d = np.sum(x[:, 1:] ** 2, axis=1) - x[:, 0] ** 2
    diff = Wgt - Wga / d[:, None, None, None, None] ** 2
    assert np.max(np.abs(diff)) < 1e-8 * np.max(np.abs(Wgt))


def test_eh_riemann_equals_weyl():
    y = V._eh_points(1.0, 5, 60)
    low = C.riemann_lowered(EH, y)
    W = C.weyl(EH, y)
    assert np.max(np.abs(W - low)) < 1e-8


# (entry, its metric jet's order)
ENTRIES = {
    "christoffel-1": (lambda s, x: C.christoffel(s, x, order=1), 2),
    "christoffel-2": (lambda s, x: C.christoffel(s, x, order=2), 3),
    "riemann-0": (lambda s, x: C.riemann(s, x, order=0), 2),
    "riemann-1": (lambda s, x: C.riemann(s, x, order=1), 3),
    "ricci": (C.ricci, 2),
    "riemann_lowered": (C.riemann_lowered, 2),
    "weyl": (C.weyl, 2),
}


def _levels(out):
    return out.levels if isinstance(out, J.Jet) else (out,)


def _assert_identical(split, whole):
    assert type(split) is type(whole)
    assert len(_levels(split)) == len(_levels(whole))
    for a, b in zip(_levels(split), _levels(whole)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)


BLOCK_CASES = [(entry, spec, region, route)
               for entry in ENTRIES
               for spec, region in [(GA, "B_a"), (GAT, "B_a"), (GAT, "L"),
                                    (EH, "eh")]
               for route in ("matmul", "plain")]


@pytest.mark.parametrize("entry,spec,region,route", BLOCK_CASES,
                         ids=["%s-%s-%s-%s" % (e, s.family, r, m)
                              for e, s, r, m in BLOCK_CASES])
def test_blocked_curvature_equals_unblocked(entry, spec, region, route,
                                            monkeypatch):
    """40 points in 4 blocks of 10.  A 10-point block sends fewer
    contractions to matmul than the whole batch does (MATMUL_MIN_SIZE), so
    the routing is pinned to one path for both runs."""
    fn, order = ENTRIES[entry]
    monkeypatch.setattr(J, "MATMUL_MIN_SIZE", 0 if route == "matmul" else 1 << 60)
    x = (V._eh_points(1.0, 86, 40) if region == "eh"
         else V.sample(region, 1.0, 40, 87, exclusion=0.05))
    whole = fn(spec, x)
    calls = []
    metric = geo.metric_jets
    monkeypatch.setattr(geo, "metric_jets",
                        lambda *a, **k: calls.append(1) or metric(*a, **k))
    monkeypatch.setattr(J, "BLOCK_BYTES", 13 * 8 * spec.dim ** (order + 2))
    split = fn(spec, x)
    assert len(calls) == 4                  # one metric jet a block
    _assert_identical(split, whole)


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("spec", [GA, GAT], ids=["ga", "gatilde"])
def test_default_blocks_equal_the_whole_batch(entry, spec, monkeypatch):
    """At the shipped budget and routing, a batch one point over a block
    runs in two equal blocks, each large enough to take the whole batch's
    matmul path, so the result is the unblocked one bit for bit."""
    fn, order = ENTRIES[entry]
    n = J.BLOCK_BYTES // (8 * 5 ** (order + 2)) + 1
    x = V.sample("B_a", 1.0, n, 88, exclusion=0.05)
    split = fn(spec, x)
    monkeypatch.setattr(J, "BLOCK_BYTES", 1 << 40)
    _assert_identical(split, fn(spec, x))


# ------------------------------------------------------- connection forms


def test_connection_forms_flat_standard_frame():
    x = np.random.default_rng(0).uniform(-1, 1, size=(30, 5))
    fr = F.frame_eval("u", x, order=2)
    forms = C.connection_forms(fr, G0, x)
    assert np.max(np.abs(forms.omega.val)) == 0.0
    assert np.max(np.abs(forms.curvature_frame)) == 0.0


def test_connection_forms_gram_mismatch():
    x = V.sample("B_a", 1.0, 10, 4, exclusion=0.2 / np.sqrt(2), outer=0.8)
    fu = F.frame_eval("u", x, order=2)
    with pytest.raises(FrameMismatchError):
        C.connection_forms(fu, GA, x)


@pytest.mark.parametrize("family", ["eh", "ga"])
def test_single_point_curvature_forms_of_a_frame_jet(family):
    # one unbatched point, as interactive callers pass it
    if family == "eh":
        p, spec = np.array([1.3, -0.8, 0.6, 1.1]), EH
        fr, frb = F.eh_frame(p, 1.0), F.eh_frame(p[None], 1.0)
    else:
        p, spec = V.sample("B_a", 1.0, 1, 14, exclusion=0.1)[0], GA
        fr, frb = F.frame_eval("e", p, 1.0), F.frame_eval("e", p[None], 1.0)
    cf = C.connection_forms(fr, spec, p).curvature_frame
    n = spec.dim
    assert cf.shape == (n, n, n, n)
    batched = C.connection_forms(frb, spec, p[None]).curvature_frame[0]
    assert np.max(np.abs(cf - batched)) <= 1e-12 * (1.0 + np.max(np.abs(cf)))


def test_eh_connection_form_displays():
    # omega_12 = omega_34 = -beta sigma1, omega_13 = -omega_24 = -beta sigma2,
    # omega_14 = omega_23 = -gamma f^4 with gamma = beta/R + beta'.
    y = V._eh_points(1.0, 6, 40)
    fr = F.eh_frame(y, 1.0)
    forms = C.connection_forms(fr, EH, y)
    om = forms.omega_frame
    rad = np.sqrt(np.sum(y ** 2, axis=-1))
    beta = np.sqrt(1.0 - rad ** -4)
    gamma = beta / rad + 2.0 / (rad ** 5 * beta)
    yj = J.seed(y, order=0)
    ir2 = geo.sum_squares(yj).reciprocal()
    s1, s2 = [geo.sigma_form(k, yj, ir2) for k in (1, 2)]
    Fv = fr.val
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
    x = V.sample("B_a", 1.0, 30, 8, exclusion=0.15 / np.sqrt(2), outer=0.9)
    forms = C.connection_forms(F.frame_eval("e", x, 1.0, order=3), GA, x)
    ov = forms.omega.val
    scale = max(np.max(np.abs(ov)), 1.0)
    assert np.max(np.abs(ov + np.einsum('...ijm->...jim', ov))) < 1e-8 * scale


def test_structure_equations_eh():
    y = V._eh_points(1.0, 9, 100)
    fr = F.eh_frame(y, 1.0)
    forms = C.connection_forms(fr, EH, y)
    r1, r2 = C.structure_residuals(forms, fr, EH, y)
    assert r1 < 1e-8
    assert r2 < 1e-8


def test_structure_equations_lorentzian_frame():
    x = V.sample("B_a", 1.0, 60, 8, exclusion=0.15 / np.sqrt(2), outer=0.9)
    fr = F.frame_eval("e", x, 1.0, order=3)
    forms = C.connection_forms(fr, GA, x)
    assert list(forms.eps) == [-1.0, 1.0, 1.0, 1.0, 1.0]
    r1, r2 = C.structure_residuals(forms, fr, GA, x)
    assert r1 < 1e-8
    assert r2 < 1e-8


def test_low_order_forms_name_the_order_they_need():
    x = V.sample("B_a", 1.0, 10, 8, exclusion=0.15 / np.sqrt(2), outer=0.9)
    fr = F.frame_eval("e", x, 1.0, order=1)
    forms = C.connection_forms(fr, GA, x)
    with pytest.raises(OrderError, match="frame jet of order >= 2"):
        C.structure_residuals(forms, fr, GA, x)
    g1 = geo.metric_jets(GA, x, order=1)
    with pytest.raises(OrderError, match="metric jet of order >= 2"):
        C.forms_from_jets(fr, g1).curvature_frame


@pytest.mark.parametrize("family", ["eh", "ga"])
def test_curvature_forms_are_built_on_first_read(family, monkeypatch):
    if family == "eh":
        x, spec = V._eh_points(1.0, 15, 40), EH
        fr = F.eh_frame(x, 1.0)
    else:
        x, spec = V.sample("B_a", 1.0, 40, 15, exclusion=0.02), GA
        fr = F.frame_eval("e", x, 1.0)
    orders, pieces = [], []

    def metric_jets(spec, x, order=2, _fn=geo.metric_jets):
        orders.append(order)
        return _fn(spec, x, order=order)

    def curvature_pieces(g, gam=None, _fn=C._curvature_pieces):
        pieces.append(g.order)
        return _fn(g, gam)

    monkeypatch.setattr(geo, "metric_jets", metric_jets)
    monkeypatch.setattr(C, "_curvature_pieces", curvature_pieces)
    forms = C.connection_forms(fr, spec, x)
    # the eh frame is seeded to order 3, so its order-2 metric is built
    # with omega; the default-order ga frame needs only an order-1 metric
    assert orders == ([2] if family == "eh" else [1])
    assert pieces == []
    cf = forms.curvature_frame
    assert orders == ([2] if family == "eh" else [1, 2])
    assert pieces == [2]
    assert forms.curvature_frame is cf
    # the eager formula, summed in the same order: plain einsum's order
    # moves ga's entries by ~4e-13 relative, as terms of ~1e5 cancel to ~20
    Fv = fr.val
    eager = np.einsum('...abcd,...ak,...bl,...ci,...dj->...ijkl',
                      C.riemann_lowered(spec, x), Fv, Fv, Fv, Fv, optimize=True)
    assert np.max(np.abs(cf - eager)) <= 1e-13 * np.max(np.abs(eager))


def test_omega_is_one_order_below_the_frame():
    x = V.sample("B_a", 1.0, 30, 16, exclusion=0.02)
    forms = [C.connection_forms(F.frame_eval("e", x, 1.0, order=k), GA, x)
             for k in (1, 2)]
    assert [f.omega.order for f in forms] == [0, 1]
    o1, o2 = (f.omega_frame for f in forms)
    assert np.max(np.abs(o1 - o2)) <= 1e-13 * np.max(np.abs(o2))


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
    y = V._eh_points(1.0, 14, 100)
    plus, minus = C.asd_split(F.eh_frame(y, 1.0), EH, y)
    assert np.max(np.abs(plus)) < 1e-9 * np.max(np.abs(minus))


def test_asd_split_zero_and_dim_guard():
    zp, zm = C.asd_project(np.zeros((4, 4, 4, 4)))
    assert np.max(np.abs(zp)) == 0.0 and np.max(np.abs(zm)) == 0.0
    x = V.sample("B_a", 1.0, 3, 1, exclusion=0.2 / np.sqrt(2), outer=0.8)
    with pytest.raises(DimensionError):
        C.asd_split(F.frame_eval("e", x, 1.0), GA, x)


# ------------------------------------------------------- Lie derivatives


def test_lie_v_flat_metric():
    x = np.random.default_rng(3).uniform(-2, 2, size=(50, 5))
    LV = C.lie_derivative_metric(geo.metric_jets(G0, x, order=1),
                                 C.vector_field_jets(x, order=1))
    target = -4.0 * x[:, 0][:, None, None] * geo.ETA
    assert np.max(np.abs(LV - target)) < 1e-12


@pytest.mark.parametrize("sampler", [
    lambda: V.sample("B_a", 1.0, 200, 15, exclusion=0.1 / np.sqrt(2),
                     outer=0.9),
    lambda: V.sample("L", 1.0, 100, 16, exclusion=0.05),
])
def test_lie_v_ga_conformal(sampler):
    x = sampler()
    g = geo.metric_jets(GA, x, order=1)
    LV = C.lie_derivative_metric(g, C.vector_field_jets(x, order=1))
    assert np.max(np.abs(LV + 4.0 * x[:, 0][:, None, None] * g.val)) < 1e-9


@pytest.mark.parametrize("sampler", [
    lambda: V.sample("B_a", 1.0, 100, 17, exclusion=0.1 / np.sqrt(2),
                     outer=0.9),
    lambda: V.sample("L", 1.0, 60, 18, exclusion=0.05),
])
def test_divergence_v_ga(sampler):
    x = sampler()
    div = C.divergence(C.christoffel(GA, x, order=2),
                       C.vector_field_jets(x, order=2))
    assert np.max(np.abs(div.val + 10.0 * x[:, 0])) < 1e-9

    # the jet's first partials against central differences of its values
    def f(pts):
        return C.divergence(C.christoffel(GA, pts, order=1),
                            C.vector_field_jets(pts, order=1)).val

    for i in range(5):
        fd = J.central_diff(f, x, np.eye(5, dtype=int)[i], 1e-4)
        assert np.max(np.abs(div.grad[:, i] - fd)) < 1e-7


@pytest.mark.parametrize("sampler", [
    lambda: V.sample("B_a", 1.0, 100, 17, exclusion=0.1 / np.sqrt(2),
                     outer=0.9),
    lambda: V.sample("L", 1.0, 60, 18, exclusion=0.05),
])
def test_divergence_v_gatilde(sampler):
    """det gatilde = -d^-10, so the Christoffel trace adds V(-5 ln|d|) =
    10 x0 to d_i V^i = -10 x0: div V vanishes identically, and only with
    the trace term and its derivatives."""
    x = sampler()
    div = C.divergence(C.christoffel(GAT, x, order=2),
                       C.vector_field_jets(x, order=2))
    assert np.max(np.abs(div.val)) < 1e-9
    assert np.max(np.abs(div.grad)) < 1e-8


# ------------------------------------------------- Hessians and traces


def test_hessian_of_x0_squared_flat():
    x = np.random.default_rng(5).uniform(-1, 1, size=(10, 5))
    u = J.seed(x, order=2)[0]
    H = C.hessian_scalar(u * u, C.christoffel(G0, x, order=1))
    target = np.zeros((10, 5, 5))
    target[:, 0, 0] = 2.0
    assert np.max(np.abs(H - target)) == 0.0


def test_trace_free_kills_trace():
    x = V.sample("B_a", 1.0, 10, 6, exclusion=0.2 / np.sqrt(2), outer=0.8)
    T = np.random.default_rng(8).normal(size=(10, 5, 5))
    g = geo.metric_jets(GA, x, order=0)
    tf = C.trace_free(T, g)
    gi = np.linalg.inv(g.val)
    assert np.max(np.abs(np.einsum('...ij,...ij->...', gi, tf))) < 1e-12


def test_hessian_order_guard():
    x = np.zeros((1, 5))
    u = J.seed(x, order=1)[0]
    with pytest.raises(OrderError):
        C.hessian_scalar(u, C.christoffel(G0, x, order=1))


# ------------------------------------------------- conformal identities


def test_conformal_ricci_identity_exterior():
    x = V.sample("B_a", 1.0, 200, 19, exclusion=0.15 / np.sqrt(2), outer=0.9)
    lhs, rhs = C.conformal_ricci_check(x, 1.0)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_conformal_ricci_identity_inside():
    x = V.sample("L", 1.0, 100, 20, exclusion=0.05)
    lhs, rhs = C.conformal_ricci_check(x, 1.0)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


@pytest.mark.parametrize("sampler", [
    lambda: V.sample("B_a", 1.0, 50, 25, exclusion=0.15 / np.sqrt(2),
                     outer=0.9),
    lambda: V.sample("L", 1.0, 50, 26, exclusion=0.05),
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
