import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liccheck5 import geometry as G
from liccheck5 import jets as J
from liccheck5.errors import (
    AmbiguousError,
    DimensionError,
    DomainError,
    SingularError,
)

from conftest import jet_close, sample_ba, sample_l

A_DEFAULT = 1.0


# ------------------------------------------------------------------ regions

@pytest.mark.parametrize(
    "p,a,tag,axis,origin",
    [
        ((0.5, 0, 0, 0, 0), 1.0, "L_interior", True, False),
        ((0, 0, 0, 0, 0), 1.0, "L_boundary", True, True),
        ((-2.0, 1, 0, 0, 0), 1.0, "L_interior", False, False),
        ((0.3, 0.4, 0, 0, 0), 1.0, "B_a", False, False),
        ((1.0, 1.0, 0, 0, 0), 1.0, "L_boundary", False, False),
        ((0, 3.0, 0, 0, 0), 1.0, "OutsideClosure", False, False),
        ((0, 3.0, 0, 0, 0), 0.1, "B_a", False, False),
        ((0, 0.5, 0, 0, 0), 2.0, "OutsideClosure", False, False),
    ],
)
def test_classify_examples(p, a, tag, axis, origin):
    reg = G.classify(p, a)
    assert reg.tag == tag
    assert reg.on_axis_r0 == axis
    assert reg.at_origin == origin


@given(
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=0.2, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_classify_partitions(x0, x1, x3, a):
    p = np.array([x0, x1, 0.0, x3, 0.0])
    reg = G.classify(p, a)
    r = np.sqrt(x1 * x1 + x3 * x3)
    assert reg.tag in G.REGION_TAGS
    if r > abs(x0):
        ro = (r * r - x0 * x0) / r
        assert reg.tag == ("B_a" if ro < 1.0 / a else "OutsideClosure")
    elif r < abs(x0):
        assert reg.tag == "L_interior"
    else:
        assert reg.tag == "L_boundary"
    if reg.at_origin:
        assert reg.on_axis_r0


def test_classify_rejects_wrong_dim():
    with pytest.raises(DimensionError):
        G.classify(np.zeros(4), 1.0)


# ------------------------------------------------------- radial coordinates

def test_radial_ro_exterior_values_and_zero_on_l():
    x = sample_ba(12, seed=3)
    xj = J.seed(x)
    ro = G.radial_jets(xj, 1.0).ro
    r = np.sqrt(np.sum(x[:, 1:] ** 2, axis=1))
    assert np.allclose(ro.val, (r * r - x[:, 0] ** 2) / r, rtol=1e-13)
    xl = sample_l(9, seed=4)
    rol = G.radial_jets(J.seed(xl), 1.0).ro
    assert np.all(rol.val == 0.0)
    assert np.all(rol.grad == 0.0)
    assert np.all(rol.third == 0.0)


def test_radial_ro_ambiguous_on_cone_and_mixed():
    cone = np.array([[1.0, 1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(AmbiguousError):
        G.radial_jets(J.seed(cone), 1.0)
    mixed = np.vstack([sample_ba(2, seed=1), sample_l(2, seed=2)])
    with pytest.raises(AmbiguousError):
        G.radial_jets(J.seed(mixed), 1.0)


# ------------------------------------------------------------------- forms

def test_sigma_duality_and_radial_annihilation():
    rng = np.random.default_rng(8)
    xj = J.seed(rng.normal(size=(10, 4)))
    sig = G.sigma_forms(xj)
    K = G.sigma_dual_vectors(xj)
    for i in range(3):
        for j in range(3):
            pairing = sum(sig[i][k] * K[j][k] for k in range(4))
            tgt = 1.0 if i == j else 0.0
            assert np.allclose(pairing.val, tgt, atol=1e-13)
    r2 = sum(s * s for s in xj)
    for i in range(3):
        drK = sum(r2.grad[:, k] * K[i][k].val for k in range(4))
        assert np.allclose(drK, 0.0, atol=1e-12)


def test_sigma_structure_equations():
    # d sigma_i = 2 sigma_j ^ sigma_k, cyclic
    rng = np.random.default_rng(12)
    xj = J.seed(rng.normal(size=(7, 4)))
    sig = G.sigma_forms(xj)

    def dform(form):
        n = len(form)
        out = np.zeros(form[0].val.shape + (n, n))
        for i in range(n):
            for j in range(n):
                out[..., i, j] = form[j].grad[..., i] - form[i].grad[..., j]
        return out

    def wedge(a, b):
        av = np.stack([f.val for f in a], -1)
        bv = np.stack([f.val for f in b], -1)
        return av[..., :, None] * bv[..., None, :] - av[..., None, :] * bv[..., :, None]

    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        resid = dform(sig[i]) - 2.0 * wedge(sig[j], sig[k])
        assert np.max(np.abs(resid)) < 1e-12


def test_alpha_annihilates_cone_vector_and_sphere_directions():
    x = sample_ba(10, seed=5)
    xj = J.seed(x)
    al = G.alpha_form(xj, G.radial_r(xj))
    r = np.sqrt(np.sum(x[:, 1:] ** 2, axis=1))
    x0 = x[:, 0]
    V = np.concatenate([(-(r * r + x0 * x0))[:, None], -2 * x0[:, None] * x[:, 1:]], axis=1)
    aV = sum(al[i].val * V[:, i] for i in range(5))
    assert np.max(np.abs(aV)) < 1e-12 * np.max(r ** 3)
    K = G.sigma_dual_vectors(xj[1:])
    for i in range(3):
        aK = sum(al[1 + k].val * K[i][k].val for k in range(4))
        assert np.max(np.abs(aK)) < 1e-12 * np.max(r ** 3)


def test_beta_is_one_on_l():
    xl = sample_l(6, seed=9)
    b = G.radial_jets(J.seed(xl), 1.7).beta
    assert np.all(b.val == 1.0)
    assert np.all(b.grad == 0.0)


# ------------------------------------------------------------------ metrics

def test_metric_ga_equals_cylindrical_rewrite():
    a = 1.0
    x = sample_ba(10, seed=17)
    ga = G.metric_jets(G.MetricSpec("ga", a), x)

    xj = J.seed(x)
    r2 = xj[1] * xj[1] + xj[2] * xj[2] + xj[3] * xj[3] + xj[4] * xj[4]
    r = r2.sqrt()
    ro = (r2 - xj[0] * xj[0]) / r
    beta2 = (-1.0) * ro.pow_int(4) * a ** 4 + 1.0
    s1, s2, s3 = G.sigma_forms(xj[1:])
    alpha = G.alpha_form(xj, r)
    dr = [None] + [xj[i] / r for i in range(1, 5)]
    alt = [[None] * 5 for _ in range(5)]
    zero = J.constant(0.0, dim=5, shape=x.shape[:-1])
    for i in range(5):
        for j in range(5):
            t = zero
            if i == 0 and j == 0:
                t = t - 1.0
            if i >= 1 and j >= 1:
                t = t + dr[i] * dr[j] + r2 * (
                    s1[i - 1] * s1[j - 1] + s2[i - 1] * s2[j - 1] + beta2 * s3[i - 1] * s3[j - 1]
                )
            alt[i][j] = t + (a ** 4) * ro * ro * (r2 * beta2).reciprocal() * alpha[i] * alpha[j]
    assert jet_close(ga, J.stack(alt)) < 1e-9


def test_metric_ga_is_flat_branch_on_l():
    xl = sample_l(8, seed=21)
    g = G.metric_jets(G.MetricSpec("ga", 1.0), xl)
    for i in range(5):
        for j in range(5):
            assert np.all(g[i, j].val == G.ETA[i, j])
            assert np.all(g[i, j].grad == 0.0)
            assert np.all(g[i, j].third == 0.0)


def test_metric_ga_signature_lorentzian():
    for a in (0.5, 1.0, 2.0):
        x = sample_ba(40, a=a, seed=int(10 * a))
        gv = G.metric_jets(G.MetricSpec("ga", a), x).val
        ev = np.linalg.eigvalsh(gv)
        assert np.all(ev[:, 0] < 0)
        assert np.all(ev[:, 1:] > 0)


def test_metric_ga_domain_and_ambiguity_errors():
    spec = G.MetricSpec("ga", 1.0)
    with pytest.raises(DomainError):
        G.metric_jets(spec, np.array([[0.0, 3.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(AmbiguousError):
        G.metric_jets(spec, np.array([[1.0, 1.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(DimensionError):
        G.metric_jets(spec, np.zeros((2, 4)))


def test_gatilde_is_conformal_flat_inside_l():
    xl = sample_l(7, seed=41)
    gt = G.metric_jets(G.MetricSpec("gatilde", 1.0), xl)
    d = np.sum(xl[:, 1:] ** 2, axis=1) - xl[:, 0] ** 2
    gv = gt.val
    expect = G.ETA[None] / (d ** 2)[:, None, None]
    assert np.max(np.abs(gv - expect)) < 1e-12 * np.max(np.abs(expect))


def test_eh_closed_form_on_axis_and_domain():
    a = 1.0
    R = 2.0
    g = G.metric_jets(G.MetricSpec("eh", a), np.array([[R, 0, 0, 0]])).val[0]
    u = (a / R) ** 4
    assert np.allclose(np.diag(g), [1 / (1 - u), 1.0, 1.0, 1 - u], rtol=1e-14)
    assert np.max(np.abs(g - np.diag(np.diag(g)))) == 0.0
    with pytest.raises(DomainError):
        G.metric_jets(G.MetricSpec("eh", a), np.array([[0.9, 0, 0, 0]]))


def test_ha_positive_definite_and_domain():
    a = 1.0
    rng = np.random.default_rng(50)
    y = rng.uniform(-0.6, 0.6, size=(30, 4))
    y = y[np.linalg.norm(y, axis=1) > 0.05][:20]
    gv = G.metric_jets(G.MetricSpec("ha", a), y).val
    assert np.all(np.linalg.eigvalsh(gv) > 0)
    with pytest.raises(DomainError):
        G.metric_jets(G.MetricSpec("ha", a), np.array([[1.2, 0, 0, 0]]))


def test_eh_is_inverted_ha():
    # pullback of eh under y -> y/|y|^2 equals |y|^-4 ha
    rng = np.random.default_rng(51)
    xh = rng.uniform(-0.5, 0.5, size=(40, 4))
    xh = xh[np.linalg.norm(xh, axis=1) > 0.15][:12]
    rr2 = np.sum(xh ** 2, axis=1)
    hv = G.metric_jets(G.MetricSpec("ha", 1.0), xh).val
    ev = G.metric_jets(G.MetricSpec("eh", 1.0), xh / rr2[:, None]).val
    Jac = (np.eye(4)[None] - 2 * xh[:, :, None] * xh[:, None, :] / rr2[:, None, None])
    Jac = Jac / rr2[:, None, None]
    pull = np.einsum("nji,njk,nkl->nil", Jac, ev, Jac)
    resid = np.max(np.abs(pull - hv / (rr2 ** 2)[:, None, None]))
    assert resid < 1e-12


def test_metric_spec_validation_and_aliases():
    assert G.MetricSpec("Minkowski_g0").family == "g0"
    assert G.MetricSpec("EguchiHanson", 2.0).family == "eh"
    assert G.MetricSpec("GaTilde", 1.0).dim == 5
    with pytest.raises(ValueError):
        G.MetricSpec("nope")
    with pytest.raises(ValueError):
        G.MetricSpec("ga", 0.0)


# ------------------------------------------------------------------ psi map

def test_psi_is_involutive_and_inverts_d():
    x = np.vstack([sample_ba(8, seed=60), sample_l(8, seed=61)])
    y = G.psi_map(x)
    assert np.allclose(G.psi_map(y), x, atol=1e-11)
    d = lambda p: np.sum(p[:, 1:] ** 2, axis=1) - p[:, 0] ** 2
    assert np.allclose(d(y), 1.0 / d(x), rtol=1e-11)


def test_psi_jacobian_is_conformal():
    x = sample_ba(10, seed=62)
    Jac = G.psi_pushforward(x)
    d = np.sum(x[:, 1:] ** 2, axis=1) - x[:, 0] ** 2
    lhs = np.einsum("nji,jk,nkl->nil", Jac, G.ETA, Jac)
    rhs = G.ETA[None] / (d ** 2)[:, None, None]
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * np.max(np.abs(rhs))


def test_psi_singular_on_cone():
    with pytest.raises(SingularError):
        G.psi_map(np.array([[1.0, 1.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(SingularError):
        G.s_R_values(np.array([[1.0, 1.0, 0.0, 0.0, 0.0]]))


def test_s_r_chart_identities():
    x = sample_ba(10, seed=63)
    s, R = G.s_R_values(x)
    d = np.sum(x[:, 1:] ** 2, axis=1) - x[:, 0] ** 2
    assert np.allclose(R * R - s * s, 1.0 / d, rtol=1e-12)
    ro = d / np.sqrt(np.sum(x[:, 1:] ** 2, axis=1))
    assert np.allclose(R * ro, 1.0, rtol=1e-12)


def test_mu_jet_branches():
    xb = sample_ba(6, seed=70)
    mu = G.mu_jet(G.cone_d(J.seed(xb)))
    d = np.sum(xb[:, 1:] ** 2, axis=1) - xb[:, 0] ** 2
    assert np.allclose(mu.val, np.log(d), rtol=1e-13)
    xl = sample_l(6, seed=71)
    mul = G.mu_jet(G.cone_d(J.seed(xl)))
    dl = np.sum(xl[:, 1:] ** 2, axis=1) - xl[:, 0] ** 2
    assert np.allclose(mul.val, np.log(-dl), rtol=1e-13)
    with pytest.raises(AmbiguousError):
        G.mu_jet(G.cone_d(J.seed(np.vstack([xb, xl]))))
