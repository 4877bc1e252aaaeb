import numpy as np
import pytest

from liccheck5 import clifford as cl
from liccheck5 import frames as F
from liccheck5 import geometry as geo
from liccheck5 import jets as J
from liccheck5.errors import AmbiguousError, CaViolationError, DomainError

from conftest import jet_close, sample_ba, sample_ca, sample_l

ETA = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_frame_e_orthonormal_ba(a):
    x = sample_ba(500, a=a, seed=41, box=1.6 / a)
    fv = F.frame_eval("e", x, a, order=0)
    gram = F.gram_matrix(fv, x)
    assert np.abs(gram - ETA).max() < 1e-10


def test_frame_e_orthonormal_on_l():
    x = sample_l(200, seed=42)
    fv = F.frame_eval("e", x, a=1.0, order=0)
    gram = F.gram_matrix(fv, x)
    assert np.abs(gram - ETA).max() < 1e-12


def test_frame_e_cylindrical_on_l():
    # r_o = 0 kills the T-correction: e0 = d0 and e1 = dr exactly.
    x = sample_l(50, seed=7)
    fv = F.frame_eval("e", x, a=1.0, order=1)
    r = np.linalg.norm(x[:, 1:], axis=-1)
    assert np.allclose(fv.vectors[0, 0].val, 1.0)
    for m in range(1, 5):
        assert np.allclose(fv.vectors[m, 0].val, 0.0)
        assert np.allclose(fv.vectors[m, 1].val, x[:, m] / r)
    assert np.allclose(fv.vectors[0, 1].val, 0.0)


def test_e_dot_g_is_standard_frame_on_l():
    x = sample_l(100, seed=9)
    e = F.frame_eval("e", x, a=1.0, order=0)
    G = F.transform_eval("G", x, order=0).matrix
    prod = J.jeinsum("ij,jk->ik", e.vectors, G).val
    assert np.abs(prod - np.eye(5)).max() < 1e-12


@pytest.mark.parametrize("fid", ["f", "etilde"])
def test_tilde_frames_orthonormal_for_gatilde(fid):
    x = sample_ba(300, seed=43)
    fv = F.frame_eval(fid, x, a=1.0, order=0)
    assert fv.metric_spec.family == "gatilde"
    gram = F.gram_matrix(fv, x)
    assert np.abs(gram - ETA).max() < 1e-10


def test_etilde_is_conformal_stretch_of_e():
    # the pushforward identity Psi_*(e_i) = (R^2-s^2) etilde_i, pointwise form
    x = sample_ba(100, seed=44)
    e = F.frame_eval("e", x, a=1.0, order=1).vectors
    et = F.frame_eval("etilde", x, a=1.0, order=1).vectors
    d = np.sum(x[:, 1:] ** 2, axis=-1) - x[:, 0] ** 2
    xj = J.seed(x, order=1)
    djet = xj[1] * xj[1] + xj[2] * xj[2] + xj[3] * xj[3] + xj[4] * xj[4] \
        - xj[0] * xj[0]
    scaled = J.stack([[djet * e[m, i] for i in range(5)] for m in range(5)])
    assert jet_close(scaled, et) < 1e-10
    assert d.min() > 0  # sanity: B_a is on the exterior side


def test_etilde_equals_f_kappa():
    x = sample_ba(200, seed=45)
    f = F.frame_eval("f", x, a=1.0, order=0).vectors
    kap = F.transform_eval("kappa", x, order=0).matrix
    et = F.frame_eval("etilde", x, a=1.0, order=0).vectors
    prod = J.jeinsum("ij,jk->ik", f, kap).val
    assert np.abs(prod - et.val).max() < 1e-10


def test_kappa_is_boost_exponential():
    x = sample_ba(150, seed=46)
    s, R = geo.s_R_values(x)
    t = np.log((R - s) / (R + s))
    kap = F.transform_eval("kappa", x, order=0).matrix.val
    expected = np.zeros_like(kap)
    expected[..., 2, 2] = expected[..., 3, 3] = expected[..., 4, 4] = 1.0
    expected[..., 0, 0] = expected[..., 1, 1] = np.cosh(t)
    expected[..., 0, 1] = expected[..., 1, 0] = -np.sinh(t)
    assert np.abs(kap - expected).max() < 1e-10


def test_kappatilde_covers_kappa():
    x = sample_ba(100, seed=47)
    kt = F.transform_eval("kappatilde", x).matrix
    kap = F.transform_eval("kappa", x, order=0).matrix.val
    assert np.abs(cl.lambda_of(kt) - kap).max() < 1e-9


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_q_entries_hyperbolic(a):
    x = sample_ca(200, a=a, seed=48)
    k, q, rho = F.k_q_rho(x, a, order=0)
    assert np.abs(k.val ** 2 - q.val ** 2 - 1.0).max() < 1e-12
    assert k.val.min() > 0
    assert (4.0 * x[:, 0] ** 2 * rho.val).max() < 1.0


def test_q_identity_on_l():
    x = sample_l(60, seed=49)
    Q = F.transform_eval("Q", x, order=0).matrix.val
    assert np.array_equal(Q, np.broadcast_to(np.eye(5), Q.shape))


def test_q_outside_ca_raises():
    # large x0 with r_o close to 1/a puts 4 x0^2 rho far above 1
    p = np.array([[1.897, 2.4, 0.0, 0.0, 0.0]])
    with pytest.raises(CaViolationError):
        F.k_q_rho(p, a=1.0)


def test_qtilde_covers_q():
    x = sample_ca(100, seed=50)
    Qt = F.transform_eval("Qtilde", x, a=1.0).matrix
    Q = F.transform_eval("Q", x, a=1.0, order=0).matrix.val
    assert np.abs(cl.lambda_of(Qt) - Q).max() < 1e-9


def test_qtilde_identity_plus_ro_squared():
    # Qtilde - Id must vanish quadratically in r_o along a curve into the cone
    base = np.array([0.6, np.nan, 0.1, -0.2, 0.05])
    rad = np.sqrt(0.1 ** 2 + 0.2 ** 2 + 0.05 ** 2)
    ratios = []
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        # choose r so that r_o = t at fixed transverse position
        b = np.array([0.6, 0.0, 0.1, -0.2, 0.05])
        r_target = (t + np.sqrt(t * t + 4 * 0.6 ** 2)) / 2.0
        scale = np.sqrt(r_target ** 2 - rad ** 2)
        b[1] = scale
        Qt = F.transform_eval("Qtilde", b[None], a=1.0).matrix[0]
        ratios.append(np.abs(Qt - np.eye(4)).max() / t ** 2)
    ratios = np.array(ratios)
    assert np.all(ratios < 10.0 * ratios[-1] + 1e-6)
    assert ratios[-1] < 5.0


def test_gtilde_covers_g_and_is_special_unitary():
    x = sample_ba(100, seed=51)
    Gt = F.transform_eval("Gtilde", x).matrix
    G = F.transform_eval("G", x, order=0).matrix.val
    assert np.abs(cl.lambda_of(Gt) - G).max() < 1e-9
    ident = np.einsum("...ij,...kj->...ik", Gt, Gt.conj())
    assert np.abs(ident - np.eye(4)).max() < 1e-12
    assert np.abs(np.linalg.det(Gt) - 1.0).max() < 1e-12


def test_htilde_matches_product_off_axis():
    x = sample_ca(80, seed=52)
    ht = F.frame_htilde(x, a=1.0, order=1)
    e = F.frame_eval("e", x, a=1.0, order=1)
    Q = F.transform_eval("Q", x, a=1.0, order=1).matrix
    G = F.transform_eval("G", x, a=1.0, order=1).matrix
    naive = J.jeinsum("ij,jk->ik", e.vectors, J.jeinsum("ij,jk->ik", Q, G))
    assert jet_close(ht.vectors, naive) < 1e-10


def test_htilde_first_column_is_normalized_d0():
    x = sample_ca(120, seed=53)
    ht = F.frame_htilde(x, a=1.0, order=0)
    _, _, rho = F.k_q_rho(x, a=1.0, order=0)
    expect = 1.0 / np.sqrt(1.0 - 4.0 * x[:, 0] ** 2 * rho.val)
    assert np.abs(ht.vectors[0, 0].val - expect).max() < 1e-12
    for m in range(1, 5):
        assert np.abs(ht.vectors[m, 0].val).max() < 1e-12


def test_htilde_orthonormal_and_standard_on_l():
    x = sample_ca(200, seed=54)
    ht = F.frame_htilde(x, a=1.0, order=0)
    gram = F.gram_matrix(ht, x)
    assert np.abs(gram - ETA).max() < 1e-9
    xl = sample_l(50, seed=55)
    xl = np.vstack([xl, [[0.5, 0, 0, 0, 0]], [[0, 0, 0, 0, 0]]])  # axis, origin
    htl = F.frame_htilde(xl, a=1.0, order=2)
    assert np.abs(htl.vectors.val - np.eye(5)).max() == 0.0


def test_htilde_continuous_across_cone_and_origin():
    a = 1.0
    pc = np.array([0.0, 0.7, 0.1, -0.2, 0.05])
    pc[0] = np.linalg.norm(pc[1:])
    out = pc / np.linalg.norm(pc)
    out = np.concatenate([[0.0], pc[1:] / np.linalg.norm(pc[1:])])
    prev = None
    for t in (1e-2, 1e-4, 1e-6):
        pt = pc + t * out
        v = F.frame_htilde(pt[None], a, order=0).vectors.val[0]
        gap = np.abs(v - np.eye(5)).max()
        if prev is not None:
            assert gap < prev * 1e-1
        prev = gap
    assert prev < 1e-10
    for t in (1e-2, 1e-3):
        pt = np.array([0.5 * t, t, 0, 0, 0])
        v = F.frame_htilde(pt[None], a, order=0).vectors.val[0]
        assert np.abs(v - np.eye(5)).max() < 1e-3 * t


def test_frame_u_constant():
    x = sample_ba(10, seed=56)
    fv = F.frame_eval("u", x, order=2)
    assert fv.metric_spec.family == "g0"
    assert np.abs(fv.vectors.val - np.eye(5)).max() == 0.0
    for m in range(5):
        for i in range(5):
            assert np.all(fv.vectors[m, i].grad == 0.0)


def test_frame_domain_errors():
    axis = np.array([[0.5, 0, 0, 0, 0]])
    with pytest.raises(DomainError):
        F.frame_eval("e", axis, a=1.0)
    with pytest.raises(DomainError):
        F.transform_eval("G", axis)
    with pytest.raises(DomainError):
        F.transform_eval("Gtilde", axis)
    inside = np.array([[0.9, 0.2, 0.1, 0.0, 0.0]])
    for fid in ("f", "etilde"):
        with pytest.raises(DomainError):
            F.frame_eval(fid, inside, a=1.0)
    with pytest.raises(DomainError):
        F.transform_eval("kappa", inside)
    mixed = np.array([[0.9, 0.2, 0.1, 0.0, 0.0], [0.1, 0.9, 0.0, 0.0, 0.0]])
    with pytest.raises(AmbiguousError):
        F.frame_eval("e", mixed, a=1.0)
    with pytest.raises(ValueError):
        F.frame_eval("nope", axis)
    with pytest.raises(ValueError):
        F.transform_eval("nope", axis)


def test_e01_generator():
    m = F.transform_eval("E01", np.zeros((1, 5))).matrix
    expect = np.zeros((5, 5))
    expect[0, 1] = expect[1, 0] = -1.0
    assert np.array_equal(m, expect)


def _count_radial_builds(monkeypatch):
    """Wrap geometry's builders of r, r_o and beta; return their counters."""
    counts = {}
    for name in ("radial_r", "radial_ro", "beta_jet"):
        def counted(*args, _fn=getattr(geo, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        counts[name] = 0
        monkeypatch.setattr(geo, name, counted)
    return counts


RADIAL_CALLS = {
    "frame_e": lambda x: F.frame_eval("e", x, 1.0),
    "frame_f": lambda x: F.frame_eval("f", x, 1.0),
    "frame_etilde": lambda x: F.frame_eval("etilde", x, 1.0),
    "frame_htilde": lambda x: F.frame_eval("htilde", x, 1.0),
    "k_q_rho": lambda x: F.k_q_rho(x, 1.0),
    "metric_ga": lambda x: geo.metric_jets(geo.MetricSpec("ga", 1.0), x),
}


@pytest.mark.parametrize("call", sorted(RADIAL_CALLS))
def test_one_call_builds_each_radial_jet_once(call, monkeypatch):
    counts = _count_radial_builds(monkeypatch)
    RADIAL_CALLS[call](np.array([[0.1, 0.5, 0.2, 0.1, 0.3]]))
    assert counts == {"radial_r": 1, "radial_ro": 1, "beta_jet": 1}
