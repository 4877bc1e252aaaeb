import functools
import itertools

import numpy as np
import pytest

from liccheck5 import clifford as cl
from liccheck5 import frames as F
from liccheck5 import geometry as geo
from liccheck5 import jets as J
from liccheck5 import regularity as R
from liccheck5 import spingeo as S
from liccheck5 import verify as V
from liccheck5.clifford import SpinorValue
from liccheck5.errors import AmbiguousError, CaViolationError, DomainError

from conftest import jet_close

ETA = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])


def gram(fr, family, x, a=1.0):
    """Gram matrix of frame jet fr under the named metric at x."""
    gv = geo.metric_jets(geo.MetricSpec(family, a), x, order=0).val
    return F.gram_matrix(fr.val, gv)


def ca_rho(x, a=1.0):
    """rho = a^4 r_o^2 / (1 - (a r_o)^4) of B_a points, from their radial
    values: C_a is 4 x0^2 rho < 1."""
    ro = geo.radial_values(x)[2]
    return a ** 4 * ro ** 2 / (1.0 - (a * ro) ** 4)


def in_ca(x, a, n):
    """The first n points of a B_a draw that lie in the C_a neighbourhood
    of the cone, 4 x0^2 rho < 0.95 (ca_rho)."""
    x = x[4.0 * x[:, 0] ** 2 * ca_rho(x, a) < 0.95]
    assert len(x) >= n
    return x[:n]


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_frame_e_orthonormal_ba(a):
    x = V.sample("B_a", a, 500, 41, exclusion=0.05 / np.sqrt(2),
                 outer=1 - 0.05 * a)
    fr = F.frame_eval("e", x, a, order=0)
    assert np.abs(gram(fr, "ga", x, a) - ETA).max() < 1e-10


def test_frame_e_orthonormal_on_l():
    x = V.sample("L", 1.0, 200, 42, exclusion=0.05)
    fr = F.frame_eval("e", x, a=1.0, order=0)
    assert np.abs(gram(fr, "ga", x) - ETA).max() < 1e-12


def test_frame_e_cylindrical_on_l():
    # r_o = 0 kills the T-correction: e0 = d0 and e1 = dr exactly.
    x = V.sample("L", 1.0, 50, 7, exclusion=0.05)
    fr = F.frame_eval("e", x, a=1.0, order=1)
    r = np.linalg.norm(x[:, 1:], axis=-1)
    assert np.allclose(fr[0, 0].val, 1.0)
    for m in range(1, 5):
        assert np.allclose(fr[m, 0].val, 0.0)
        assert np.allclose(fr[m, 1].val, x[:, m] / r)
    assert np.allclose(fr[0, 1].val, 0.0)


@pytest.mark.parametrize("fid", ["f", "etilde"])
def test_tilde_frames_orthonormal_for_gatilde(fid):
    x = V.sample("B_a", 1.0, 300, 43, exclusion=0.05 / np.sqrt(2))
    fr = F.frame_eval(fid, x, a=1.0, order=0)
    assert np.abs(gram(fr, "gatilde", x) - ETA).max() < 1e-10


def test_etilde_is_conformal_stretch_of_e():
    # the pushforward identity Psi_*(e_i) = (R^2-s^2) etilde_i, pointwise form
    x = V.sample("B_a", 1.0, 100, 44, exclusion=0.05 / np.sqrt(2))
    e = F.frame_eval("e", x, a=1.0, order=1)
    et = F.frame_eval("etilde", x, a=1.0, order=1)
    d = np.sum(x[:, 1:] ** 2, axis=-1) - x[:, 0] ** 2
    xj = J.seed(x, order=1)
    djet = xj[1] * xj[1] + xj[2] * xj[2] + xj[3] * xj[3] + xj[4] * xj[4] \
        - xj[0] * xj[0]
    scaled = J.stack([[djet * e[m, i] for i in range(5)] for m in range(5)])
    assert jet_close(scaled, et) < 1e-10
    assert d.min() > 0  # sanity: B_a is on the exterior side


def test_etilde_is_d_times_e_near_the_cone():
    # 0.01 from the cone, where d = r^2 - x0^2 is small: etilde's jets stay
    # within round-off of the Leibniz product d e, levels 0 to 3
    rng = np.random.default_rng(48)
    w = rng.normal(size=(40, 4))
    w /= np.linalg.norm(w, axis=1)[:, None]
    r = rng.uniform(0.3, 0.8, 40)
    x = np.column_stack([(r - 0.01) * rng.choice([-1.0, 1.0], 40),
                         r[:, None] * w])
    e = F.frame_eval("e", x, a=1.0, order=3)
    et = F.frame_eval("etilde", x, a=1.0, order=3)
    xj = J.seed(x, order=3)
    djet = xj[1] * xj[1] + xj[2] * xj[2] + xj[3] * xj[3] + xj[4] * xj[4] \
        - xj[0] * xj[0]
    de = J.stack([[djet * e[m, i] for i in range(5)] for m in range(5)])
    for k, (want, got) in enumerate(zip(de.levels, et.levels)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), k


def test_etilde_equals_f_kappa():
    x = V.sample("B_a", 1.0, 200, 45, exclusion=0.05 / np.sqrt(2))
    f = F.frame_eval("f", x, a=1.0, order=0)
    kap = F.transform_eval("kappa", x, order=0)
    et = F.frame_eval("etilde", x, a=1.0, order=0)
    prod = J.jeinsum("ij,jk->ik", f, kap).val
    assert np.abs(prod - et.val).max() < 1e-10


def test_kappa_is_boost_exponential():
    x = V.sample("B_a", 1.0, 150, 46, exclusion=0.05 / np.sqrt(2))
    # the chart pair (s, R) = (-x0, r) / (r^2 - x0^2)
    r, d, _ = geo.radial_values(x)
    s, R = -x[:, 0] / d, r / d
    t = np.log((R - s) / (R + s))
    kap = F.transform_eval("kappa", x, order=0).val
    expected = np.zeros_like(kap)
    expected[..., 2, 2] = expected[..., 3, 3] = expected[..., 4, 4] = 1.0
    expected[..., 0, 0] = expected[..., 1, 1] = np.cosh(t)
    expected[..., 0, 1] = expected[..., 1, 0] = -np.sinh(t)
    assert np.abs(kap - expected).max() < 1e-10


def test_kappatilde_covers_kappa():
    x = V.sample("B_a", 1.0, 100, 47, exclusion=0.05 / np.sqrt(2))
    kt = F.transform_eval("kappatilde", x, order=0)
    kap = F.transform_eval("kappa", x, order=0).val
    assert np.abs(cl.lambda_of(kt) - kap).max() < 1e-9


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_q_entries_hyperbolic(a):
    # Q is the boost [[k, q], [q, k]] of the (0, 1) plane, k = cosh and
    # q = sinh of one rapidity, with k the closed form in rho
    x = in_ca(V.sample("B_a", a, 10 * 200, 48, exclusion=0.05 / np.sqrt(2),
                       outer=1 - 0.05 * a), a, 200)
    Q = F.transform_eval("Q", x, a, order=0).val
    k, q = Q[:, 0, 0], Q[:, 0, 1]
    assert np.array_equal(Q[:, 1, 1], k) and np.array_equal(Q[:, 1, 0], q)
    rest = Q.copy()
    rest[:, :2, :2] = np.eye(2)
    assert np.array_equal(rest, np.broadcast_to(np.eye(5), Q.shape))
    assert np.abs(k ** 2 - q ** 2 - 1.0).max() < 1e-12
    assert k.min() > 0
    gate = 4.0 * x[:, 0] ** 2 * ca_rho(x, a)
    beta = np.sqrt(1.0 - (a * geo.radial_values(x)[2]) ** 4)
    want = (1.0 - gate * beta / (1.0 + beta)) / np.sqrt(1.0 - gate)
    assert np.abs(k - want).max() < 1e-12 * k.max()


def test_q_identity_on_l():
    x = V.sample("L", 1.0, 60, 49, exclusion=0.05)
    Q = F.transform_eval("Q", x, order=0).val
    assert np.array_equal(Q, np.broadcast_to(np.eye(5), Q.shape))


def test_q_outside_ca_raises():
    # large x0 with r_o close to 1/a puts 4 x0^2 rho far above 1
    p = np.array([[1.897, 2.4, 0.0, 0.0, 0.0]])
    with pytest.raises(CaViolationError):
        F.transform_eval("Q", p, a=1.0, order=0)


def test_qtilde_covers_q():
    x = in_ca(V.sample("B_a", 1.0, 10 * 100, 50, exclusion=0.05 / np.sqrt(2)),
              1.0, 100)
    Qt = F.transform_eval("Qtilde", x, a=1.0, order=0)
    Q = F.transform_eval("Q", x, a=1.0, order=0).val
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
        Qt = F.transform_eval("Qtilde", b[None], a=1.0, order=0)[0]
        ratios.append(np.abs(Qt - np.eye(4)).max() / t ** 2)
    ratios = np.array(ratios)
    assert np.all(ratios < 10.0 * ratios[-1] + 1e-6)
    assert ratios[-1] < 5.0


def test_gtilde_is_special_unitary():
    x = V.sample("B_a", 1.0, 100, 51, exclusion=0.05 / np.sqrt(2))
    Gt = F.transform_eval("Gtilde", x, order=0)
    ident = np.einsum("...ij,...kj->...ik", Gt, Gt.conj())
    assert np.abs(ident - np.eye(4)).max() < 1e-12
    assert np.abs(np.linalg.det(Gt) - 1.0).max() < 1e-12


def test_htilde_matches_product_off_axis():
    x = in_ca(V.sample("B_a", 1.0, 10 * 80, 52, exclusion=0.05 / np.sqrt(2)),
              1.0, 80)
    ht = F.frame_eval("htilde", x, a=1.0, order=1)
    e = F.frame_eval("e", x, a=1.0, order=1)
    Q = F.transform_eval("Q", x, a=1.0, order=1)
    G = F.transform_eval("G", x, a=1.0, order=1)
    naive = J.jeinsum("ij,jk->ik", e, J.jeinsum("ij,jk->ik", Q, G))
    assert jet_close(ht, naive) < 1e-10


def test_htilde_first_column_is_normalized_d0():
    x = in_ca(V.sample("B_a", 1.0, 10 * 120, 53, exclusion=0.05 / np.sqrt(2)),
              1.0, 120)
    ht = F.frame_eval("htilde", x, a=1.0, order=0)
    expect = 1.0 / np.sqrt(1.0 - 4.0 * x[:, 0] ** 2 * ca_rho(x))
    assert np.abs(ht[0, 0].val - expect).max() < 1e-12
    for m in range(1, 5):
        assert np.abs(ht[m, 0].val).max() < 1e-12


def test_htilde_orthonormal_and_standard_on_l():
    x = in_ca(V.sample("B_a", 1.0, 10 * 200, 54, exclusion=0.05 / np.sqrt(2)),
              1.0, 200)
    ht = F.frame_eval("htilde", x, a=1.0, order=0)
    assert np.abs(gram(ht, "ga", x) - ETA).max() < 1e-9
    xl = V.sample("L", 1.0, 50, 55, exclusion=0.05)
    xl = np.vstack([xl, [[0.5, 0, 0, 0, 0]], [[0, 0, 0, 0, 0]]])  # axis, origin
    htl = F.frame_eval("htilde", xl, a=1.0, order=2)
    assert np.abs(htl.val - np.eye(5)).max() == 0.0


def test_htilde_continuous_across_cone_and_origin():
    a = 1.0
    pc = np.array([0.0, 0.7, 0.1, -0.2, 0.05])
    pc[0] = np.linalg.norm(pc[1:])
    out = pc / np.linalg.norm(pc)
    out = np.concatenate([[0.0], pc[1:] / np.linalg.norm(pc[1:])])
    prev = None
    for t in (1e-2, 1e-4, 1e-6):
        pt = pc + t * out
        v = F.frame_eval("htilde", pt[None], a, order=0).val[0]
        gap = np.abs(v - np.eye(5)).max()
        if prev is not None:
            assert gap < prev * 1e-1
        prev = gap
    assert prev < 1e-10
    for t in (1e-2, 1e-3):
        pt = np.array([0.5 * t, t, 0, 0, 0])
        v = F.frame_eval("htilde", pt[None], a, order=0).val[0]
        assert np.abs(v - np.eye(5)).max() < 1e-3 * t


def test_frame_u_constant():
    x = V.sample("B_a", 1.0, 10, 56, exclusion=0.05 / np.sqrt(2))
    fr = F.frame_eval("u", x, order=2)
    assert np.abs(fr.val - np.eye(5)).max() == 0.0
    for m in range(5):
        for i in range(5):
            assert np.all(fr[m, i].grad == 0.0)


def test_frame_domain_errors():
    axis = np.array([[0.5, 0, 0, 0, 0]])
    with pytest.raises(DomainError):
        F.frame_eval("e", axis, a=1.0)
    with pytest.raises(DomainError):
        F.transform_eval("G", axis, order=0)
    with pytest.raises(DomainError):
        F.transform_eval("Gtilde", axis, order=0)
    inside = np.array([[0.9, 0.2, 0.1, 0.0, 0.0]])
    for fid in ("f", "etilde"):
        with pytest.raises(DomainError):
            F.frame_eval(fid, inside, a=1.0)
    with pytest.raises(DomainError):
        F.transform_eval("kappa", inside, order=0)
    mixed = np.array([[0.9, 0.2, 0.1, 0.0, 0.0], [0.1, 0.9, 0.0, 0.0, 0.0]])
    with pytest.raises(AmbiguousError):
        F.frame_eval("e", mixed, a=1.0)
    with pytest.raises(ValueError):
        F.frame_eval("nope", axis)
    with pytest.raises(ValueError):
        F.transform_eval("nope", axis, order=0)


# ------------------------------------------------------- the frame graph

# the regions where each edge of F.EDGES holds (u = e.G on L alone)
EDGE_REGIONS = {("e", "u"): ("L",), ("e", "htilde"): ("C_a", "L"),
                ("f", "etilde"): ("B_a",)}
WALKS = [(edge, region) for edge in F.EDGES for region in EDGE_REGIONS[edge]]


@pytest.mark.parametrize("edge,region", WALKS,
                         ids=["%s-%s-%s" % (*e, r) for e, r in WALKS])
def test_edge_is_a_lifted_walk(edge, region):
    """F_to = F_from . T as order-1 jets for the product T of the edge's
    transitions; the product S of their lifts has lambda(S) = T and
    S S^-1 = I; a frame change along the edge multiplies by S^-1, and
    changes round-trip in both directions."""
    x, _ = _fd_points(region, 1.0, 60)
    src, dst = edge
    T = functools.reduce(lambda m, t: J.jeinsum("ij,jk->ik", m, t),
                         [F.transform_eval(t, x, order=1)
                          for t in F.EDGES[edge]])
    walk = J.jeinsum("ij,jk->ik", F.frame_eval(src, x, order=1), T)
    assert jet_close(walk, F.frame_eval(dst, x, order=1)) < 1e-12
    lift = functools.reduce(np.matmul, [F.transform_eval(S._LIFT_OF[t], x,
                                                         order=0)
                                        for t in F.EDGES[edge]])
    assert np.abs(cl.lambda_of(lift) - T.val).max() < 1e-9
    assert np.abs(lift @ cl.spin_inverse(lift) - np.eye(4)).max() < 1e-12
    rng = np.random.default_rng(57)
    w = rng.normal(size=(len(x), 4)) + 1j * rng.normal(size=(len(x), 4))
    tol = 1e-12 * np.abs(w).max()
    ahead = S.change_spinor_frame(SpinorValue(w, src), src, dst, x)
    assert ahead.frame == dst
    assert np.abs(np.einsum("...ab,...b->...a", lift, ahead.w) - w).max() < tol
    for a, b in (edge, edge[::-1]):
        there = S.change_spinor_frame(SpinorValue(w, a), a, b, x)
        back = S.change_spinor_frame(there, b, a, x)
        assert back.frame == a and np.abs(back.w - w).max() < tol


RADIAL_FIELDS = ("r", "d", "w", "gap", "side", "ro", "ro2", "bsq", "beta",
                 "mu")


def _count_radial_builds(monkeypatch):
    """Wrap the builder of each geometry.RadialJets field, and the bundle's
    constructor; return their counters."""
    counts = dict.fromkeys(RADIAL_FIELDS + ("bundles",), 0)

    def counted_init(rad, *args, _init=geo.RadialJets.__init__):
        counts["bundles"] += 1
        _init(rad, *args)
    monkeypatch.setattr(geo.RadialJets, "__init__", counted_init)
    for name in RADIAL_FIELDS:
        def counted(rad, _fn=vars(geo.RadialJets)[name].func, _name=name):
            counts[_name] += 1
            return _fn(rad)
        prop = functools.cached_property(counted)
        prop.__set_name__(geo.RadialJets, name)
        monkeypatch.setattr(geo.RadialJets, name, prop)
    return counts


def _builds(*names):
    return dict({name: int(name in names) for name in RADIAL_FIELDS},
                bundles=1)


# each call with the fields of its one bundle it builds: every field it
# reads, once, and the fields those are built from (the seeds x0 and r^2
# are no fields); the metric builds no beta, kappa no side, r_o or beta,
# G its 1/r alone, and the monomial probe no w, r_o^2 or beta
FRAME_FIELDS = _builds("r", "d", "w", "gap", "side", "ro", "ro2", "bsq",
                       "beta")
RADIAL_CALLS = {
    "frame_e": (lambda x: F.frame_eval("e", x, 1.0), FRAME_FIELDS),
    "frame_f": (lambda x: F.frame_eval("f", x, 1.0), FRAME_FIELDS),
    "frame_etilde": (lambda x: F.frame_eval("etilde", x, 1.0), FRAME_FIELDS),
    "frame_htilde": (lambda x: F.frame_eval("htilde", x, 1.0), FRAME_FIELDS),
    "G": (lambda x: F.transform_eval("G", x, 1.0, order=3), _builds("r")),
    "Q": (lambda x: F.transform_eval("Q", x, 1.0, order=3), FRAME_FIELDS),
    "metric_ga": (lambda x: geo.metric_jets(geo.MetricSpec("ga", 1.0), x, 3),
                  _builds("r", "d", "w", "gap", "side", "ro", "ro2", "bsq")),
    "kappa": (lambda x: F.transform_eval("kappa", x, order=3),
              _builds("r", "d", "w", "gap")),
    "monomial": (lambda x: R._monomial_jets(np.array([2]),
                                            np.zeros((1, 6), int), x, 3),
                 _builds("r", "d", "gap", "side", "ro")),
}


@pytest.mark.parametrize("call", sorted(RADIAL_CALLS))
def test_one_call_builds_each_radial_jet_once(call, monkeypatch):
    counts = _count_radial_builds(monkeypatch)
    fn, want = RADIAL_CALLS[call]
    fn(np.array([[0.1, 0.5, 0.2, 0.1, 0.3]]))
    assert counts == want


# ------------------------------------------------ finite-difference oracle

FD_STEP = {1: 1e-5, 2: 1e-4, 3: 1e-3}
FD_TOL = {1: 1e-5, 2: 1e-4, 3: 1e-4}


def _fd_points(region, a, n=6):
    """n points of a region at parameter a, and their length scale: B_a
    draws (their C_a part for htilde) and instanton points scale with the
    family, L draws do not."""
    if region == "R>a":
        return V._eh_points(a, 95, n), a
    if region == "L":
        return V.sample("L", a, n, 94, exclusion=0.05), 1.0
    x = V.sample("B_a", a, 10 * n, 93, exclusion=0.05 / a)
    return (in_ca(x, a, n) if region == "C_a" else x[:n]), 1.0 / a


# each frame, and each vector transition, on the points where it is
# defined; eh_frame is only built to order 2
FD_FRAMES = [(fid, region, a)
             for fid, regions in [("e", ("B_a", "L")), ("f", ("B_a",)),
                                  ("etilde", ("B_a",)), ("u", ("B_a", "L")),
                                  ("htilde", ("C_a", "L")), ("eh", ("R>a",)),
                                  ("G", ("B_a", "L")), ("Q", ("C_a", "L")),
                                  ("kappa", ("B_a",))]
             for region in regions for a in (0.1, 1.0, 7.0)]


@pytest.mark.parametrize("fid,region,a", FD_FRAMES,
                         ids=["%s-%s-a%g" % c for c in FD_FRAMES])
def test_frame_jets_match_central_differences(fid, region, a):
    """Every level of a frame or transition jet against central differences
    of its values, with one Richardson step at order 3 as in test_jets;
    the residual of each order is normalized by the scale of both sides.
    The points and the steps scale with the family, so a wrong level
    scaling of the dilation shows too."""
    x, scale = _fd_points(region, a)
    if fid == "eh":
        jet, orders = F.eh_frame(x, a), (1, 2)

        def frame(pts):
            return F.eh_frame(pts, a).val
    else:
        build = F.transform_eval if fid in F._TRANSITIONS else F.frame_eval
        jet, orders = build(fid, x, a, order=3), (1, 2, 3)

        def frame(pts):
            return build(fid, pts, a, order=0).val
    n = x.shape[-1]
    for order in orders:
        h = scale * FD_STEP[order]
        diff = scale_a = scale_b = 0.0
        for idx in itertools.combinations_with_replacement(range(n), order):
            alpha = np.bincount(idx, minlength=n)
            fd = J.central_diff(frame, x, alpha, h)
            if order == 3:
                fd = (4.0 * J.central_diff(frame, x, alpha, h / 2) - fd) / 3.0
            got = J.extract(jet, alpha)
            diff = max(diff, float(np.max(np.abs(got - fd))))
            scale_a = max(scale_a, float(np.max(np.abs(got))))
            scale_b = max(scale_b, float(np.max(np.abs(fd))))
        assert diff / (1.0 + scale_a + scale_b) < FD_TOL[order], (order, diff)
