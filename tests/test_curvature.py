import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from liccheck5 import curvature as C
from liccheck5 import frames as F
from liccheck5 import geometry as geo
from liccheck5 import jets as J
from liccheck5 import spingeo as S
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
    assert np.max(np.abs(gam)) == 0.0


def test_riemann_flat_zero():
    x = np.random.default_rng(2).uniform(-2, 2, size=(20, 5))
    R = C.riemann(G0, x)
    assert np.max(np.abs(R)) == 0.0


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
    gam = C.christoffel(HA, pt)
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


def _round_sphere():
    """Metric jet of the stereographic round 4-sphere, 4 delta/(1+|y|^2)^2,
    at 40 seeded points."""
    y = np.random.default_rng(7).uniform(-1.5, 1.5, size=(40, 4))
    yj = J.seed(y, order=3)
    c = (yj[0] * yj[0] + yj[1] * yj[1] + yj[2] * yj[2] + yj[3] * yj[3]
         + 1.0).reciprocal() * 2.0
    zero = J.constant(np.zeros(y.shape[:-1]), dim=4, order=3)
    return J.stack([[c * c if i == j else zero for j in range(4)]
                    for i in range(4)])


def test_round_sphere_fixes_sign_convention():
    # the first/third Ricci contraction must come out positive on the round
    # 4-sphere, Ric = 3 g and scal = 12
    p = C._CurvaturePieces(_round_sphere())
    assert np.max(np.abs(p.ric - 3.0 * p.gv)) < 1e-12
    assert np.max(np.abs(p.scalar - 12.0)) < 1e-12
    assert np.max(np.abs(p.weyl)) < 1e-12


def test_curvature_pieces_form_only_what_is_read():
    x = V.sample("B_a", 1.0, 12, 31, exclusion=0.02)
    g = geo.metric_jets(GAT, x, order=2)
    p = C._CurvaturePieces(g)
    ric = p.ric
    # Riemann reads values only: no Christoffel jet is formed
    assert set(vars(p)) == {"g", "ginv", "gamv", "riemann", "ric"}
    low = p.lowered
    assert set(vars(p)) == {"g", "ginv", "gamv", "riemann", "ric", "gv",
                            "lowered"}
    # read in any order, each piece is the same array bit for bit
    q = C._CurvaturePieces(g)
    assert np.array_equal(q.weyl, p.weyl)
    assert np.array_equal(q.ric, ric) and np.array_equal(q.lowered, low)


class _ChristoffelRoute(C._CurvaturePieces):
    """The bundle with Riemann from the derivatives of the Christoffel
    jets (the oracle riemann_from_christoffel); every later piece follows
    it."""

    @cached_property
    def riemann(self):
        return C.riemann_from_christoffel(self.gam)


# (metric jet, bound on the kernel's distance to the Christoffel route
# relative to the route's largest Riemann component in each layout): on
# these draws the cone metrics measure 6e-12 (Riemann, Ricci) and 1.2e-10
# (lowered, Weyl), as their lowered entries cancel terms ~100 times larger,
# and the 4d metrics agree to a few ulps, 1.3e-15
ORACLE_METRICS = {
    "ga": (lambda: geo.metric_jets(
        GA, V.sample("B_a", 1.0, 100, 3, exclusion=0.02), order=2), 5e-10),
    "gatilde": (lambda: geo.metric_jets(
        GAT, V.sample("B_a", 1.0, 100, 3, exclusion=0.02), order=2), 5e-10),
    "eh": (lambda: geo.metric_jets(EH, V._eh_points(1.0, 5, 60), order=2),
           5e-15),
    "ha": (lambda: geo.metric_jets(HA, np.random.default_rng(33).uniform(
        -0.4, 0.4, size=(40, 4)), order=2), 5e-15),
    "sphere": (_round_sphere, 5e-15),
}


@pytest.mark.parametrize("metric", list(ORACLE_METRICS))
def test_riemann_kernel_matches_the_christoffel_route(metric):
    """The bundle's Riemann, read from the metric's value, gradient and
    Hessian, agrees with differentiating the Christoffel jets, and so do
    Ricci, the lowered tensor and Weyl built on it; a point alone gives
    the same bits as inside its batch."""
    build, bound = ORACLE_METRICS[metric]
    g = build()
    got, want = C._CurvaturePieces(g), _ChristoffelRoute(g)
    scale = {"riemann": np.max(np.abs(want.riemann)),
             "lowered": np.max(np.abs(want.lowered))}
    for key, layout in (("riemann", "riemann"), ("ric", "riemann"),
                        ("lowered", "lowered"), ("weyl", "lowered")):
        diff = np.max(np.abs(getattr(got, key) - getattr(want, key)))
        assert diff <= bound * scale[layout], key
    for i in (0, 17, len(g.val) - 1):
        alone = C._CurvaturePieces(J.Jet(*[lv[i:i + 1] for lv in g.levels]))
        for key in ("riemann", "ric", "lowered", "weyl"):
            assert np.array_equal(getattr(alone, key),
                                  getattr(got, key)[i:i + 1]), key


def test_metric_frame_and_curvature_jets_are_real():
    """Metric, frame, Christoffel and connection-form jets carry float64
    at every level; only spinor values are complex, so src reads no
    .real on the others."""
    x = V.sample("B_a", 1.0, 12, 32, exclusion=0.05)
    y_in = np.random.default_rng(33).uniform(-0.4, 0.4, size=(6, 4))
    y_out = V._eh_points(1.0, 34, 6)
    jets = [geo.metric_jets(spec, pts, order=3)
            for spec, pts in [(G0, x), (GA, x), (GAT, x), (HA, y_in),
                              (EH, y_out)]]
    jets += [F.frame_eval(fid, x, order=3) for fid in ("e", "f", "etilde", "u")]
    ro = geo.radial_values(x)[2]
    in_ca = x[4.0 * x[:, 0] ** 2 * ro ** 2 / (1.0 - ro ** 4) < 0.95]
    jets.append(F.frame_eval("htilde", in_ca, order=3))
    jets += [F.eh_frame(y_out),
             C.christoffel_from_jets(geo.metric_jets(GA, x, order=3)),
             C.connection_forms(F.frame_eval("e", x, order=2), GA, x).omega]
    for jet in jets:
        assert [lv.dtype for lv in jet.levels] == [np.float64] * len(jet.levels)


def test_degenerate_metric_raises():
    z = J.constant(0.0, dim=2, order=2)
    o = J.constant(1.0, dim=2, order=2)
    bad = J.stack([[o, z], [z, z]])
    with pytest.raises(SingularMetricError):
        C.christoffel_from_jets(bad)
    with pytest.raises(SingularMetricError):
        C._CurvaturePieces(bad).ric


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
    R = C.riemann(GAT, x)
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
    R = C.riemann(GA, x)
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


@pytest.mark.parametrize("spec", [GA, GAT], ids=["ga", "gatilde"])
def test_kulkarni_nomizu_product_equals_the_einsum_form(spec):
    """The Weyl tensor's Kulkarni-Nomizu term, built from one outer product
    and its transposes, is bit for bit the sum of the four einsum outer
    products, added in the same order."""
    x = V.sample("B_a", 1.0, 100, 15, exclusion=0.05)
    P = C._CurvaturePieces(geo.metric_jets(spec, x, order=2))
    gv, n = P.gv, 5
    schouten = ((P.ric - P.scalar[..., None, None] * gv / (2.0 * (n - 1)))
                / (n - 2))
    kn = (np.einsum('...ik,...jl->...ijkl', schouten, gv)
          + np.einsum('...jl,...ik->...ijkl', schouten, gv)
          - np.einsum('...il,...jk->...ijkl', schouten, gv)
          - np.einsum('...jk,...il->...ijkl', schouten, gv))
    assert np.array_equal(P.weyl, P.lowered + kn)


def test_eh_riemann_equals_weyl():
    y = V._eh_points(1.0, 5, 60)
    low = C.riemann_lowered(EH, y)
    W = C.weyl(EH, y)
    assert np.max(np.abs(W - low)) < 1e-8


# (entry, the order of the metric jet it is built from)
ENTRIES = {
    "christoffel-1": (C.christoffel, 1),
    "riemann-0": (C.riemann, 2),
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


def _plain_contract(spec, a, b):
    """contract's result from plain (unoptimized) np.einsum, which sums in
    its own order."""
    sa, rest = spec.split(",")
    sb, out = rest.split("->")
    return np.einsum("...%s,...%s->...%s" % (sa, sb, out), a, b)


@pytest.mark.parametrize("entry,spec,region,route", BLOCK_CASES,
                         ids=["%s-%s-%s-%s" % (e, s.family, r, m)
                              for e, s, r, m in BLOCK_CASES])
def test_blocked_curvature_equals_unblocked(entry, spec, region, route,
                                            monkeypatch):
    """40 points in 4 blocks of 10 give the whole batch's bits, on the
    shipped matmul contraction and, so that blocking is seen not to lean
    on one kernel's summation order, with plain einsum in its place.  The
    coefficient jets are built, and a ga/gatilde batch's cone side
    decided, once a call, however many blocks it runs in."""
    fn, order = ENTRIES[entry]
    if route == "plain":
        monkeypatch.setattr(J, "contract", _plain_contract)
    x = (V._eh_points(1.0, 86, 40) if region == "eh"
         else V.sample(region, 1.0, 40, 87, exclusion=0.05))
    counts = _count_metric_work(monkeypatch)
    whole = fn(spec, x)
    sides = int(spec.family in ("ga", "gatilde"))
    assert counts == {"blocks": 1, "builds": 1, "sides": sides}
    monkeypatch.setattr(geo, "BLOCK_BYTES", 13 * 8 * spec.dim ** (order + 2))
    counts.update(dict.fromkeys(counts, 0))
    split = fn(spec, x)
    assert counts == {"blocks": 4, "builds": 1, "sides": sides}
    _assert_identical(split, whole)


def _count_metric_work(monkeypatch):
    """Counts, updated in place, of the blocks the metric's block loop reads
    (geometry._over_blocks), of the RadialJets bundles the coefficient jets
    are built on and of the cone side decisions."""
    counts = dict(blocks=0, builds=0, sides=0)

    def counted(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    loop = geo._over_blocks
    monkeypatch.setattr(geo, "_over_blocks", lambda name, a, x, order, read:
                        loop(name, a, x, order, counted(read, "blocks")))
    monkeypatch.setattr(geo, "RadialJets", counted(geo.RadialJets, "builds"))
    monkeypatch.setattr(geo, "_side_of", counted(geo._side_of, "sides"))
    return counts


def _forms_e(x):
    """omega and Omega of frame e under ga, one row per point."""
    forms = C.connection_forms(F.frame_eval("e", x, order=2), GA, x)
    return np.hstack([forms.omega_frame.reshape(len(x), -1),
                      forms.curvature_frame.reshape(len(x), -1)])


def _twistor(x, frame):
    res = S.twistor_residual(S.psi_bc(1.0, 0.5, frame=frame), GA, x)
    return np.stack([d.w for d in res.directions], axis=-2)


def _metric3(spec):
    """The order-3 metric jet's levels, one row per point."""
    def levels(x):
        g = geo.metric_jets(spec, x, order=3)
        return np.hstack([lv.reshape(len(x), -1) for lv in g.levels])
    return levels


def _square(frame):
    return lambda x: S.spinor_square(S.psi_bc(1.0, 0.5, frame=frame), GA, x)


def _frame2(fid):
    """The order-2 jet's levels of a frame, one row per point."""
    def levels(x):
        if fid == "eh":
            fr = F.eh_frame(x, 1.0)
        else:
            fr = F.frame_eval(fid, x, order=2)
        return np.hstack([lv.reshape(len(x), -1) for lv in fr.levels])
    return levels


def test_a_point_has_the_same_bits_alone_and_in_any_batch():
    """Every pairwise contraction runs each point's product on its own
    (jets.contract), so one 40-point call, 40 one-point calls and four
    10-point calls agree bit for bit: the order-3 metric jets, the
    order-2 frame jets, the curvature, the forms, the twistor residual and
    the spinor square."""
    xb = V.sample("B_a", 1.0, 40, 7)
    xl = V.sample("L", 1.0, 40, 8)
    xc = V.sample("B_a", 1.0, 400, 9)
    ro = geo.radial_values(xc)[2]
    xc = xc[4.0 * xc[:, 0] ** 2 * ro ** 2 / (1.0 - ro ** 4) < 0.95][:40]
    assert len(xc) == 40                   # htilde's C_1 points
    on_b = [lambda x, fn=fn, spec=spec: fn(spec, x) for spec in (GA, GAT)
            for fn in (C.christoffel, C.riemann, C.ricci, C.weyl)]
    on_b += [_metric3(GA), _metric3(GAT), _forms_e,
             lambda x: _twistor(x, "e"), _square("e")]
    on_b += [_frame2(fid) for fid in ("e", "f", "etilde")]
    on_l = [lambda x: _twistor(x, "u"), _square("u"), _frame2("e"),
            _frame2("htilde")]
    cases = ([(xb, fn) for fn in on_b] + [(xl, fn) for fn in on_l]
             + [(xc, _frame2("htilde")),
                (V._eh_points(1.0, 10, 40), _frame2("eh"))])
    for x, fn in cases:
        whole = fn(x)
        for size in (1, 10):
            parts = np.concatenate([fn(x[i:i + size])
                                    for i in range(0, 40, size)])
            assert np.array_equal(parts, whole)


# the curvature entries and the order-3 metric jet itself
DEFAULT_ENTRIES = dict(ENTRIES, **{
    "metric-3": (lambda spec, x: geo.metric_jets(spec, x, order=3), 3)})


@pytest.mark.parametrize("entry", list(DEFAULT_ENTRIES))
@pytest.mark.parametrize("spec", [GA, GAT], ids=["ga", "gatilde"])
def test_default_blocks_equal_the_whole_batch(entry, spec, monkeypatch):
    """At the shipped budget, a batch one point over a block runs in two
    equal blocks, and the result is the unblocked one bit for bit."""
    fn, order = DEFAULT_ENTRIES[entry]
    n = geo.BLOCK_BYTES // (8 * 5 ** (order + 2)) + 1
    x = V.sample("B_a", 1.0, n, 88, exclusion=0.05)
    split = fn(spec, x)
    monkeypatch.setattr(geo, "BLOCK_BYTES", 1 << 40)
    _assert_identical(split, fn(spec, x))


@pytest.mark.parametrize("entry", ["weyl", "ricci"])
@pytest.mark.parametrize("spec", [GA, GAT], ids=["ga", "gatilde"])
def test_curvature_working_set_does_not_grow_with_the_batch(entry, spec):
    """The memory a curvature entry needs beyond its result stays that of
    one of the metric's blocks: at 2400 points at most 1.6x what it is at
    600 points, both of which run in several blocks."""
    fn = ENTRIES[entry][0]
    x = V.sample("B_a", 1.0, 2400, 89, exclusion=0.05)
    assert 600 * 8 * 5 ** 4 > geo.BLOCK_BYTES

    def working_set(pts):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = fn(spec, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - start - out.nbytes

    small, large = working_set(x[:600]), working_set(x)
    assert large <= 1.6 * small, (large, small)


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
    r1, r2 = C.structure_residuals(forms)
    assert r1 < 1e-8
    assert r2 < 1e-8


def test_structure_equations_lorentzian_frame():
    x = V.sample("B_a", 1.0, 60, 8, exclusion=0.15 / np.sqrt(2), outer=0.9)
    fr = F.frame_eval("e", x, 1.0, order=3)
    forms = C.connection_forms(fr, GA, x)
    assert list(forms.eps) == [-1.0, 1.0, 1.0, 1.0, 1.0]
    r1, r2 = C.structure_residuals(forms)
    assert r1 < 1e-8
    assert r2 < 1e-8


def test_low_order_forms_name_the_order_they_need():
    x = V.sample("B_a", 1.0, 10, 8, exclusion=0.15 / np.sqrt(2), outer=0.9)
    fr = F.frame_eval("e", x, 1.0, order=1)
    forms = C.connection_forms(fr, GA, x)
    with pytest.raises(OrderError, match="frame jet of order >= 2"):
        C.structure_residuals(forms)
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
    orders, gams, riems = [], [], []

    def metric_jets(spec, x, order=2, _fn=geo.metric_jets):
        orders.append(order)
        return _fn(spec, x, order=order)

    def christoffel_from_jets(g, _fn=C.christoffel_from_jets):
        gams.append(g.order)
        return _fn(g)

    def riemann_from_values(g, ginv, gam, _fn=C._riemann_from_values):
        riems.append(g.order)
        return _fn(g, ginv, gam)

    monkeypatch.setattr(geo, "metric_jets", metric_jets)
    monkeypatch.setattr(C, "christoffel_from_jets", christoffel_from_jets)
    monkeypatch.setattr(C, "_riemann_from_values", riemann_from_values)
    forms = C.connection_forms(fr, spec, x)
    # the eh frame is seeded to order 2, so omega's Christoffel symbols come
    # from an order-2 metric; the default-order ga frame needs only order 1
    assert orders == gams == ([2] if family == "eh" else [1])
    assert riems == []
    cf = forms.curvature_frame
    # eh reads its curvature from the bundle omega was built from, without
    # a second metric build; ga builds the order-2 bundle now.  Either way
    # one Riemann kernel runs on the order-2 metric's values, and no
    # Christoffel jet is built for it
    assert orders == ([2] if family == "eh" else [1, 2])
    assert gams == ([2] if family == "eh" else [1])
    assert riems == [2]
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
    div = C.divergence(C.christoffel_from_jets(geo.metric_jets(GA, x, order=3)),
                       C.vector_field_jets(x, order=2))
    assert np.max(np.abs(div.val + 10.0 * x[:, 0])) < 1e-9

    # the jet's first partials against central differences of its values
    def f(pts):
        return C.divergence(
            C.christoffel_from_jets(geo.metric_jets(GA, pts, order=2)),
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
    div = C.divergence(C.christoffel_from_jets(geo.metric_jets(GAT, x, order=3)),
                       C.vector_field_jets(x, order=2))
    assert np.max(np.abs(div.val)) < 1e-9
    assert np.max(np.abs(div.grad)) < 1e-8


# ------------------------------------------------- Hessians and traces


def test_hessian_of_x0_squared_flat():
    x = np.random.default_rng(5).uniform(-1, 1, size=(10, 5))
    u = J.seed(x, order=2)[0]
    H = C.hessian_scalar(u * u, C._CurvaturePieces(
        geo.metric_jets(G0, x, order=1)))
    target = np.zeros((10, 5, 5))
    target[:, 0, 0] = 2.0
    assert np.max(np.abs(H - target)) == 0.0


def test_trace_free_kills_trace():
    x = V.sample("B_a", 1.0, 10, 6, exclusion=0.2 / np.sqrt(2), outer=0.8)
    T = np.random.default_rng(8).normal(size=(10, 5, 5))
    g = geo.metric_jets(GA, x, order=0)
    tf = C.trace_free(T, C._CurvaturePieces(g))
    gi = np.linalg.inv(g.val)
    assert np.max(np.abs(np.einsum('...ij,...ij->...', gi, tf))) < 1e-12


def test_hessian_order_guard():
    x = np.zeros((1, 5))
    u = J.seed(x, order=1)[0]
    with pytest.raises(OrderError):
        C.hessian_scalar(u, C._CurvaturePieces(
            geo.metric_jets(G0, x, order=1)))


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
    # the same law for exp(2 mu) eta against the flat background
    x = sampler()
    rad = geo.RadialJets(x, 2)
    d, mu = rad.pullback(rad.d, rad.mu)
    eta = J.constant(geo.ETA, 5, 1, x.shape[:-1])
    lhs = C._CurvaturePieces(J.jeinsum(",ij->ij", d * d, geo.ETA)).ric
    rhs = C._conformal_rhs(mu, eta)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_conformal_ricci_singular_on_cone():
    with pytest.raises(SingularError):
        C.conformal_ricci_check(np.array([[1.0, 1.0, 0.0, 0.0, 0.0]]), 1.0)


# ------------------------------------------------------------ Weyl probe


def test_weyl_probe_flat_trivial():
    pts = np.array([1.0, 1.0, 0, 0, 0]) + np.linspace(0.01, 0.2, 8)[:, None] * \
        np.array([0.0, 1, 0, 0, 0])
    assert np.max(np.abs(C.weyl(G0, pts))) == 0.0
