"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test here states a deliverable of the package as a single pass/fail
line; the module and unit test files carry the finer-grained coverage."""

import time

import numpy as np
import pytest

from liccheck5 import curvature as C
from liccheck5 import frames as F
from liccheck5 import geometry as geo
from liccheck5 import regularity as R
from liccheck5 import spingeo as S
from liccheck5 import verify as V

GA = geo.MetricSpec("ga", 1.0)
GAT = geo.MetricSpec("gatilde", 1.0)
ETA5 = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])
CFG = V.SuiteConfig()                      # 300 samples, seed 0


def _run(name, **cfg_kw):
    check = [c for c in V.REGISTRY if c.name == name][0]
    cfg = V.SuiteConfig(**cfg_kw) if cfg_kw else CFG
    parts = check.fn(cfg, V._seed_for(name, cfg.seed))
    res = np.concatenate([np.ravel(p.res) for p in parts]).astype(float)
    return res, sum(p.n if p.points is None else len(p.points) for p in parts)


def random_spec(rng):
    m = int(rng.integers(1, 4))
    s_l = int(rng.integers(-1, 3))
    q = int(rng.integers(max(0, s_l), max(0, s_l) + 2))
    draws = rng.integers(0, 5, q)
    li = [int(np.sum(draws == i)) for i in range(5)]
    return R.MonomialSpec(m, tuple([q - s_l] + li))


@pytest.fixture(scope="module")
def default_run():
    t0 = time.perf_counter()
    rep = V.run_suite(CFG)
    return rep, time.perf_counter() - t0


def test_gamma_relations_exact_and_fast():
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        res, n = _run("clifford-relations")
        times.append(time.perf_counter() - t0)
    assert n == 15
    assert np.max(res) == 0.0              # integer arithmetic, bit exact
    assert min(times) < 1e-3


def test_frame_orthonormal_across_the_family():
    for a in (0.5, 1.0, 2.0):
        x = V.sample("B_a", a, 500, seed=41)
        gv = geo.metric_jets(geo.MetricSpec("ga", a), x, order=0).val
        gram = F.gram_matrix(F.frame_eval("e", x, a, order=0).val, gv)
        assert np.max(V._norm_res(gram, ETA5)) < 1e-10, a


def test_rescaled_metric_is_a_product_and_ricci_flat():
    res, n = _run("product-structure")
    assert n >= 400 and np.max(res) < 1e-10
    res, n = _run("product-ricci-flat")
    assert n >= 300 and np.max(res) < 1e-8


def test_instanton_connection_curvature_and_duality():
    res, _ = _run("eh-connection-forms")
    assert np.max(res) < 1e-9
    res, _ = _run("eh-curvature-forms")
    assert np.max(res) < 1e-8
    res, n = _run("eh-anti-self-dual")
    assert n >= 100 and np.max(res) < 1e-9


def test_twistor_equation_for_the_spinor_family():
    for b, c in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        res, n = _run("twistor-equation", b=b, c=c)
        assert n == 400 and np.max(res) < 1e-8, (b, c)
        res, _ = _run("parallel-spinor", b=b, c=c)
        assert np.max(res) < 1e-9, (b, c)


def test_distinguished_field_is_conformal_killing():
    res, n = _run("conformal-killing")
    assert n >= 600 and np.max(res) < 1e-9


def test_spinor_square_identities_and_causal_type():
    res, _ = _run("spinor-square-field", b=0.6, c=-1.1)
    assert np.max(res) < 1e-9
    for i, region in enumerate(("B_a", "L")):
        x = V.sample(region, 1.0, 300, seed=61 + i, exclusion=0.02)
        gv = geo.metric_jets(GA, x, order=0).val.real
        Vt = C.vector_field_jets(x, order=0).val.real
        q = np.einsum('...ij,...i,...j->...', gv, Vt, Vt)
        d = np.sum(x[:, 1:] ** 2, axis=1) - x[:, 0] ** 2
        assert np.max(V._norm_res(q, -d ** 2)) < 1e-10, region
    mismatches, n = _run("causal-classification")
    assert n >= 300 and mismatches[0] == 0.0


def test_length_square_and_its_rescaling_pde():
    res, _ = _run("length-square", b=0.7, c=1.3)
    assert np.max(res) < 1e-12
    res, n = _run("einstein-rescale")
    assert n >= 300 and np.max(res) < 1e-7


def test_metric_extends_c1_but_not_c2():
    _, overall = R.probe_family(("ga", 0, 0), a=1.0, n_curves=10, seed=14)
    assert overall == 1                    # C1 across the cone, C2 fails
    for comp in ((0, 1), (1, 1), (1, 2)):
        _, cls = R.probe_family(("ga",) + comp, a=1.0, n_curves=2, seed=31)
        assert cls == 1, comp
    _, cls = R.probe_family(R.RO2, a=1.0, n_curves=10, seed=8)
    assert cls == 1
    rng = np.random.default_rng(77)
    for trial in range(30):
        ms = random_spec(rng)
        _, cls = R.probe_family(ms, a=1.0, n_curves=3, seed=trial)
        want = ms.predicted_class - 1 if ms.predicted_class <= 3 else None
        assert cls == want, (ms, cls, want)


def test_weyl_decay_witness_and_stated_scaling():
    rng = np.random.default_rng(10)
    slopes = [R.weyl_decay_exponent(R.random_crossing_curve(rng), a=1.0)
              for _ in range(5)]
    assert all(1.85 <= s <= 2.15 for s in slopes), slopes
    xb = V.sample("B_a", 1.0, 300, seed=77, exclusion=0.1)
    Wga = C.weyl(GA, xb)
    assert np.min(np.max(np.abs(Wga), axis=(1, 2, 3, 4))) > 1e-3
    xl = V.sample("L", 1.0, 100, seed=78, exclusion=0.02)
    assert np.max(np.abs(C.weyl(GA, xl))) == 0.0
    # stated scaling r_o^4 r^4, checked on the squared Weyl norms, each taken
    # in its own metric; g_a = (r^2-x0^2)^2 g~_a = r_o^2 r^2 g~_a, so the
    # lowered tensors differ by (r^2-x0^2)^2, the square root of that factor
    Wgt = C.weyl(GAT, xb)
    r2 = np.sum(xb[:, 1:] ** 2, axis=1)
    d = r2 - xb[:, 0] ** 2
    ro4r4 = (d ** 2 / r2) ** 2 * r2 ** 2

    def sq_norm(W, spec):
        gi = np.linalg.inv(
            geo.metric_jets(spec, xb, order=0).val.real)
        return np.einsum('nabcd,nefgh,nae,nbf,ncg,ndh->n',
                         W, W, gi, gi, gi, gi, optimize=True)

    norm_res = np.max(V._norm_res(sq_norm(Wgt, GAT), ro4r4 * sq_norm(Wga, GA)))
    assert norm_res < 1e-8, (
        "|W(g~_a)|^2 = r_o^4 r^4 |W(g_a)|^2 does not hold: residual %.3e"
        % norm_res)
    low_res = np.max(V._norm_res(Wga, (d ** 2)[:, None, None, None, None] * Wgt))
    assert low_res < 1e-8, (
        "lowered W(g_a) = (r^2-x0^2)^2 W(g~_a) does not hold: residual %.3e"
        % low_res)


def test_conformal_ricci_identity():
    res, n = _run("conformal-ricci")
    assert n >= 300 and np.max(res) < 1e-8


def test_dirac_square_converges_at_the_zero():
    probes = S.essentiality_probe(1.0, 0.0, a=1.0,
                                  radii=(0.3, 0.1, 0.03, 0.01, 0.003),
                                  n=12, seed=5)
    diffs, pr = [p.diff for p in probes], probes[-1]
    assert all(b < a for a, b in zip(diffs, diffs[1:])), diffs
    assert diffs[-1] < 1e-6 * (1.0 + np.max(np.abs(pr.rhs)))
    assert np.min(np.max(np.abs(pr.lhs), axis=1)) > 0.1   # limit is nonzero


def test_harness_speed_determinism_negative_control(default_run):
    rep, wall = default_run
    assert wall < 120.0
    assert rep.overall == "pass"
    again = V.run_suite(CFG)
    assert V.emit_report(again) == V.emit_report(rep)      # byte identical
    neg = V.run_suite(V.SuiteConfig(perturb=1e-3))
    verdicts = {c.name: c.verdict for c in neg.checks}
    assert verdicts["twistor-equation"] == "fail"
    assert all(v == "pass" for k, v in verdicts.items()
               if k != "twistor-equation")
