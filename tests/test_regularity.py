import numpy as np
import pytest

from liccheck5 import geometry as geo
from liccheck5 import regularity as R
from liccheck5 import verify as V
from liccheck5.errors import NonTransversalError, OrderError


def crossing(seed=3):
    return R.random_crossing_curve(np.random.default_rng(seed))


def vertex(seed=4):
    return R.vertex_curve(np.random.default_rng(seed))


def random_spec(rng):
    m = int(rng.integers(1, 4))
    s_l = int(rng.integers(-1, 3))
    q = int(rng.integers(max(0, s_l), max(0, s_l) + 2))
    draws = rng.integers(0, 5, q)
    li = [int(np.sum(draws == i)) for i in range(5)]
    return R.MonomialSpec(m, tuple([q - s_l] + li))


def test_monomial_spec_fields():
    ms = R.MonomialSpec(2, (1, 3, 0, 1, 0, 0))
    assert ms.s_l == 3
    assert ms.predicted_class == 2
    neg = R.MonomialSpec(1, (2, 1, 0, 0, 0, 0))
    assert neg.s_l == -1
    assert neg.predicted_class == 0
    assert R.RO2.m == 2 and R.RO2.s_l == 0 and R.RO2.predicted_class == 2


def test_monomial_spec_validation():
    with pytest.raises(ValueError):
        R.MonomialSpec(0, (0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        R.MonomialSpec(1, (0, -1, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        R.MonomialSpec(1, (0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        R.MonomialSpec(1.5, (0, 0, 0, 0, 0, 0))


def test_ro2_is_c1():
    rep = R.smoothness_probe(R.RO2, crossing())
    assert rep.verdicts == ("continuous", "continuous", "jump", "jump")
    assert rep.smoothness_class == 1
    rep = R.smoothness_probe(R.RO2, vertex())
    assert rep.verdicts == ("continuous", "continuous", "jump", "divergent")
    assert rep.smoothness_class == 1


def test_ro_times_order_zero_monomial():
    ms = R.MonomialSpec(1, (0, 0, 0, 0, 0, 0))
    rep = R.smoothness_probe(ms, crossing())
    assert rep.verdicts == ("continuous", "jump", "jump", "jump")
    assert rep.smoothness_class == 0
    rep = R.smoothness_probe(ms, vertex())
    assert rep.verdicts == ("continuous", "jump", "divergent", "divergent")


def test_ga_component_c1_not_c2():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rep = R.smoothness_probe(("ga", 0, 0), R.random_crossing_curve(rng))
        assert rep.verdicts[:3] == ("continuous", "continuous", "jump")
        assert rep.smoothness_class == 1


def test_vertex_detects_negative_order():
    ms = R.MonomialSpec(2, (1, 0, 0, 0, 0, 0))     # k = 1
    assert R.smoothness_probe(ms, crossing()).smoothness_class == 1
    assert R.smoothness_probe(ms, vertex()).smoothness_class == 0
    reports, overall = R.probe_family(ms, n_curves=3, seed=1)
    assert overall == 0


def test_not_even_continuous():
    ms = R.MonomialSpec(1, (1, 0, 0, 0, 0, 0))     # k = 0
    rep = R.smoothness_probe(ms, vertex())
    assert rep.verdicts == ("jump", "divergent", "divergent", "divergent")
    assert rep.smoothness_class == -1


def test_smooth_through_probed_orders():
    ms = R.MonomialSpec(4, (0, 0, 0, 0, 0, 0))     # k = 4, beyond order 3
    reports, overall = R.probe_family(ms, n_curves=2, seed=2)
    assert overall is None
    assert all(r.smoothness_class is None for r in reports)


def test_randomized_specs_match_prediction():
    rng = np.random.default_rng(77)
    for trial in range(30):
        ms = random_spec(rng)
        _, cls = R.probe_family(ms, n_curves=3, seed=trial)
        if ms.predicted_class <= 3:
            assert cls == ms.predicted_class - 1, ms
        else:
            assert cls is None, ms


def test_probe_guards():
    for order in (-1, 4):
        with pytest.raises(OrderError, match="must be in 0..3, got %d" % order):
            R.smoothness_probe(R.RO2, crossing(), max_order=order)
    # a curve running along a cone generator never leaves it
    tangent = R.CrossingCurve([1.0, 1, 0, 0, 0], [1.0, 1, 0, 0, 0])
    with pytest.raises(NonTransversalError):
        R.smoothness_probe(R.RO2, tangent)
    # a curve with both legs on the same side does not cross
    inside = R.CrossingCurve([2.0, 0.3, 0, 0, 0], [0.0, 0.1, 0, 0, 0])
    with pytest.raises(NonTransversalError):
        R.smoothness_probe(R.RO2, inside)
    with pytest.raises(ValueError):
        R.smoothness_probe(("nope",), crossing())
    with pytest.raises(ValueError):
        R.CrossingCurve(np.zeros(5), np.ones(5), t0=-1.0)


def test_point_takes_an_array_of_parameters():
    for curve in (crossing(), vertex()):
        ts = np.concatenate([curve.spacings(), -curve.spacings()])
        assert curve.point(ts[0]).shape == (5,)
        assert np.array_equal(curve.point(ts),
                              np.array([curve.point(t) for t in ts]))


NEGATIVE_ORDER = R.MonomialSpec(2, (1, 0, 0, 0, 0, 0))
MIXED = (("ga", 0, 0), R.RO2, NEGATIVE_ORDER,
         R.MonomialSpec(1, (0, 1, 2, 0, 1, 0)))


@pytest.mark.parametrize("field", [("ga", 0, 0), R.RO2, NEGATIVE_ORDER, MIXED],
                         ids=["ga", "ro2", "negative-order", "mixed"])
def test_family_batch_does_not_change_a_curve_report(field):
    rng = np.random.default_rng(21)
    curves = [R.random_crossing_curve(rng) for _ in range(3)]
    curves.append(R.vertex_curve(rng))
    if field is MIXED:                  # one field per curve, in one call
        fields = MIXED
        reports = R._probe_curves(fields, curves, 3, 1.0)
    else:
        fields = [field] * len(curves)
        reports, _ = R.probe_family(field, n_curves=3, seed=21)
    assert len(reports) == 4
    for tag, curve, rep in zip(fields, curves, reports):
        alone = R.smoothness_probe(tag, curve)
        assert rep.verdicts == alone.verdicts
        for name in ("gaps", "scales", "spacings"):
            assert np.array_equal(getattr(rep, name), getattr(alone, name))


def test_family_with_a_tangent_curve_raises():
    tangent = R.CrossingCurve([1.0, 1, 0, 0, 0], [1.0, 1, 0, 0, 0])
    with pytest.raises(NonTransversalError):
        R._probe_curves([R.RO2] * 3, [crossing(), tangent, vertex()], 3, 1.0)


def test_monomial_jets_vanish_on_an_interior_batch():
    x = np.array([[1.0, 0.2, 0.1, 0.0, 0.3], [-0.5, 0.1, 0.0, 0.2, 0.0],
                  [0.3, 0.0, 0.0, 0.0, 0.0]])
    jet = R._monomial_jets(np.array([1, 2, 3]),
                           np.array([[1, 0, 2, 0, 0, 0]] * 3), x, 3)
    for k, level in enumerate(jet.levels):
        assert level.shape == (3,) + (5,) * k
        assert not np.any(level)


@pytest.fixture
def field_calls(monkeypatch):
    """The batch size of every _field_jets call, in call order."""
    calls = []
    field_jets = R._field_jets

    def counted(*args):
        calls.append(len(args[1]))
        return field_jets(*args)

    monkeypatch.setattr(R, "_field_jets", counted)
    return calls


def test_family_probe_makes_two_field_calls_per_spacing(field_calls):
    R.probe_family(R.RO2, n_curves=3)
    assert len(field_calls) <= 2 * R.N_SPACINGS
    assert sum(field_calls) == 2 * 4 * R.N_SPACINGS    # both legs of 4 curves


def test_regularity_check_probes_each_field_in_one_batch(field_calls):
    # 12 fields: g_a's entry on 10 curves, r_o**2 and 10 monomials on
    # families of 3 curves plus the vertex; per spacing, one call per cone
    # side for the metric entry and one for the monomials
    res = V.run_suite(V.SuiteConfig(), only=["regularity-classes"])
    assert res.overall == "pass"
    assert len(field_calls) <= 4 * R.N_SPACINGS
    assert sum(field_calls) == (10 + 11 * 4) * 2 * R.N_SPACINGS


def test_dro_coefficients_bounded():
    # exterior points with radii spread over several decades; the
    # coefficients of dr_o are bounded by 2
    rng = np.random.default_rng(6)
    n = 4000
    r = 10.0 ** rng.uniform(-2.0, 2.0, n)
    x0 = r * rng.uniform(-1.0, 1.0, n)
    w = rng.normal(size=(n, 4))
    w /= np.linalg.norm(w, axis=1)[:, None]
    x = np.column_stack([x0, r[:, None] * w])
    x = x[geo.radial_values(x)[2] < 1.0]
    rad = geo.RadialJets(x, 1)
    sup = np.max(np.abs(rad.pullback(rad.ro)[0].grad))
    assert sup <= 2.0 * (1 + 1e-9)
    assert sup > 1.9


def test_weyl_decay_exponent():
    rng = np.random.default_rng(5)
    for _ in range(3):
        slope = R.weyl_decay_exponent(R.random_crossing_curve(rng))
        assert 1.85 <= slope <= 2.15
