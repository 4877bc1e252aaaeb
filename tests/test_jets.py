import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liccheck5 import geometry, jets
from liccheck5.errors import DomainError, OrderError, SingularMetricError
from liccheck5.verify import _eh_points

RNG_SEED = 20240817
FD_STEP = {1: 1e-5, 2: 1e-4, 3: 1e-3}
FD_TOL = {1: 1e-5, 2: 1e-4, 3: 1e-4}
N_EXPR = 200
N_PTS = 50


def _rel(a, b):
    return np.abs(a - b) / (1.0 + np.abs(a) + np.abs(b))


# ---------------------------------------------------------------- random exprs

def _rand_expr(rng, depth=0):
    """Random domain-safe composite expression: list[Jet] -> Jet."""
    n_ops = 9
    op = rng.integers(0, n_ops) if depth < 4 else rng.integers(0, 2)
    if op == 0:
        i = int(rng.integers(0, 5))
        return lambda xs: xs[i]
    if op == 1:
        c = float(rng.uniform(-2, 2))
        return lambda xs: xs[0] * 0 + c
    a = _rand_expr(rng, depth + 1)
    if op == 2:
        b = _rand_expr(rng, depth + 1)
        return lambda xs: a(xs) + b(xs)
    if op == 3:
        b = _rand_expr(rng, depth + 1)
        return lambda xs: a(xs) - b(xs)
    if op == 4:
        b = _rand_expr(rng, depth + 1)
        return lambda xs: a(xs) * b(xs)
    if op == 5:
        b = _rand_expr(rng, depth + 1)
        return lambda xs: a(xs) / (b(xs) * b(xs) + 1.0)
    if op == 6:
        return lambda xs: (a(xs) * a(xs) + 1.0).sqrt()
    if op == 7:
        return lambda xs: (a(xs) * a(xs) + 1.0).ln()
    p = int(rng.integers(2, 4))
    return lambda xs: a(xs).pow_int(p)


def _multi_indices(order):
    out = []
    for i in range(5):
        if order == 1:
            out.append((i,))
        else:
            for j in range(i, 5):
                if order == 2:
                    out.append((i, j))
                else:
                    out.extend((i, j, k) for k in range(j, 5))
    return out


def _alpha_of(idx):
    a = [0] * 5
    for i in idx:
        a[i] += 1
    return tuple(a)


def test_jet_partials_match_central_differences():
    rng = np.random.default_rng(RNG_SEED)
    worst = {1: 0.0, 2: 0.0, 3: 0.0}
    for _ in range(N_EXPR):
        expr = _rand_expr(rng)
        x = rng.uniform(-1.0, 1.0, size=(N_PTS, 5))
        jet = expr(jets.seed(x))

        def f(pts):
            return expr(jets.seed(pts, order=0)).val

        # residual norm per expression and order: the FD noise floor scales
        # with the expression magnitude, not with individual components
        for order in (1, 2, 3):
            h = FD_STEP[order]
            diff = scale_a = scale_b = 0.0
            for idx in _multi_indices(order):
                alpha = _alpha_of(idx)
                fd = jets.central_diff(f, x, alpha, h)
                if order == 3:
                    # one Richardson step: kills the h^2 truncation term that
                    # dominates for sharply composed expressions
                    fd = (4.0 * jets.central_diff(f, x, alpha, h / 2) - fd) / 3.0
                got = jets.extract(jet, alpha)
                diff = max(diff, float(np.max(np.abs(got - fd))))
                scale_a = max(scale_a, float(np.max(np.abs(got))))
                scale_b = max(scale_b, float(np.max(np.abs(fd))))
            worst[order] = max(worst[order], diff / (1.0 + scale_a + scale_b))
    for order in (1, 2, 3):
        assert worst[order] < FD_TOL[order], (order, worst[order])


# ------------------------------------------------------------------- exactness

def test_polynomial_jets_are_exact():
    # f = x0^2 x3 - 4 x1 x2 x4 + x2^3, all partials known in closed form
    x = np.random.default_rng(3).uniform(-2, 2, size=(7, 5))
    x0, x1, x2, x3, x4 = jets.seed(x)
    f = x0 * x0 * x3 - 4.0 * (x1 * x2 * x4) + x2.pow_int(3)
    a, b, c, d, e = [x[:, i] for i in range(5)]
    assert np.allclose(f.val, a * a * d - 4 * b * c * e + c**3, atol=1e-13)
    assert np.allclose(jets.extract(f, (1, 0, 0, 1, 0)), 2 * a, atol=1e-13)
    assert np.allclose(jets.extract(f, (0, 1, 1, 0, 1)), -4.0, atol=1e-13)
    assert np.allclose(jets.extract(f, (0, 0, 3, 0, 0)), 6.0, atol=1e-13)
    assert np.allclose(jets.extract(f, (2, 0, 0, 0, 0)), 2 * d, atol=1e-13)


def test_partial_drops_order_and_matches_slices():
    x = np.random.default_rng(5).uniform(0.3, 1.5, size=(4, 5))
    xs = jets.seed(x)
    f = (xs[0] * xs[1] + xs[2].pow_int(2)).sqrt()
    df = f.d()[1]
    assert df.order == 2
    assert np.allclose(df.val, f.grad[..., 1])
    assert np.allclose(df.grad, f.hess[..., 1, :])
    assert np.allclose(df.hess, f.third[..., 1, :, :])
    with pytest.raises(OrderError):
        df.d()[0].d()[2].d()[3]


def test_symmetry_of_higher_partials():
    x = np.random.default_rng(11).uniform(-1, 1, size=(6, 5))
    xs = jets.seed(x)
    f = (xs[0] * xs[3] + 2.0) / ((xs[1] * xs[1] + 0.9))
    assert np.allclose(f.hess, np.swapaxes(f.hess, -1, -2))
    assert np.allclose(f.third, np.transpose(f.third, axes=(0, 2, 3, 1)))
    assert np.allclose(f.third, np.transpose(f.third, axes=(0, 3, 1, 2)))


@given(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_product_rule_single_point(u, v):
    x = np.array([[u, v, 0.3, -0.4, 1.1]])
    xs = jets.seed(x)
    lhs = (xs[0] + xs[1]) * (xs[0] - xs[1])
    rhs = xs[0] * xs[0] - xs[1] * xs[1]
    assert np.allclose(lhs.val, rhs.val, atol=1e-12)
    assert np.allclose(lhs.grad, rhs.grad, atol=1e-12)
    assert np.allclose(lhs.hess, rhs.hess, atol=1e-12)
    assert np.allclose(lhs.third, rhs.third, atol=1e-12)


@given(st.floats(min_value=0.2, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_sqrt_squares_back(u):
    x = np.array([[u, 0.5, 0.1, 0.2, 0.3]])
    xs = jets.seed(x)
    f = xs[0] * xs[0] + xs[1]
    g = f.sqrt()
    gg = g * g
    assert np.allclose(gg.val, f.val, atol=1e-11)
    assert np.allclose(gg.grad, f.grad, atol=1e-11)
    assert np.allclose(gg.hess, f.hess, atol=1e-10)
    assert np.allclose(gg.third, f.third, atol=1e-9)


def test_domain_errors():
    xs = jets.seed(np.array([[0.5, -1.0, 0.0, 0.2, 0.9]]))
    with pytest.raises(DomainError):
        xs[1].sqrt()
    with pytest.raises(DomainError):
        xs[1].ln()
    with pytest.raises(DomainError):
        xs[2].reciprocal()
    with pytest.raises(DomainError):
        xs[0].pow_int(1.5)
    with pytest.raises(DomainError):
        xs[0].pow_int(np.array([-1]))
    with pytest.raises(DomainError):
        xs[0].pow_int(np.array([2.0]))


def test_pow_int_takes_an_exponent_per_point():
    rng = np.random.default_rng(8)
    xs = jets.seed(rng.uniform(-2.0, 2.0, size=(60, 5)))
    f = xs[0] * xs[1] + (xs[2] * xs[2] + 0.5).sqrt()
    p = rng.integers(0, 6, 60)
    batch = f.pow_int(p)
    for i in range(60):
        alone = jets.Jet(*[lv[i:i + 1] for lv in f.levels]).pow_int(int(p[i]))
        for k in range(4):
            assert np.array_equal(batch.levels[k][i], alone.levels[k][0])


def test_extract_validates_order_and_index():
    xs = jets.seed(np.zeros((2, 5)), order=2)
    f = xs[0] * xs[1]
    with pytest.raises(OrderError):
        jets.extract(f, (2, 1, 0, 0, 0))
    with pytest.raises(OrderError):
        jets.extract(f, (1, -1, 0, 0, 0))
    assert np.allclose(jets.extract(f, (0, 0, 0, 0, 0)), f.val)


def test_constant_and_scalar_mixing():
    x = np.random.default_rng(2).uniform(-1, 1, size=(3, 5))
    xs = jets.seed(x)
    c = jets.constant(2.5, dim=5)
    f = c * xs[0] + 1.0
    assert np.allclose(f.val, 2.5 * x[:, 0] + 1.0)
    assert np.allclose(f.grad[:, 0], 2.5)
    assert np.allclose(f.hess, 0.0)
    # scalar on the left
    g = 3.0 - xs[1] / 2.0
    assert np.allclose(g.val, 3.0 - x[:, 1] / 2.0)
    assert np.allclose(g.grad[:, 1], -0.5)


def test_difference_is_the_sum_with_the_negation():
    """A - B, A - array and array - A subtract level by level, bit for bit
    the sum with the negated operand, keeping the lower order of two jets."""
    rng = np.random.default_rng(RNG_SEED + 3)
    xs = jets.seed(rng.uniform(-0.5, 0.5, size=(6, 5)), order=3)
    A = _random_tensor_jet(rng, xs, (3, 2))
    B = _random_tensor_jet(rng, xs, (3, 2))
    c = rng.normal(size=(6, 3, 2))
    cases = [(A - B, A + (-B)), (A - B.truncate(1), A + (-B.truncate(1))),
             (A - c, A + (-c)), (A - 2.5, A + (-2.5)), (c - A, (-A) + c)]
    for got, want in cases:
        assert got.order == want.order
        assert all(np.array_equal(a, b)
                   for a, b in zip(got.levels, want.levels))


def test_complex_jets_conjugation():
    x = np.random.default_rng(7).uniform(-1, 1, size=(4, 5))
    xs = jets.seed(x)
    z = xs[1] * 1.0 + (1j) * xs[2]
    zbar = xs[1] * 1.0 + (-1j) * xs[2]
    m = z * zbar
    assert np.allclose(m.val.imag, 0.0, atol=1e-14)
    assert np.allclose(m.val.real, x[:, 1] ** 2 + x[:, 2] ** 2, atol=1e-13)
    assert np.allclose(m.hess.imag, 0.0, atol=1e-14)


def test_jet_matrix_inverse_roundtrip():
    rng = np.random.default_rng(13)
    x = rng.uniform(0.2, 0.9, size=(6, 5))
    xs = jets.seed(x)
    n = 3
    A = jets.stack([[xs[i] * xs[j] * 0.3 + (1.0 if i == j else 0.0)
                     for j in range(n)] for i in range(n)])
    Ainv = jets.jmat_inv(A)
    I = jets.jeinsum("ij,jk->ik", A, Ainv)
    for i in range(n):
        for j in range(n):
            tgt = 1.0 if i == j else 0.0
            assert np.allclose(I[i, j].val, tgt, atol=1e-12)
            assert np.allclose(I[i, j].grad, 0.0, atol=1e-11)
            assert np.allclose(I[i, j].hess, 0.0, atol=1e-10)
            assert np.allclose(I[i, j].third, 0.0, atol=1e-9)


def test_jmat_inv_singular_raises():
    xs = jets.seed(np.zeros((1, 5)))
    A = jets.stack([[xs[0] * 0 + 1.0, xs[0] * 0 + 1.0],
                    [xs[0] * 0 + 1.0, xs[0] * 0 + 1.0]])
    with pytest.raises(SingularMetricError):
        jets.jmat_inv(A)


# ------------------------------------------------------------ tensor jets

def _random_tensor_jet(rng, xs, shape):
    """Tensor jet whose entries are random rational functions of the
    coordinates, built entry by entry with the scalar engine."""
    def entry():
        i, j, k = (int(v) for v in rng.integers(0, 5, 3))
        c = rng.normal(size=3)
        return (c[0] * xs[i] * xs[j] + c[1]) * (c[2] * xs[k] + 3.0).reciprocal()

    def nest(shape):
        if not shape:
            return entry()
        return [nest(shape[1:]) for _ in range(shape[0])]
    return jets.stack(nest(shape))


def _assert_jets_close(got, want, order):
    for name in ("val", "grad", "hess", "third")[:order + 1]:
        a, b = getattr(got, name), getattr(want, name)
        assert np.max(_rel(a, b)) < 1e-13, name


def test_jeinsum_matches_scalar_products():
    rng = np.random.default_rng(RNG_SEED + 1)
    xs = jets.seed(rng.uniform(-0.5, 0.5, size=(6, 5)), order=3)
    A = _random_tensor_jet(rng, xs, (3, 4, 2))
    B = _random_tensor_jet(rng, xs, (4, 3))
    got = jets.jeinsum("ijk,jl->lik", A, B)
    assert got.order == 3 and got.val.shape == (6, 3, 3, 2)
    for l in range(3):
        for i in range(3):
            for k in range(2):
                want = A[i, 0, k] * B[0, l]
                for j in range(1, 4):
                    want = want + A[i, j, k] * B[j, l]
                _assert_jets_close(got[l, i, k], want, 3)


def test_jeinsum_orders_constants_and_traces():
    rng = np.random.default_rng(RNG_SEED + 2)
    xs = jets.seed(rng.uniform(-0.5, 0.5, size=(5, 5)), order=3)
    A = _random_tensor_jet(rng, xs, (3, 3))
    B = _random_tensor_jet(rng, xs, (3,)).truncate(2)
    got = jets.jeinsum("ij,j->i", A, B)
    assert got.order == 2 and got.third is None
    M = rng.normal(size=(3, 3))
    scaled = jets.jeinsum("ij,jk->ik", A, M)     # a plain array is a constant
    tr = jets.jeinsum("ii->", A)
    for i in range(3):
        want = A[i, 0] * B[0] + A[i, 1] * B[1] + A[i, 2] * B[2]
        _assert_jets_close(got[i], want, 2)
        for k in range(3):
            want = A[i, 0] * M[0, k] + A[i, 1] * M[1, k] + A[i, 2] * M[2, k]
            _assert_jets_close(scaled[i, k], want, 3)
    _assert_jets_close(tr, A[0, 0] + A[1, 1] + A[2, 2], 3)
    d = A.d()
    assert d.order == 2 and d.val.shape == (5, 3, 3, 5)
    _assert_jets_close(d[1, 2, 4], A[1, 2].d()[4], 2)


# The (first operand, second operand, output) derivative letters of the
# terms jeinsum adds at derivative level 1, 2 and 3; an output of None
# takes the first operand's letters, then the second's.
TERMS = {1: [("x", "", None), ("", "x", None)],
         2: [("xy", "", None), ("", "xy", None), ("x", "y", None)],
         3: [("xyz", "", None), ("", "xyz", None), ("x", "yz", None),
             ("yz", "x", "xyz")]}


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("spec, shapes", [
    ("kl,ijl->kij", ((5, 5), (5, 5, 5))),
    ("lim,mjk->lkij", ((5, 5, 5), (5, 5, 5))),
    ("lun,ni->liu", ((5, 5, 5), (5, 5))),
    (",ij->ij", ((), (5, 5))),
    ("lm,liu->miu", ((5, 5), (5, 5, 5))),
    ("miu,mj->iju", ((5, 5, 5), (5, 5))),
    ("un,ni->iu", ((5, 5), (5, 5))),
    ("ij,jk->ik", ((5, 5), (5, 5))),
    ("m,m->", ((5,), (5,))),
])
def test_matmul_and_plain_contractions_agree(spec, shapes, order):
    """contract, one batched matmul, gives np.einsum's result to round-off
    on the terms jeinsum runs with these tensor specs, and a point alone
    gives the bits it has in the batch."""
    rng = np.random.default_rng(RNG_SEED + 3)
    n = 40
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    for da, db, dout in TERMS[order]:
        sub = "%s%s,%s%s->%s%s" % (sa, da, sb, db, out, dout or da + db)
        a = rng.normal(size=(n,) + shapes[0] + (5,) * len(da))
        b = rng.normal(size=(n,) + shapes[1] + (5,) * len(db))
        got = jets.contract(sub, a, b)
        want = np.einsum("..." + sub.replace(",", ",...").replace("->", "->..."),
                         a, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        for p in (0, 17, n - 1):
            assert np.array_equal(jets.contract(sub, a[p:p + 1], b[p:p + 1]),
                                  got[p:p + 1])


def test_contract_broadcasts_a_constant_operand():
    """An operand without batch axes, such as the Dirac operator's
    eps_k gamma_k, meets a batch of complex values; and batch axes of
    different ranks broadcast as in np.matmul."""
    rng = np.random.default_rng(RNG_SEED + 4)
    const = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    cov = rng.normal(size=(40, 5, 4)) + 1j * rng.normal(size=(40, 5, 4))
    got = jets.contract("kab,kb->a", const, cov)
    want = np.einsum("kab,...kb->...a", const, cov)
    assert got.shape == (40, 4)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(jets.contract("kab,kb->a", const, cov[3:4]), got[3:4])
    a, b = rng.normal(size=(6, 3, 3)), rng.normal(size=(2, 6, 3))
    got = jets.contract("ij,j->i", a, b)
    want = np.einsum("...ij,...j->...i", a, b)
    assert got.shape == (2, 6, 3)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_contract_bits_do_not_depend_on_the_operands_layout():
    """np.matmul picks its kernel by its operands' memory layout, so
    contract runs it on C-contiguous operands: a strided view (here the
    batch axis innermost in memory, as advanced indexing returns a gather)
    and its contiguous copy give the same bits."""
    rng = np.random.default_rng(RNG_SEED + 6)
    for n, m in ((5, 4), (5, 7), (4, 2)):
        view = np.moveaxis(rng.normal(size=(n, n, m, 40)), -1, 0)
        f = rng.normal(size=(40, m))
        assert not view.flags.c_contiguous
        assert np.array_equal(jets.contract("ijt,t->ij", view, f),
                              jets.contract("ijt,t->ij",
                                            np.ascontiguousarray(view), f))


@pytest.mark.parametrize("spec, shapes", [
    ("ii,i->", ((3, 3), (3,))),          # a letter twice in one operand
    ("ij,k->ik", ((3, 3), (3,))),        # j summed over one operand only
    ("ij,j->ik", ((3, 3), (3,))),        # k in no operand
    ("ij,ij->i", ((3, 3), (3, 3))),      # i kept from both operands
    ("ij,j->i", ((3, 3), (4,))),         # summed axes that differ
    ("ijk,k->ij", ((3, 3), (3,))),       # more letters than axes
])
def test_contract_refuses_what_one_matmul_cannot_run(spec, shapes):
    with pytest.raises(ValueError):
        jets.contract(spec, np.ones(shapes[0]), np.ones(shapes[1]))


@pytest.mark.parametrize("count, cap", [(5, 5), (7, 3), (40, 13), (84, 83),
                                        (8301, 83)])
def test_blocks_are_equal_and_fill_one_output(count, cap, monkeypatch):
    """The block loop over metric jets (geometry._over_blocks) runs a batch
    over the cap in the fewest blocks of at most ``cap`` points, their
    sizes differing by at most one, and returns a batch within the cap as
    its one block's read; each block's read, a jet or an array, is written
    in place into one output, the unblocked one bit for bit."""
    spec = geometry.MetricSpec("eh", 1.0)
    y = _eh_points(1.0, RNG_SEED + 5, count)
    whole = geometry.metric_jets(spec, y, order=1)
    monkeypatch.setattr(geometry, "BLOCK_BYTES", cap * 8 * 4 ** 3)
    seen = []
    got = geometry._over_blocks("eh", 1.0, y, 1,
                                lambda g: seen.append(g) or g)
    sizes = [len(g.val) for g in seen]
    assert len(sizes) == -(-count // cap) and sum(sizes) == count
    assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1
    if count <= cap:
        assert got is seen[0]
    assert np.array_equal(got.val, whole.val)
    assert np.array_equal(got.grad, whole.grad)
    vals = geometry._over_blocks("eh", 1.0, y, 1, lambda g: g.grad)
    assert isinstance(vals, np.ndarray) and np.array_equal(vals, got.grad)


def _sym3_of_each(*ps):
    """The sum of p_ijk + p_jik + p_kij, symmetrized one product at a time."""
    return sum(p + np.swapaxes(p, -3, -2) + np.moveaxis(p, -3, -1) for p in ps)


def test_third_level_symmetrizes_the_sum_of_cross_terms():
    """One symmetrization of the summed cross terms equals the sum of the
    two symmetrized products, for Jet.__mul__ and for jeinsum."""
    rng = np.random.default_rng(RNG_SEED + 4)
    xs = jets.seed(rng.uniform(-0.5, 0.5, size=(30, 5)), order=3)
    u, v = (_random_tensor_jet(rng, xs, ()) for _ in range(2))
    a, b = u.levels, v.levels
    want = (a[3] * b[0][:, None, None, None] + b[3] * a[0][:, None, None, None]
            + _sym3_of_each(b[1][:, :, None, None] * a[2][:, None],
                            a[1][:, :, None, None] * b[2][:, None]))
    assert np.max(_rel((u * v).third, want)) < 1e-13

    U = _random_tensor_jet(rng, xs, (3, 3))
    W = _random_tensor_jet(rng, xs, (3, 3, 3))
    a, b = U.levels, W.levels
    e = np.einsum
    want = (e("...klxyz,...ijl->...kijxyz", a[3], b[0])
            + e("...kl,...ijlxyz->...kijxyz", a[0], b[3])
            + _sym3_of_each(e("...klx,...ijlyz->...kijxyz", a[1], b[2]),
                            e("...klyz,...ijlx->...kijxyz", a[2], b[1])))
    assert np.max(_rel(jets.jeinsum("kl,ijl->kij", U, W).third, want)) < 1e-13
