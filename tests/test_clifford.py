import numpy as np
import pytest

from liccheck5 import clifford as cl
from liccheck5.errors import FrameMismatchError, NotInSpinGroupError

G = cl.GAMMA
ID4 = np.eye(4)


def test_gamma_squares_exact():
    assert np.array_equal(G[0] @ G[0], ID4 + 0j)
    for i in range(1, 5):
        assert np.array_equal(G[i] @ G[i], -ID4 + 0j)


def test_gamma_anticommutators_exact():
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.array_equal(G[i] @ G[j] + G[j] @ G[i], np.zeros((4, 4)) + 0j)


def test_clifford_square_is_minus_norm():
    rng = np.random.default_rng(21)
    for _ in range(20):
        v = rng.normal(size=5)
        m = np.einsum("iab,i->ab", G, v)
        q = -v[0] ** 2 * cl.ETA[0, 0] - 0  # -g(v,v) = v0^2 - sum vi^2
        q = v[0] ** 2 - np.sum(v[1:] ** 2)
        assert np.allclose(m @ m, q * ID4, atol=1e-13)
    # complex vectors: bilinear extension
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    m = np.einsum("iab,i->ab", G, v)
    q = v[0] ** 2 - np.sum(v[1:] ** 2)
    assert np.allclose(m @ m, q * ID4, atol=1e-12)


def test_clifford_mul_and_frame_guard():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    phi = cl.SpinorValue(w, "e")
    v = rng.normal(size=(3, 5))
    out = cl.clifford_mul(v, "e", phi)
    manual = np.einsum("iab,ni,nb->na", G, v, w)
    assert np.allclose(out.w, manual, atol=1e-14)
    with pytest.raises(FrameMismatchError):
        cl.clifford_mul(v, "u", phi)


def test_inner_product_symmetries():
    rng = np.random.default_rng(9)
    wa = rng.normal(size=4) + 1j * rng.normal(size=4)
    wb = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi, psi = cl.SpinorValue(wa, "e"), cl.SpinorValue(wb, "e")
    assert np.isclose(cl.spinor_inner(phi, psi), np.conj(cl.spinor_inner(psi, phi)))
    # vector insertion is symmetric: <X.phi, psi> = <phi, X.psi>
    v = rng.normal(size=5)
    lhs = cl.spinor_inner(cl.clifford_mul(v, "e", phi), psi)
    rhs = cl.spinor_inner(phi, cl.clifford_mul(v, "e", psi))
    assert np.isclose(lhs, rhs, atol=1e-13)
    with pytest.raises(FrameMismatchError):
        cl.spinor_inner(phi, cl.SpinorValue(wb, "f"))


def test_spinor_square_components_are_real_pairings():
    rng = np.random.default_rng(14)
    w = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    phi = cl.SpinorValue(w, "e")
    p = cl.spinor_square_components(phi)
    for i in range(5):
        ei = np.zeros(5)
        ei[i] = 1.0
        direct = cl.spinor_inner(phi, cl.clifford_mul(ei, "e", phi))
        assert np.allclose(p[:, i], direct.real, atol=1e-12)
        assert np.max(np.abs(direct.imag)) < 1e-12


def test_spin_exp_boost_and_rotation():
    t = 0.37
    S = cl.spin_exp(t, 0, 1)
    lam = cl.lambda_of(S)
    expect = np.eye(5)
    expect[0, 0] = expect[1, 1] = np.cosh(t)
    expect[0, 1] = expect[1, 0] = -np.sinh(t)
    assert np.allclose(lam, expect, atol=1e-12)
    # any lift lands in O(1,4): lam^T eta lam = eta
    for (i, j) in [(0, 1), (1, 2), (2, 4), (3, 4), (0, 3)]:
        lam = cl.lambda_of(cl.spin_exp(0.9, i, j))
        assert np.allclose(lam.T @ cl.ETA @ lam, cl.ETA, atol=1e-12)
    # batched parameter
    ts = np.linspace(-1, 1, 7)
    Ss = cl.spin_exp(ts, 1, 2)
    assert Ss.shape == (7, 4, 4)
    assert np.allclose(Ss[3], np.eye(4), atol=1e-15)


def test_lambda_of_rejects_non_spin():
    with pytest.raises(NotInSpinGroupError):
        cl.lambda_of(np.diag([1.0, 2.0, 3.0, 4.0]))


def test_lambda_of_rotation():
    t = 0.51
    S = cl.spin_exp(t, 3, 4)
    lam = np.eye(5)
    lam[3, 3] = lam[4, 4] = np.cos(t)
    lam[3, 4], lam[4, 3] = -np.sin(t), np.sin(t)
    assert np.max(np.abs(cl.lambda_of(S) - lam)) < 1e-12
