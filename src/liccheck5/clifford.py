"""Gamma matrices on C^4 for signature (-,+,+,+,+), spinor pairings and the
vector representation of spin matrices.

Conventions: gamma_0^2 = +Id, gamma_i^2 = -Id (i = 1..4), pairwise
anticommuting, so X.X = -g(X,X) Id for the flat metric diag(-1,1,1,1,1).
Spinor components always refer to an orthonormal frame, tracked by a frame id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets as J
from .errors import FrameMismatchError, NonRealPairingError, NotInSpinGroupError
from .geometry import ETA

EPS = ETA.diagonal()

I = 1j

GAMMA = np.zeros((5, 4, 4), dtype=complex)

GAMMA[0, 0, 0] = -1
GAMMA[0, 1, 1] = -1
GAMMA[0, 2, 2] = 1
GAMMA[0, 3, 3] = 1

GAMMA[1, 0, 2] = -1
GAMMA[1, 1, 3] = 1
GAMMA[1, 2, 0] = 1
GAMMA[1, 3, 1] = -1

GAMMA[2, 0, 2] = -I
GAMMA[2, 1, 3] = -I
GAMMA[2, 2, 0] = -I
GAMMA[2, 3, 1] = -I

GAMMA[3, 0, 3] = -1
GAMMA[3, 1, 2] = -1
GAMMA[3, 2, 1] = 1
GAMMA[3, 3, 0] = 1

GAMMA[4, 0, 3] = -I
GAMMA[4, 1, 2] = I
GAMMA[4, 2, 1] = I
GAMMA[4, 3, 0] = -I

GAMMA.setflags(write=False)


@dataclass
class SpinorValue:
    """Spinor components (..., 4) with the frame they refer to."""

    w: np.ndarray
    frame: str

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=complex)


def spinor_inner(phi: SpinorValue, psi: SpinorValue):
    """Indefinite pairing <phi,psi> = (gamma_0 w_phi, w_psi), conjugate-linear
    in the first slot."""
    if phi.frame != psi.frame:
        raise FrameMismatchError("pairing needs a common frame")
    g0phi = np.einsum("ab,...b->...a", GAMMA[0], phi.w)
    return np.einsum("...a,...a->...", np.conj(g0phi), psi.w)


def spin_inverse(S):
    """S^-1 = gamma_0 S^dagger gamma_0 for S (..., 4, 4) in the spin group,
    whose elements keep the pairing of spinor_inner: S^dagger gamma_0 S =
    gamma_0."""
    return np.einsum("ab,...cb,cd->...ad", GAMMA[0], np.conj(S), GAMMA[0])


def spinor_square_components(phi: SpinorValue):
    """p_i = <phi, e_i . phi> for the frame basis vectors; imaginary parts must
    vanish (the pairing with a vector insertion is real)."""
    g0 = GAMMA[0]
    w = phi.w
    g0w = np.conj(np.einsum("ab,...b->...a", g0, w))
    p = J.contract("a,ia->i", g0w, J.contract("iab,b->ia", GAMMA, w))
    if np.max(np.abs(p.imag)) > 1e-10 * (1.0 + np.max(np.abs(p.real))):
        raise NonRealPairingError("max imag %g" % np.max(np.abs(p.imag)))
    return p.real


def lambda_of(S, tol=1e-10):
    """Vector representation of a spin matrix: S gamma(v) S^-1 = gamma(lambda v).

    Returns the real (..., 5, 5) matrix; raises NotInSpinGroupError when the
    conjugated basis does not stay in the span of the gammas (residual > tol)
    or the coefficients come out non-real.
    """
    S = np.asarray(S, dtype=complex)
    Sinv = np.linalg.inv(S)
    # M_j = S gamma_j S^-1; coefficients via tr(gamma_i^dagger M_j)/4
    M = np.einsum("...ab,jbc,...cd->...jad", S, GAMMA, Sinv, optimize=True)
    gdag = np.conj(np.swapaxes(GAMMA, -1, -2))
    lam = np.einsum("iba,...jab->...ij", gdag, M) / 4.0
    recon = np.einsum("...ij,iab->...jab", lam, GAMMA)
    resid = np.max(np.abs(recon - M))
    if resid > tol:
        raise NotInSpinGroupError("gamma reconstruction residual %g" % resid)
    if np.max(np.abs(lam.imag)) > tol:
        raise NotInSpinGroupError("non-real vector representation")
    return lam.real
