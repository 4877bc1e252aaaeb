import numpy as np

from liccheck5 import geometry as G


def sample_ba(n, a=1.0, seed=0, lo=0.05, hi=None, box=1.6):
    """Rejection-sample points of the exterior shell with margins off the cone
    boundary and off r_o = 1/a."""
    hi = (1.0 / a - 0.05) if hi is None else hi
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        x = rng.uniform(-box, box, size=5)
        r = np.sqrt(np.sum(x[1:] ** 2))
        if r <= abs(x[0]):
            continue
        ro = (r * r - x[0] * x[0]) / r
        if lo < ro < hi:
            out.append(x)
    return np.array(out)


def sample_ca(n, a=1.0, seed=0, lo=0.05, camax=0.95, box=None):
    """Exterior-shell points restricted to the C_a neighbourhood of the cone
    (4 x0^2 rho < camax)."""
    box = 1.6 / a if box is None else box
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        x = rng.uniform(-box, box, size=5)
        r = np.sqrt(np.sum(x[1:] ** 2))
        if r <= abs(x[0]):
            continue
        ro = (r * r - x[0] * x[0]) / r
        if not (lo < ro < 1.0 / a - 0.05):
            continue
        rho = a ** 4 * ro ** 2 / (1.0 - (a * ro) ** 4)
        if 4.0 * x[0] ** 2 * rho < camax:
            out.append(x)
    return np.array(out)


def sample_l(n, seed=0, r_min=0.05, margin=0.1, box=1.6):
    """Points strictly inside the cone, off the axis and off the boundary."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        x = rng.uniform(-box, box, size=5)
        r = np.sqrt(np.sum(x[1:] ** 2))
        if r < r_min:
            continue
        if r < abs(x[0]) * (1.0 - margin):
            out.append(x)
    return np.array(out)


def jet_close(A, B, rtol=1e-9):
    """Max relative difference over all derivative arrays of two jet matrices."""
    worst = 0.0
    n, m = A.val.shape[-2:]
    for i in range(n):
        for j in range(m):
            a, b = A[i, j], B[i, j]
            for name in ("val", "grad", "hess", "third"):
                x, y = getattr(a, name), getattr(b, name)
                if x is None or y is None:
                    continue
                num = np.max(np.abs(x - y))
                den = 1.0 + np.max(np.abs(x)) + np.max(np.abs(y))
                worst = max(worst, num / den)
    return worst


def region_counts(x, a):
    tags = [G.classify(p, a).tag for p in np.atleast_2d(x)]
    out = {}
    for t in tags:
        out[t] = out.get(t, 0) + 1
    return out
