import numpy as np


def jet_close(A, B):
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

