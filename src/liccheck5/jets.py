"""Truncated Taylor jets (order <= 3) with batched numpy storage.

A Jet carries the value and the plain (non-factorial) partial derivatives of a
field up to a truncation order, at a batch of points.  A tensor field keeps
its tensor axes T after the batch axes, and the derivative axes come last:

    val   (..., *T)           field value
    grad  (..., *T, n)        first partials
    hess  (..., *T, n, n)     second partials, symmetric
    third (..., *T, n, n, n)  third partials, symmetric

A scalar field has no tensor axes.  ``jet[i, j]`` picks tensor entries,
``stack`` builds a tensor jet from scalar jets and ``jeinsum`` contracts
tensor axes.

Arithmetic propagates derivatives by the Leibniz rule; unary functions go
through the chain rule (Faa di Bruno through order 3).  The ``order``
attribute tracks how many derivative levels are trustworthy; differentiating
drops it by one.  Batch shapes broadcast like numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, OrderError, SingularMetricError

__all__ = [
    "Jet",
    "seed",
    "constant",
    "extract",
    "stack",
    "jeinsum",
    "jmat_inv",
    "central_diff",
]


class Jet:
    __slots__ = ("val", "grad", "hess", "third", "order", "dim")
    __array_ufunc__ = None      # numpy operands defer to the jet's own ops
    __iter__ = None             # index tensor axes explicitly, see __getitem__

    def __init__(self, val, grad=None, hess=None, third=None, order=None, dim=None):
        self.val = np.asarray(val)
        self.grad = None if grad is None else np.asarray(grad)
        self.hess = None if hess is None else np.asarray(hess)
        self.third = None if third is None else np.asarray(third)
        if order is None:
            order = 0
            if self.grad is not None:
                order = 1
            if self.hess is not None:
                order = 2
            if self.third is not None:
                order = 3
        self.order = order
        if dim is not None:
            self.dim = dim
        elif self.grad is not None:
            self.dim = self.grad.shape[-1]
        else:
            self.dim = 0
        if order >= 1 and self.grad is None:
            raise OrderError("order %d jet is missing grad" % order)
        if order >= 2 and self.hess is None:
            raise OrderError("order %d jet is missing hess" % order)
        if order >= 3 and self.third is None:
            raise OrderError("order %d jet is missing third" % order)

    # -- helpers -------------------------------------------------------

    def _coerce(self, other):
        """Turn a scalar/ndarray operand into (val, None-derivs) pseudo-jet."""
        if isinstance(other, Jet):
            return other
        return Jet(np.asarray(other), order=0, dim=self.dim)

    def conj(self):
        g = None if self.grad is None else self.grad.conj()
        h = None if self.hess is None else self.hess.conj()
        t = None if self.third is None else self.third.conj()
        return Jet(self.val.conj(), g, h, t, order=self.order, dim=self.dim)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        b = self._coerce(other)
        order = min(self.order, b.order) if isinstance(other, Jet) else self.order
        out = Jet(self.val + b.val, order=0, dim=max(self.dim, b.dim))
        if order >= 1:
            out.grad = _nadd(self.grad, b.grad)
        if order >= 2:
            out.hess = _nadd(self.hess, b.hess)
        if order >= 3:
            out.third = _nadd(self.third, b.third)
        out.order = order
        return out

    __radd__ = __add__

    def __neg__(self):
        g = None if self.grad is None else -self.grad
        h = None if self.hess is None else -self.hess
        t = None if self.third is None else -self.third
        return Jet(-self.val, g, h, t, order=self.order, dim=self.dim)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return self + (-other)
        return self + (-np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = self._coerce(other)
        order = min(self.order, b.order) if isinstance(other, Jet) else self.order
        av, bv = self.val, b.val
        out = Jet(av * bv, order=0, dim=max(self.dim, b.dim))
        ag, bg = self.grad, b.grad
        if order >= 1:
            out.grad = _nadd(None if ag is None else ag * _pad(bv, 1),
                             None if bg is None else bg * _pad(av, 1))
        if order >= 2:
            cross = None
            if ag is not None and bg is not None:
                cross = ag[..., :, None] * bg[..., None, :]
                cross = cross + np.swapaxes(cross, -1, -2)
            out.hess = _nadd(_nadd(
                None if self.hess is None else self.hess * _pad(bv, 2),
                None if b.hess is None else b.hess * _pad(av, 2)), cross)
        if order >= 3:
            t = _nadd(None if self.third is None else self.third * _pad(bv, 3),
                      None if b.third is None else b.third * _pad(av, 3))
            if self.hess is not None and bg is not None:
                t = _nadd(t, _sym_gh(bg, self.hess))
            if b.hess is not None and ag is not None:
                t = _nadd(t, _sym_gh(ag, b.hess))
            out.third = t
        out.order = order
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other))

    # -- chain rule ------------------------------------------------------

    def compose(self, f0, f1=None, f2=None, f3=None):
        """Jet of f(self) given derivatives f', f'', f''' of f at self.val."""
        out = Jet(f0, order=0, dim=self.dim)
        order = self.order
        g = self.grad
        if order >= 1:
            out.grad = f1[..., None] * g
        if order >= 2:
            gg = g[..., :, None] * g[..., None, :]
            out.hess = f1[..., None, None] * self.hess + f2[..., None, None] * gg
        if order >= 3:
            ggg = g[..., :, None, None] * g[..., None, :, None] * g[..., None, None, :]
            out.third = (
                f1[..., None, None, None] * self.third
                + f2[..., None, None, None] * _sym_gh(g, self.hess)
                + f3[..., None, None, None] * ggg
            )
        out.order = order
        return out

    def sqrt(self):
        v = self.val
        if np.iscomplexobj(v):
            raise DomainError("sqrt of a complex jet is not supported")
        if np.any(v <= 0):
            raise DomainError("sqrt needs strictly positive values")
        f0 = np.sqrt(v)
        return self.compose(f0, 0.5 / f0, -0.25 / (f0 * v), 0.375 / (f0 * v * v))

    def ln(self):
        v = self.val
        if np.iscomplexobj(v):
            raise DomainError("ln of a complex jet is not supported")
        if np.any(v <= 0):
            raise DomainError("ln needs strictly positive values")
        iv = 1.0 / v
        return self.compose(np.log(v), iv, -iv * iv, 2.0 * iv * iv * iv)

    def reciprocal(self):
        v = self.val
        if np.any(v == 0):
            raise DomainError("reciprocal of zero")
        iv = 1.0 / v
        i2 = iv * iv
        return self.compose(iv, -i2, 2.0 * i2 * iv, -6.0 * i2 * i2)

    def pow_int(self, p):
        if not isinstance(p, (int, np.integer)):
            raise DomainError("pow_int exponent must be an integer")
        p = int(p)
        if p < 0:
            return self.reciprocal().pow_int(-p)
        v = self.val
        zero = np.zeros_like(v)

        def term(k):
            c = 1
            for t in range(k):
                c *= p - t
            # nonzero falling factorial implies p - k >= 0, so no 0**negative
            return c * np.power(v, p - k) if c else zero

        return self.compose(np.power(v, p), term(1), term(2), term(3))

    # -- tensor axes and differentiation -----------------------------------

    def __getitem__(self, idx):
        """Index the trailing tensor axes; a full index gives a scalar jet."""
        idx = (Ellipsis,) + (idx if isinstance(idx, tuple) else (idx,))
        arrs = [self.val[idx]]
        for k, a in enumerate((self.grad, self.hess, self.third)[:self.order], 1):
            arrs.append(a[idx + (slice(None),) * k])
        return Jet(*arrs, order=self.order, dim=self.dim)

    def d(self):
        """All first partials as a new trailing tensor axis, one order lower."""
        if self.order < 1:
            raise OrderError("cannot differentiate an order-0 jet")
        return Jet(self.grad, *(self.hess, self.third)[:self.order - 1],
                   order=self.order - 1, dim=self.dim)

    def truncate(self, order):
        """The same jet carried only through the given derivative order."""
        if self.order <= order:
            return self
        return Jet(self.val, *(self.grad, self.hess, self.third)[:order],
                   order=order, dim=self.dim)

    def partial(self, i):
        """The i-th partial derivative as a jet one order lower."""
        return self.d()[i]


def _nadd(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _pad(scal, k):
    """Append k broadcast axes so a value array lines up with derivative axes."""
    return np.asarray(scal)[(...,) + (None,) * k]


def _sym3(p):
    """p_ijk + p_jik + p_kij over the trailing axes: with p = g_i h_jk (h
    symmetric) this is the symmetrized g_i h_jk + g_j h_ik + g_k h_ij."""
    n = p.ndim
    return (p + np.swapaxes(p, n - 3, n - 2)
            + p.transpose(tuple(range(n - 3)) + (n - 2, n - 1, n - 3)))


def _sym_gh(g, h):
    """Symmetrized g_i h_jk + g_j h_ik + g_k h_ij."""
    return _sym3(g[..., :, None, None] * h[..., None, :, :])


def seed(points, order=3):
    """Coordinate jets at a batch of points; points shape (..., n)."""
    points = np.asarray(points, dtype=float)
    n = points.shape[-1]
    base = points.shape[:-1]
    out = []
    for i in range(n):
        g = np.zeros(base + (n,))
        g[..., i] = 1.0
        j = Jet(points[..., i], g,
                np.zeros(base + (n, n)) if order >= 2 else None,
                np.zeros(base + (n, n, n)) if order >= 3 else None,
                order=order, dim=n)
        out.append(j)
    return out


def constant(value, dim, order=3, shape=()):
    """A jet with the given value at every point of the batch shape and
    vanishing derivatives; the value's own axes become tensor axes after
    the batch axes."""
    value = np.asarray(value)
    base = tuple(shape) + value.shape
    val = np.broadcast_to(value, base).copy()
    dt = val.dtype if val.dtype.kind == "c" else float
    g = np.zeros(base + (dim,), dtype=dt) if order >= 1 else None
    h = np.zeros(base + (dim, dim), dtype=dt) if order >= 2 else None
    t = np.zeros(base + (dim, dim, dim), dtype=dt) if order >= 3 else None
    return Jet(val, g, h, t, order=order, dim=dim)


def extract(jet, alpha):
    """Plain partial derivative for the multi-index alpha (tuple, len n)."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != jet.dim and jet.dim > 0:
        raise OrderError("multi-index length %d does not match dim %d" % (len(alpha), jet.dim))
    if any(a < 0 for a in alpha):
        raise OrderError("negative entry in multi-index")
    k = sum(alpha)
    if k > jet.order:
        raise OrderError("order %d partial requested from an order-%d jet" % (k, jet.order))
    idx = []
    for i, a in enumerate(alpha):
        idx.extend([i] * a)
    if k == 0:
        return jet.val
    if k == 1:
        return jet.grad[..., idx[0]]
    if k == 2:
        return jet.hess[..., idx[0], idx[1]]
    return jet.third[..., idx[0], idx[1], idx[2]]


# -- tensor jets -------------------------------------------------------------


def _nest(nested):
    """(tensor shape, flat leaf list) of a nested list; leaves are non-lists."""
    if not isinstance(nested, (list, tuple)):
        return (), [nested]
    parts = [_nest(item) for item in nested]
    shapes = {shape for shape, _ in parts}
    if len(shapes) != 1:
        raise ValueError("ragged nesting: entries of shapes %s" % sorted(shapes))
    return (len(parts),) + shapes.pop(), [leaf for _, ls in parts for leaf in ls]


def stack(nested):
    """One tensor jet from a nested list of scalar jets.

    The nesting becomes the tensor axes, placed after the broadcast batch
    axes.  Plain numbers or arrays may stand in for constant entries; the
    result carries the lowest order among the jet entries.
    """
    shape, leaves = _nest(nested)
    jets = [leaf for leaf in leaves if isinstance(leaf, Jet)]
    if not jets:
        raise ValueError("stack needs at least one Jet entry")
    order = min(j.order for j in jets)
    dim = max(j.dim for j in jets)
    base = np.broadcast_shapes(*[np.shape(leaf.val if isinstance(leaf, Jet) else leaf)
                                 for leaf in leaves])

    def level(k):
        parts = []
        for leaf in leaves:
            if isinstance(leaf, Jet):
                arr = (leaf.val, leaf.grad, leaf.hess, leaf.third)[k]
            else:
                arr = leaf if k == 0 else 0.0
            parts.append(np.broadcast_to(arr, base + (dim,) * k))
        return np.stack(parts, axis=len(base)).reshape(base + shape + (dim,) * k)

    return Jet(level(0), *[level(k) if k <= order else None for k in (1, 2, 3)],
               order=order, dim=dim)


def jeinsum(spec, A, B=None):
    """Einsum over the tensor axes of jets, derivatives by the Leibniz rule.

    ``spec`` names tensor axes only (e.g. "kl,lij->kij"); batch axes lead and
    broadcast, derivative axes trail and are handled here.  A plain ndarray
    operand is a constant.  The result carries min(A.order, B.order); with a
    single operand the spec permutes or traces tensor axes.
    """
    x, y, z = [c for c in "xyzXYZ" if c not in spec][:3]
    if B is None:
        ins, out = spec.split("->")
        arrs = (A.val, A.grad, A.hess, A.third)
        return Jet(*[np.einsum("...%s%s->...%s%s" % (ins, d, out, d), arrs[k])
                     for k, d in enumerate(("", x, x + y, x + y + z)[:A.order + 1])],
                   order=A.order, dim=A.dim)
    sa, rest = spec.split(",")
    sb, out = rest.split("->")
    jets = [j for j in (A, B) if isinstance(j, Jet)]
    order = min(j.order for j in jets)
    dim = max(j.dim for j in jets)
    a = _levels(A)
    b = _levels(B)

    def term(ka, kb, da, db, dout=None):
        if a[ka] is None or b[kb] is None:
            return None
        dout = da + db if dout is None else dout
        return np.einsum("...%s%s,...%s%s->...%s%s" % (sa, da, sb, db, out, dout),
                         a[ka], b[kb])

    val = term(0, 0, "", "")
    grad = hess = third = None
    if order >= 1:
        grad = _nadd(term(1, 0, x, ""), term(0, 1, "", x))
    if order >= 2:
        cross = term(1, 1, x, y)
        hess = _nadd(_nadd(term(2, 0, x + y, ""), term(0, 2, "", x + y)),
                     None if cross is None else cross + np.swapaxes(cross, -1, -2))
    if order >= 3:
        t12 = term(1, 2, x, y + z)
        t21 = term(2, 1, y + z, x, x + y + z)
        third = _nadd(_nadd(_nadd(term(3, 0, x + y + z, ""), term(0, 3, "", x + y + z)),
                            None if t12 is None else _sym3(t12)),
                      None if t21 is None else _sym3(t21))
    return Jet(val, grad, hess, third, order=order, dim=dim)


def _levels(j):
    if isinstance(j, Jet):
        return (j.val, j.grad, j.hess, j.third)
    return (np.asarray(j), None, None, None)


def jmat_inv(A):
    """Inverse of a square tensor jet via a Neumann series at the point value.

    With A = A0 + N (A0 the plain value, N vanishing at the points), the
    inverse through third order is sum_k (-A0^-1 N)^k A0^-1, k <= order.
    """
    try:
        inv0 = np.linalg.inv(A.val)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError(str(exc)) from None
    if not np.all(np.isfinite(inv0)):
        raise SingularMetricError("metric value matrix is singular")
    if A.order == 0:
        return Jet(inv0, order=0, dim=A.dim)
    N = Jet(np.zeros_like(A.val), A.grad, A.hess, A.third, order=A.order, dim=A.dim)
    M = jeinsum("ij,jk->ik", -inv0, N)   # vanishing value: the series terminates
    out = term = inv0
    for _ in range(A.order):
        term = jeinsum("ij,jk->ik", M, term)
        out = term + out
    return out


# -- finite differences (oracle support) --------------------------------------


def central_diff(f, x, alpha, h):
    """Central finite difference of a scalar callable for multi-index alpha.

    f maps an (..., n) point array to values; nested first differences with
    step h are applied once per derivative.
    """
    x = np.asarray(x, dtype=float)
    idx = []
    for i, a in enumerate(alpha):
        idx.extend([i] * int(a))
    if not idx:
        return f(x)
    i, rest = idx[0], idx[1:]
    rest_alpha = [0] * len(alpha)
    for j in rest:
        rest_alpha[j] += 1
    xp = x.copy()
    xm = x.copy()
    xp[..., i] += h
    xm[..., i] -= h
    return (central_diff(f, xp, rest_alpha, h) - central_diff(f, xm, rest_alpha, h)) / (2 * h)
