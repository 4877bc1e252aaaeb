"""Truncated Taylor jets (order <= 3) with batched numpy storage.

A Jet is the tuple ``levels`` of the value and the plain (non-factorial)
partial derivatives of a field, at a batch of points, through its order
``len(levels) - 1``.  A tensor field keeps its tensor axes T after the batch
axes, and the derivative axes come last:

    val   (..., *T)           field value
    grad  (..., *T, n)        first partials
    hess  (..., *T, n, n)     second partials, symmetric
    third (..., *T, n, n, n)  third partials, symmetric

A scalar field has no tensor axes.  ``jet[i, j]`` picks tensor entries,
``stack`` builds a tensor jet from scalar jets and ``jeinsum`` contracts
tensor axes.

The names ``val`` ... ``third`` read the levels and give None past the
order.  Arithmetic propagates derivatives by the Leibniz rule and keeps the
lower order of two jets; a plain number or array is a constant, added to
the value or scaling every level.  Unary functions go through the chain rule (Faa di Bruno
through order 3); differentiating drops the order by one.  Batch shapes
broadcast like numpy arrays.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import prod

import numpy as np

from .errors import DomainError, OrderError, SingularMetricError

__all__ = [
    "Jet",
    "seed",
    "constant",
    "extract",
    "stack",
    "contract",
    "jeinsum",
    "jmat_inv",
    "central_diff",
]


def _level(k):
    """Read-only view of derivative level k; None past the jet's order."""
    return property(lambda self: self.levels[k] if k < len(self.levels) else None)


class Jet:
    __slots__ = ("levels",)
    __array_ufunc__ = None      # numpy operands defer to the jet's own ops
    __iter__ = None             # index tensor axes explicitly, see __getitem__

    def __init__(self, *levels):
        self.levels = tuple(map(np.asarray, levels))

    val, grad, hess, third = map(_level, range(4))

    @property
    def order(self):
        return len(self.levels) - 1

    @property
    def dim(self):
        """Number of coordinates the derivatives run over; 0 at order 0."""
        return self.levels[1].shape[-1] if len(self.levels) > 1 else 0

    # -- ring operations ------------------------------------------------
    # A plain number or array operand is a constant: a sum shifts the value,
    # a product scales every level.

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(*[a + b for a, b in zip(self.levels, other.levels)])
        return Jet(self.levels[0] + other, *self.levels[1:])

    __radd__ = __add__

    def __neg__(self):
        return Jet(*[-a for a in self.levels])

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(*[a - b for a, b in zip(self.levels, other.levels)])
        return Jet(self.levels[0] - other, *self.levels[1:])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(*[a * _pad(other, k) for k, a in enumerate(self.levels)])
        a, b = self.levels, other.levels
        order = min(len(a), len(b)) - 1
        out = [a[0] * b[0]]
        if order >= 1:
            out.append(a[1] * _pad(b[0], 1) + b[1] * _pad(a[0], 1))
        if order >= 2:
            cross = a[1][..., :, None] * b[1][..., None, :]
            out.append((a[2] * _pad(b[0], 2) + b[2] * _pad(a[0], 2))
                       + (cross + np.swapaxes(cross, -1, -2)))
        if order >= 3:
            out.append(a[3] * _pad(b[0], 3) + b[3] * _pad(a[0], 3)
                       + _sym3(_outer(b[1], a[2]) + _outer(a[1], b[2])))
        return Jet(*out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other))

    # -- chain rule ------------------------------------------------------

    def compose(self, f0, f1=None, f2=None, f3=None):
        """Jet of f(self) given derivatives f', f'', f''' of f at self.val."""
        g, h, order = self.grad, self.hess, self.order
        out = [f0]
        if order >= 1:
            out.append(f1[..., None] * g)
        if order >= 2:
            gg = g[..., :, None] * g[..., None, :]
            out.append(f1[..., None, None] * h + f2[..., None, None] * gg)
        if order >= 3:
            ggg = g[..., :, None, None] * g[..., None, :, None] * g[..., None, None, :]
            out.append(f1[..., None, None, None] * self.third
                       + f2[..., None, None, None] * _sym3(_outer(g, h))
                       + f3[..., None, None, None] * ggg)
        return Jet(*out)

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
        """self**p for an integer p, or per point for an array p of
        nonnegative integers broadcasting with the value."""
        v = self.val
        if isinstance(p, np.ndarray):
            if p.dtype.kind not in "iu" or np.any(p < 0):
                raise DomainError("pow_int exponent array must hold "
                                  "nonnegative integers")
            p = p.astype(np.int64)

            def power(e):
                # numpy squares for a scalar exponent 2; so do the points here
                e = np.maximum(e, 0)
                return np.where(e == 2, v * v, np.power(v, e))
        elif isinstance(p, (int, np.integer)):
            p = int(p)
            if p < 0:
                return self.reciprocal().pow_int(-p)
            power = partial(np.power, v)
        else:
            raise DomainError("pow_int exponent must be an integer")
        zero = np.zeros_like(v)

        def term(k):
            c = 1
            for t in range(k):
                c *= p - t
            # the term vanishes with the falling factorial c; where c is
            # nonzero, p - k >= 0, so no 0**negative
            return c * power(p - k) if np.any(c) else zero

        return self.compose(power(p), term(1), term(2), term(3))

    # -- tensor axes and differentiation -----------------------------------

    def __getitem__(self, idx):
        """Index the trailing tensor axes; a full index gives a scalar jet."""
        idx = (Ellipsis,) + (idx if isinstance(idx, tuple) else (idx,))
        return Jet(*[a[idx + (slice(None),) * k] for k, a in enumerate(self.levels)])

    def d(self):
        """All first partials as a new trailing tensor axis, one order lower."""
        if self.order < 1:
            raise OrderError("cannot differentiate an order-0 jet")
        return Jet(*self.levels[1:])

    def truncate(self, order):
        """The same jet carried only through the given derivative order."""
        return Jet(*self.levels[:order + 1])

    def dilate(self, s, weight=1.0):
        """The jet of x -> weight * f(s x), given this jet of f seeded at the
        points s x: level k is scaled by weight * s^k.  The jet itself when
        s = weight = 1."""
        if s == 1.0 and weight == 1.0:
            return self
        return Jet(*[a * (weight * s ** k) for k, a in enumerate(self.levels)])


def _pad(scal, k):
    """Append k broadcast axes so a value array lines up with derivative axes."""
    return np.asarray(scal)[(...,) + (None,) * k]


def _sym3(p):
    """p_ijk + p_jik + p_kij over the trailing axes.

    With p a sum of products g_i h_jk (each h symmetric) this is the
    symmetrized sum of g_i h_jk + g_j h_ik + g_k h_ij, so one call serves
    every such product of a third-order level."""
    n = p.ndim
    out = p + np.swapaxes(p, n - 3, n - 2)
    out += p.transpose(tuple(range(n - 3)) + (n - 2, n - 1, n - 3))
    return out


def _outer(g, h):
    """g_i h_jk over the trailing axes."""
    return g[..., :, None, None] * h[..., None, :, :]


def seed(points, order=3):
    """Coordinate jets at a batch of points; points shape (..., n)."""
    points = np.asarray(points, dtype=float)
    n = points.shape[-1]
    base = points.shape[:-1]
    out = []
    for i in range(n):
        levels = [np.zeros(base + (n,) * k) for k in range(1, order + 1)]
        if levels:
            levels[0][..., i] = 1.0
        out.append(Jet(points[..., i], *levels))
    return out


def constant(value, dim, order=3, shape=()):
    """A jet with the given value at every point of the batch shape and
    vanishing derivatives; the value's own axes become tensor axes after
    the batch axes."""
    value = np.asarray(value)
    base = tuple(shape) + value.shape
    val = np.broadcast_to(value, base).copy()
    dt = val.dtype if val.dtype.kind == "c" else float
    return Jet(val, *[np.zeros(base + (dim,) * k, dtype=dt)
                      for k in range(1, order + 1)])


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
    idx = [i for i, a in enumerate(alpha) for _ in range(a)]
    return jet.levels[k][(Ellipsis,) + tuple(idx)]


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
                arr = leaf.levels[k]
            else:
                arr = leaf if k == 0 else 0.0
            parts.append(np.broadcast_to(arr, base + (dim,) * k))
        return np.stack(parts, axis=len(base)).reshape(base + shape + (dim,) * k)

    return Jet(*[level(k) for k in range(order + 1)])


@lru_cache
def _plan(spec, nda, ndb):
    """contract's plan for spec on operands of nda and ndb axes: the
    transposes to (batch, kept, summed) axes of the first operand and
    (batch, summed, kept) of the second, their batch ranks, the number of
    summed axes and the permutation of the product's axes into spec's."""
    sa, sb, out = spec.replace("->", ",").split(",")
    ba, bb = nda - len(sa), ndb - len(sb)
    if (any(len(set(s)) < len(s) for s in (sa, sb, out)) or min(ba, bb) < 0
            or set(out) != set(sa) ^ set(sb)):
        raise ValueError("contract cannot run %r on %d and %d axes" % (spec, nda, ndb))
    summed = [c for c in sa if c in sb]
    kept = [c for c in sa if c not in sb] + [c for c in sb if c not in sa]
    ta = tuple(range(ba)) + tuple(ba + sa.index(c) for c in kept + summed if c in sa)
    tb = tuple(range(bb)) + tuple(bb + sb.index(c) for c in summed + kept if c in sb)
    nb = max(ba, bb)
    return ta, tb, ba, bb, len(summed), tuple(range(nb)) + tuple(
        nb + kept.index(c) for c in out)


def contract(spec, a, b):
    """np.einsum of two arrays as one batched matmul: ``spec`` names their
    trailing axes (e.g. "kl,lij->kij"), leading batch axes broadcast, and a
    letter of both operands is summed.  Each point's product runs on its
    own, so its result does not depend on the batch it shares, and on
    C-contiguous operands, as np.matmul picks its kernel by their memory
    layout: a strided view gives the bits of its contiguous copy."""
    a, b = np.asarray(a), np.asarray(b)
    ta, tb, la, lb, k, perm = _plan(spec, a.ndim, b.ndim)
    a, b = map(np.ascontiguousarray, (a.transpose(ta), b.transpose(tb)))
    rows, ks, cols = a.shape[la:a.ndim - k], a.shape[a.ndim - k:], b.shape[lb + k:]
    if b.shape[lb:lb + k] != ks:
        raise ValueError("contract %r: the summed axes differ" % spec)
    c = np.matmul(a.reshape(a.shape[:la] + (prod(rows), prod(ks))),
                  b.reshape(b.shape[:lb] + (prod(ks), prod(cols))))
    return c.reshape(c.shape[:-2] + rows + cols).transpose(perm)


def jeinsum(spec, A, B=None):
    """Einsum over the tensor axes of jets, derivatives by the Leibniz rule.

    ``spec`` names tensor axes only (e.g. "kl,lij->kij"); batch axes lead and
    broadcast, derivative axes trail and are handled here.  A plain ndarray
    operand is a constant.  The result carries min(A.order, B.order); with a
    single operand the spec permutes or traces tensor axes.  Every pairwise
    term goes through ``contract``, so a point's result does not depend on
    the batch it shares.
    """
    x, y, z = [c for c in "xyzXYZ" if c not in spec][:3]
    dax = ("", x, x + y, x + y + z)             # derivative axes of each level
    if B is None:
        ins, out = spec.split("->")
        return Jet(*[np.einsum("...%s%s->...%s%s" % (ins, d, out, d), a)
                     for a, d in zip(A.levels, dax)])
    sa, rest = spec.split(",")
    sb, out = rest.split("->")

    def term(a, b, da, db, dout=None):
        dout = da + db if dout is None else dout
        return contract("%s%s,%s%s->%s%s" % (sa, da, sb, db, out, dout), a, b)

    if not isinstance(B, Jet):
        return Jet(*[term(a, B, d, "") for a, d in zip(A.levels, dax)])
    if not isinstance(A, Jet):
        return Jet(*[term(A, b, "", d) for b, d in zip(B.levels, dax)])
    a, b = A.levels, B.levels
    order = min(len(a), len(b)) - 1
    levels = [term(a[0], b[0], "", "")]
    if order >= 1:
        levels.append(term(a[1], b[0], x, "") + term(a[0], b[1], "", x))
    if order >= 2:
        cross = term(a[1], b[1], x, y)
        levels.append((term(a[2], b[0], dax[2], "") + term(a[0], b[2], "", dax[2]))
                      + (cross + np.swapaxes(cross, -1, -2)))
    if order >= 3:
        levels.append(term(a[3], b[0], dax[3], "") + term(a[0], b[3], "", dax[3])
                      + _sym3(term(a[1], b[2], x, y + z)
                              + term(a[2], b[1], y + z, x, dax[3])))
    return Jet(*levels)


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
        return Jet(inv0)
    N = Jet(np.zeros_like(A.val), *A.levels[1:])
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
    step h are applied once per derivative.  The 2^k stencil points go
    through f in one call, on sign axes ahead of the batch axes; axis 0
    steps the last derivative and is differenced first, as in the nesting.
    """
    x = np.asarray(x, dtype=float)
    idx = [i for i, a in enumerate(alpha) for _ in range(int(a))]
    k = len(idx)
    pts = np.broadcast_to(x, (2,) * k + x.shape).copy()
    for j, i in enumerate(idx):
        shape = [1] * (k + x.ndim - 1)
        shape[k - 1 - j] = 2                    # the sign axis of derivative j
        pts[..., i] += np.reshape([h, -h], shape)
    out = f(pts)
    for _ in idx:
        out = (out[0] - out[1]) / (2 * h)
    return out
