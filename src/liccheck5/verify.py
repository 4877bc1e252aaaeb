"""The check suite: every geometric identity bound to a seeded, deterministic
check with a normalized residual, plus report emission.

Each identity A = B is reported as sup |A - B| / (1 + |A| + |B|) per sample
point; structural checks report a mismatch count.  A check returns a list of
Parts, its points with their residuals, and run_suite alone counts samples
and finds the max, the median and the worst point.  Sampling rejects uniform
draws of numpy's seeded Generator into a region, so a fixed (config, seed)
reproduces residuals bit-for-bit; each check seeds itself from its name.
Every check takes a sup or a count, so none needs a low-discrepancy sequence.

Checks whose integrands degenerate at the cone (curvature of the rescaled
metric, conformal identities) sample with a wider cone margin than the
configured exclusion; the exclusion is the floor, never the ceiling.  Wall
times are recorded per check but never serialized -- reports must be
byte-identical across runs.
"""

import json
import platform
import time
import traceback
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from . import clifford as CL
from . import curvature as C
from . import frames as F
from . import geometry as geo
from . import jets as J
from . import regularity as R
from . import spingeo as S
from .errors import EmptyRegionError


@dataclass(frozen=True)
class SuiteConfig:
    a: float = 1.0
    samples: int = 300
    seed: int = 0
    b: float = 1.0
    c: float = 0.0
    tol: dict = field(default_factory=dict)
    exclusion: float = 1e-3
    perturb: float = 0.0          # metric perturbation for the negative control

    def __post_init__(self):
        for name in ("a", "b", "c", "perturb"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r"
                                 % (name, getattr(self, name)))
        if self.a <= 0:
            raise ValueError("a must be positive")
        for name in ("samples", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError("%s must be an integer, got %r" % (name, v))
        if self.samples < 1:
            raise ValueError("need at least one sample per check")
        if not 0 < self.exclusion < 1.0 / (10.0 * self.a):
            raise ValueError("exclusion must sit in (0, 1/(10a))")
        for k, v in self.tol.items():
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not (np.isfinite(v) and v > 0)):
                raise ValueError("tolerance override %r must be a positive "
                                 "finite number, got %r" % (k, v))


@dataclass
class CheckResult:
    name: str
    claim: str
    samples: int
    residual_max: float
    residual_median: float
    tol: float
    verdict: str
    seconds: float = field(default=0.0, compare=False)
    # "Type: message (file:line)" of a check that raised; never serialized
    error: str = field(default="", compare=False)
    # (region, point) of the largest per-point residual, when it is the max
    worst: tuple = field(default=None, compare=False)


@dataclass
class Part:
    """A piece of a check's result: res[..., j] is the residual at
    points[j] of region; a part without points counts n samples."""
    res: object
    region: str = ""
    points: object = None
    n: int = 0


@dataclass
class Report:
    config: dict
    versions: dict
    checks: list

    @property
    def overall(self):
        return "pass" if all(c.verdict == "pass" for c in self.checks) else "fail"


# ------------------------------------------------------------------ sampling

def sample(region, a, n, seed, exclusion=1e-3, outer=0.95):
    """Deterministic uniform samples of a region, drawn from
    ``np.random.default_rng(seed)`` and rejected into it.

    ``exclusion`` is the minimum euclidean distance to the cone (and the
    minimum spatial radius); exterior samples also stay below ``outer``/a in
    the odd radial coordinate, clear of the family's closure.  The box scales
    with 1/a, tracking the family's own dilation."""
    if region not in ("B_a", "L"):
        raise ValueError("unknown region tag %r" % (region,))
    box = 1.6 / a if region == "B_a" else 1.6   # the interior never dilates
    rng = np.random.default_rng(int(seed))
    out = np.empty((0, 5))
    for _ in range(200):
        x = (2.0 * rng.random((max(4 * n, 128), 5)) - 1.0) * box
        r, _, ro = geo.radial_values(x)
        gap = geo.cone_gap(x)
        keep = (np.abs(gap) / np.sqrt(2.0) >= exclusion) & (r >= exclusion)
        if region == "B_a":
            keep &= (gap > 0) & (ro < outer / a)
        else:
            keep &= gap < 0
        out = np.vstack([out, x[keep]])
        if len(out) >= n:
            return out[:n]
    raise EmptyRegionError("region %s empty after exclusions" % region)


def _draw(cfg, region, seed, m, share=1, outer=0.95):
    """max(cfg.samples // share, 1) points of a region at cone margin m,
    never below the configured exclusion.  Exterior margins ride the same
    1/a dilation as the sampling box; interior ones are absolute, as that
    geometry never dilates."""
    m = m / cfg.a if region == "B_a" else m
    return sample(region, cfg.a, max(cfg.samples // share, 1), seed,
                  max(cfg.exclusion, m), outer)


def _per_side(cfg, seed, m, residuals, l_share=1):
    """A part per side, residuals(region, x) at cone margin m: B_a drawn with
    seed, L with seed + 1 and a 1/l_share share of the points."""
    parts = []
    for i, (region, share) in enumerate((("B_a", 1), ("L", l_share))):
        x = _draw(cfg, region, seed + i, m, share)
        parts.append(Part(residuals(region, x), region, x))
    return parts


def _psi(cfg, region):                # frame e on B_a, u on L
    return S.psi_bc(cfg.b, cfg.c, frame="e" if region == "B_a" else "u")


def _norm_res(A, B):
    """Per-point normalized residual sup|A-B| / (1 + |A| + |B|)."""
    A = np.asarray(A, dtype=float)
    B = np.broadcast_to(np.asarray(B, dtype=float), A.shape)
    A, B = A.reshape(len(A), -1), B.reshape(len(A), -1)
    return np.max(np.abs(A - B), axis=1) / (
        1.0 + np.max(np.abs(A), axis=1) + np.max(np.abs(B), axis=1))


# -------------------------------------------------------------- the checks

def _chk_clifford(cfg, seed):
    gg = np.einsum('iab,jbc->ijac', CL.GAMMA, CL.GAMMA)
    acomm = gg + np.einsum('jiac->ijac', gg)
    target = -2.0 * geo.ETA[:, :, None, None] * np.eye(4)
    res = [np.max(np.abs(acomm[i, j] - target[i, j]))
           for i in range(5) for j in range(i, 5)]
    return [Part(np.array(res), n=15)]


def _chk_frame_gram(cfg, seed):
    x = _draw(cfg, "B_a", seed, 0.01)
    Fv = F.frame_eval("e", x, cfg.a, order=0).val
    gv = geo.metric_jets(geo.MetricSpec("ga", cfg.a), x, order=0).val
    return [Part(_norm_res(F.gram_matrix(Fv, gv), geo.ETA), "B_a", x)]


def _chk_product_structure(cfg, seed):
    xb = _draw(cfg, "B_a", seed, 0.15, outer=0.85)
    low = C.riemann_lowered(geo.MetricSpec("gatilde", cfg.a), xb)
    Vv = C.vector_field_jets(xb, order=0).val
    mixed = np.maximum(
        np.max(np.abs(np.einsum('...ijkl,...i->...jkl', low, Vv)), axis=(1, 2, 3)),
        np.max(np.abs(np.einsum('...ijkl,...k->...ijl', low, Vv)), axis=(1, 2, 3)))
    sc = np.max(np.abs(low), axis=(1, 2, 3, 4)) * np.max(np.abs(Vv), axis=1)
    xl = _draw(cfg, "L", seed + 1, 0.1, share=3)
    flat = _norm_res(C.riemann_lowered(geo.MetricSpec("gatilde", cfg.a), xl), 0.0)
    return [Part(mixed / (1.0 + sc), "B_a", xb), Part(flat, "L", xl)]


def _chk_product_ricci(cfg, seed):
    # Ric(gatilde_a)(x) = a^2 Ric(gatilde_1)(a x): dividing by a^2 makes the
    # residual that of the a = 1 metric at the dilated points
    x = _draw(cfg, "B_a", seed, 0.1)
    ric = C.ricci(geo.MetricSpec("gatilde", cfg.a), x)
    return [Part(_norm_res(ric / cfg.a ** 2, 0.0), "B_a", x)]


def _eh_points(a, seed, n):
    """n points of the instanton annulus 1.2 a < R < 3 a: normal directions,
    uniform radii."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n, 4))
    y *= (a * rng.uniform(1.2, 3.0, n) / np.linalg.norm(y, axis=1))[:, None]
    return y


def _chk_eh_connection(cfg, seed):
    a = cfg.a
    y = _eh_points(a, seed, max(cfg.samples // 3, 16))
    fr = F.eh_frame(y, a)
    om = C.connection_forms(fr, geo.MetricSpec("eh", a), y).omega_frame
    rad = np.sqrt(np.sum(y ** 2, axis=-1))
    beta = np.sqrt(1.0 - (a / rad) ** 4)
    gamma = beta / rad + 2.0 * a ** 4 / (rad ** 5 * beta)
    yj = J.seed(y, order=0)
    ir2 = geo.sum_squares(yj).reciprocal()
    sig1, sig2 = [np.einsum('...m,...mk->...k', np.stack(
        [s.val for s in geo.sigma_form(k, yj, ir2)], -1), fr.val) for k in (1, 2)]
    f4 = np.zeros(om.shape[:-3] + (4,))
    f4[..., 3] = 1.0
    pairs = [(om[..., 0, 1, :], -beta[..., None] * sig1),
             (om[..., 2, 3, :], -beta[..., None] * sig1),
             (om[..., 0, 2, :], -beta[..., None] * sig2),
             (om[..., 1, 3, :], beta[..., None] * sig2),
             (om[..., 0, 3, :], -gamma[..., None] * f4),
             (om[..., 1, 2, :], -gamma[..., None] * f4)]
    return [Part(np.stack([_norm_res(A, B) for A, B in pairs]), "instanton", y)]


def _wedge4(i, j):
    w = np.zeros((4, 4))
    w[i, j], w[j, i] = 1.0, -1.0
    return w


def _chk_eh_curvature(cfg, seed):
    a = cfg.a
    rng = np.random.default_rng(seed)
    rad = a * rng.uniform(1.2, 3.0, 12)
    p = np.zeros((len(rad), 4))
    p[:, 0] = rad
    cf = C.connection_forms(F.eh_frame(p, a),
                            geo.MetricSpec("eh", a), p).curvature_frame
    c = (2.0 * a ** 4 / rad ** 6)[:, None, None]
    pairs = [(cf[:, 0, 1], c * (_wedge4(0, 1) + _wedge4(2, 3))),
             (cf[:, 0, 2], c * (_wedge4(0, 2) + _wedge4(3, 1))),
             (cf[:, 0, 3], -2 * c * (_wedge4(0, 3) + _wedge4(1, 2))),
             (cf[:, 0, 1], cf[:, 2, 3]),
             (cf[:, 0, 2], -cf[:, 1, 3]),
             (cf[:, 0, 3], cf[:, 1, 2])]
    return [Part(np.stack([_norm_res(A, B) for A, B in pairs]), "instanton", p)]


def _chk_eh_asd(cfg, seed):
    y = _eh_points(cfg.a, seed, max(cfg.samples // 3, 16))
    plus, minus = C.asd_split(F.eh_frame(y, cfg.a),
                              geo.MetricSpec("eh", cfg.a), y)
    return [Part(np.array([np.max(np.abs(plus)) / np.max(np.abs(minus))]),
                 n=len(y))]


def _chk_twistor(cfg, seed):
    spec = geo.MetricSpec("ga", cfg.a)

    def residuals(region, x):
        forms = None
        if cfg.perturb and region == "B_a":
            fr = F.frame_eval("e", x, cfg.a, order=1)
            E = np.zeros((5, 5))
            E[1, 2] = E[2, 1] = cfg.perturb
            g = geo.metric_jets(spec, x, order=2) + E
            forms = C.forms_from_jets(fr, g, label="perturbed", tol=1.0)
        res = S.twistor_residual(_psi(cfg, region), spec, x, forms=forms)
        P = np.stack([d.w for d in res.directions], axis=-2)
        return np.max(np.abs(P), axis=(-2, -1)) / (1.0 + res.scale)
    return _per_side(cfg, seed, 0.02, residuals, l_share=3)


def _chk_parallel(cfg, seed):
    spec = geo.MetricSpec("gatilde", cfg.a)
    x = _draw(cfg, "B_a", seed, 0.05)
    nu = S.nu_bc(cfg.b, cfg.c)
    cov = S._cov_all(nu, spec, x)[0]
    scale = max(float(np.abs(nu.values(x)).max()), 1.0)
    return [Part(np.max(np.abs(cov), axis=(-2, -1)) / scale, "B_a", x)]


def _chk_conformal_killing(cfg, seed):
    spec = geo.MetricSpec("ga", cfg.a)

    def residuals(region, x):
        g = geo.metric_jets(spec, x, order=1)
        V = C.vector_field_jets(x, order=1)
        LV = C.lie_derivative_metric(g, V)
        div = C.divergence(C.christoffel_from_jets(g), V).val
        return np.stack([_norm_res(LV, -4.0 * x[:, 0, None, None] * g.val),
                         _norm_res(div, -10.0 * x[:, 0])])
    return _per_side(cfg, seed, 0.02, residuals)


def _chk_square_field(cfg, seed):
    s = cfg.b ** 2 + cfg.c ** 2
    return _per_side(cfg, seed, 0.02, lambda region, x: _norm_res(
        S.spinor_square(_psi(cfg, region), geo.MetricSpec("ga", cfg.a), x),
        s * C.vector_field_jets(x, order=0).val), l_share=3)


def _square_length(cfg, region, x):
    """g_a(V, V) of the spinor square V at the points x of one side."""
    spec = geo.MetricSpec("ga", cfg.a)
    V = S.spinor_square(_psi(cfg, region), spec, x)
    gv = geo.metric_jets(spec, x, order=0).val
    return np.einsum('...ij,...i,...j->...', gv, V, V, optimize=True)


def _chk_square_length(cfg, seed):
    s = cfg.b ** 2 + cfg.c ** 2
    return _per_side(cfg, seed, 0.02, lambda region, x: _norm_res(
        _square_length(cfg, region, x),
        -(s * geo.radial_values(x)[1]) ** 2), l_share=3)


def _chk_causal_type(cfg, seed):
    # a count, not 0/1 flags per point, so a failure says how many are off
    sides = _per_side(cfg, seed, 0.02, lambda region, x:
                      _square_length(cfg, region, x) >= 0, l_share=3)
    bad = sum(int(np.sum(p.res)) for p in sides)
    rng = np.random.default_rng(seed + 2)
    n = max(cfg.samples // 3, 8)
    w = rng.normal(size=(n, 4))
    w /= np.linalg.norm(w, axis=1)[:, None]
    x0 = rng.uniform(0.3, 1.2, n) * rng.choice([-1.0, 1.0], n)
    cone = np.column_stack([x0, np.abs(x0)[:, None] * w])
    Vc = S.spinor_square(_psi(cfg, "L"), geo.MetricSpec("g0"), cone)
    qc = np.einsum('ij,...i,...j->...', geo.ETA, Vc, Vc, optimize=True)
    szc = np.max(np.abs(Vc), axis=1)
    bad += int(np.sum(np.abs(qc) > 1e-10 * (1.0 + szc ** 2)))
    bad += int(np.sum(szc < 1e-12))            # lightlike but nonzero
    V0 = S.spinor_square(_psi(cfg, "L"), geo.MetricSpec("g0"), np.zeros((1, 5)))
    bad += int(np.max(np.abs(V0)) != 0.0)      # zero vector at the zero
    return [Part(np.array([float(bad)]),
                 n=sum(len(p.points) for p in sides) + n + 1)]


def _chk_length_square(cfg, seed):
    s = cfg.b ** 2 + cfg.c ** 2
    return _per_side(cfg, seed, 0.02, lambda region, x: _norm_res(
        S.length_square_u(cfg.b, cfg.c, x), s * geo.radial_values(x)[1]))


def _chk_einstein_rescale(cfg, seed):
    return _per_side(cfg, seed, 0.1, lambda region, x: _norm_res(
        *S.einstein_rescale_residual(cfg.b, cfg.c, x, a=cfg.a)))


def _chk_regularity(cfg, seed):
    # g_a's entry on 10 curves, r_o**2 and 10 random monomials on families
    # of 3 curves plus the vertex: 54 curves, probed in one call
    rng = np.random.default_rng(seed)
    curves = [R.random_crossing_curve(rng, cfg.a) for _ in range(10)]
    fields = [("ga", 0, 0)] * 10
    specs = [(R.RO2, seed)]
    for trial in range(10):
        m = int(rng.integers(1, 4))
        s_l = int(rng.integers(-1, 3))
        q = int(rng.integers(max(0, s_l), max(0, s_l) + 2))
        draws = rng.integers(0, 5, q)
        ms = R.MonomialSpec(m, tuple([q - s_l] +
                                     [int(np.sum(draws == i)) for i in range(5)]))
        specs.append((ms, seed + trial))
    for ms, family_seed in specs:
        curves += R.family_curves(cfg.a, 3, family_seed)
        fields += [ms] * 4
    reports = R._probe_curves(fields, curves, 3, cfg.a)
    bad = sum(int(rep.smoothness_class != 1) for rep in reports[:10])
    for i, (ms, _) in enumerate(specs):
        cls = R.family_class(reports[10 + 4 * i:14 + 4 * i])
        want = ms.predicted_class - 1 if ms.predicted_class <= 3 else None
        bad += int(cls != want)
    return [Part(np.array([float(bad)]), n=21)]


def _chk_weyl_decay(cfg, seed):
    rng = np.random.default_rng(seed)
    res = [abs(R.weyl_decay_exponent(R.random_crossing_curve(rng, cfg.a),
                                     a=cfg.a) - 2.0) for _ in range(3)]
    return [Part(np.array(res), n=36)]


def _chk_weyl_covariance(cfg, seed):
    x = _draw(cfg, "B_a", seed, 0.1)
    Wga = C.weyl(geo.MetricSpec("ga", cfg.a), x)
    Wgt = C.weyl(geo.MetricSpec("gatilde", cfg.a), x)
    d2 = geo.radial_values(x)[1][:, None, None, None, None] ** 2
    return [Part(_norm_res(Wga, d2 * Wgt), "B_a", x)]


def _chk_weyl_witness(cfg, seed):
    xb = _draw(cfg, "B_a", seed, 0.1)
    wb = np.max(np.abs(C.weyl(geo.MetricSpec("ga", cfg.a), xb)))
    xl = _draw(cfg, "L", seed + 1, 0.02, share=3)
    wl = np.max(np.abs(C.weyl(geo.MetricSpec("ga", cfg.a), xl)),
                axis=(1, 2, 3, 4))
    return [Part(np.array([max(0.0, 1e-3 - float(wb))]), n=len(xb)),
            Part(wl, "L", xl)]


def _chk_conformal_ricci(cfg, seed):
    x = _draw(cfg, "B_a", seed, 0.1)
    return [Part(_norm_res(*C.conformal_ricci_check(x, a=cfg.a)), "B_a", x)]


def _chk_essentiality(cfg, seed):
    radii = (0.3, 0.1, 0.03, 0.01, 0.003)
    probes = S.essentiality_probe(cfg.b, cfg.c, a=cfg.a,
                                  radii=[rad / cfg.a for rad in radii],
                                  n=12, seed=seed)
    diffs, pr = [p.diff for p in probes], probes[-1]
    scale = 1.0 + float(np.max(np.abs(pr.lhs))) + float(np.max(np.abs(pr.rhs)))
    res = [diffs[-1] / scale]
    if not all(b < a for a, b in zip(diffs, diffs[1:])):
        res.append(1.0)                         # no convergence
    if np.min(np.max(np.abs(pr.lhs), axis=1)) <= 0.1:
        res.append(1.0)                         # limit must be nonzero
    return [Part(np.array(res), n=12 * len(radii))]


@dataclass(frozen=True)
class Check:
    name: str
    claim: str
    tol: float
    fn: object


REGISTRY = (
    Check("clifford-relations",
          "gamma anticommutators reproduce the signature matrix exactly",
          1e-15, _chk_clifford),
    Check("frame-orthonormality",
          "frame e is orthonormal for the deformed metric on the exterior",
          1e-10, _chk_frame_gram),
    Check("product-structure",
          "the rescaled exterior metric is a time-line product and flat "
          "inside the cone", 1e-10, _chk_product_structure),
    Check("product-ricci-flat",
          "the rescaled exterior metric is Ricci-flat", 1e-8,
          _chk_product_ricci),
    Check("eh-connection-forms",
          "instanton frame connection forms match their closed displays",
          1e-9, _chk_eh_connection),
    Check("eh-curvature-forms",
          "instanton curvature forms carry paired coefficients 2a^4/R^6 "
          "and 4a^4/R^6", 1e-8, _chk_eh_curvature),
    Check("eh-anti-self-dual",
          "instanton Weyl curvature is anti-self-dual", 1e-9, _chk_eh_asd),
    Check("twistor-equation",
          "the pinned spinor family satisfies the twistor equation on both "
          "sides of the cone", 1e-8, _chk_twistor),
    Check("parallel-spinor",
          "the rescaled-frame spinor is parallel on the exterior", 1e-9,
          _chk_parallel),
    Check("conformal-killing",
          "the distinguished field satisfies L_V g = -4 x0 g and "
          "div V = -10 x0", 1e-9, _chk_conformal_killing),
    Check("spinor-square-field",
          "the spinor square is (b^2+c^2) times the distinguished field",
          1e-9, _chk_square_field),
    Check("spinor-square-length",
          "the squared field has metric length -(b^2+c^2)^2 (r^2-x0^2)^2",
          1e-10, _chk_square_length),
    Check("causal-classification",
          "the squared field is timelike off the cone, lightlike and "
          "nonzero on it, zero at the origin", 0.5, _chk_causal_type),
    Check("length-square",
          "the spinor length square equals (b^2+c^2)(r^2-x0^2) everywhere",
          1e-12, _chk_length_square),
    Check("einstein-rescale",
          "the length square solves u Ric0 + 3 Hess0(u) = 0", 1e-7,
          _chk_einstein_rescale),
    Check("regularity-classes",
          "the deformed metric probes C1-not-C2; monomial classes match "
          "min(m, m+s_l)", 0.5, _chk_regularity),
    Check("weyl-decay",
          "deformed-metric Weyl curvature decays quadratically toward the "
          "cone", 0.15, _chk_weyl_decay),
    Check("weyl-covariance",
          "lowered Weyl tensors of the metric and its rescaling differ by "
          "the factor (r^2-x0^2)^2", 1e-8, _chk_weyl_covariance),
    Check("weyl-witness",
          "Weyl curvature is sizable on the exterior and zero inside the "
          "cone", 1e-10, _chk_weyl_witness),
    Check("conformal-ricci",
          "the deformed metric's Ricci tensor matches the conformal "
          "transformation law against its rescaling", 1e-8,
          _chk_conformal_ricci),
    Check("essentiality",
          "the squared Dirac spinor converges to -(5/2) grad div of the "
          "spinor square at the zero", 1e-6, _chk_essentiality),
)


def _seed_for(name, seed):
    return zlib.crc32(name.encode()) ^ (int(seed) & 0xFFFFFFFF)


def _worst(parts, rmax):
    """(region, point) of the point whose residual is rmax, if any."""
    for p in parts:
        if p.points is not None:
            per = np.max(np.reshape(p.res, (-1, len(p.points))), axis=0)
            if np.max(per) == rmax:
                return p.region, p.points[int(np.argmax(per))]
    return None


def run_suite(cfg, skip=(), only=None):
    """Run the selected checks one after another, in REGISTRY order, on the
    calling thread; a check that raises is recorded, not thrown."""
    names = {c.name for c in REGISTRY}
    for n in list(skip) + list(only or []) + list(cfg.tol):
        if n not in names:
            raise ValueError("unknown check %r" % n)
    selected = [c for c in REGISTRY
                if c.name not in skip and (only is None or c.name in only)]
    if not selected:
        raise ValueError("no checks selected")

    def one(check):
        t0 = time.perf_counter()
        tol = cfg.tol.get(check.name, check.tol)
        error, worst = "", None
        try:
            parts = check.fn(cfg, _seed_for(check.name, cfg.seed))
            res = np.concatenate([np.ravel(p.res) for p in parts]).astype(float)
            rmax, rmed = float(np.max(res)), float(np.median(res))
            nsamp = sum(p.n or len(p.points) for p in parts)
            worst = _worst(parts, rmax)
            verdict = "pass" if rmax <= tol else "fail"
        except Exception as exc:                       # recorded, not thrown
            rmax = rmed = -1.0
            nsamp = 0
            verdict = "error:%s" % type(exc).__name__
            where = traceback.extract_tb(exc.__traceback__)[-1]
            error = "%s: %s (%s:%d)" % (type(exc).__name__, exc,
                                        where.filename, where.lineno)
        return CheckResult(check.name, check.claim, nsamp, rmax, rmed, tol,
                           verdict, time.perf_counter() - t0, error, worst)

    versions = {"python": platform.python_version(), "numpy": np.__version__,
                "liccheck5": __version__}
    return Report(config=asdict(cfg), versions=versions,
                  checks=[one(check) for check in selected])


# ------------------------------------------------------------------ reports

def _fmt_float(v):
    return "%.17g" % v


def _to_json(v, ind=0):
    pad, pad1 = "  " * ind, "  " * (ind + 1)
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = ("%s%s: %s" % (pad1, json.dumps(str(k)), _to_json(v[k], ind + 1))
                 for k in sorted(v))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        items = ("%s%s" % (pad1, _to_json(u, ind + 1)) for u in v)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return "null"
    return json.dumps(str(v))


def _check_dict(c):
    return {"name": c.name, "claim": c.claim, "samples": c.samples,
            "residual_max": c.residual_max, "residual_median": c.residual_median,
            "tol": c.tol, "verdict": c.verdict}


def emit_report(report, fmt="json", path=None):
    """Serialize a report (byte-stable: sorted keys, floats at 17 significant
    digits); optionally write it to ``path``."""
    if fmt == "json":
        doc = {"config": report.config, "versions": report.versions,
               "overall": report.overall,
               "checks": [_check_dict(c) for c in report.checks]}
        text = _to_json(doc) + "\n"
    elif fmt == "csv":
        lines = ["check,name,residual_max,residual_median,tol,verdict"]
        for c in report.checks:
            claim = '"%s"' % c.claim.replace('"', '""')
            lines.append(",".join([c.name, claim, _fmt_float(c.residual_max),
                                   _fmt_float(c.residual_median),
                                   _fmt_float(c.tol), c.verdict]))
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError("format must be json or csv")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
