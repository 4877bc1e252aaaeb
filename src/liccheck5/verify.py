"""The check suite: every geometric identity bound to a seeded, deterministic
check with a normalized residual, plus report emission.

Each identity A = B is reported as sup |A - B| / (1 + |A| + |B|) per sample
point (structural checks report a mismatch count instead).  Sampling is a
scrambled Halton sequence rejected into the requested region, so a fixed
(config, seed) pair reproduces residuals bit-for-bit; each check derives its
own seed from its name and runs independently of the others.

Checks whose integrands degenerate at the cone (curvature of the rescaled
metric, conformal identities) sample with a wider cone margin than the
configured exclusion; the exclusion is the floor, never the ceiling.  Wall
times are recorded per check but never serialized -- reports must be
byte-identical across runs.
"""

import json
import os
import time
import traceback
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from . import __version__
from . import clifford as CL
from . import curvature as C
from . import frames as F
from . import geometry as geo
from . import jets as J
from . import regularity as R
from . import spingeo as S
from .errors import EmptyRegionError

_E12 = np.zeros((5, 5))
_E12[1, 2] = _E12[2, 1] = 1.0      # symmetric unit matrix of the negative control


@dataclass(frozen=True)
class SuiteConfig:
    a: float = 1.0
    samples: int = 300
    seed: int = 0
    b: float = 1.0
    c: float = 0.0
    tol: dict = field(default_factory=dict)
    exclusion: float = 1e-3
    regions: tuple = ("B_a", "L")
    perturb: float = 0.0          # metric perturbation for the negative control

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("a must be positive")
        if self.samples < 1:
            raise ValueError("need at least one sample per check")
        if not 0 < self.exclusion < 1.0 / (10.0 * self.a):
            raise ValueError("exclusion must sit in (0, 1/(10a))")
        for k, v in self.tol.items():
            if v <= 0:
                raise ValueError("tolerance override %r must be positive" % k)
        bad = set(self.regions) - {"B_a", "L"}
        if bad:
            raise ValueError("unknown region tags %s" % sorted(bad))


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
    """Deterministic low-discrepancy samples of a region.

    ``exclusion`` is the minimum euclidean distance to the cone (and the
    minimum spatial radius); exterior samples also stay below ``outer``/a in
    the odd radial coordinate, clear of the family's closure.  The box scales
    with 1/a, tracking the family's own dilation."""
    if region not in ("B_a", "L"):
        raise ValueError("unknown region tag %r" % (region,))
    box = 1.6 / a if region == "B_a" else 1.6   # the interior never dilates
    eng = qmc.Halton(d=5, scramble=True, seed=int(seed))
    out = np.empty((0, 5))
    for _ in range(200):
        x = (2.0 * eng.random(max(4 * n, 128)) - 1.0) * box
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


def _draw(cfg, region, seed, m, n=None, outer=0.95):
    """cfg.samples points of a region (n if given) at cone margin m, never
    below the configured exclusion.  Exterior margins ride the same 1/a
    dilation as the sampling box; interior ones are absolute, as that
    geometry never dilates."""
    m = m / cfg.a if region == "B_a" else m
    return sample(region, cfg.a, cfg.samples if n is None else n, seed,
                  max(cfg.exclusion, m), outer)


def _norm_res(A, B):
    """Per-point normalized residual sup|A-B| / (1 + |A| + |B|)."""
    A = np.asarray(A, dtype=float)
    B = np.broadcast_to(np.asarray(B, dtype=float), A.shape)
    ax = tuple(range(1, A.ndim))
    d = np.max(np.abs(A - B), axis=ax) if ax else np.abs(A - B)
    sa = np.max(np.abs(A), axis=ax) if ax else np.abs(A)
    sb = np.max(np.abs(B), axis=ax) if ax else np.abs(B)
    return d / (1.0 + sa + sb)


# -------------------------------------------------------------- the checks

def _chk_clifford(cfg, seed):
    gg = np.einsum('iab,jbc->ijac', CL.GAMMA, CL.GAMMA)
    acomm = gg + np.einsum('jiac->ijac', gg)
    target = -2.0 * geo.ETA[:, :, None, None] * np.eye(4)
    res = [np.max(np.abs(acomm[i, j] - target[i, j]))
           for i in range(5) for j in range(i, 5)]
    return np.array(res), 15


def _chk_frame_gram(cfg, seed):
    x = _draw(cfg, "B_a", seed, 0.01)
    fv = F.frame_eval("e", x, cfg.a, order=0)
    gram = F.gram_matrix(fv, x)
    return _norm_res(gram, geo.ETA), len(x)


def _chk_product_structure(cfg, seed):
    xb = _draw(cfg, "B_a", seed, 0.15, outer=0.85)
    low = C.riemann_lowered(geo.MetricSpec("gatilde", cfg.a), xb)
    Vv = C.vector_field_jets("V", xb, order=0).val.real
    mixed = np.maximum(
        np.max(np.abs(np.einsum('...ijkl,...i->...jkl', low, Vv)), axis=(1, 2, 3)),
        np.max(np.abs(np.einsum('...ijkl,...k->...ijl', low, Vv)), axis=(1, 2, 3)))
    sc = np.max(np.abs(low), axis=(1, 2, 3, 4)) * np.max(np.abs(Vv), axis=1)
    block = mixed / (1.0 + sc)
    xl = _draw(cfg, "L", seed + 1, 0.1, n=max(cfg.samples // 3, 1))
    flat = _norm_res(C.riemann_lowered(geo.MetricSpec("gatilde", cfg.a), xl), 0.0)
    return np.concatenate([block, flat]), len(xb) + len(xl)


def _chk_product_ricci(cfg, seed):
    x = _draw(cfg, "B_a", seed, 0.1)
    ric = C.ricci(geo.MetricSpec("gatilde", cfg.a), x)
    return _norm_res(ric, 0.0), len(x)


def _eh_points(cfg, seed, n):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n, 4))
    y *= (cfg.a * rng.uniform(1.2, 3.0, n) / np.linalg.norm(y, axis=1))[:, None]
    return y


def _chk_eh_connection(cfg, seed):
    a = cfg.a
    y = _eh_points(cfg, seed, max(cfg.samples // 3, 16))
    fr = F.eh_frame(y, a)
    om = C.connection_forms(fr, geo.MetricSpec("eh", a), y).omega_frame
    rad = np.sqrt(np.sum(y ** 2, axis=-1))
    beta = np.sqrt(1.0 - (a / rad) ** 4)
    gamma = beta / rad + 2.0 * a ** 4 / (rad ** 5 * beta)
    yj = J.seed(y, order=0)
    s1, s2, _ = geo.sigma_forms(yj)
    Fv = fr.vectors.val
    sig1 = np.einsum('...m,...mk->...k',
                     np.stack([np.broadcast_to(s.val, rad.shape) for s in s1],
                              -1), Fv)
    sig2 = np.einsum('...m,...mk->...k',
                     np.stack([np.broadcast_to(s.val, rad.shape) for s in s2],
                              -1), Fv)
    f4 = np.zeros(om.shape[:-3] + (4,))
    f4[..., 3] = 1.0
    pairs = [(om[..., 0, 1, :], -beta[..., None] * sig1),
             (om[..., 2, 3, :], -beta[..., None] * sig1),
             (om[..., 0, 2, :], -beta[..., None] * sig2),
             (om[..., 1, 3, :], beta[..., None] * sig2),
             (om[..., 0, 3, :], -gamma[..., None] * f4),
             (om[..., 1, 2, :], -gamma[..., None] * f4)]
    res = np.concatenate([_norm_res(A, B) for A, B in pairs])
    return res, len(y)


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
    res = np.concatenate([_norm_res(A, B) for A, B in pairs])
    return res, len(rad)


def _chk_eh_asd(cfg, seed):
    y = _eh_points(cfg, seed, max(cfg.samples // 3, 16))
    plus, minus = C.asd_split(F.eh_frame(y, cfg.a),
                              geo.MetricSpec("eh", cfg.a), y)
    return np.array([np.max(np.abs(plus)) / np.max(np.abs(minus))]), len(y)


def _chk_twistor(cfg, seed):
    spec = geo.MetricSpec("ga", cfg.a)
    xb = _draw(cfg, "B_a", seed, 0.02)
    phi = S.psi_bc(cfg.b, cfg.c)
    forms = None
    if cfg.perturb:
        fr = F.frame_eval("e", xb, cfg.a, order=1)
        g = geo.metric_jets(spec, xb, order=2) + cfg.perturb * _E12
        forms = C.forms_from_jets("e", fr.vectors, g, label="perturbed",
                                  tol=1.0)
    rb = S.twistor_residual(phi, spec, xb, forms=forms)
    xl = _draw(cfg, "L", seed + 1, 0.02, n=max(cfg.samples // 3, 1))
    rl = S.twistor_residual(S.psi_bc(cfg.b, cfg.c, frame="u"), spec, xl)
    out = []
    for res in (rb, rl):
        P = np.stack([d.w for d in res.directions], axis=-2)
        out.append(np.max(np.abs(P), axis=(-2, -1)) / (1.0 + res.scale))
    return np.concatenate(out), len(xb) + len(xl)


def _chk_parallel(cfg, seed):
    spec = geo.MetricSpec("gatilde", cfg.a)
    x = _draw(cfg, "B_a", seed, 0.05)
    nu = S.nu_bc(cfg.b, cfg.c)
    cov = S._cov_all(nu, spec, x)[0]
    scale = max(float(np.abs(nu.values(x)).max()), 1.0)
    return np.max(np.abs(cov), axis=(-2, -1)) / scale, len(x)


def _chk_conformal_killing(cfg, seed):
    spec = geo.MetricSpec("ga", cfg.a)
    out = []
    n = 0
    for i, (region, m) in enumerate((("B_a", 0.02), ("L", 0.02))):
        if region not in cfg.regions:
            continue
        x = _draw(cfg, region, seed + i, m)
        n += len(x)
        gv = geo.metric_jets(spec, x, order=0).val.real
        LV = C.lie_derivative_metric("V", spec, x)
        out.append(_norm_res(LV, -4.0 * x[:, 0, None, None] * gv))
        div = C.divergence("V", spec, x)
        out.append(_norm_res(div, -10.0 * x[:, 0]))
    return np.concatenate(out), n


def _square_pieces(cfg, seed, m_b=0.02, m_l=0.02):
    spec = geo.MetricSpec("ga", cfg.a)
    xb = _draw(cfg, "B_a", seed, m_b)
    xl = _draw(cfg, "L", seed + 1, m_l, n=max(cfg.samples // 3, 1))
    Vb = S.spinor_square(S.psi_bc(cfg.b, cfg.c), spec, xb)
    Vl = S.spinor_square(S.psi_bc(cfg.b, cfg.c, frame="u"), spec, xl)
    return spec, (xb, Vb), (xl, Vl)


def _chk_square_field(cfg, seed):
    _, (xb, Vb), (xl, Vl) = _square_pieces(cfg, seed)
    s = cfg.b ** 2 + cfg.c ** 2
    out = []
    for x, V in ((xb, Vb), (xl, Vl)):
        Vt = C.vector_field_jets("V", x, order=0).val.real
        out.append(_norm_res(V, s * Vt))
    return np.concatenate(out), len(xb) + len(xl)


def _chk_square_length(cfg, seed):
    spec, (xb, Vb), (xl, Vl) = _square_pieces(cfg, seed)
    s = cfg.b ** 2 + cfg.c ** 2
    out = []
    for x, V in ((xb, Vb), (xl, Vl)):
        gv = geo.metric_jets(spec, x, order=0).val.real
        q = np.einsum('...ij,...i,...j->...', gv, V, V, optimize=True)
        d = geo.radial_values(x)[1]
        out.append(_norm_res(q, -(s * d) ** 2))
    return np.concatenate(out), len(xb) + len(xl)


def _chk_causal_type(cfg, seed):
    spec, (xb, Vb), (xl, Vl) = _square_pieces(cfg, seed)
    bad = 0
    for x, V in ((xb, Vb), (xl, Vl)):
        gv = geo.metric_jets(spec, x, order=0).val.real
        q = np.einsum('...ij,...i,...j->...', gv, V, V, optimize=True)
        bad += int(np.sum(q >= 0))
    rng = np.random.default_rng(seed + 2)
    n = max(cfg.samples // 3, 8)
    w = rng.normal(size=(n, 4))
    w /= np.linalg.norm(w, axis=1)[:, None]
    x0 = rng.uniform(0.3, 1.2, n) * rng.choice([-1.0, 1.0], n)
    cone = np.column_stack([x0, np.abs(x0)[:, None] * w])
    Vc = S.spinor_square(S.psi_bc(cfg.b, cfg.c, frame="u"),
                         geo.MetricSpec("g0"), cone)
    qc = np.einsum('ij,...i,...j->...', geo.ETA, Vc, Vc, optimize=True)
    szc = np.max(np.abs(Vc), axis=1)
    bad += int(np.sum(np.abs(qc) > 1e-10 * (1.0 + szc ** 2)))
    bad += int(np.sum(szc < 1e-12))            # lightlike but nonzero
    V0 = S.spinor_square(S.psi_bc(cfg.b, cfg.c, frame="u"),
                         geo.MetricSpec("g0"), np.zeros((1, 5)))
    bad += int(np.max(np.abs(V0)) != 0.0)      # zero vector at the zero
    return np.array([float(bad)]), len(xb) + len(xl) + n + 1


def _chk_length_square(cfg, seed):
    s = cfg.b ** 2 + cfg.c ** 2
    out = []
    n = 0
    for i, region in enumerate(("B_a", "L")):
        x = _draw(cfg, region, seed + i, 0.02)
        n += len(x)
        u = S.length_square_u(cfg.b, cfg.c, x)
        d = geo.radial_values(x)[1]
        out.append(_norm_res(u, s * d))
    return np.concatenate(out), n


def _chk_einstein_rescale(cfg, seed):
    spec = geo.MetricSpec("ga", cfg.a)
    out = []
    n = 0
    for i, region in enumerate(("B_a", "L")):
        x = _draw(cfg, region, seed + i, 0.1)
        n += len(x)
        res = S.einstein_rescale_residual(cfg.b, cfg.c, x, a=cfg.a)
        ric0 = C.trace_free(C.ricci(spec, x), spec, x)
        d = geo.radial_values(x)[1]
        A = -(cfg.b ** 2 + cfg.c ** 2) * d[:, None, None] * ric0
        out.append(_norm_res(res + A, A))       # res = A - B with B = 3 Hess0
    return np.concatenate(out), n


def _chk_regularity(cfg, seed):
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(10):
        rep = R.smoothness_probe(("ga", 0, 0), R.random_crossing_curve(rng),
                                 a=cfg.a)
        bad += int(rep.smoothness_class != 1)
    _, cls = R.probe_family(R.RO2, a=cfg.a, n_curves=3, seed=seed)
    bad += int(cls != 1)
    for trial in range(10):
        m = int(rng.integers(1, 4))
        s_l = int(rng.integers(-1, 3))
        q = int(rng.integers(max(0, s_l), max(0, s_l) + 2))
        draws = rng.integers(0, 5, q)
        ms = R.MonomialSpec(m, tuple([q - s_l] +
                                     [int(np.sum(draws == i)) for i in range(5)]))
        _, cls = R.probe_family(ms, a=cfg.a, n_curves=3, seed=seed + trial)
        want = ms.predicted_class - 1 if ms.predicted_class <= 3 else None
        bad += int(cls != want)
    return np.array([float(bad)]), 21


def _chk_weyl_decay(cfg, seed):
    rng = np.random.default_rng(seed)
    res = [abs(R.weyl_decay_exponent(R.random_crossing_curve(rng), a=cfg.a) - 2.0)
           for _ in range(3)]
    return np.array(res), 36


def _chk_weyl_covariance(cfg, seed):
    x = _draw(cfg, "B_a", seed, 0.1)
    Wga = C.weyl(geo.MetricSpec("ga", cfg.a), x)
    Wgt = C.weyl(geo.MetricSpec("gatilde", cfg.a), x)
    d = geo.radial_values(x)[1]
    return _norm_res(Wga, d[:, None, None, None, None] ** 2 * Wgt), len(x)


def _chk_weyl_witness(cfg, seed):
    xb = _draw(cfg, "B_a", seed, 0.1)
    wb = np.max(np.abs(C.weyl(geo.MetricSpec("ga", cfg.a), xb)),
                axis=(1, 2, 3, 4))
    xl = _draw(cfg, "L", seed + 1, 0.02, n=max(cfg.samples // 3, 1))
    wl = np.max(np.abs(C.weyl(geo.MetricSpec("ga", cfg.a), xl)),
                axis=(1, 2, 3, 4))
    return np.concatenate([[max(0.0, 1e-3 - float(np.max(wb)))], wl]), \
        len(xb) + len(xl)


def _chk_conformal_ricci(cfg, seed):
    x = _draw(cfg, "B_a", seed, 0.1)
    res = C.conformal_ricci_check(x, a=cfg.a)
    ric = C.ricci(geo.MetricSpec("ga", cfg.a), x)
    return _norm_res(ric, ric - res), len(x)


def _chk_essentiality(cfg, seed):
    radii = (0.3, 0.1, 0.03, 0.01, 0.003)
    diffs, pr = [], None
    for rad in radii:
        pr = S.essentiality_probe(cfg.b, cfg.c, a=cfg.a, radius=rad, n=12,
                                  seed=seed)
        diffs.append(pr.diff)
    scale = 1.0 + float(np.max(np.abs(pr.lhs))) + float(np.max(np.abs(pr.rhs)))
    res = [diffs[-1] / scale]
    if not all(b < a for a, b in zip(diffs, diffs[1:])):
        res.append(1.0)                         # no convergence
    if np.min(np.max(np.abs(pr.lhs), axis=1)) <= 0.1:
        res.append(1.0)                         # limit must be nonzero
    return np.array(res), 12 * len(radii)


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


def _threads():
    v = os.environ.get("VERIFY_THREADS", "").strip()
    if v:
        try:
            return max(1, int(v))
        except ValueError:
            raise ValueError("VERIFY_THREADS must be a positive integer, got %r"
                             % v) from None
    return min(4, os.cpu_count() or 1)


def _seed_for(name, seed):
    return zlib.crc32(name.encode()) ^ (int(seed) & 0xFFFFFFFF)


def _config_echo(cfg):
    return {"a": cfg.a, "samples": cfg.samples, "seed": cfg.seed,
            "b": cfg.b, "c": cfg.c, "tol": dict(cfg.tol),
            "exclusion": cfg.exclusion, "regions": list(cfg.regions),
            "perturb": cfg.perturb}


def _versions():
    import platform
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "liccheck5": __version__}


def run_suite(cfg, skip=(), only=None):
    names = {c.name for c in REGISTRY}
    for n in list(skip) + list(only or []) + list(cfg.tol):
        if n not in names:
            raise ValueError("unknown check %r" % n)
    selected = [c for c in REGISTRY
                if c.name not in skip and (only is None or c.name in only)]

    def one(check):
        t0 = time.perf_counter()
        tol = cfg.tol.get(check.name, check.tol)
        error = ""
        try:
            res, nsamp = check.fn(cfg, _seed_for(check.name, cfg.seed))
            res = np.atleast_1d(np.asarray(res, dtype=float))
            rmax, rmed = float(np.max(res)), float(np.median(res))
            verdict = "pass" if rmax <= tol else "fail"
        except Exception as exc:                       # recorded, not thrown
            rmax = rmed = -1.0
            nsamp = 0
            verdict = "error:%s" % type(exc).__name__
            where = traceback.extract_tb(exc.__traceback__)[-1]
            error = "%s: %s (%s:%d)" % (type(exc).__name__, exc,
                                        where.filename, where.lineno)
        return CheckResult(check.name, check.claim, nsamp, rmax, rmed, tol,
                           verdict, time.perf_counter() - t0, error)

    with ThreadPoolExecutor(max_workers=_threads()) as ex:
        checks = list(ex.map(one, selected))
    return Report(config=_config_echo(cfg), versions=_versions(),
                  checks=checks)


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
