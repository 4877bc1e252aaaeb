"""The benchmark's three workloads and their correctness gates.

Each workload is closed loop with one caller in one process; the only extra
threads are the program's own suite pool.  A workload is split into four
steps so that only the program's work is timed and traced:

    warm_up()         inputs of an untimed pass run before the timed ones,
                      so lazy imports and first-call costs are not timed;
                      None when every pass starts cold, as users pay it
    prepare(i)        inputs of timed pass i, made from the seed (untimed)
    execute(inputs)   the program's work; returns wall time, per-call
                      latencies and the raw outputs (timed, and traced in a
                      traced run)
    judge(...)        correctness gates on the raw outputs (untimed)

Why these three, and which layer each one stresses, is in README.md.  The
gates use only the program's public API and its CLI, so they keep working
when the internal jet representation changes.
"""

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
from click.testing import CliRunner

HERE = os.path.dirname(os.path.abspath(__file__))
A = 1.0                      # family parameter, as in the default SuiteConfig
SPIN_B, SPIN_C = 1.0, 0.0    # spinor coefficients, as in the default SuiteConfig


@dataclass(frozen=True)
class Sizes:
    suite_samples: object    # None keeps the SuiteConfig default (300)
    wide_b: int              # B_a points of the wide batch
    wide_l: int              # L points of the wide batch
    wide_warm: int           # B_a and L points of the wide warm-up pass
    small_repeat: int        # copies of the forms / smoothness calls per pass
    small_min_calls: int     # enough for 10 calls beyond the 95th percentile
    setup_repeats: int


FULL = Sizes(suite_samples=None, wide_b=1200, wide_l=100, wide_warm=8,
             small_repeat=6, small_min_calls=220, setup_repeats=3)
SMOKE = Sizes(suite_samples=8, wide_b=8, wide_l=4, wide_warm=2,
              small_repeat=1, small_min_calls=1, setup_repeats=1)


class Tally:
    """Operations attempted and failed.  ``wrong`` counts the failures that
    are not the one known defect; any of them makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.known = 0
        self.notes = []

    def record(self, ok, note="", known=False):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if known:
            self.known += 1
        else:
            self.wrong += 1
            self.notes.append(note)


@dataclass
class PassOutput:
    wall_s: float
    latencies: list          # seconds per call
    points: int              # evaluation points of the pass
    raw: object
    rss_mb: object = None    # peak RSS of a pass run in its own process


def norm_res(A_, B_):
    """Per-point sup|A-B| / (1 + sup|A| + sup|B|), the suite's normalisation."""
    A_ = np.asarray(A_, dtype=float)
    B_ = np.broadcast_to(np.asarray(B_, dtype=float), A_.shape)
    ax = tuple(range(1, A_.ndim))
    return (np.max(np.abs(A_ - B_), axis=ax)
            / (1.0 + np.max(np.abs(A_), axis=ax) + np.max(np.abs(B_), axis=ax)))


def registry_tol(lic, name):
    return next(c.tol for c in lic.verify.REGISTRY if c.name == name)


# ------------------------------------------------------------ suite-default

def suite_once(verify, cfg_kwargs):
    """What ``verify run`` does: run_suite, then emit_report."""
    t0 = time.perf_counter()
    rep = verify.run_suite(verify.SuiteConfig(**cfg_kwargs))
    text = verify.emit_report(rep, fmt="json")
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "report": text,
            "checks": [{"name": c.name, "seconds": c.seconds,
                        "samples": c.samples, "residual_max": c.residual_max,
                        "verdict": c.verdict} for c in rep.checks]}


class SuiteDefault:
    """The default suite at the default thread count.  Untraced passes run in
    a fresh interpreter each, as ``verify run`` does, so nothing cached in
    one pass can speed up the next."""

    name = "suite-default"

    def __init__(self, lic, sizes, seed):
        self.lic = lic
        self.passes = 2                 # two for the determinism probe
        self.cfg = {"seed": seed}
        if sizes.suite_samples is not None:
            self.cfg["samples"] = sizes.suite_samples
        self.reports = []

    def warm_up(self):
        return None                     # each pass is a cold `verify run`

    def prepare(self, index):
        return self.cfg                 # every pass repeats one config

    def execute(self, cfg, in_process):
        if in_process:
            out = suite_once(self.lic.verify, cfg)
            rss = None
        else:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "suite_pass.py"),
                 os.path.dirname(os.path.dirname(self.lic.__file__)),
                 json.dumps(cfg)],
                capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                raise RuntimeError("suite pass exited %d: %s"
                                   % (proc.returncode, proc.stderr[-2000:]))
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            rss = out["rss_mb"]
        # the user's call here is the whole `verify run`
        return PassOutput(out["wall_s"], [out["wall_s"]],
                          sum(c["samples"] for c in out["checks"]), out, rss)

    def judge(self, cfg, out, tally):
        residuals = {}
        for c in out.raw["checks"]:
            tol = registry_tol(self.lic, c["name"])
            ok = c["verdict"] == "pass" and 0.0 <= c["residual_max"] <= tol
            tally.record(ok, "check %s: %s, residual_max %r, tol %r"
                         % (c["name"], c["verdict"], c["residual_max"], tol))
            residuals[c["name"]] = (c["residual_max"], tol)
        if self.reports:
            # determinism probe: the report bytes of every pass must agree
            tally.record(out.raw["report"] == self.reports[0],
                         "report bytes differ between passes of one run")
        self.reports.append(out.raw["report"])
        return residuals


# --------------------------------------------------------------- wide-batch

class WideBatch:
    """One large B_a batch and an L batch through the whole pipeline,
    single-threaded.  Each pass draws fresh points from the seed; the
    untimed warm-up pass runs the same pipeline on a few points."""

    name = "wide-batch"

    def __init__(self, lic, sizes, seed):
        self.lic = lic
        self.sizes = sizes
        self.seed = seed
        self.passes = 2

    def _batch(self, index, n_b, n_l):
        s = np.random.SeedSequence([self.seed, 2, index]).generate_state(2)
        v = self.lic.verify
        return (v.sample("B_a", A, n_b, int(s[0]), exclusion=0.1 / A),
                v.sample("L", A, n_l, int(s[1]), exclusion=0.1))

    def warm_up(self):
        return self._batch(0, self.sizes.wide_warm, self.sizes.wide_warm)

    def prepare(self, index):
        return self._batch(index, self.sizes.wide_b, self.sizes.wide_l)

    def execute(self, inputs, in_process=True):
        lic = self.lic
        geo, F, C, S = lic.geometry, lic.frames, lic.curvature, lic.spingeo
        xb, xl = inputs
        ga, gt = geo.MetricSpec("ga", A), geo.MetricSpec("gatilde", A)
        t0 = time.perf_counter()
        geo.metric_jets(ga, xb, order=3)
        geo.metric_jets(ga, xl, order=3)
        fr = F.frame_eval("e", xb, A)
        w_ga = C.weyl(ga, xb)
        w_gt = C.weyl(gt, xb)
        ric = C.ricci(gt, xb)
        forms = C.connection_forms(fr, ga, xb)
        tw_b = S.twistor_residual(S.psi_bc(SPIN_B, SPIN_C), ga, xb, forms=forms)
        sq_b = S.spinor_square(S.psi_bc(SPIN_B, SPIN_C), ga, xb)
        w_l = C.weyl(ga, xl)
        tw_l = S.twistor_residual(S.psi_bc(SPIN_B, SPIN_C, frame="u"), ga, xl)
        sq_l = S.spinor_square(S.psi_bc(SPIN_B, SPIN_C, frame="u"), ga, xl)
        wall = time.perf_counter() - t0
        raw = {"w_ga": w_ga, "w_gt": w_gt, "ric": ric, "tw_b": tw_b,
               "tw_l": tw_l, "w_l": w_l, "sq": (sq_b, sq_l)}
        # the user's call here is the whole pipeline
        return PassOutput(wall, [wall], len(xb) + len(xl), raw)

    def judge(self, inputs, out, tally):
        """The registered checks' identities, normalisation and tolerances."""
        xb, _ = inputs
        raw = out.raw
        d = np.sum(xb[:, 1:] ** 2, axis=1) - xb[:, 0] ** 2
        gates = {
            "twistor-equation": np.concatenate(
                [_twistor_res(raw["tw_b"]), _twistor_res(raw["tw_l"])]),
            "product-ricci-flat": norm_res(raw["ric"], 0.0),
            "weyl-covariance": norm_res(
                raw["w_ga"], d[:, None, None, None, None] ** 2 * raw["w_gt"]),
            "weyl-witness": norm_res(raw["w_l"], 0.0),
        }
        residuals = {}
        for name, res in gates.items():
            tol = registry_tol(self.lic, name)
            rmax = float(np.max(res))
            tally.record(bool(rmax <= tol), "wide-batch %s: residual %r above "
                         "tol %r" % (name, rmax, tol))
            residuals[name] = (rmax, tol)
        finite = all(np.all(np.isfinite(v)) for v in raw["sq"])
        tally.record(finite, "wide-batch spinor_square: non-finite output")
        return residuals


def _twistor_res(res):
    P = np.stack([d.w for d in res.directions], axis=-2)
    return np.max(np.abs(P), axis=(-2, -1)) / (1.0 + res.scale)


# -------------------------------------------------------------- small-calls

_COMPONENT = re.compile(r"^\s+\[([\d,]+)\] = (\S+)$", re.M)
_SPECS = (("g0", 5), ("ga", 5), ("gatilde", 5), ("ha", 4), ("eh", 4))
_WHATS = ("metric", "ricci", "weyl", "christoffel")
# outputs that are zero by theory: flat space, and the Ricci-flat instanton
_ZERO = {("g0", "ricci"), ("g0", "weyl"), ("eh", "ricci")}


def _fmt_point(p):
    return ",".join("%.17g" % v for v in p)


def parse_tensor(output, n, rank):
    T = np.zeros((n,) * rank)
    for idx, val in _COMPONENT.findall(output):
        T[tuple(int(i) for i in idx.split(","))] = float(val)
    return T


def christoffel_reference(metric_at, p, h=1e-4):
    """Gamma^k_ij at p, layout [k, i, j], from metric values alone: fourth
    order central differences of ``metric_at`` (point -> (n, n) array)."""
    p = np.asarray(p, dtype=float)
    n = len(p)
    dg = np.empty((n, n, n))                     # dg[m, i, j] = d_m g_ij
    for m in range(n):
        e = np.zeros(n)
        e[m] = h
        dg[m] = (-metric_at(p + 2 * e) + 8 * metric_at(p + e)
                 - 8 * metric_at(p - e) + metric_at(p - 2 * e)) / (12 * h)
    ginv = np.linalg.inv(metric_at(p))
    t = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)   # [i, j, l]
    return 0.5 * np.einsum('kl,ijl->kij', ginv, t)


@dataclass
class Call:
    kind: str
    args: tuple
    points: int


class SmallCalls:
    """A fixed, seeded mix of interactive-sized calls.  Per pass: the
    ``verify tensor`` CLI for every spec x what pair, ``verify probe-c1`` on
    the deformed metric and on one monomial field, and ``small_repeat``
    copies each of single-point curvature forms on eh and on ga and of a
    single-curve smoothness probe.  The untimed warm-up pass is pass 0, with
    its own points.  The mix is shaped so that the median call falls where
    the 5d ricci/weyl tensors meet the smoothness probes, whose costs
    overlap, and the 95th percentile inside one cluster (single-point ga
    curvature forms); see README.md."""

    name = "small-calls"

    def __init__(self, lic, sizes, seed):
        self.lic = lic
        self.sizes = sizes
        self.seed = seed
        self.runner = CliRunner()
        self.passes, self.min_calls = None, sizes.small_min_calls

    def warm_up(self):
        return self.prepare(0)

    def _b_point(self, rng):
        s = int(rng.integers(2 ** 31))
        return self.lic.verify.sample("B_a", A, 1, s, exclusion=0.1 / A)[0]

    def _point(self, spec, rng):
        if spec == "g0":
            return rng.uniform(-1.0, 1.0, 5)
        if spec in ("ga", "gatilde"):
            return self._b_point(rng)
        d = rng.normal(size=4)
        d /= np.linalg.norm(d)
        rad = rng.uniform(0.2, 0.8) / A if spec == "ha" else rng.uniform(1.2, 3.0) * A
        return rad * d

    def prepare(self, index):
        R = self.lic.regularity
        rng = np.random.default_rng([self.seed, 3, index])
        calls = [Call("tensor", (spec, what, _fmt_point(self._point(spec, rng))), 1)
                 for spec, _ in _SPECS for what in _WHATS]
        m = int(rng.integers(1, 4))
        s_l = int(rng.integers(-1, 3))
        q = int(rng.integers(max(0, s_l), max(0, s_l) + 2))
        draws = rng.integers(0, 5, q)
        mono = "monomial:%d,%s" % (m, ",".join(
            str(v) for v in [q - s_l] + [int(np.sum(draws == i)) for i in range(5)]))
        curves = 3
        for field in ("ga", mono):
            calls.append(Call("probe-c1", (field, curves, int(rng.integers(2 ** 31))),
                              (curves + 1) * 12 * 2))
        for _ in range(self.sizes.small_repeat):
            calls.append(Call("forms-eh", (self._point("eh", rng),), 1))
            calls.append(Call("forms-ga", (self._b_point(rng),), 1))
            calls.append(Call("smoothness", (R.random_crossing_curve(rng),), 24))
        order = rng.permutation(len(calls))
        return [calls[i] for i in order]

    def _invoke(self, call):
        lic = self.lic
        if call.kind == "tensor":
            spec, what, point = call.args
            return self.runner.invoke(lic.cli.main, [
                "tensor", "--spec", spec, "--point", point, "--what", what,
                "--a", repr(A)])
        if call.kind == "probe-c1":
            field, curves, seed = call.args
            return self.runner.invoke(lic.cli.main, [
                "probe-c1", "--field", field, "--curves", str(curves),
                "--seed", str(seed), "--a", repr(A)])
        if call.kind == "smoothness":
            return lic.regularity.smoothness_probe(("ga", 0, 0), call.args[0], a=A)
        p = call.args[0]
        geo, F, C = lic.geometry, lic.frames, lic.curvature
        if call.kind == "forms-eh":
            fr, spec = F.eh_frame(p, A), geo.MetricSpec("eh", A)
        else:
            fr, spec = F.frame_eval("e", p, A), geo.MetricSpec("ga", A)
        return C.connection_forms(fr, spec, p).curvature_frame

    def execute(self, calls, in_process=True):
        lat, raw = [], []
        t0 = time.perf_counter()
        for call in calls:
            t1 = time.perf_counter()
            try:
                out = self._invoke(call)
            except Exception as exc:          # judged as a failed operation
                out = exc
            lat.append(time.perf_counter() - t1)
            raw.append(out)
        wall = time.perf_counter() - t0
        return PassOutput(wall, lat, sum(c.points for c in calls), raw)

    def judge(self, calls, out, tally):
        eh_coeff = 0.0
        for call, res in zip(calls, out.raw):
            label = "%s%s" % (call.kind, call.args[:2] if call.kind in
                              ("tensor", "probe-c1") else "")
            if isinstance(res, Exception):
                tally.record(False, "%s raised %s: %s"
                             % (label, type(res).__name__, res))
                continue
            if call.kind == "tensor":
                self._judge_tensor(call, res, tally)
            elif call.kind == "probe-c1":
                tally.record(res.exit_code == 0, "%s exited %d: %s"
                             % (label, res.exit_code, res.output[-300:]))
            elif call.kind == "smoothness":
                tally.record(res.smoothness_class == 1, "%s: class %r, want 1"
                             % (label, res.smoothness_class))
            elif call.kind == "forms-eh":
                r = _eh_curvature_res(res, np.linalg.norm(call.args[0]))
                eh_coeff = max(eh_coeff, r)
                tally.record(bool(r <= registry_tol(self.lic, "eh-curvature-forms")),
                             "%s: residual %r" % (label, r))
            else:
                cf = res
                r = max(float(np.max(norm_res(cf[None], cf.transpose(2, 3, 0, 1)[None]))),
                        float(np.max(norm_res(cf[None], -cf.transpose(1, 0, 2, 3)[None]))),
                        float(np.max(norm_res(cf[None], -cf.transpose(0, 1, 3, 2)[None]))))
                tally.record(bool(np.isfinite(r) and r <= 1e-8),
                             "%s: curvature symmetry residual %r" % (label, r))
        return {"eh-curvature-coefficient": (eh_coeff, registry_tol(
            self.lic, "eh-curvature-forms"))}

    def _judge_tensor(self, call, res, tally):
        spec, what, point = call.args
        label = "tensor %s %s at %s" % (spec, what, point)
        if res.exit_code != 0:
            # the known defect: --what christoffel asks christoffel(order=0)
            known = what == "christoffel" and "OrderError" in res.output
            tally.record(False, "%s exited %d: %s" % (label, res.exit_code,
                                                      res.output.strip()[-300:]),
                         known=known)
            return
        ok = True
        if (spec, what) in _ZERO:
            ok = ": zero (" in res.output
        elif what == "christoffel":
            n = dict(_SPECS)[spec]
            got = parse_tensor(res.output, n, 3)
            p = np.array([float(t) for t in point.split(",")])
            want = christoffel_reference(lambda q: self._metric_cli(spec, q), p)
            ok = bool(np.max(np.abs(got - want))
                      <= 1e-4 * (1.0 + np.max(np.abs(want))))
        tally.record(ok, "%s: wrong output %s" % (label, res.output[-300:]))

    def _metric_cli(self, spec, q):
        res = self.runner.invoke(self.lic.cli.main, [
            "tensor", "--spec", spec, "--point", _fmt_point(q), "--what",
            "metric", "--a", repr(A)])
        if res.exit_code != 0:
            raise RuntimeError("metric reference failed: %s" % res.output)
        return parse_tensor(res.output, len(q), 2)


def _wedge(i, j):
    w = np.zeros((4, 4))
    w[i, j], w[j, i] = 1.0, -1.0
    return w


def _eh_curvature_res(cf, rad):
    """The closed display the eh-curvature-forms check asserts: paired
    coefficients 2a^4/R^6 and -4a^4/R^6 in the instanton frame."""
    c = 2.0 * A ** 4 / rad ** 6
    pairs = [(cf[0, 1], c * (_wedge(0, 1) + _wedge(2, 3))),
             (cf[0, 2], c * (_wedge(0, 2) + _wedge(3, 1))),
             (cf[0, 3], -2 * c * (_wedge(0, 3) + _wedge(1, 2))),
             (cf[0, 1], cf[2, 3]), (cf[0, 2], -cf[1, 3]), (cf[0, 3], cf[1, 2])]
    return max(float(norm_res(X[None], Y[None])[0]) for X, Y in pairs)


WORKLOADS = {w.name: w for w in (SuiteDefault, WideBatch, SmallCalls)}
