import dataclasses
import gc
import json
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
import weakref

import click
import numpy as np
import pytest
from click.testing import CliRunner

import liccheck5
from liccheck5 import cli
from liccheck5 import curvature as C
from liccheck5 import geometry as geo
from liccheck5 import jets as J
from liccheck5 import verify as V
from liccheck5.errors import EmptyRegionError

FAST = V.SuiteConfig(samples=60)


@pytest.fixture(scope="module")
def baseline():
    return V.run_suite(FAST)


# ----------------------------------------------------------------- sampling

def test_sample_regions_and_exclusion():
    for region in ("B_a", "L"):
        x = V.sample(region, 1.0, 200, seed=5, exclusion=0.02)
        assert x.shape == (200, 5)
        r = np.sqrt(np.sum(x[:, 1:] ** 2, axis=1))
        assert np.min(np.abs(r - np.abs(x[:, 0]))) / np.sqrt(2) >= 0.02
        assert np.min(r) >= 0.02
        want = "B_a" if region == "B_a" else "L_interior"
        assert all(geo.classify(p, 1.0).tag == want for p in x)


def test_sample_outer_band_and_determinism():
    a = 2.0
    x = V.sample("B_a", a, 150, seed=9, exclusion=1e-3)
    r = np.sqrt(np.sum(x[:, 1:] ** 2, axis=1))
    ro = (r ** 2 - x[:, 0] ** 2) / r
    assert np.max(ro) < 0.95 / a
    assert np.array_equal(x, V.sample("B_a", a, 150, seed=9, exclusion=1e-3))
    assert not np.array_equal(x[:, 0], V.sample("B_a", a, 150, seed=10)[:, 0])


# the (exclusion, outer) pairs the unit tests draw B_a points with: an r_o
# floor lo is exclusion lo/sqrt(2), since r_o >= r - |x0|; a ceiling hi at
# a = 1 is outer hi
TEST_MARGINS = [(0.05 / np.sqrt(2), 0.95), (0.1 / np.sqrt(2), 0.9),
                (0.15 / np.sqrt(2), 0.9), (0.2 / np.sqrt(2), 0.8),
                (0.05 / np.sqrt(2), 0.35)]


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_sample_keeps_the_margins_the_tests_rely_on(a):
    margins = TEST_MARGINS + [(0.05 / np.sqrt(2), 1 - 0.05 * a)]
    draws = [("B_a", e, o) for e, o in margins] + [("L", 0.05, 0.95)]
    for region, exclusion, outer in draws:
        x = V.sample(region, a, 60, 11, exclusion, outer)
        assert x.shape == (60, 5)
        r, _, ro = geo.radial_values(x)
        gap = geo.cone_gap(x)
        assert np.all(np.abs(gap) / np.sqrt(2) >= exclusion)
        assert np.all(r >= exclusion)
        if region == "B_a":
            assert np.all(gap > 0) and np.all(ro < outer / a)
            assert np.all(ro >= np.sqrt(2) * exclusion)
        else:
            assert np.all(gap < 0)
        assert np.array_equal(x, V.sample(region, a, 60, 11, exclusion, outer))
        assert not np.array_equal(x, V.sample(region, a, 60, 12, exclusion,
                                              outer))


def test_import_loads_no_scipy():
    """The sampler draws from numpy alone; a fresh import of the suite and
    the CLI leaves no scipy module behind."""
    src = str(pathlib.Path(liccheck5.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, %r); "
            "import liccheck5.verify, liccheck5.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])" % src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_sample_guards():
    with pytest.raises(ValueError):
        V.sample("elsewhere", 1.0, 10, seed=0)
    with pytest.raises(EmptyRegionError):
        V.sample("B_a", 1.0, 10, seed=0, exclusion=5.0)


def test_config_validation():
    with pytest.raises(ValueError):
        V.SuiteConfig(a=-1.0)
    with pytest.raises(ValueError):
        V.SuiteConfig(samples=0)
    with pytest.raises(ValueError):
        V.SuiteConfig(exclusion=0.0)
    with pytest.raises(ValueError):
        V.SuiteConfig(a=2.0, exclusion=0.06)   # must stay below 1/(10a)
    with pytest.raises(ValueError):
        V.SuiteConfig(tol={"twistor-equation": -1e-8})
    # a non-finite value is refused with its field named
    for kwargs, name in (({"a": float("nan")}, "a"), ({"b": float("nan")}, "b"),
                         ({"c": float("inf")}, "c"),
                         ({"perturb": float("nan")}, "perturb")):
        with pytest.raises(ValueError, match="^%s must be finite" % name):
            V.SuiteConfig(**kwargs)
    for v in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="'twistor-equation' must be"):
            V.SuiteConfig(tol={"twistor-equation": v})


def test_config_takes_only_integer_samples_and_seed():
    # a float would run as its floor (seed) or error in every check
    # (samples) while the report printed it as given
    for kwargs in ({"samples": 2.5}, {"samples": True}, {"seed": 1.5},
                   {"seed": False}, {"seed": "3"}):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match="^%s must be an integer" % name):
            V.SuiteConfig(**kwargs)
    cfg = V.SuiteConfig(samples=np.int64(20), seed=np.int32(3))
    assert V.run_suite(cfg, only=["frame-orthonormality"]).overall == "pass"


# ---------------------------------------------------------------- the suite

def test_registry_shape():
    names = [c.name for c in V.REGISTRY]
    assert len(names) == len(set(names))
    assert all(n == n.lower() and " " not in n for n in names)
    assert "twistor-equation" in names and "essentiality" in names


def test_default_suite_passes(baseline):
    assert baseline.overall == "pass"
    assert [c.name for c in baseline.checks] == [c.name for c in V.REGISTRY]
    for c in baseline.checks:
        assert c.verdict == "pass", (c.name, c.residual_max, c.tol)
        assert 0.0 <= c.residual_median <= c.residual_max


def test_checks_are_independent(baseline):
    solo = V.run_suite(FAST, only=["parallel-spinor"])
    assert len(solo.checks) == 1
    full = [c for c in baseline.checks if c.name == "parallel-spinor"][0]
    assert solo.checks[0] == full       # wall time excluded from equality


def test_checks_run_in_registry_order_on_the_calling_thread(monkeypatch):
    calls = []

    def traced(check):
        def fn(cfg, seed):
            calls.append((check.name, threading.get_ident()))
            return check.fn(cfg, seed)
        return dataclasses.replace(check, fn=fn)

    monkeypatch.setattr(V, "REGISTRY", tuple(traced(c) for c in V.REGISTRY))
    t0 = time.perf_counter()
    rep = V.run_suite(V.SuiteConfig(samples=20))
    wall = time.perf_counter() - t0
    assert calls == [(c.name, threading.get_ident()) for c in V.REGISTRY]
    # check times do not overlap, so they add up to at most the run's time
    assert sum(c.seconds for c in rep.checks) <= wall


def test_probes_scale_with_the_family_parameter():
    # the probe curves and the essentiality radii shrink with 1/a, as the
    # sampling box does, so they stay inside the closure of B_a
    rep = V.run_suite(V.SuiteConfig(a=5.0, samples=30),
                      only=["regularity-classes", "weyl-decay", "essentiality"])
    assert rep.overall == "pass", [(c.name, c.verdict, c.error)
                                   for c in rep.checks]
    r = CliRunner().invoke(cli.main, ["probe-c1", "--a", "5", "--curves", "2"])
    assert r.exit_code == 0, r.output


@pytest.mark.parametrize("a", [0.1, 30.0])
def test_whole_suite_passes_away_from_a_one(a):
    # every check, not one or three; at a = 0.01 parallel-spinor still
    # fails (ROADMAP item 5)
    rep = V.run_suite(V.SuiteConfig(a=a, samples=30))
    assert len(rep.checks) == len(V.REGISTRY) == 21
    assert rep.overall == "pass", [(c.name, c.residual_max, c.error)
                                   for c in rep.checks if c.verdict != "pass"]


def test_whole_suite_passes_for_a_spinor_with_c():
    # at the default (b, c) = (1, 0), component 3 of psi and nu is zero,
    # so only a c != 0 run checks the c terms of every spinor formula
    rep = V.run_suite(V.SuiteConfig(b=0.6, c=0.8, samples=60))
    assert len(rep.checks) == len(V.REGISTRY)
    assert rep.overall == "pass", [(c.name, c.residual_max, c.error)
                                   for c in rep.checks if c.verdict != "pass"]


@pytest.mark.parametrize("a", [8.0, 10.0])
def test_product_ricci_flat_is_dilation_invariant(a):
    # Ric(gatilde_a) grows like a^2; the check divides it out, so the
    # default sample passes at every a, not only the small ones
    rep = V.run_suite(V.SuiteConfig(a=a), only=["product-ricci-flat"])
    c = rep.checks[0]
    assert c.verdict == "pass", (c.residual_max, c.error)


def test_skip_and_unknown_names(baseline):
    rep = V.run_suite(FAST, skip=("essentiality", "weyl-decay"))
    names = {c.name for c in rep.checks}
    assert "essentiality" not in names and "weyl-decay" not in names
    assert len(rep.checks) == len(V.REGISTRY) - 2
    with pytest.raises(ValueError):
        V.run_suite(FAST, skip=("no-such-check",))
    with pytest.raises(ValueError):
        V.run_suite(FAST, only=["no-such-check"])


def test_a_run_that_selects_nothing_is_refused():
    everything = [c.name for c in V.REGISTRY]
    for kwargs in ({"only": []}, {"skip": everything}):
        with pytest.raises(ValueError, match="^no checks selected$"):
            V.run_suite(FAST, **kwargs)
    args = ["run"] + [a for n in everything for a in ("--skip", n)]
    r = CliRunner().invoke(cli.main, args)
    assert r.exit_code == 1, r.output
    assert "Error: no checks selected" in r.output, r.output
    assert "overall" not in r.output and "Traceback" not in r.output


def _samples(parts):
    return sum(p.n if p.points is None else len(p.points) for p in parts)


@pytest.mark.parametrize("check", V.REGISTRY, ids=lambda c: c.name)
def test_check_protocol(check, monkeypatch):
    """Each check returns parts whose residuals line up with their points,
    and run_suite derives the sample count and the worst point from them."""
    got = []

    def recorded(cfg, seed):
        got.extend(check.fn(cfg, seed))
        return got

    monkeypatch.setattr(V, "REGISTRY", (dataclasses.replace(check,
                                                            fn=recorded),))
    result = V.run_suite(V.SuiteConfig(samples=20)).checks[0]
    assert not result.error, result.error
    assert result.samples == _samples(got) > 0
    held, at_worst = False, []
    for p in got:
        if p.points is None:
            assert p.n > 0 and p.region == ""
            continue
        res = np.asarray(p.res, dtype=float)
        assert res.ndim in (1, 2) and res.shape[-1] == len(p.points)
        if p.region in ("B_a", "L"):
            gap = geo.cone_gap(p.points)
            assert np.all(gap > 0 if p.region == "B_a" else gap < 0), p.region
        per = np.max(res.reshape(-1, len(p.points)), axis=0)
        held |= np.max(per) == result.residual_max
        if result.worst is not None and result.worst[0] == p.region:
            at_worst.extend(per[np.all(p.points == result.worst[1], axis=1)])
    if held:
        assert at_worst and max(at_worst) == result.residual_max
    else:
        assert result.worst is None


@pytest.mark.parametrize("check", ["einstein-rescale", "conformal-killing"])
def test_one_check_builds_each_region_metric_once(check, monkeypatch):
    builds = []

    def counted(spec, x, order=3, _fn=geo.metric_jets):
        builds.append((spec.family, order))
        return _fn(spec, x, order)

    monkeypatch.setattr(geo, "metric_jets", counted)
    fn = next(c.fn for c in V.REGISTRY if c.name == check)
    fn(V.SuiteConfig(samples=20), 0)
    # one per region, B_a and L; the Lie derivative and the divergence's
    # value read no second partials of the metric
    order = 2 if check == "einstein-rescale" else 1
    assert builds == [("ga", order), ("ga", order)]


def test_tol_override_flips_verdict():
    rep = V.run_suite(
        V.SuiteConfig(samples=40, tol={"frame-orthonormality": 1e-30}),
        only=["frame-orthonormality"])
    assert rep.checks[0].verdict == "fail"
    assert rep.overall == "fail"


def test_cli_run_prints_where_a_failing_check_is_worst():
    r = CliRunner().invoke(cli.main, [
        "run", "--only", "frame-orthonormality", "--samples", "40",
        "--tol-override", "frame-orthonormality=1e-30"])
    assert r.exit_code == 1, r.output
    lines = r.output.splitlines()
    assert lines[0].startswith("[fail] frame-orthonormality")
    m = re.fullmatch(r"    worst: B_a \((.*)\)", lines[1])
    assert m, lines[1]
    point = np.array([float(v) for v in m.group(1).split(", ")])
    assert point.shape == (5,) and geo.cone_gap(point[None])[0] > 0
    # a passing check prints no worst point
    r = CliRunner().invoke(cli.main, ["run", "--only", "frame-orthonormality",
                                      "--samples", "40"])
    assert r.exit_code == 0 and "worst" not in r.output, r.output


def test_tol_override_must_name_a_check(tmp_path):
    with pytest.raises(ValueError, match="twistor-equatoin"):
        V.run_suite(V.SuiteConfig(samples=8, tol={"twistor-equatoin": 1e-7}),
                    only=["clifford-relations"])
    r = CliRunner().invoke(cli.main, [
        "run", "--only", "clifford-relations",
        "--tol-override", "twistor-equatoin=1e-7"])
    assert r.exit_code == 1 and "Error:" in r.output, r.output
    assert "'twistor-equatoin'" in r.output and "Traceback" not in r.output
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"only": ["clifford-relations"],
                                "tol": {"no-such-check": 1e-3}}))
    r = CliRunner().invoke(cli.main, ["run", "--config", str(cfgf)])
    assert r.exit_code == 1 and "'no-such-check'" in r.output, r.output


def test_negative_control_hits_only_the_twistor_check(baseline):
    rep = V.run_suite(V.SuiteConfig(samples=60, perturb=1e-3))
    verdicts = {c.name: c.verdict for c in rep.checks}
    assert verdicts["twistor-equation"] == "fail"
    tw = [c for c in rep.checks if c.name == "twistor-equation"][0]
    assert tw.residual_max > 1e-5
    assert tw.worst[0] == "B_a"              # the defect is on the exterior
    for c, b in zip(rep.checks, baseline.checks):
        if c.name != "twistor-equation":
            assert c.verdict == b.verdict == "pass"


# ----------------------------------------------------------------- reports

def _report_in_fresh_interpreter(path, env, *args):
    """The report bytes of `verify run *args` in a new interpreter."""
    src = str(pathlib.Path(liccheck5.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, %r); "
            "from liccheck5.cli import main; main()" % src)
    subprocess.run([sys.executable, "-c", code, "run", *args,
                    "--report", str(path)],
                   env=dict(os.environ, **env), capture_output=True,
                   timeout=300, check=True)
    return path.read_bytes()


def test_blas_thread_count_does_not_change_the_report(tmp_path):
    """Large jet contractions run as batched matmul; the report is the same
    byte for byte with one BLAS thread and with two."""
    reports = [_report_in_fresh_interpreter(
        tmp_path / ("report-%s.json" % n),
        {"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n},
        "--only", "twistor-equation", "--only", "weyl-covariance",
        "--samples", "60") for n in ("1", "2")]
    assert reports[0] == reports[1]


def test_hash_seed_does_not_change_the_report(tmp_path):
    """The probes group their points by field tag and the essentiality
    radii by branch; the report is the same byte for byte under two string
    hash seeds."""
    reports = [_report_in_fresh_interpreter(
        tmp_path / ("report-%s.json" % h), {"PYTHONHASHSEED": h},
        "--only", "regularity-classes", "--only", "essentiality",
        "--samples", "60") for h in ("0", "1")]
    assert reports[0] == reports[1]


def test_json_shape(baseline):
    doc = json.loads(V.emit_report(baseline))
    assert doc["overall"] == "pass"
    assert doc["config"]["samples"] == 60
    assert len(doc["checks"]) == len(V.REGISTRY)
    row = doc["checks"][0]
    assert set(row) == {"name", "claim", "samples", "residual_max",
                        "residual_median", "tol", "verdict"}
    assert "seconds" not in json.dumps(doc)
    assert set(doc["versions"]) == {"liccheck5", "numpy", "python"}


def test_csv_layout(baseline):
    lines = V.emit_report(baseline, fmt="csv").strip().split("\n")
    assert lines[0] == "check,name,residual_max,residual_median,tol,verdict"
    assert len(lines) == len(V.REGISTRY) + 1
    assert lines[1].startswith("clifford-relations,")
    with pytest.raises(ValueError):
        V.emit_report(baseline, fmt="xml")


def test_a_raising_check_keeps_its_error(monkeypatch):
    def boom(cfg, seed):
        raise ValueError("boom")
    monkeypatch.setattr(V, "REGISTRY", tuple(
        dataclasses.replace(c, fn=boom) if c.name == "clifford-relations"
        else c for c in V.REGISTRY))
    rep = V.run_suite(FAST, only=["clifford-relations"])
    ch = rep.checks[0]
    assert ch.verdict == "error:ValueError"
    assert ch.error == "ValueError: boom (%s:%d)" % (
        boom.__code__.co_filename, boom.__code__.co_firstlineno + 1)
    # the report keeps its keys and bytes: the error is not serialized
    text = V.emit_report(rep)
    assert "boom" not in text
    assert set(json.loads(text)["checks"][0]) == {
        "name", "claim", "samples", "residual_max", "residual_median", "tol",
        "verdict"}
    r = CliRunner().invoke(cli.main, ["run", "--only", "clifford-relations"])
    assert r.exit_code == 1
    lines = r.output.splitlines()
    assert lines[0].startswith("[error:ValueError] clifford-relations")
    assert lines[1] == "    " + ch.error


def test_float_formatting_is_full_precision(baseline):
    text = V.emit_report(baseline)
    v = baseline.checks[1].residual_max
    assert ("%.17g" % v) in text


# --------------------------------------------------------------------- cli

def test_cli_run_subcommand(tmp_path):
    out = tmp_path / "rep.json"
    r = CliRunner().invoke(cli.main, [
        "run", "--samples", "40", "--only", "clifford-relations",
        "--only", "length-square", "--report", str(out)])
    assert r.exit_code == 0, r.output
    assert "overall: pass" in r.output
    doc = json.loads(out.read_text())
    assert [c["name"] for c in doc["checks"]] == ["clifford-relations",
                                                  "length-square"]


def test_cli_config_file_and_flag_precedence(tmp_path):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"samples": 33, "seed": 4,
                                "only": ["frame-orthonormality"],
                                "tol": {"frame-orthonormality": 1e-30}}))
    r = CliRunner().invoke(cli.main, ["run", "--config", str(cfgf)])
    assert r.exit_code == 1                   # config tol forces the fail
    assert "overall: fail" in r.output
    r = CliRunner().invoke(cli.main, [
        "run", "--config", str(cfgf), "--tol-override",
        "frame-orthonormality=1e-10"])
    assert r.exit_code == 0                   # flag beats the config file
    bad = tmp_path / "bad.json"
    bad.write_text('{"volume": 11}')
    r = CliRunner().invoke(cli.main, ["run", "--config", str(bad)])
    assert r.exit_code != 0 and "unknown config keys" in r.output
    cases = [('{', None), ('{"samples": "many"}', "samples"),
             ('{"tol": 5}', "tol"), ('{"regions": "B_a"}', "regions"),
             ('{"skip": "weyl-decay"}', "skip")]
    # a tolerance that is not a JSON number is refused, naming its check
    cases += [('{"tol": {"twistor-equation": %s}}' % v, "twistor-equation")
              for v in ("true", '"1e-8"', "null")]
    for text, key in cases:
        bad.write_text(text)
        r = CliRunner().invoke(cli.main, ["run", "--config", str(bad)])
        assert r.exit_code == 1, (text, r.output)
        assert "Error:" in r.output and "Traceback" not in r.output, text
        assert not isinstance(r.exception, (TypeError, ValueError)), text
        assert key is None or repr(key) in r.output, (text, r.output)


def test_cli_config_takes_every_suite_field(tmp_path):
    cfgf = tmp_path / "cfg.json"
    out = tmp_path / "rep.json"
    fields = {"a": 1.0, "samples": 40, "seed": 3, "b": 1.0, "c": 0.5,
              "tol": {"conformal-killing": 1e-8}, "exclusion": 2e-3,
              "perturb": 0.0}
    assert set(fields) == {f.name for f in dataclasses.fields(V.SuiteConfig)}
    cfgf.write_text(json.dumps(dict(fields, only=["conformal-killing"],
                                    report=str(out))))
    r = CliRunner().invoke(cli.main, ["run", "--config", str(cfgf)])
    assert r.exit_code == 0, r.output
    assert json.loads(out.read_text())["config"] == fields
    cfgf.write_text(json.dumps({"regions": ["B_a"]}))
    r = CliRunner().invoke(cli.main, ["run", "--config", str(cfgf)])
    assert r.exit_code == 1
    assert "Error: unknown config keys: ['regions']" in r.output, r.output
    cfgf.write_text(json.dumps({"perturb": 1e-3,
                                "only": ["twistor-equation"]}))
    r = CliRunner().invoke(cli.main, ["run", "--config", str(cfgf)])
    assert r.exit_code == 1                   # the negative control fails
    assert "[fail] twistor-equation" in r.output


@pytest.mark.parametrize("with_report", [False, True])
def test_cli_config_format_is_checked_before_the_run(tmp_path, monkeypatch,
                                                     with_report):
    cfgf = tmp_path / "cfg.json"
    out = tmp_path / "rep.xml"
    doc = {"format": "xml", "only": ["clifford-relations"]}
    if with_report:
        doc["report"] = str(out)
    cfgf.write_text(json.dumps(doc))
    runs = []
    monkeypatch.setattr(V, "run_suite", lambda *a, **k: runs.append(a))
    r = CliRunner().invoke(cli.main, ["run", "--config", str(cfgf)])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
    assert "Error: config key 'format' is 'xml': format must be json or csv" \
        in r.output, r.output
    assert runs == [] and not out.exists()


def test_cli_run_names_a_report_path_it_cannot_write(tmp_path):
    path = tmp_path / "missing" / "r.json"
    r = CliRunner().invoke(cli.main, ["run", "--only", "clifford-relations",
                                      "--report", str(path)])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
    assert "overall: pass" in r.output
    assert "Error: cannot write the report to %s" % path in r.output, r.output


def test_cli_probe_c1():
    r = CliRunner().invoke(cli.main, ["probe-c1", "--field", "ro2",
                                      "--curves", "2", "--seed", "3"])
    assert r.exit_code == 0, r.output
    assert "class C1" in r.output
    r = CliRunner().invoke(cli.main, ["probe-c1", "--field", "monomial:9"])
    assert r.exit_code != 0
    for n in ("0", "-3"):
        r = CliRunner().invoke(cli.main, ["probe-c1", "--curves", n])
        assert r.exit_code == 2 and "Invalid value for '--curves'" in r.output


@pytest.mark.parametrize("max_order,want", [
    (0, ">= C0"), (1, ">= C1"), (2, "C1"), (3, "C1")])
def test_cli_probe_c1_ga_honours_max_order(max_order, want):
    # ga is C1 but not C2, like r_o^2: orders below 2 see no jump
    r = CliRunner().invoke(cli.main, ["probe-c1", "--field", "ga",
                                      "--curves", "1",
                                      "--max-order", str(max_order)])
    assert r.exit_code == 0, r.output
    assert "predicted: class %s\n" % want in r.output, r.output


@pytest.mark.parametrize("max_order", ["-1", "4"])
def test_cli_probe_c1_rejects_max_order_out_of_range(max_order):
    r = CliRunner().invoke(cli.main, ["probe-c1", "--max-order", max_order])
    assert r.exit_code == 2, r.output
    assert "Invalid value for '--max-order'" in r.output, r.output
    assert "0<=x<=3" in r.output, r.output


def test_cli_tensor():
    r = CliRunner().invoke(cli.main, ["tensor", "--spec", "g0",
                                      "--point", "0.3,1,0,0,0"])
    assert r.exit_code == 0
    assert "[0,0] = -1" in r.output
    r = CliRunner().invoke(cli.main, ["tensor", "--spec", "eh",
                                      "--point", "1,2,3"])
    assert r.exit_code != 0 and "4d" in r.output
    r = CliRunner().invoke(cli.main, ["tensor", "--spec", "gatilde",
                                      "--point", "0.2,0.9,0,0,0",
                                      "--what", "ricci", "--a", "1.0"])
    assert r.exit_code == 0 and "zero (every component" in r.output


_COMPONENT = re.compile(r"^\s+\[([\d,]+)\] = (\S+)$", re.M)
TENSOR_POINTS = {"ga": np.array([0.3, 0.2, 0.5, 0.1, 0.3]),      # in B_a
                 "eh": np.array([2.0, 0.5, 0.0, 0.3])}


def _cli_tensor(family, what, rank):
    """The tensor `verify tensor` prints at TENSOR_POINTS[family], zero
    where it prints no component."""
    p = TENSOR_POINTS[family]
    r = CliRunner().invoke(cli.main, [
        "tensor", "--spec", family, "--what", what,
        "--point", ",".join("%.17g" % v for v in p)])
    assert r.exit_code == 0, r.output
    T = np.zeros((len(p),) * rank)
    for idx, val in _COMPONENT.findall(r.output):
        T[tuple(int(i) for i in idx.split(","))] = float(val)
    return T


@pytest.mark.parametrize("what,rank,want", [
    ("metric", 2, lambda spec, p: geo.metric_jets(spec, p, order=0).val.real),
    ("ricci", 2, C.ricci),
    ("weyl", 4, C.weyl),
])
def test_cli_tensor_prints_every_component_above_the_floor(what, rank, want):
    got = _cli_tensor("ga", what, rank)
    T = want(geo.MetricSpec("ga", 1.0), TENSOR_POINTS["ga"])
    assert np.all(np.abs(got - T) <= 1e-9 * max(np.max(np.abs(T)), 1.0))
    assert np.count_nonzero(got) > 0


@pytest.mark.parametrize("family", ["ga", "eh"])
def test_cli_tensor_christoffel_matches_central_differences(family):
    spec = geo.MetricSpec(family, 1.0)
    p = TENSOR_POINTS[family]
    n = len(p)

    def metric(q):
        return geo.metric_jets(spec, q, order=0).val.real

    dg = np.stack([J.central_diff(metric, p, np.eye(n, dtype=int)[m], 1e-4)
                   for m in range(n)])               # dg[m, i, j] = d_m g_ij
    t = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    want = 0.5 * np.einsum('kl,ijl->kij', np.linalg.inv(metric(p)), t)
    got = _cli_tensor(family, "christoffel", 3)
    assert np.max(np.abs(got - want)) <= 1e-7 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("args,field", [
    (["--a", "nan"], "a must be finite"),
    (["--b", "inf"], "b must be finite"),
    (["--tol-override", "twistor-equation=nan"], "'twistor-equation'"),
], ids=["a-nan", "b-inf", "tol-nan"])
def test_cli_run_rejects_non_finite_config(args, field):
    r = CliRunner().invoke(cli.main, ["run", "--only", "clifford-relations"]
                           + args)
    assert r.exit_code == 1, r.output
    assert "Error: bad config value: " in r.output, r.output
    assert field in r.output and "Traceback" not in r.output, r.output


@pytest.mark.parametrize("family,point", [
    ("ga", "nan,0.5,0.2,0.1,0.3"),
    ("ga", "inf,0.5,0.2,0.1,0.3"),
    ("g0", "nan,0.5,0.2,0.1,0.3"),
    ("eh", "2,0,-inf,0"),
])
def test_cli_tensor_rejects_non_finite_points(family, point):
    r = CliRunner().invoke(cli.main, ["tensor", "--spec", family,
                                      "--point", point])
    assert r.exit_code == 1, r.output
    assert "Error: point coordinates must be finite" in r.output, r.output


@pytest.mark.parametrize("a", ["-1", "0", "nan", "inf"])
def test_cli_tensor_rejects_bad_family_parameter(a):
    r = CliRunner().invoke(cli.main, ["tensor", "--spec", "ga", "--point",
                                      "0.1,0.5,0.2,0.1,0.3", "--a", a])
    assert r.exit_code == 1, r.output
    assert "Error: family 'ga' needs a > 0" in r.output, r.output
    assert "and finite, got a = " in r.output, r.output


@pytest.mark.parametrize("family,point,a,message", [
    ("ga", "0.1,0.5,0.2,0.1,0.3", "1e200", "point(s) outside the closure of B_a"),
    ("gatilde", "0.1,0.5,0.2,0.1,0.3", "1e80", "point(s) outside the closure of B_a"),
    ("ha", "0.1,0.5,0.2,0.3", "1e200", "ha needs r < 1/a"),
    ("eh", "2,0.5,0,0.3", "1e200", "eh needs R > a"),
], ids=["ga", "gatilde", "ha", "eh"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # numpy on inf - inf
def test_cli_tensor_huge_family_parameter_fails_cleanly(family, point, a, message):
    # a x overflows in its squares: the NaNs that follow must fail the
    # domain tests, not pass them and print as a zero metric
    r = CliRunner().invoke(cli.main, ["tensor", "--spec", family, "--point",
                                      point, "--a", a])
    assert r.exit_code == 1, r.output
    assert "Error: DomainError: " + message in r.output, r.output
    assert "zero" not in r.output and not _COMPONENT.findall(r.output), r.output


@pytest.mark.parametrize("a", ["-1", "0", "nan", "inf"])
def test_cli_probe_c1_rejects_bad_family_parameter(a):
    # the probe curves scale with 1/a, so a is checked before they are drawn
    r = CliRunner().invoke(cli.main, ["probe-c1", "--a", a, "--curves", "1"])
    assert r.exit_code == 1, r.output
    assert "Error: family 'ga' needs a > 0 and finite, got a = " in r.output, \
        r.output
    assert isinstance(r.exception, SystemExit), r.exception


def test_cli_calls_keep_no_captured_stdout_alive():
    # click.echo without a file caches a wrapper per stdout stream, weakly
    # keyed by a stream the wrapper itself keeps alive
    cells = click._compat._default_text_stdout.__closure__ or ()
    caches = [c.cell_contents for c in cells
              if isinstance(c.cell_contents, weakref.WeakKeyDictionary)]
    if not caches:
        pytest.skip("this click has no cache of stdout wrappers")
    gc.collect()
    before = len(caches[0])
    for _ in range(5):
        for args in (["run", "--only", "clifford-relations"],
                     ["probe-c1", "--field", "ro2", "--curves", "1"],
                     ["tensor", "--spec", "eh", "--point", "2,0,1,0"]):
            assert CliRunner().invoke(cli.main, args).exit_code == 0
    gc.collect()
    assert len(caches[0]) == before
