import dataclasses
import gc
import json
import weakref

import click
import numpy as np
import pytest
from click.testing import CliRunner

from liccheck5 import cli
from liccheck5 import geometry as geo
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
    with pytest.raises(ValueError):
        V.SuiteConfig(regions=("B_a", "moon"))


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


def test_skip_and_unknown_names(baseline):
    rep = V.run_suite(FAST, skip=("essentiality", "weyl-decay"))
    names = {c.name for c in rep.checks}
    assert "essentiality" not in names and "weyl-decay" not in names
    assert len(rep.checks) == len(V.REGISTRY) - 2
    with pytest.raises(ValueError):
        V.run_suite(FAST, skip=("no-such-check",))
    with pytest.raises(ValueError):
        V.run_suite(FAST, only=["no-such-check"])


def test_tol_override_flips_verdict():
    rep = V.run_suite(
        V.SuiteConfig(samples=40, tol={"frame-orthonormality": 1e-30}),
        only=["frame-orthonormality"])
    assert rep.checks[0].verdict == "fail"
    assert rep.overall == "fail"


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
    for c, b in zip(rep.checks, baseline.checks):
        if c.name != "twistor-equation":
            assert c.verdict == b.verdict == "pass"


# ----------------------------------------------------------------- reports

def test_thread_count_does_not_change_the_report(baseline, monkeypatch):
    monkeypatch.setenv("VERIFY_THREADS", "1")
    assert V.emit_report(V.run_suite(FAST)) == V.emit_report(baseline)


def test_verify_threads_must_be_a_positive_integer(monkeypatch):
    monkeypatch.setenv("VERIFY_THREADS", "abc")
    with pytest.raises(ValueError, match="VERIFY_THREADS.*positive integer"):
        V.run_suite(FAST, only=["clifford-relations"])


def test_cli_run_rejects_bad_verify_threads(monkeypatch):
    monkeypatch.setenv("VERIFY_THREADS", "abc")
    r = CliRunner().invoke(cli.main, ["run", "--only", "clifford-relations"])
    assert r.exit_code != 0
    assert "VERIFY_THREADS" in r.output and "positive integer" in r.output
    assert "invalid literal" not in r.output


def test_json_shape(baseline):
    doc = json.loads(V.emit_report(baseline))
    assert doc["overall"] == "pass"
    assert doc["config"]["samples"] == 60
    assert len(doc["checks"]) == len(V.REGISTRY)
    row = doc["checks"][0]
    assert set(row) == {"name", "claim", "samples", "residual_max",
                        "residual_median", "tol", "verdict"}
    assert "seconds" not in json.dumps(doc)


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
    for text, key in (('{', None), ('{"samples": "many"}', "samples"),
                      ('{"tol": 5}', "tol"), ('{"regions": "B_a"}', "regions"),
                      ('{"skip": "weyl-decay"}', "skip")):
        bad.write_text(text)
        r = CliRunner().invoke(cli.main, ["run", "--config", str(bad)])
        assert r.exit_code == 1, (text, r.output)
        assert "Error:" in r.output and "Traceback" not in r.output, text
        assert not isinstance(r.exception, (TypeError, ValueError)), text
        assert key is None or repr(key) in r.output, (text, r.output)


def test_cli_config_takes_every_suite_field(tmp_path):
    cfgf = tmp_path / "cfg.json"
    out = tmp_path / "rep.json"
    cfgf.write_text(json.dumps({"regions": ["B_a"],
                                "only": ["conformal-killing"],
                                "report": str(out)}))
    r = CliRunner().invoke(cli.main, ["run", "--config", str(cfgf)])
    assert r.exit_code == 0, r.output
    assert json.loads(out.read_text())["config"]["regions"] == ["B_a"]
    cfgf.write_text(json.dumps({"perturb": 1e-3,
                                "only": ["twistor-equation"]}))
    r = CliRunner().invoke(cli.main, ["run", "--config", str(cfgf)])
    assert r.exit_code == 1                   # the negative control fails
    assert "[fail] twistor-equation" in r.output


def test_cli_probe_c1():
    r = CliRunner().invoke(cli.main, ["probe-c1", "--field", "ro2",
                                      "--curves", "2", "--seed", "3"])
    assert r.exit_code == 0, r.output
    assert "class C1" in r.output
    r = CliRunner().invoke(cli.main, ["probe-c1", "--field", "monomial:9"])
    assert r.exit_code != 0


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
