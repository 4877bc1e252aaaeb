"""Smoke tests of the benchmark harness, at a few points per workload.

    python3 -m pytest bench

They run the real command in ``--smoke`` mode for every workload, traced and
untraced, and check the tracer and the correctness gates directly.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

WORKLOADS = sorted(W.WORKLOADS)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)


def _lic():
    for name in T.MODULES:
        importlib.import_module("liccheck5." + name)
    return importlib.import_module("liccheck5")


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _smoke(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds",
                  "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _has_chain(tracer, names):
    """True when some span path, outermost first, passes through ``names`` in
    order (other spans may sit between them)."""
    for sp in tracer.spans:
        if sp.name != names[-1]:
            continue
        want = len(names) - 2
        node = sp.parent
        while node is not None and want >= 0:
            if node.name == names[want]:
                want -= 1
            node = node.parent
        if want < 0:
            return True
    return False


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    table, res = _smoke(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(res["metrics"])
    for m in DECLARED["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert any(line.split()[0] == m["name"] for line in table)
    assert any(line.split()[0] == "fail_ratio" for line in table)
    if workload == "small-calls":
        # the known `verify tensor --what christoffel` defect, one per spec
        # in each pass: the warm-up pass and the one timed pass of a smoke run
        assert res["failed"] == 10
        assert "10 known defect, 0 wrong" in "\n".join(table)
    else:
        assert res["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    table, res = _smoke(workload, 1)
    assert res["correct"] is True
    assert [m["name"] for m in DECLARED["per_layer"]] == list(res["metrics"])
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["jets.jet_ops"] > 0 and m["numpy.einsum.calls"] > 0
    assert m["trace.self_time_balance_s"] <= 1e-6
    assert m["trace.overhead_ratio"] > 0
    if workload == "suite-default":
        assert m["verify.pool.parallelism"] > 0
        assert m["verify.check.twistor-equation.s"] > 0
    if workload == "small-calls":
        assert m["cli.tensor.s"] > 0 and m["cli.probe_c1.s"] > 0
        assert m["curvature.connection_forms.points_per_call"] == 1


def test_spans_nest_from_check_to_kernels():
    lic = _lic()
    tr = T.Tracer()
    cfg = lic.verify.SuiteConfig(samples=8)
    with tr.installed(lic), tr.span("bench.pass"):
        rep = lic.verify.run_suite(cfg, only=["twistor-equation"])
    assert rep.overall == "pass"
    outer = ["verify.check.twistor-equation", "spingeo.twistor_residual",
             "curvature.connection_forms", "curvature.forms_from_jets"]
    assert _has_chain(tr, outer + ["jets.jmat_inv"])
    assert _has_chain(tr, outer + ["numpy.einsum"])
    assert not _has_chain(tr, ["numpy.einsum", "verify.check.twistor-equation"])
    assert T.thread_balance(tr) <= 1e-9
    # the pool's spans live on worker threads, the pass span on this one
    assert len({sp.thread for sp in tr.spans}) >= 2
    assert tr.jet_ops > 0


def test_tracer_puts_every_attribute_back():
    lic = _lic()
    before = (np.einsum, lic.curvature.connection_forms, lic.verify.REGISTRY,
              lic.jets.Jet.__dict__["__add__"], lic.cli.tensor.callback)
    with T.Tracer().installed(lic):
        assert np.einsum is not before[0]
        assert lic.jets.Jet.__dict__["__add__"] is not before[3]
    after = (np.einsum, lic.curvature.connection_forms, lic.verify.REGISTRY,
             lic.jets.Jet.__dict__["__add__"], lic.cli.tensor.callback)
    assert all(a is b for a, b in zip(before, after))


def test_gates_count_wrong_results():
    lic = _lic()
    wide = W.WideBatch(lic, W.SMOKE, seed=1)
    inputs = wide.prepare(0)
    out = wide.execute(inputs)
    good = W.Tally()
    wide.judge(inputs, out, good)
    assert good.attempted > 0 and good.failed == 0
    out.raw["w_gt"] = out.raw["w_gt"] * 1.001       # breaks Weyl covariance
    bad = W.Tally()
    wide.judge(inputs, out, bad)
    assert bad.wrong == 1 and "weyl-covariance" in bad.notes[0]

    suite = W.SuiteDefault(lic, W.SMOKE, seed=1)
    checks = [{"name": "twistor-equation", "verdict": "pass",
               "residual_max": 1.0, "samples": 1, "seconds": 0.1}]
    tally = W.Tally()
    for report in ("a", "b"):
        suite.judge(None, W.PassOutput(1.0, [0.1], 1, {
            "checks": checks, "report": report}), tally)
    # residual above its REGISTRY tolerance twice, then differing bytes
    assert (tally.attempted, tally.wrong) == (3, 3)


def test_christoffel_reference_on_polar_coordinates():
    # g = diag(1, x0^2): Gamma^0_11 = -x0, Gamma^1_01 = Gamma^1_10 = 1/x0
    p = np.array([1.7, 0.3])
    got = W.christoffel_reference(lambda q: np.diag([1.0, q[0] ** 2]), p)
    want = np.zeros((2, 2, 2))
    want[0, 1, 1] = -p[0]
    want[1, 0, 1] = want[1, 1, 0] = 1.0 / p[0]
    assert np.max(np.abs(got - want)) < 1e-9


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "wide-batch", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
