"""liccheck5 benchmark: one command for every workload.

    python3 bench/run.py --workload {suite-default,wide-batch,small-calls}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  suite-default and wide-batch make two
timed passes each; small-calls repeats passes until ``--seconds``, counted
from the start of the run, is used up and at least 220 calls are made.
wide-batch and small-calls make an untimed warm-up pass first.  Every
output is checked.  The
human-readable table comes first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
``--smoke`` runs every workload at a few points, to keep the harness alive.
"""

import os

# One caller in one process: the suite's own pool is the only extra thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("VERIFY_THREADS", None)      # the default thread count

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

_SETUP = ("import sys, time\n"
          "t0 = time.perf_counter()\n"
          "sys.path.insert(0, sys.argv[1])\n"
          "import liccheck5.verify, liccheck5.cli\n"
          "print(time.perf_counter() - t0)\n")


def load_package():
    """Import liccheck5 and every traced module from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "liccheck5", "__init__.py")):
        raise SystemExit("bench: no package source under %s" % SRC)
    sys.path.insert(0, SRC)
    lic = importlib.import_module("liccheck5")
    here = os.path.realpath(os.path.dirname(lic.__file__))
    if os.path.dirname(here) != os.path.realpath(SRC):
        raise SystemExit("bench: imported liccheck5 from %s, not from %s"
                         % (here, SRC))
    for name in T.MODULES:
        importlib.import_module("liccheck5." + name)
    return lic


def measure_setup(repeats):
    """Fresh-interpreter import of the verify and cli modules, in seconds."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _SETUP, SRC],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_passes(lic, wl, t_start, seconds, trace):
    """Run the warm-up pass, if the workload has one, then the workload's
    fixed number of passes or, when it has none, repeat passes until
    ``seconds`` after ``t_start`` are used up and the call floor is met.  A
    traced run alternates untraced and traced passes, all in-process, and
    makes one of each when the workload has a fixed pass count."""
    tally = W.Tally()
    plain, traced, tracers, loop_s = [], [], [], []
    warm = wl.warm_up()
    if warm is not None:
        wl.judge(warm, wl.execute(warm, in_process=True), tally)
    i = 1
    while True:
        t_it = time.perf_counter()
        inputs = wl.prepare(i)
        if trace and i % 2 == 0:
            tr = T.Tracer()
            with tr.installed(lic), tr.span("bench.pass"):
                out = wl.execute(inputs, in_process=True)
            tracers.append(tr)
            traced.append(out)
        else:
            out = wl.execute(inputs, in_process=trace)
            plain.append(out)
        residuals = wl.judge(inputs, out, tally)
        loop_s.append(time.perf_counter() - t_it)
        i += 1
        if trace:
            done = plain and traced and (
                wl.passes is not None or time.perf_counter() - t_start
                + statistics.median(loop_s) > seconds)
        elif wl.passes is not None:
            done = len(plain) >= wl.passes
        else:
            done = (sum(len(o.latencies) for o in plain) >= wl.min_calls and
                    time.perf_counter() - t_start
                    + statistics.median(loop_s) > seconds)
        if done:
            return tally, plain, traced, tracers, residuals


def end_to_end(plain, setup):
    lat_ms = np.array([dt for o in plain for dt in o.latencies]) * 1e3
    rss = [o.rss_mb for o in plain if o.rss_mb is not None]
    p50, p95 = np.percentile(lat_ms, [50, 95])
    return {
        "setup_s": (statistics.median(setup), "median of %d fresh imports: %s"
                    % (len(setup), " ".join("%.4g" % t for t in setup))),
        # means, not medians: a shared host can switch between a fast and a
        # slow state for seconds at a time, and a mean moves smoothly with
        # the share of the run spent in each, where a median of passes jumps
        "wall_s": (statistics.mean(o.wall_s for o in plain),
                   "mean of %d passes: %s" % (len(plain), " ".join(
                       "%.4g" % o.wall_s for o in plain))),
        "points_per_s": (sum(o.points for o in plain)
                         / sum(o.wall_s for o in plain),
                         "%d points in %d passes" % (
                             sum(o.points for o in plain), len(plain))),
        "call_p50_ms": (float(p50), "of %d calls" % len(lat_ms)),
        "call_p95_ms": (float(p95), "%d calls beyond it"
                        % int(np.sum(lat_ms > p95))),
        "peak_rss_mb": (statistics.median(rss) if rss else
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "median over pass processes" if rss else "this process"),
    }


def per_layer(plain, traced, tracers, tally):
    out = {k: (v, "per traced pass") for k, v in T.layer_metrics(tracers).items()}
    wall_p = statistics.median(o.wall_s for o in plain)
    wall_t = statistics.median(o.wall_s for o in traced)
    balance = max(T.thread_balance(tr) for tr in tracers)
    tally.record(balance <= 1e-6, "per-thread self times miss the root spans "
                 "by %r s" % balance)
    out["trace.untraced_wall_s"] = (wall_p, "median of %d passes" % len(plain))
    out["trace.traced_wall_s"] = (wall_t, "median of %d passes" % len(traced))
    out["trace.overhead_ratio"] = (wall_t / wall_p, "traced / untraced wall")
    out["trace.self_time_balance_s"] = (balance, "worst thread")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, to check the harness itself")
    args = ap.parse_args(argv)
    t_start = time.perf_counter()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    lic = load_package()
    sizes = W.SMOKE if args.smoke else W.FULL
    seed = args.seed % 2 ** 32
    wl = W.WORKLOADS[args.workload](lic, sizes, seed)
    setup = [] if args.trace else measure_setup(sizes.setup_repeats)
    tally, plain, traced, tracers, residuals = run_passes(
        lic, wl, t_start, args.seconds, bool(args.trace))
    if args.trace:
        found = per_layer(plain, traced, tracers, tally)
        wanted = declared["per_layer"]
    else:
        found = end_to_end(plain, setup)
        wanted = declared["end_to_end"]

    print("workload %s  seed %d  trace %d%s" % (args.workload, args.seed,
                                                args.trace,
                                                "  (smoke)" if args.smoke else ""))
    for name in sorted(found):
        value, note = found[name]
        print("  %-50s %-14.6g %s" % (name, value, note))
    for name, (value, tol) in sorted(residuals.items()):
        print("  residual_max %-37s %-14.6g tol %g" % (name, value, tol))
    print("  fail_ratio %.6g  (%d failed of %d attempted; %d known defect, "
          "%d wrong)" % (tally.failed / tally.attempted, tally.failed,
                         tally.attempted, tally.known, tally.wrong))
    for note in tally.notes:
        print("  FAILED: %s" % note)

    metrics = {}
    for m in wanted:
        if m["name"] in found:
            value = found[m["name"]][0]
        elif args.trace:
            value = 0.0                 # a layer this workload never enters
        else:
            raise SystemExit("bench: end-to-end metric %s not measured"
                             % m["name"])
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
