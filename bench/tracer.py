"""Per-layer tracing installed from outside the program.

Every public function of each ``liccheck5`` module is replaced, at its module
attribute, by a wrapper that records a span.  The package calls its own
functions through module attributes and module globals (``C.connection_forms``,
``geo.metric_jets``, ...), so the wrappers also see the nested calls.  The
check functions in ``verify.REGISTRY``, the callbacks of the click commands
and ``numpy.einsum`` get spans too, and the ``Jet`` ring operations get an
exact call count.  Nothing under ``src/`` is edited; ``installed()`` puts
every attribute back on exit.

A span's self time is its duration minus the durations of its direct child
spans.  Spans and counters are kept per thread, so the suite's thread pool
needs no lock on the hot path.
"""

import contextlib
import functools
import hashlib
import inspect
import threading
import time
from dataclasses import replace

import click
import numpy as np

# the package's modules that get spans, by their name under liccheck5
MODULES = ("jets", "geometry", "clifford", "frames", "curvature", "spingeo",
           "regularity", "verify", "cli")

# Jet methods whose entries make up ``jets.jet_ops``
JET_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "compose")


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "thread")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.child_s = 0.0
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class _ThreadState:
    __slots__ = ("stack", "spans", "jet_ops")

    def __init__(self):
        self.stack = []
        self.spans = []
        self.jet_ops = 0


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._seen = set()
        self.metric_jets_repeats = 0
        self.forms_points = 0

    # -- per-thread state ------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def _open(self, name):
        st = self._state()
        sp = Span(name, st.stack[-1] if st.stack else None,
                  threading.get_ident())
        st.stack.append(sp)
        sp.start = time.perf_counter()
        return st, sp

    @staticmethod
    def _close(st, sp):
        sp.end = time.perf_counter()
        st.stack.pop()
        if sp.parent is not None:
            sp.parent.child_s += sp.end - sp.start
        st.spans.append(sp)

    @contextlib.contextmanager
    def span(self, name):
        st, sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(st, sp)

    @property
    def spans(self):
        return [sp for st in self._threads for sp in st.spans]

    @property
    def jet_ops(self):
        return sum(st.jet_ops for st in self._threads)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn, on_call=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            st, sp = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(st, sp)
        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._state().jet_ops += 1
            return fn(*args, **kwargs)
        return counted

    def _on_metric_jets(self, fn):
        sig = inspect.signature(fn)

        def hook(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            x = np.ascontiguousarray(b.arguments["x"], dtype=float)
            key = (repr(b.arguments["spec"]), b.arguments.get("order"),
                   x.shape, hashlib.blake2b(x.tobytes(), digest_size=16).digest())
            with self._lock:
                if key in self._seen:
                    self.metric_jets_repeats += 1
                else:
                    self._seen.add(key)
        return hook

    def _on_connection_forms(self, fn):
        sig = inspect.signature(fn)

        def hook(args, kwargs):
            x = np.asarray(sig.bind(*args, **kwargs).arguments["x"])
            n = int(np.prod(x.shape[:-1])) if x.ndim > 1 else 1
            with self._lock:
                self.forms_points += n
        return hook

    @contextlib.contextmanager
    def installed(self, pkg):
        """Wrap the package's layers for the duration of the block."""
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        hooks = {"geometry.metric_jets": self._on_metric_jets,
                 "curvature.connection_forms": self._on_connection_forms}
        try:
            for short in MODULES:
                mod = getattr(pkg, short)
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_"):
                        continue
                    name = "%s.%s" % (short, attr)
                    if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                        hook = hooks.get(name)
                        patch(mod, attr, self._wrap(
                            name, obj, hook(obj) if hook else None))
                    elif (isinstance(obj, click.Command)
                          and not isinstance(obj, click.Group)
                          and obj.callback is not None):
                        patch(obj, "callback", self._wrap(name, obj.callback))
            verify = pkg.verify
            patch(verify, "REGISTRY", tuple(
                replace(c, fn=self._wrap("verify.check." + c.name, c.fn))
                for c in verify.REGISTRY))
            patch(np, "einsum", self._wrap("numpy.einsum", np.einsum))
            jet = getattr(pkg.jets, "Jet", None)
            for attr in JET_OPS if jet is not None else ():
                if attr in jet.__dict__:
                    patch(jet, attr, self._count(jet.__dict__[attr]))
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)


# ------------------------------------------------------------- analysis

def thread_balance(tracer):
    """Largest |sum of self times - sum of root-span durations| over threads.

    Zero up to rounding when every span closed and nested properly."""
    worst = 0.0
    for st in tracer._threads:
        self_sum = sum(sp.self_s for sp in st.spans)
        root_sum = sum(sp.duration for sp in st.spans if sp.parent is None)
        worst = max(worst, abs(self_sum - root_sum))
    return worst


def layer_metrics(tracers):
    """Per-layer figures averaged over traced passes: ``<span>.self_s``,
    ``<span>.s`` and ``<span>.calls`` for every span name, plus the derived
    counters."""
    k = float(len(tracers))
    out = {}
    calls = {}
    for tr in tracers:
        for sp in tr.spans:
            out[sp.name + ".self_s"] = out.get(sp.name + ".self_s", 0.0) + sp.self_s / k
            out[sp.name + ".s"] = out.get(sp.name + ".s", 0.0) + sp.duration / k
            calls[sp.name] = calls.get(sp.name, 0) + 1
    for name, n in calls.items():
        out[name + ".calls"] = n / k
    out["jets.jet_ops"] = sum(tr.jet_ops for tr in tracers) / k
    mj = calls.get("geometry.metric_jets", 0)
    out["geometry.metric_jets.repeat_ratio"] = (
        sum(tr.metric_jets_repeats for tr in tracers) / mj if mj else 0.0)
    cf = calls.get("curvature.connection_forms", 0)
    out["curvature.connection_forms.points_per_call"] = (
        sum(tr.forms_points for tr in tracers) / cf if cf else 0.0)
    out.update(_pool_metrics(tracers, k))
    return out


def _pool_metrics(tracers, k):
    busy = wall = wait = 0.0
    for tr in tracers:
        spans = tr.spans
        suites = sorted((sp for sp in spans if sp.name == "verify.run_suite"),
                        key=lambda sp: sp.start)
        for sp in spans:
            if not sp.name.startswith("verify.check."):
                continue
            busy += sp.duration
            entry = [s.start for s in suites if s.start <= sp.start]
            if entry:
                wait += sp.start - entry[-1]
        wall += sum(sp.duration for sp in suites)
    return {"verify.pool.parallelism": busy / wall if wall else 0.0,
            "verify.pool.wait_s": wait / k}
