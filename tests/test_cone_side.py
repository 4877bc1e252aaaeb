"""The cone-side policy of every layer, on the four kinds of batch.

g_a is flat on the closed cone L = {r <= |x0|} and deformed outside it, so
each layer must say which side a batch is on.  The policy pinned here:

  * metric and r_o jets take the flat branch strictly inside L and raise
    AmbiguousError on the boundary, where their derivatives jump;
  * frames, the transition Q and spinor components take the flat branch on
    the whole closed cone, boundary included; frame f and the cone boost
    kappa live off the cone only;
  * a batch that mixes the two sides is refused;
  * the smoothness probe needs a curve whose legs separate cleanly across
    the cone.
"""

import numpy as np
import pytest

from liccheck5 import curvature as C
from liccheck5 import frames as F
from liccheck5 import geometry as geo
from liccheck5 import regularity as R
from liccheck5 import spingeo as S
from liccheck5 import verify as V
from liccheck5.errors import (AmbiguousError, DomainError,
                              NonTransversalError)

GA = geo.MetricSpec("ga", 1.0)

BATCHES = {
    "exterior": np.array([[0.1, 0.5, 0.2, 0.1, 0.3],
                          [-0.05, 0.3, -0.2, 0.4, 0.1]]),
    "interior": np.array([[1.0, 0.2, 0.3, -0.1, 0.4],
                          [-0.8, 0.1, -0.2, 0.3, 0.1]]),
    # r = |x0| = 1 exactly in floating point
    "cone": np.array([[1.0, 0.5, 0.5, 0.5, 0.5]]),
    "mixed": np.array([[0.1, 0.5, 0.2, 0.1, 0.3],
                       [1.0, 0.2, 0.3, -0.1, 0.4]]),
}

# probe curves: both legs exterior, both interior, along a cone generator,
# and a clean crossing (exterior for t > 0, interior for t < 0)
CURVES = {
    "exterior": R.CrossingCurve(BATCHES["exterior"][0], [0.0, 1, 0, 0, 0]),
    "interior": R.CrossingCurve(BATCHES["interior"][0], [0.0, 0, 1, 0, 0]),
    "cone": R.CrossingCurve(BATCHES["cone"][0], BATCHES["cone"][0]),
    "mixed": R.CrossingCurve(BATCHES["cone"][0], [-1.0, 0.5, 0.5, 0.5, 0.5]),
}


def _cylindrical_frame(x):
    """Frame e on L, where r_o = 0: d0, dr and the unit sphere directions."""
    r = np.linalg.norm(x[:, 1:], axis=1)[:, None]
    ks = [np.stack(k, axis=-1)
          for k in geo.sigma_dual_vectors(list(x[:, 1:].T))]
    cols = [np.tile(np.eye(5)[0], (len(x), 1))]
    cols += [np.column_stack([np.zeros(len(x)), v / r]) for v in [x[:, 1:]] + ks]
    return np.stack(cols, axis=-1)


def _identity(x):
    return np.broadcast_to(np.eye(5), x.shape[:1] + (5, 5))


# name -> (evaluation, value of the flat branch or None where there is none)
LAYERS = {
    "metric_jets": (lambda x: geo.metric_jets(GA, x, order=1).val,
                    lambda x: np.broadcast_to(geo.ETA, x.shape[:1] + (5, 5))),
    "radial_ro": (lambda x: geo.RadialJets(x, 1).ro.val,
                  lambda x: np.zeros(len(x))),
    "frame_e": (lambda x: F.frame_eval("e", x, 1.0, order=1).val,
                _cylindrical_frame),
    "frame_f": (lambda x: F.frame_eval("f", x, 1.0, order=1).val,
                None),
    "frame_htilde": (lambda x: F.frame_eval("htilde", x, 1.0, order=1).val,
                     _identity),
    "Q": (lambda x: F.transform_eval("Q", x, 1.0, order=1).val, _identity),
    "kappa": (lambda x: F.transform_eval("kappa", x, 1.0, order=1).val,
              _identity),
    "psi_components_htilde": (
        lambda x: S.psi_components_htilde(1.0, 0.5, x),
        lambda x: S.psi_bc(1.0, 0.5, frame="u").values(x)),
    "smoothness_probe": (
        lambda curve: R.smoothness_probe(R.RO2, curve, max_order=2), None),
}

# "deformed": finite and off the flat branch; "flat": exactly the flat branch
POLICY = {
    "metric_jets": ("deformed", "flat", AmbiguousError, AmbiguousError),
    "radial_ro": ("deformed", "flat", AmbiguousError, AmbiguousError),
    "frame_e": ("deformed", "flat", AmbiguousError, AmbiguousError),
    "frame_f": ("deformed", DomainError, DomainError, DomainError),
    "frame_htilde": ("deformed", "flat", "flat", AmbiguousError),
    "Q": ("deformed", "flat", "flat", AmbiguousError),
    "kappa": ("deformed", DomainError, DomainError, DomainError),
    "psi_components_htilde": ("deformed", "flat", "flat", AmbiguousError),
    "smoothness_probe": (NonTransversalError, NonTransversalError,
                         NonTransversalError, "report"),
}

CASES = [(name, kind, want)
         for name, wants in POLICY.items()
         for kind, want in zip(("exterior", "interior", "cone", "mixed"), wants)]


@pytest.mark.parametrize("name,kind,want", CASES,
                         ids=["%s-%s" % c[:2] for c in CASES])
def test_cone_side_policy(name, kind, want):
    fn, flat = LAYERS[name]
    x = (CURVES if name == "smoothness_probe" else BATCHES)[kind]
    if isinstance(want, type):
        with pytest.raises(want):
            fn(x)
        return
    out = fn(x)
    if want == "report":
        assert isinstance(out, R.ProbeReport)
        assert out.smoothness_class == 1
        return
    out = np.asarray(out)
    assert np.all(np.isfinite(out))
    if want == "flat":
        assert np.max(np.abs(out - flat(x))) < 1e-15
    elif flat is not None:
        off = np.max(np.abs(out - flat(x)).reshape(len(x), -1), axis=1)
        assert np.all(off > 1e-3)


# Forced blocking: 40-point batches in blocks of 10.  The cone side of a
# split batch is decided over the whole batch, so the policy above holds
# even when every block lies on one side.

# name -> (evaluation, the order of the metric jet it builds)
SPLIT_LAYERS = {
    "metric_jets": (lambda x: geo.metric_jets(GA, x, order=1), 1),
    "metric_jets-gatilde": (lambda x: geo.metric_jets(
        geo.MetricSpec("gatilde", 1.0), x, order=1), 1),
    "weyl": (lambda x: C.weyl(GA, x), 2),
}


def _split_layer(name, monkeypatch):
    """The layer's evaluation, with blocks shrunk to 10 points."""
    fn, order = SPLIT_LAYERS[name]
    monkeypatch.setattr(geo, "BLOCK_BYTES", 10 * 8 * 5 ** (order + 2))
    return fn


@pytest.mark.parametrize("name", list(SPLIT_LAYERS))
def test_split_batch_mixing_the_sides_is_refused(name, monkeypatch):
    ext = V.sample("B_a", 1.0, 20, 91, exclusion=0.05)
    inner = V.sample("L", 1.0, 20, 92, exclusion=0.05)
    fn = _split_layer(name, monkeypatch)
    fn(ext), fn(inner)                   # each half alone is fine
    with pytest.raises(AmbiguousError, match="mixes the two sides"):
        fn(np.vstack([ext, inner]))


@pytest.mark.parametrize("name", list(SPLIT_LAYERS))
def test_split_batch_with_a_cone_point_in_a_later_block_is_refused(
        name, monkeypatch):
    x = V.sample("B_a", 1.0, 40, 93, exclusion=0.05)
    x[35] = BATCHES["cone"][0]
    with pytest.raises(AmbiguousError, match="on the cone boundary"):
        _split_layer(name, monkeypatch)(x)


@pytest.mark.parametrize("name", list(SPLIT_LAYERS))
def test_split_batch_outside_the_closure_raises_as_unsplit(name, monkeypatch):
    x = V.sample("B_a", 1.0, 40, 94, exclusion=0.05)
    x[-1] = [0.0, 2.0, 0.0, 0.0, 0.0]          # r_o = 2 > 1/a
    with pytest.raises(DomainError) as unsplit:
        SPLIT_LAYERS[name][0](x)
    with pytest.raises(DomainError) as split:
        _split_layer(name, monkeypatch)(x)
    assert str(split.value) == str(unsplit.value)
    assert "outside the closure of B_a" in str(split.value)
