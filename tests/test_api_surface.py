"""Every function of the package is reached by the package itself.

A public function that only tests call is either an independent oracle the
tests compare the package against, or a guarantee waiting to be registered
as a check; the two kinds are listed in ORACLES and PENDING_CHECKS.
Anything else unreferenced fails here, so an orphan cannot slip in unseen.
A module-level private helper has no such excuse: it must have a caller,
and neither has a public method or property of the jet class.
References are names and attributes in the package's own source (strings
and comments do not count); bench/ and tests/ do not count either.  The
closed forms of geometry's table are ids, not functions: each has one
public entry that takes it.
"""

import ast
import importlib
import inspect
import pathlib

import numpy as np

import liccheck5
from liccheck5 import frames, geometry, jets

SRC = pathlib.Path(liccheck5.__file__).parent

# public functions only tests call, kept as references the tests check the
# package against: the region classifier, the covector alpha of the g_a
# formula (its cylindrical rewrite is compared with the closed-form metric),
# Riemann by differentiating the Christoffel jets (the curvature bundle's
# value kernel is compared with it), the jet engine's coefficient and
# finite-difference oracles, the vector representation of a spin lift, and
# the one-curve smoothness probe (each report of a batched probe is compared
# with it, bit for bit)
ORACLES = (
    "clifford.lambda_of",
    "curvature.riemann_from_christoffel",
    "geometry.alpha_form",
    "geometry.classify",
    "jets.central_diff",
    "jets.extract",
    "regularity.smoothness_probe",
)

# public functions only tests call, kept because each is a guarantee planned
# as a registered check: the htilde components extend C1 across the cone,
# and the frame forms satisfy the structure equations and first Bianchi
PENDING_CHECKS = (
    "curvature.bianchi_residual",
    "curvature.structure_residuals",
    "spingeo.c1_extension_check",
)

TEST_ONLY = ORACLES + PENDING_CHECKS


def _referenced_names():
    """Names and attributes used in the package, except inside the
    top-level function of the same name (recursion is not a use)."""
    names = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            used = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
            if isinstance(top, ast.FunctionDef):
                used.discard(top.name)
            names |= used
    return names


def _public_functions():
    out = []
    for path in sorted(SRC.glob("*.py")):
        mod = importlib.import_module("liccheck5." + path.stem)
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if not name.startswith("_") and fn.__module__ == mod.__name__:
                out.append("%s.%s" % (path.stem, name))
    return out


def _private_helpers():
    out = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if (isinstance(top, ast.FunctionDef) and top.name.startswith("_")
                    and not top.name.startswith("__")):
                out.append("%s.%s" % (path.stem, top.name))
    return out


def test_every_public_function_is_used_or_listed():
    refs = _referenced_names()
    public = _public_functions()
    orphans = [q for q in public
               if q.split(".")[1] not in refs and q not in TEST_ONLY]
    assert not orphans, "public but never used in the package: %s" % orphans
    # both lists shrink as entries become checks or go away
    stale = [q for q in TEST_ONLY
             if q not in public or q.split(".")[1] in refs]
    assert not stale, "TEST_ONLY entries now used or gone: %s" % stale


def test_every_private_helper_is_used():
    refs = _referenced_names()
    orphans = [q for q in _private_helpers() if q.split(".")[1] not in refs]
    assert not orphans, "private helpers nothing calls: %s" % orphans


def _reads_outside_jet_member():
    """Names the package reads (names and attributes in load context),
    except where a Jet method or property reads its own name, and except
    numpy's own attributes (``np.sqrt`` is not a use of ``Jet.sqrt``).
    Names are matched, not types, so a read of an array attribute looks
    like a read of a Jet member of the same name.  The package calls the
    numpy function instead (``np.conj(a)``, not ``a.conj()``), and
    ``test_every_public_jet_member_is_used`` refuses a Jet member named like
    an array attribute the package reads."""
    reads = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name == "Jet":
                for member in cls.body:
                    if isinstance(member, ast.FunctionDef):
                        for node in ast.walk(member):
                            owner[node] = member.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id == "np":
                    continue
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            else:
                continue
            if isinstance(node.ctx, ast.Load) and owner.get(node) != name:
                reads.add(name)
    return reads


def test_every_public_jet_member_is_used():
    reads = _reads_outside_jet_member()
    public = [name for name in vars(jets.Jet) if not name.startswith("_")]
    assert {"levels", "order", "val", "third", "d"} <= set(public)
    orphans = [name for name in public if name not in reads]
    assert not orphans, "Jet members only tests read: %s" % orphans
    # a member named like an array attribute the package reads could count
    # as used through array calls alone, whatever the jets do
    shadowed = [name for name in public
                if name in reads and hasattr(np.ndarray, name)]
    assert not shadowed, "Jet members read like array methods: %s" % shadowed


# a point of C_1, the neighbourhood of the cone where every frame and
# transition is defined
X5 = np.array([0.1, 0.5, 0.2, 0.1, 0.3])


def _accepts(entry, key):
    try:
        entry(key)
    except ValueError:
        return False
    return True


def test_every_closed_form_has_one_public_entry():
    """Every row of geometry._FORMS (a metric family, a frame or a
    transition, by its id) is read through exactly one public entry, and
    every id transform_eval takes is a row of the table or the spin lift of
    one.  Every edge of the frame graph joins two frames by transitions
    that each have a lift.  The function counts above do not see ids."""
    entries = {
        "metric_jets": geometry.MetricSpec,
        "frame_eval": lambda key: frames.frame_eval(key, X5),
        "transform_eval": lambda key: frames.transform_eval(key, X5, order=0),
    }
    for key in geometry._FORMS:
        owners = [name for name, entry in entries.items()
                  if _accepts(entry, key)]
        if key == "eh_frame":           # the row eh_frame alone reads
            owners.append("eh_frame")
        assert len(owners) == 1, (key, owners)
    rows = [key for key in geometry._FORMS
            if _accepts(entries["transform_eval"], key)]
    assert sorted(rows) == sorted(frames._TRANSITIONS)
    for lift, (covered, _) in frames._LIFTS.items():
        assert covered in rows
        assert frames.transform_eval(lift, X5, order=0).shape == (4, 4)
    assert not _accepts(entries["transform_eval"], "nope")
    lifted = {covered for covered, _ in frames._LIFTS.values()}
    for edge, ts in frames.EDGES.items():
        assert set(edge) <= set(frames._FRAMES), edge
        assert set(ts) <= lifted, edge


# the family parameter's boundary: the only functions of geometry and frames
# that take a parameter `a` or read an attribute `.a`.  Everything they call
# works at a = 1 on dilated points, and Jet.dilate restores a.
A_READERS = (
    "frames.eh_frame",
    "frames.frame_eval",
    "frames.transform_eval",
    "geometry.MetricSpec.__post_init__",
    "geometry._over_blocks",
    "geometry.metric_jets",
    "geometry.classify",
)


def _functions(tree, prefix):
    """(qualified name, node) of the module's functions and methods; a
    nested function counts as part of the one it is defined in."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield prefix + top.name, top
        elif isinstance(top, ast.ClassDef):
            yield from _functions(top, prefix + top.name + ".")


def test_family_parameter_is_read_only_at_the_boundary():
    readers = []
    for stem in ("geometry", "frames"):
        tree = ast.parse((SRC / (stem + ".py")).read_text())
        for name, fn in _functions(tree, stem + "."):
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            if (any(arg.arg == "a" for arg in args)
                    or any(isinstance(node, ast.Attribute) and node.attr == "a"
                           for node in ast.walk(fn))):
                readers.append(name)
    assert sorted(readers) == sorted(A_READERS), set(readers) ^ set(A_READERS)


def _calls(fn, name):
    """Whether the function node calls `name`, bare or as an attribute."""
    return any(isinstance(node, ast.Call)
               and name in (getattr(node.func, "id", None),
                            getattr(node.func, "attr", None))
               for node in ast.walk(fn))


def test_curvature_builds_each_piece_in_one_place():
    """Christoffel symbols are formed only by the per-metric bundle (its
    jets and its values), Riemann only by the bundle's value kernel, the
    curvature entries read their pieces inside the one block loop of the
    closed forms (geometry._over_blocks, called only by _piece, metric_jets,
    the two frame builders and transform_eval) instead of building a metric
    jet a block, and the structure equations read their metric from the
    forms they check instead of building one."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    fns = dict(_functions(trees["curvature"], ""))

    def callers(name):
        return sorted(q for q, fn in fns.items() if _calls(fn, name))
    assert callers("christoffel_from_jets") == ["_CurvaturePieces.gam"]
    assert callers("_christoffel") == ["_CurvaturePieces.gamv",
                                       "christoffel_from_jets"]
    assert callers("_riemann_from_values") == ["_CurvaturePieces.riemann"]
    assert callers("riemann_from_christoffel") == []
    assert sorted("%s.%s" % (stem, name)
                  for stem, tree in trees.items()
                  for name, fn in _functions(tree, "")
                  if _calls(fn, "_over_blocks")) == [
        "curvature._piece", "frames.eh_frame", "frames.frame_eval",
        "frames.transform_eval", "geometry.metric_jets"]
    assert not _calls(fns["_piece"], "metric_jets")
    assert not any(_calls(fns["structure_residuals"], name)
                   for name in ("metric_jets", "_CurvaturePieces"))


def test_every_pairwise_contraction_takes_one_path():
    """np.matmul is called only by jets.contract, no call in jets.py asks
    np.einsum for an optimized path, and the Dirac operator contracts
    through jets.contract as well."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    matmuls = sorted("%s.%s" % (stem, name)
                     for stem, tree in trees.items()
                     for name, fn in _functions(tree, "")
                     if _calls(fn, "matmul"))
    assert matmuls == ["jets.contract"]
    assert not any(kw.arg == "optimize" for node in ast.walk(trees["jets"])
                   if isinstance(node, ast.Call) for kw in node.keywords)
    spin = dict(_functions(trees["spingeo"], ""))
    assert _calls(spin["_dirac_w"], "contract")


def test_matrices_are_inverted_in_two_places():
    """np.linalg.inv is called only by jets.jmat_inv, the inverse of every
    metric, and by the oracle clifford.lambda_of; a spin lift is inverted
    by the spin pairing (clifford.spin_inverse)."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    inverters = sorted("%s.%s" % (stem, name)
                       for stem, tree in trees.items()
                       for name, fn in _functions(tree, "")
                       if _calls(fn, "inv"))
    assert inverters == ["clifford.lambda_of", "jets.jmat_inv"]
