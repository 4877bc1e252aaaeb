"""Every function of the package is reached by the package itself.

A public function that only tests call is either a guarantee waiting to be
registered as a check, or dead code.  The first kind is listed in TEST_ONLY;
anything else unreferenced fails here, so an orphan cannot slip in unseen.
A module-level private helper has no such excuse: it must have a caller.
References are names and attributes in the package's own source (strings
and comments do not count); bench/ and tests/ do not count either.
"""

import ast
import importlib
import inspect
import pathlib

import liccheck5

SRC = pathlib.Path(liccheck5.__file__).parent

# public functions only tests call: guarantees that are candidates for a
# registered check, and the finite-difference oracle of the jet engine
TEST_ONLY = (
    "clifford.clifford_mul",
    "clifford.lambda_of",
    "clifford.spin_exp",
    "curvature.asd_basis",
    "curvature.bianchi_residual",
    "curvature.structure_residuals",
    "geometry.classify",
    "geometry.psi_map",
    "geometry.psi_pushforward",
    "geometry.s_R_values",
    "jets.central_diff",
    "jets.extract",
    "regularity.boundedness_probe",
    "regularity.dro_gradient_sup",
    "spingeo.c1_extension_check",
    "spingeo.conformal_flat_twistor_residual",
    "spingeo.conformal_rescale_spinor",
    "spingeo.constant_spinor",
)


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
    # the list shrinks as entries become checks or go away
    stale = [q for q in TEST_ONLY
             if q not in public or q.split(".")[1] in refs]
    assert not stale, "TEST_ONLY entries now used or gone: %s" % stale


def test_every_private_helper_is_used():
    refs = _referenced_names()
    orphans = [q for q in _private_helpers() if q.split(".")[1] not in refs]
    assert not orphans, "private helpers nothing calls: %s" % orphans
