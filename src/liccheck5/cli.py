"""Command line front end: run the check suite, probe smoothness classes,
or print curvature tensors at a point."""

import dataclasses
import json
import sys

import click
import numpy as np

from . import curvature as C
from . import geometry as geo
from . import regularity as R
from . import verify as V
from .errors import LicError


def _echo(line):
    # an explicit file keeps click from caching every captured stdout for good
    click.echo(line, file=sys.stdout)


@click.group()
def main():
    """Numerical checks for the cone-deformed metric family."""


# the JSON types a config file may give a SuiteConfig field of each type
_JSON_TYPES = {float: (int, float), int: int, dict: dict, tuple: list}
# config-file keys that are run options, not SuiteConfig fields
_RUN_KEYS = {"report": str, "format": str, "skip": list, "only": list}


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise click.ClickException("config file is not valid JSON: %s"
                                       % exc)
    if not isinstance(doc, dict):
        raise click.ClickException("config file must hold a JSON object")
    types = {f.name: _JSON_TYPES[f.type]
             for f in dataclasses.fields(V.SuiteConfig)}
    types.update(_RUN_KEYS)
    bad = set(doc) - set(types)
    if bad:
        raise click.ClickException("unknown config keys: %s" % sorted(bad))
    for k, v in doc.items():
        if v is not None and (isinstance(v, bool)
                              or not isinstance(v, types[k])):
            raise click.ClickException("config key %r has the wrong JSON "
                                       "type: %r" % (k, v))
    return doc


def _parse_tol(pairs):
    out = {}
    for item in pairs:
        name, _, val = item.partition("=")
        if not _ or not name:
            raise click.ClickException("tolerance override must look like "
                                       "CHECK=FLOAT, got %r" % item)
        try:
            out[name] = float(val)
        except ValueError:
            raise click.ClickException("bad tolerance value in %r" % item)
    return out


@main.command()
@click.option("--a", "a", type=float, default=None, help="family parameter")
@click.option("--samples", type=int, default=None, help="points per check")
@click.option("--seed", type=int, default=None, help="master seed")
@click.option("--b", "b", type=float, default=None, help="spinor coefficient")
@click.option("--c", "c", type=float, default=None, help="spinor coefficient")
@click.option("--tol-override", multiple=True, metavar="CHECK=FLOAT",
              help="replace one check's tolerance (repeatable)")
@click.option("--exclude", type=float, default=None,
              help="minimum distance of samples to the cone")
@click.option("--skip", multiple=True, metavar="CHECK",
              help="leave one check out (repeatable)")
@click.option("--only", multiple=True, metavar="CHECK",
              help="run just these checks (repeatable)")
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              default=None, help="write the report here")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default=None, help="report format")
@click.option("--config", "config_path", type=click.Path(exists=True,
              dir_okay=False), default=None,
              help="JSON file with the same keys; flags win")
def run(a, samples, seed, b, c, tol_override, exclude, skip, only,
        report_path, fmt, config_path):
    """Run the whole check suite and report pass/fail per identity."""
    filecfg = _load_config(config_path)
    flags = {"a": a, "samples": samples, "seed": seed, "b": b, "c": c,
             "exclusion": exclude}
    merged = {k: v for k, v in filecfg.items()
              if k not in _RUN_KEYS and v is not None}
    merged.update({k: v for k, v in flags.items() if v is not None})
    try:
        tol = dict(merged.pop("tol", {}))
        tol.update(_parse_tol(tol_override))
        if "regions" in merged:
            merged["regions"] = tuple(merged["regions"])
        cfg = V.SuiteConfig(tol=tol, **merged)
    except (TypeError, ValueError) as exc:
        raise click.ClickException("bad config value: %s" % exc)
    skip = tuple(skip) or tuple(filecfg.get("skip") or ())
    only = tuple(only) or tuple(filecfg.get("only") or ()) or None
    report_path = report_path or filecfg.get("report")
    fmt = fmt or filecfg.get("format") or "json"
    try:
        rep = V.run_suite(cfg, skip=skip, only=only)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    for ch in rep.checks:
        _echo("[%s] %-22s max %.3e  tol %.0e  (%d samples) -- %s"
              % (ch.verdict, ch.name, ch.residual_max, ch.tol,
                 ch.samples, ch.claim))
        if ch.error:
            _echo("    " + ch.error)
    _echo("overall: %s" % rep.overall)
    if report_path:
        V.emit_report(rep, fmt=fmt, path=report_path)
        _echo("report written to %s" % report_path)
    sys.exit(0 if rep.overall == "pass" else 1)


def _field_tag(field):
    if field == "ga":
        return ("ga", 0, 0)
    if field == "ro2":
        return R.RO2
    if field.startswith("monomial:"):
        try:
            nums = [int(t) for t in field[len("monomial:"):].split(",")]
            m, l = nums[0], tuple(nums[1:])
            return R.MonomialSpec(m, l)
        except (ValueError, IndexError):
            raise click.ClickException(
                "monomial spec must look like monomial:m,l_r,l0,l1,l2,l3,l4")
    raise click.ClickException("field must be ga, ro2 or monomial:...")


@main.command("probe-c1")
@click.option("--field", default="ga",
              help="ga, ro2, or monomial:m,l_r,l0,l1,l2,l3,l4")
@click.option("--curves", type=int, default=10, help="random crossing curves")
@click.option("--a", "a", type=float, default=1.0, help="family parameter")
@click.option("--seed", type=int, default=0)
@click.option("--max-order", type=int, default=3)
def probe_c1(field, curves, a, seed, max_order):
    """Probe the smoothness class of a field across the cone."""
    tag = _field_tag(field)
    try:
        reports, overall = R.probe_family(tag, a=a, n_curves=curves,
                                          seed=seed, max_order=max_order)
    except (ValueError, LicError) as exc:
        raise click.ClickException(str(exc))
    for i, rep in enumerate(reports):
        cls = rep.smoothness_class
        _echo("curve %2d: %s  -> class %s"
              % (i, " ".join(rep.verdicts),
                 "C%d" % cls if cls is not None else ">= C%d" % max_order))
    _echo("field %s: smoothness class %s across the cone"
          % (field, "C%d" % overall if overall is not None
             else ">= C%d (no jump seen up to probed order)" % max_order))
    if isinstance(tag, R.MonomialSpec):
        k = tag.predicted_class
        want = k - 1 if k <= max_order else None
    else:
        want = 1                       # the deformed metric extends C1, not C2
    _echo("predicted: class %s" % ("C%d" % want if want is not None
                                   else ">= C%d" % max_order))
    sys.exit(0 if overall == want else 1)


@main.command()
@click.option("--spec", "family", required=True,
              type=click.Choice(["g0", "ga", "gatilde", "ha", "eh"]))
@click.option("--point", required=True, help="comma separated coordinates")
@click.option("--what", type=click.Choice(["metric", "ricci", "weyl",
                                           "christoffel"]), default="metric")
@click.option("--a", "a", type=float, default=1.0, help="family parameter")
def tensor(family, point, what, a):
    """Print the nonzero components of a tensor at one point."""
    try:
        p = np.array([float(t) for t in point.split(",")])
    except ValueError:
        raise click.ClickException("point must be comma separated floats")
    if not np.all(np.isfinite(p)):
        raise click.ClickException("point coordinates must be finite, got %s"
                                   % point)
    spec = geo.MetricSpec(family, a)
    if p.shape != (spec.dim,):
        raise click.ClickException("family %s lives in %dd, got a %dd point"
                                   % (family, spec.dim, len(p)))
    try:
        if what == "metric":
            T = geo.metric_jets(spec, p, order=0).val.real
        elif what == "ricci":
            T = C.ricci(spec, p)
        elif what == "weyl":
            T = C.weyl(spec, p)
        else:
            T = C.christoffel(spec, p, order=0).val.real
    except Exception as exc:
        raise click.ClickException("%s: %s" % (type(exc).__name__, exc))
    T = np.asarray(T)
    scale = np.max(np.abs(T))
    idx = np.argwhere(np.abs(T) > 1e-9 * max(scale, 1.0))
    if not len(idx):
        _echo("%s(%s) at (%s): zero (every component below the print "
              "floor)" % (what, family, point))
        return
    _echo("%s(%s) at (%s), %d nonzero of %d:"
          % (what, family, point, len(idx), T.size))
    for ix in idx:
        _echo("  [%s] = %.17g" % (",".join(str(i) for i in ix),
                                  T[tuple(ix)]))


if __name__ == "__main__":
    main()
