"""Command line interface.

Every command prints one canonical JSON report to stdout; identical
inputs and seed give byte-identical output.  Exit codes: 0 for success
or PASS, 2 when a checked claim FAILs or EXCEEDS its stated scope, 1 on
usage or computation errors, which print "error (KIND): message" to
stderr with KIND one of usage, invariant or instability.
"""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction

import click

from .bundles import normalize_line_bundle
from .geometry import h1_obstruction_basis
from .moduli import (
    DEFAULT_SEED,
    FAIL,
    PASS,
    WindowInstabilityError,
    build_cancellation_system,
    canonical_json,
    make_report,
    oracle_check,
    rand_fraction,
    stalk_dimension,
    stratify,
    verify_claims,
)
from .poisson import (
    associator_defect,
    catalog,
    jacobi_defect,
    parse_sigma_spec,
)
from .ring import FormalFunction, LaurentPoly, Monomial, parse_poly

click.UsageError.exit_code = 1


def _resolve_seed(seed):
    if seed is not None:
        return seed
    env = os.environ.get("NCBUNDLES_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise click.UsageError(
                f"NCBUNDLES_SEED must be an integer, got {env!r}"
            ) from None
    return DEFAULT_SEED


def _emit(report, status=PASS):
    click.echo(canonical_json(report), nl=False)
    if status != PASS:
        sys.exit(2)


def _parse_point(text):
    try:
        return [Fraction(c.strip()) for c in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"bad point {text!r}: {exc}") from None


def _fail(exc):
    """Exit 1 with the error and its kind on stderr.

    The package reports bad input as ValueError or OSError; an
    AssertionError or any other exception is a broken internal invariant.
    """
    if isinstance(exc, WindowInstabilityError):
        kind = "instability"
    elif isinstance(exc, (ValueError, OSError)):
        kind = "usage"
    else:
        kind = "invariant"
    click.echo(f"error ({kind}): {exc}", err=True)
    sys.exit(1)


@click.group()
@click.version_option()
def main():
    """Exact deformation computations for extension bundles on W_k."""


@main.command("h1")
@click.option("--k", type=int, required=True)
@click.option("--max-l", type=int, default=6, show_default=True)
@click.option("--max-i", type=int, default=4, show_default=True)
@click.option("--max-s", type=int, default=6, show_default=True)
def h1_cmd(k, max_l, max_i, max_s):
    """List obstruction monomials of W_k within a degree box."""
    try:
        mons = h1_obstruction_basis(k, max_l, max_i, max_s)
    except ValueError as exc:
        _fail(exc)
    result = {
        "count": len(mons),
        "monomials": [LaurentPoly.monomial(m.l, m.i, m.s).render()
                      for m in mons],
    }
    config = {"k": k, "max_l": max_l, "max_i": max_i, "max_s": max_s}
    _emit(make_report("h1", config, None, result))


def _random_poly(rng, allow_negative=True):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        l = rng.randint(-4 if allow_negative else 0, 4)
        i = rng.randint(0, 2)
        s = rng.randint(0, 2)
        terms[Monomial(l, i, s)] = rand_fraction(rng)
    return LaurentPoly(terms)


@main.command("star-check")
@click.option("--k", type=int, required=True)
@click.option("--sigma", "sigma_text", default=None,
              help="Check one bivector instead of the whole catalog.")
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=None)
def star_check_cmd(k, sigma_text, trials, seed):
    """Property battery for the star product on W_k."""
    seed = _resolve_seed(seed)
    try:
        sigmas = ([parse_sigma_spec(sigma_text, k)] if sigma_text
                  else catalog(k))
    except ValueError as exc:
        _fail(exc)
    rng = random.Random(seed)
    failures = []
    checked = 0
    for sigma in sigmas:
        name = sigma.spec_text or sigma.cache_key()
        for _ in range(trials):
            f = _random_poly(rng)
            g = _random_poly(rng)
            h = _random_poly(rng)
            br = sigma.bracket
            if not (br(f, g) + br(g, f)).is_zero():
                failures.append({"sigma": name, "law": "antisymmetry"})
            if not (br(f, g * h) - g * br(f, h) - br(f, g) * h).is_zero():
                failures.append({"sigma": name, "law": "leibniz"})
            if not jacobi_defect(sigma, f, g, h).is_zero():
                failures.append({"sigma": name, "law": "jacobi"})
            F = FormalFunction([f, _random_poly(rng)])
            G = FormalFunction([g, _random_poly(rng)])
            H = FormalFunction([h, _random_poly(rng)])
            if not associator_defect(sigma, F, G, H, 1).is_zero():
                failures.append({"sigma": name, "law": "associativity-h1"})
            checked += 1
    status = PASS if not failures else FAIL
    result = {
        "triples_checked": checked,
        "failures": failures,
        "status": status,
    }
    config = {"k": k, "sigma": sigma_text, "trials": trials}
    _emit(make_report("star-check", config, seed, result), status)


@main.command("normalize")
@click.option("--k", type=int, required=True)
@click.option("--sigma", "sigma_text", required=True)
@click.option("--order", type=int, default=None,
              help="hbar order; defaults to the length of the input.")
@click.option("--f", "f_file", type=click.Path(exists=True), required=True,
              help="File with one polynomial per line, line n = hbar^n term.")
def normalize_cmd(k, sigma_text, order, f_file):
    """Normalize a quantized line bundle transition."""
    try:
        sigma = parse_sigma_spec(sigma_text, k)
        with open(f_file, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        coeffs = [parse_poly(ln) for ln in lines]
        res = normalize_line_bundle(sigma, FormalFunction(coeffs), order)
    except (ValueError, OSError) as exc:
        _fail(exc)
    result = {
        "j": res.j,
        "unit": str(res.unit),
        "a": res.a.render(),
        "alpha": res.alpha.render(),
        "residuals": [r.render() for r in res.residuals],
        "normalized": res.normalized,
    }
    config = {"k": k, "sigma": sigma_text, "order": order,
              "input": [ln for ln in lines]}
    _emit(make_report("normalize", config, None, result))


@main.command("stalk")
@click.option("--k", type=int, required=True)
@click.option("--j", type=int, required=True)
@click.option("--sigma", "sigma_text", required=True)
@click.option("--point", required=True,
              help="Comma-separated rational coordinates, e.g. 1,1/2,0,0.")
@click.option("--formula", type=click.Choice(["derived", "printed"]),
              default="derived", show_default=True)
@click.option("--emit-matrix", is_flag=True,
              help="Include the direction matrix entries in the report.")
def stalk_cmd(k, j, sigma_text, point, formula, emit_matrix):
    """Stalk of the deformation sheaf at one base point."""
    pt = _parse_point(point)
    try:
        sigma = parse_sigma_spec(sigma_text, k)
        rep = stalk_dimension(k, j, sigma, pt, formula=formula)
    except Exception as exc:
        _fail(exc)
    result = rep.as_dict()
    if emit_matrix:
        mat = build_cancellation_system(k, j, sigma, pt, formula=formula)
        result["matrix"] = {
            "rows": [m.render() for m in mat.rows],
            "columns": [list(t) for t in mat.tags],
            "entries_rowmajor": mat.entries_rowmajor(),
        }
    config = {"k": k, "j": j, "sigma": sigma_text, "point": point,
              "formula": formula}
    _emit(make_report("stalk", config, None, result))


@main.command("stratify")
@click.option("--k", type=int, required=True)
@click.option("--j", type=int, required=True)
@click.option("--sigma", "sigma_text", required=True)
@click.option("--strategy",
              type=click.Choice(["support-patterns", "symbolic-minors"]),
              default="support-patterns", show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--draws", type=int, default=5, show_default=True)
@click.option("--pattern-cap", type=int, default=4096, show_default=True)
@click.option("--workers", type=int, default=1, show_default=True)
def stratify_cmd(k, j, sigma_text, strategy, seed, draws, pattern_cap,
                 workers):
    """Scan base point support patterns for stalk strata."""
    seed = _resolve_seed(seed)
    try:
        sigma = parse_sigma_spec(sigma_text, k)
        rep = stratify(k, j, sigma, strategy=strategy, seed=seed,
                       draws=draws, pattern_cap=pattern_cap,
                       workers=workers)
    except Exception as exc:
        _fail(exc)
    config = {"k": k, "j": j, "sigma": sigma_text, "strategy": strategy,
              "draws": draws, "pattern_cap": pattern_cap,
              "workers": workers}
    _emit(make_report("stratify", config, seed, rep))


@main.command("verify")
@click.option("--k", type=int, required=True)
@click.option("--j", type=int, required=True)
@click.option("--sigma", "sigma_text", required=True)
@click.option("--seed", type=int, default=None)
@click.option("--trials", type=int, default=20, show_default=True)
def verify_cmd(k, j, sigma_text, seed, trials):
    """Check the structural claims for one configuration."""
    seed = _resolve_seed(seed)
    try:
        sigma = parse_sigma_spec(sigma_text, k)
        rep = verify_claims(k, j, sigma, seed=seed, trials=trials)
    except Exception as exc:
        _fail(exc)
    config = {"k": k, "j": j, "sigma": sigma_text, "trials": trials}
    _emit(make_report("verify", config, seed, rep), rep["status"])


@main.command("oracle-check")
@click.option("--trials", type=int, default=3, show_default=True,
              help="Base points and directions per configuration.")
@click.option("--seed", type=int, default=None)
def oracle_check_cmd(trials, seed):
    """Engine vs full-gauge-oracle agreement battery."""
    seed = _resolve_seed(seed)
    try:
        rep = oracle_check(trials_point=trials, trials_delta=trials,
                           seed=seed)
    except Exception as exc:
        _fail(exc)
    config = {"trials": trials}
    _emit(make_report("oracle-check", config, seed, rep), rep["status"])


if __name__ == "__main__":
    main()
