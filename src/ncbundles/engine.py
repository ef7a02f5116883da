"""The reduced cancellation engine for first-order deformations of the
canonical extension bundles on W_k, k in {1, 2}.

Only the upper-right entry of the transformed transition matrix is
tracked, against the obstruction rows, after the right inverse of the
transition has been applied.  Columns of the resulting direction matrix
are indexed by gauge unknowns, and the stalk of the deformation sheaf at
a point is the corank.  The full gauge oracle (oracle.py) decides the
same triviality question without this reduction.

Everything is exact over the rationals.  A direction matrix is built once
per configuration, symbolic in the base point (ParamPoly), and cached in
_MASTERS next to the oracle's systems; a point only evaluates it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from . import linalg
from .bundles import (
    Matrix2,
    canonical_right_inverse,
    extension_basis,
    star_matrix_mul,
    transition_matrix,
)
from .geometry import v_exponent
from .ring import FormalFunction, LaurentPoly, Monomial, ParamPoly

PASS = "PASS"
FAIL = "FAIL"
EXCEEDS = "EXCEEDS"

DEFAULT_SEED = 97


class WindowInstabilityError(RuntimeError):
    """Raised when enlarging truncation windows changes a result."""


def require_positive(**counts):
    """Reject a count below 1: a check over nothing would pass vacuously."""
    for name, n in counts.items():
        if n < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")


# ---------------------------------------------------------------------------
# bases and windows


def direction_dimension(k, j):
    """Number of first-order deformation directions, 4j - 4."""
    return len(extension_basis(k, j, 1))


def obstruction_basis(k, j):
    """Obstruction monomials paired with the direction basis.

    The z^j-shift of the extension basis, in the same block order, so the
    column of the identity gauge shift aligns index by index with the
    base point coordinates.
    """
    if j < 2:
        raise ValueError(f"no moduli directions below j = 2, got j={j}")
    return [Monomial(m.l + j, m.i, m.s) for m in extension_basis(k, j, 1)]


@dataclass(frozen=True)
class GaugeWindows:
    """z-degree windows for the reduced gauge unknown families."""

    lambda_hi: int
    unit_hi: int
    shift_hi: int

    def as_dict(self):
        return {
            "lambda": [0, self.lambda_hi],
            "unit": [0, self.unit_hi],
            "shift": [0, self.shift_hi],
        }


def _sigma_h_min(sigma):
    degs = [m.l for h, _ in sigma.terms for m in h.monomials()]
    return min(degs) if degs else 0


def compute_windows(k, j, sigma, bump=0):
    """Truncation windows for the engine columns.

    Units z^n u_g contribute to obstruction rows (degrees <= 2j - 1) only
    for n up to (2j - 1) - s_lo where s_lo = j + l_min - 1 + h_min is the
    lowest degree their bracket terms can reach; +2 margin on top.  The
    shift window [0, 2j] is a legality cap coming from V-holomorphy of
    the transformed lower-left entry, not a truncation, so the stability
    bump never widens it.
    """
    basis = extension_basis(k, j, 1)
    l_min = min(m.l for m in basis)
    s_lo = j + l_min - 1 + _sigma_h_min(sigma)
    return GaugeWindows(
        lambda_hi=2 * j - 2 + bump,
        unit_hi=(2 * j - 1) - s_lo + 2 + bump,
        shift_hi=2 * j,
    )


def _column_tags(win):
    tags = [("lambda", m) for m in range(win.lambda_hi + 1)]
    for fam in ("a1", "a2", "d1", "d2"):
        tags.extend((fam, n) for n in range(win.unit_hi + 1))
    tags.extend(("c0", n) for n in range(win.shift_hi + 1))
    return tags


# ---------------------------------------------------------------------------
# master direction matrices (symbolic in the base point)


def _symbolic_point(k, j):
    dim = direction_dimension(k, j)
    params = tuple(f"p{r}" for r in range(dim))
    coeffs = [ParamPoly.variable(params, f"p{r}") for r in range(dim)]
    return params, coeffs


def _gauge_matrix(tag):
    """2x2 gauge matrix for a single unit direction, identity elsewhere."""
    one = LaurentPoly.const(1)
    zero = LaurentPoly.zero()
    fam, n = tag
    ent = [[[one, zero], [zero, zero]], [[zero, zero], [one, zero]]]
    if fam == "lambda":
        ent[1][1][1] = LaurentPoly.monomial(n, 0, 0)
    elif fam in ("a1", "a2"):
        g = (1, 0) if fam == "a1" else (0, 1)
        ent[0][0][0] = ent[0][0][0] + LaurentPoly.monomial(n, *g)
    elif fam in ("d1", "d2"):
        g = (1, 0) if fam == "d1" else (0, 1)
        ent[1][1][0] = ent[1][1][0] + LaurentPoly.monomial(n, *g)
    elif fam == "c0":
        ent[1][0][0] = LaurentPoly.monomial(n, 0, 0)
    else:
        raise ValueError(f"unknown column family {fam}")
    return Matrix2([[FormalFunction(list(c)) for c in row] for row in ent])


def _direction_entry_derived(sigma, j, p_poly, tag):
    T = transition_matrix(j, p_poly)
    R = canonical_right_inverse(sigma, j, FormalFunction([p_poly]))
    A = _gauge_matrix(tag)
    M = star_matrix_mul(sigma, star_matrix_mul(sigma, T, A, 1), R, 1)
    if not M.entry(0, 1)[0].truncate_neighborhood(1).is_zero():
        raise AssertionError(
            f"classical upper-right residue for column {tag}"
        )
    return M.entry(0, 1)[1].truncate_neighborhood(1)


def _direction_entry_printed(sigma, j, p_poly, tag):
    br = sigma.bracket
    zj = LaurentPoly.monomial(j, 0, 0)
    fam, n = tag
    if fam == "lambda":
        out = p_poly * LaurentPoly.monomial(n + j, 0, 0)
    elif fam in ("a1", "a2", "d1", "d2"):
        g = (1, 0) if fam in ("a1", "d1") else (0, 1)
        e = LaurentPoly.monomial(n, *g)
        out = zj * br(p_poly, e) - p_poly * br(zj, e)
        sgn = 1 if fam in ("a1", "a2") else -1
        out = out + (e * br(zj, p_poly)).scale(sgn)
    elif fam == "c0":
        c = LaurentPoly.monomial(n - j, 0, 0)
        out = (p_poly * c * br(zj, p_poly)).scale(2)
    else:
        raise ValueError(f"unknown column family {fam}")
    return out.truncate_neighborhood(1)


@dataclass(frozen=True, slots=True)
class MasterSystem:
    """Direction matrix of one configuration.

    The cached master has point None and entries symbolic in the base
    point; build_cancellation_system returns a copy evaluated at a point.
    """

    k: int
    j: int
    formula: str
    bump: int
    params: tuple
    basis: list
    rows: list
    tags: list
    windows: GaugeWindows
    columns: list
    point: tuple | None = None

    def evaluate(self, point):
        env = {name: val for name, val in zip(self.params, point)}
        out = []
        for col in self.columns:
            out.append([
                e.evaluate(env) if isinstance(e, ParamPoly) else e
                for e in col
            ])
        return out

    @property
    def rank(self):
        if self.point is None:
            raise ValueError("rank needs a numeric base point")
        return linalg.rank(self.columns, nrows=len(self.rows))

    def entries_rowmajor(self):
        out = []
        for r in range(len(self.rows)):
            out.append([
                e.render() if isinstance(e, ParamPoly) else str(e)
                for e in (col[r] for col in self.columns)
            ])
        return out


def _check_stray_content(k, j, entry, rows_set, tag):
    for mon, c in entry.terms():
        if mon in rows_set:
            continue
        if mon.degree_u() == 0:
            raise AssertionError(
                f"u-free residue {mon} in direction column {tag}"
            )
        if v_exponent(mon, k) < 0 and mon.l < 2 * j:
            raise AssertionError(
                f"unabsorbable residue {mon} in direction column {tag}"
            )


def _build_master(k, j, sigma, formula, bump):
    params, coeffs = _symbolic_point(k, j)
    basis = extension_basis(k, j, 1)
    p_poly = LaurentPoly({m: c for m, c in zip(basis, coeffs)})
    rows = obstruction_basis(k, j)
    rows_set = set(rows)
    win = compute_windows(k, j, sigma, bump)
    tags = _column_tags(win)

    # identity gauge sanity: T * R must be the identity mod hbar^2
    T = transition_matrix(j, p_poly)
    R = canonical_right_inverse(sigma, j, FormalFunction([p_poly]))
    ident = star_matrix_mul(sigma, T, R, 1)
    for a in range(2):
        for b in range(2):
            want_cl = LaurentPoly.const(1) if a == b else LaurentPoly.zero()
            if not (ident.entry(a, b)[0] - want_cl).is_zero():
                raise AssertionError("right inverse failed classically")
            if not ident.entry(a, b)[1].is_zero():
                raise AssertionError("right inverse failed at order 1")

    entry_fn = (_direction_entry_derived if formula == "derived"
                else _direction_entry_printed)
    columns = []
    for tag in tags:
        ent = entry_fn(sigma, j, p_poly, tag)
        _check_stray_content(k, j, ent, rows_set, tag)
        columns.append([ent.coefficient(m) for m in rows])

    # the shift column of lowest degree must reproduce the base point
    lam0 = columns[tags.index(("lambda", 0))]
    for r, c in enumerate(lam0):
        if c != ParamPoly.variable(params, f"p{r}"):
            raise AssertionError("identity shift column mismatch")

    return MasterSystem(k, j, formula, bump, params, basis, rows, tags,
                        win, columns)


_MASTERS = {}


def cached(build, k, j, sigma, *args):
    """build(k, j, sigma, *args), built once per configuration.

    Holds the engine's masters and the oracle's systems.  The key uses
    the builder's name, so a wrapped builder shares the entries.
    """
    key = (build.__name__, k, j, sigma.cache_key(), *args)
    system = _MASTERS.get(key)
    if system is None:
        system = _MASTERS[key] = build(k, j, sigma, *args)
    return system


# ---------------------------------------------------------------------------
# public engine API


def _coerce_point(k, j, point):
    dim = direction_dimension(k, j)
    vals = []
    for c in point:
        if isinstance(c, str):
            c = Fraction(c)
        elif isinstance(c, int):
            c = Fraction(c)
        elif not isinstance(c, Fraction):
            raise TypeError(f"bad coordinate {c!r}")
        vals.append(c)
    if len(vals) != dim:
        raise ValueError(f"expected {dim} coordinates, got {len(vals)}")
    return tuple(vals)


def build_cancellation_system(k, j, sigma, point=None, formula="derived",
                              bump=0):
    """Direction matrix for one configuration.

    point=None keeps the entries symbolic in the base point coordinates.
    """
    master = cached(_build_master, k, j, sigma, formula, bump)
    if point is None:
        return replace(master, columns=[list(c) for c in master.columns])
    pt = _coerce_point(k, j, point)
    return replace(master, point=pt, columns=master.evaluate(pt))


class Report:
    """as_dict() of the report dataclasses: their fields, shallow, with
    coordinate tuples written as lists of strings."""

    def as_dict(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = [str(c) for c in v] if isinstance(v, tuple) else v
        return out


@dataclass
class StalkReport(Report):
    k: int
    j: int
    sigma: dict
    point: tuple
    rank: int
    stalk: int
    quotient_rows: list
    windows: dict
    formula: str
    stability_checked: bool


def point_space(k, j, sigma, formula, point, check_stability):
    """The master and the echelon span of its columns at a point.

    With check_stability, the rank must not move when the windows are
    bumped by 2, or WindowInstabilityError is raised.
    """
    master = cached(_build_master, k, j, sigma, formula, 0)
    space = linalg.ColumnSpace(len(master.rows))
    for col in master.evaluate(point):
        space.add(col)
    if check_stability:
        wide = cached(_build_master, k, j, sigma, formula, 2)
        wide_rank = linalg.rank(wide.evaluate(point), nrows=len(wide.rows))
        if wide_rank != space.rank:
            raise WindowInstabilityError(
                f"rank moved {space.rank} -> {wide_rank} under window bump "
                f"(k={k}, j={j}, point={point})"
            )
    return master, space


def stalk_dimension(k, j, sigma, point, formula="derived",
                    check_stability=True):
    """Stalk of the deformation sheaf at a nonzero base point."""
    pt = _coerce_point(k, j, point)
    if all(c == 0 for c in pt):
        raise ValueError("stalk is undefined at the zero base point")
    master, space = point_space(k, j, sigma, formula, pt, check_stability)
    quotient = [master.rows[r].render() for r in space.non_pivot_rows()]
    return StalkReport(
        k=k, j=j, sigma=sigma.describe(), point=pt, rank=space.rank,
        stalk=direction_dimension(k, j) - space.rank,
        quotient_rows=quotient, windows=master.windows.as_dict(),
        formula=formula, stability_checked=check_stability,
    )


# ---------------------------------------------------------------------------
# sampling


def rand_fraction(rng):
    """Random nonzero Fraction with numerator and denominator in [-97, 97]."""
    num = 0
    while num == 0:
        num = rng.randint(-97, 97)
    den = 0
    while den == 0:
        den = rng.randint(-97, 97)
    return Fraction(num, den)


def random_point(k, j, rng):
    return [rand_fraction(rng) for _ in range(direction_dimension(k, j))]


def single_coordinate_points(k, j):
    dim = direction_dimension(k, j)
    pts = []
    for r in range(dim):
        pts.append([Fraction(1) if q == r else Fraction(0)
                    for q in range(dim)])
    return pts


def generic_rank(k, j, sigma, trials=20, seed=DEFAULT_SEED,
                 formula="derived"):
    """Maximum rank over random base points, with a witness."""
    rng = random.Random(seed)
    master = cached(_build_master, k, j, sigma, formula, 0)
    best = -1
    witness = None
    for _ in range(trials):
        pt = random_point(k, j, rng)
        r = linalg.rank(master.evaluate(pt), nrows=len(master.rows))
        if r > best:
            best = r
            witness = pt
    return best, witness


def is_extremal(sigma, j=2):
    """Operational extremality used by the moduli computations.

    True when every gauge-direction column of the cancellation system
    vanishes identically, leaving only the shift columns.  Deviates from
    the literal ideal-membership test (poisson.is_extremal_literal) on
    some multiplied bivectors.
    """
    master = cached(_build_master, sigma.k, j, sigma, "derived", 0)
    for tag, col in zip(master.tags, master.columns):
        if tag[0] != "lambda" and any(bool(e) for e in col):
            return False
    return True
