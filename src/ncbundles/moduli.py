"""Gauge cancellation systems for first-order deformations of the
canonical extension bundles on W_k, k in {1, 2}.

Two independent routes decide when a deformation direction is trivial:

* the reduced engine: only the upper-right entry of the transformed
  transition matrix is tracked, against the obstruction rows, after the
  right inverse of the transition has been applied.  Columns of the
  resulting direction matrix are indexed by gauge unknowns, and the
  stalk of the deformation sheaf at a point is the corank.

* the full gauge oracle: the complete 2x2 intertwining equation
  A_V * T_q = T_p * A_U mod hbar^2, mod u^2, with independent windowed
  unknowns on both sides and no manual elimination.  Used to cross-check
  engine decisions on whether a direction is trivial.

Both work over exact rationals; symbolic coefficients in the base point
(and, for the oracle, the direction) are carried by ParamPoly, so one
system per configuration is built and every decision only evaluates it.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
from .poisson import Bivector, parse_sigma_spec
from .ring import FormalFunction, LaurentPoly, Monomial, ParamPoly, parse_poly

PASS = "PASS"
FAIL = "FAIL"
EXCEEDS = "EXCEEDS"

DEFAULT_SEED = 97


class WindowInstabilityError(RuntimeError):
    """Raised when enlarging truncation windows changes a result."""


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


def _point_poly(k, j, coeffs):
    basis = extension_basis(k, j, 1)
    if len(coeffs) != len(basis):
        raise ValueError(
            f"expected {len(basis)} coefficients for k={k}, j={j}, "
            f"got {len(coeffs)}"
        )
    terms = {}
    for mon, c in zip(basis, coeffs):
        if isinstance(c, int):
            c = Fraction(c)
        if c:
            terms[mon] = c
    return LaurentPoly(terms)


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


class MasterSystem:
    """Direction matrix of one configuration, symbolic in the base point."""

    __slots__ = ("k", "j", "formula", "bump", "params", "basis", "rows",
                 "tags", "windows", "columns")

    def __init__(self, k, j, formula, bump, params, basis, rows, tags,
                 windows, columns):
        self.k = k
        self.j = j
        self.formula = formula
        self.bump = bump
        self.params = params
        self.basis = basis
        self.rows = rows
        self.tags = tags
        self.windows = windows
        self.columns = columns

    def evaluate(self, point):
        env = {name: val for name, val in zip(self.params, point)}
        out = []
        for col in self.columns:
            out.append([
                e.evaluate(env) if isinstance(e, ParamPoly) else e
                for e in col
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


def _get_master(k, j, sigma, formula="derived", bump=0):
    key = (k, j, sigma.cache_key(), formula, bump)
    m = _MASTERS.get(key)
    if m is None:
        m = _build_master(k, j, sigma, formula, bump)
        _MASTERS[key] = m
    return m


# ---------------------------------------------------------------------------
# public engine API


@dataclass
class DirectionMatrix:
    """Evaluated (or symbolic) cancellation system at one base point."""

    k: int
    j: int
    sigma: Bivector
    formula: str
    point: tuple | None
    basis: list
    rows: list
    tags: list
    windows: GaugeWindows
    columns: list

    @property
    def rank(self):
        if self.point is None:
            raise ValueError("rank needs a numeric base point")
        return linalg.rank(self.columns, nrows=len(self.rows))

    def column(self, tag):
        return self.columns[self.tags.index(tag)]

    def entries_rowmajor(self):
        out = []
        for r in range(len(self.rows)):
            out.append([
                e.render() if isinstance(e, ParamPoly) else str(e)
                for e in (col[r] for col in self.columns)
            ])
        return out


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
    master = _get_master(k, j, sigma, formula, bump)
    if point is None:
        cols = [list(c) for c in master.columns]
        pt = None
    else:
        pt = _coerce_point(k, j, point)
        cols = master.evaluate(pt)
    return DirectionMatrix(
        k=k, j=j, sigma=sigma, formula=formula, point=pt,
        basis=master.basis, rows=master.rows, tags=master.tags,
        windows=master.windows, columns=cols,
    )


@dataclass
class StalkReport:
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

    def as_dict(self):
        return {
            "k": self.k,
            "j": self.j,
            "sigma": self.sigma,
            "point": [str(c) for c in self.point],
            "rank": self.rank,
            "stalk": self.stalk,
            "quotient_rows": self.quotient_rows,
            "windows": self.windows,
            "formula": self.formula,
            "stability_checked": self.stability_checked,
        }


def stalk_dimension(k, j, sigma, point, formula="derived",
                    check_stability=True):
    """Stalk of the deformation sheaf at a nonzero base point."""
    pt = _coerce_point(k, j, point)
    if all(c == 0 for c in pt):
        raise ValueError("stalk is undefined at the zero base point")
    master = _get_master(k, j, sigma, formula, 0)
    cols = master.evaluate(pt)
    cs = linalg.ColumnSpace(len(master.rows))
    for col in cols:
        cs.add(col)
    rank = cs.rank
    if check_stability:
        wide = _get_master(k, j, sigma, formula, 2)
        wide_rank = linalg.rank(wide.evaluate(pt), nrows=len(wide.rows))
        if wide_rank != rank:
            raise WindowInstabilityError(
                f"rank moved {rank} -> {wide_rank} under window bump "
                f"(k={k}, j={j}, point={pt})"
            )
    dim = direction_dimension(k, j)
    quotient = [master.rows[r].render() for r in cs.non_pivot_rows()]
    return StalkReport(
        k=k, j=j, sigma=sigma.describe(), point=pt, rank=rank,
        stalk=dim - rank, quotient_rows=quotient,
        windows=master.windows.as_dict(), formula=formula,
        stability_checked=check_stability,
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
    master = _get_master(k, j, sigma, formula, 0)
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
    """Whether only shift columns survive in the direction matrix."""
    master = _get_master(sigma.k, j, sigma, "derived", 0)
    for tag, col in zip(master.tags, master.columns):
        if tag[0] != "lambda" and any(bool(e) for e in col):
            return False
    return True


# ---------------------------------------------------------------------------
# stratification


def _sigma_descriptor(sigma):
    return (sigma.k, tuple((h.render(), x, y) for h, (x, y) in sigma.terms),
            sigma.gen_index,
            None if sigma.multiplier is None else sigma.multiplier.render(),
            sigma.spec_text)


def _sigma_from_descriptor(desc):
    k, terms, gen_index, mult, spec_text = desc
    sig = Bivector(
        k, [(parse_poly(h), (x, y)) for h, x, y in terms],
        gen_index=gen_index,
        multiplier=None if mult is None else parse_poly(mult),
        spec_text=spec_text,
    )
    return sig


def _point_seed(seed, mask, draw):
    return (seed * 1000003 + mask * 97 + draw) % (2 ** 63)

def _masked_point(k, j, mask, rng):
    dim = direction_dimension(k, j)
    return [rand_fraction(rng) if mask >> r & 1 else Fraction(0)
            for r in range(dim)]


def _scan_masks(desc, k, j, formula, masks, seed, draws, check_stability):
    sigma = _sigma_from_descriptor(desc)
    master = _get_master(k, j, sigma, formula, 0)
    wide = _get_master(k, j, sigma, formula, 2) if check_stability else None
    out = []
    for mask in masks:
        for t in range(draws):
            rng = random.Random(_point_seed(seed, mask, t))
            pt = _masked_point(k, j, mask, rng)
            r = linalg.rank(master.evaluate(pt), nrows=len(master.rows))
            if wide is not None:
                rw = linalg.rank(wide.evaluate(pt), nrows=len(wide.rows))
                if rw != r:
                    raise WindowInstabilityError(
                        f"rank moved {r} -> {rw} under window bump "
                        f"(k={k}, j={j}, mask={mask})"
                    )
            out.append((mask, t, r, [str(c) for c in pt]))
    return out


def _select_masks(k, j, seed, pattern_cap):
    dim = direction_dimension(k, j)
    total = (1 << dim) - 1
    if total <= pattern_cap:
        return list(range(1, total + 1))
    rng = random.Random(seed)
    masks = set(rng.sample(range(1, total + 1), pattern_cap - 1))
    masks.add(total)  # always include the full-support pattern
    return sorted(masks)


def stratify(k, j, sigma, strategy="support-patterns", seed=DEFAULT_SEED,
             draws=5, pattern_cap=4096, workers=1, formula="derived",
             check_stability=True):
    """Scan support patterns of the base point for stalk strata.

    strategy="support-patterns" samples every nonzero support pattern
    (all of them when 2^dim - 1 <= pattern_cap, a seeded sample plus the
    full pattern otherwise) with several draws each.
    strategy="symbolic-minors" additionally certifies the generic rank
    with one symbolically nonzero maximal minor.
    """
    if strategy not in ("support-patterns", "symbolic-minors"):
        raise ValueError(f"unknown strategy {strategy!r}")
    dim = direction_dimension(k, j)
    masks = _select_masks(k, j, seed, pattern_cap)
    desc = _sigma_descriptor(sigma)
    results = []
    if workers > 1:
        chunks = [masks[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [
                pool.submit(_scan_masks, desc, k, j, formula, chunk, seed,
                            draws, check_stability)
                for chunk in chunks if chunk
            ]
            for f in futs:
                results.extend(f.result())
        results.sort(key=lambda rec: (rec[0], rec[1]))
    else:
        results = _scan_masks(desc, k, j, formula, masks, seed, draws,
                              check_stability)

    strata = {}
    max_corank = -1
    max_witness = None
    for mask, t, r, pt in results:
        corank = dim - r
        rec = strata.get(corank)
        if rec is None:
            strata[corank] = {
                "count": 1,
                "witness": {"mask": mask, "point": pt},
            }
        else:
            rec["count"] += 1
        if corank > max_corank:
            max_corank = corank
            max_witness = {"mask": mask, "point": pt}

    report = {
        "k": k,
        "j": j,
        "sigma": sigma.describe(),
        "strategy": strategy,
        "dimension": dim,
        "patterns_scanned": len(masks),
        "draws_per_pattern": draws,
        "strata": {str(c): strata[c] for c in sorted(strata)},
        "max_corank": max_corank,
        "max_corank_witness": max_witness,
        "stability_checked": check_stability,
    }
    if strategy == "symbolic-minors":
        report["certificate"] = certify_generic_rank(k, j, sigma,
                                                     seed=seed,
                                                     formula=formula)
    return report


def certify_generic_rank(k, j, sigma, seed=DEFAULT_SEED, formula="derived"):
    """Certify the generic rank with a symbolically nonzero minor.

    Locates a full-rank submatrix at a random point, then evaluates its
    determinant symbolically in the base point coordinates.  Together
    with the structural upper bound min(#rows, #columns not identically
    zero) this pins the generic rank exactly when the two agree.
    """
    master = _get_master(k, j, sigma, formula, 0)
    nrows = len(master.rows)
    live = [i for i, col in enumerate(master.columns)
            if any(bool(e) for e in col)]
    rng = random.Random(seed)
    pt = random_point(k, j, rng)
    cols = master.evaluate(pt)
    cs = linalg.ColumnSpace(nrows)
    picked = []
    for i in live:
        if cs.add(cols[i]):
            picked.append(i)
    r = cs.rank
    pivots = cs.pivot_rows()
    upper = min(nrows, len(live))
    cert = {
        "rank_observed": r,
        "structural_upper": upper,
        "minor_rows": [master.rows[p].render() for p in pivots],
        "minor_cols": [list(master.tags[i]) for i in picked],
        "certified": False,
        "detail": "",
    }
    if r > 12:
        cert["detail"] = "minor size exceeds the 12x12 symbolic cap"
        return cert
    sub = [[master.columns[i][p] for i in picked] for p in pivots]
    det = linalg.symbolic_det(sub)
    nonzero = bool(det)
    cert["minor_nonzero"] = nonzero
    if nonzero and r == upper:
        cert["certified"] = True
        cert["detail"] = "nonzero maximal minor meets structural upper bound"
    elif nonzero:
        cert["detail"] = "generic rank >= minor size; upper bound open"
    else:
        cert["detail"] = "located minor vanished symbolically"
    return cert


# ---------------------------------------------------------------------------
# full gauge oracle


_ORACLE_BUMP = 2  # window bump of the stability check


def _oracle_hi(j, bump):
    """Top z-degree of the oracle's unit window."""
    return 4 * j + 4 + bump


def _oracle_families(k, j, bump):
    """Unknown inventory of the full intertwining system.

    U-side units are z^n times a u-grade; V-side units are xi^n times a
    fibre coordinate of the other chart, written in U-coordinates.  Both
    sides carry classical and first-order slots in every matrix entry
    compatible with the gauge normalization (diagonal classical parts
    are pinned to 1, the classical upper-right slots to 0).
    """
    hi = _oracle_hi(j, bump)

    def upoly(n, g):
        if g == 0:
            return LaurentPoly.monomial(n, 0, 0)
        if g == 1:
            return LaurentPoly.monomial(n, 1, 0)
        return LaurentPoly.monomial(n, 0, 1)

    def vpoly(n, g):
        if g == 0:
            return LaurentPoly.monomial(-n, 0, 0)
        if g == 1:
            return LaurentPoly.monomial(k - n, 1, 0)
        return LaurentPoly.monomial(2 - k - n, 0, 1)

    u_slots = [
        ("a", (0, 0), 0, (1, 2)),
        ("d", (1, 1), 0, (1, 2)),
        ("c", (1, 0), 0, (0, 1, 2)),
        ("ap", (0, 0), 1, (0, 1, 2)),
        ("dp", (1, 1), 1, (0, 1, 2)),
        ("cp", (1, 0), 1, (0, 1, 2)),
        ("b", (0, 1), 1, (0, 1, 2)),
    ]
    v_slots = [
        ("al", (0, 0), 0, (1, 2)),
        ("de", (1, 1), 0, (1, 2)),
        ("g", (1, 0), 0, (0, 1, 2)),
        ("alp", (0, 0), 1, (0, 1, 2)),
        ("dep", (1, 1), 1, (0, 1, 2)),
        ("gp", (1, 0), 1, (0, 1, 2)),
        ("be", (0, 1), 1, (0, 1, 2)),
    ]
    fams = []
    for name, entry, hord, grades in u_slots:
        for g in grades:
            for n in range(hi + 1):
                fams.append((("U", name, g, n), entry, hord, upoly(n, g)))
    for name, entry, hord, grades in v_slots:
        for g in grades:
            for n in range(hi + 1):
                fams.append((("V", name, g, n), entry, hord, vpoly(n, g)))
    return fams


def _dispensed(key, j):
    """Suppressed always-slack diagonal rows at first order.

    The u-free first-order rows of the diagonal entries at high degree
    would pin the free integration constants of the diagonal hbar-parts
    and with them collapse legitimate shift columns; they carry no
    obstruction content.  Low-degree u-free diagonal rows are kept.
    """
    ei, ej, hord, l, i, s = key
    if hord != 1 or i or s:
        return False
    if (ei, ej) == (0, 0):
        return l >= j + 1
    if (ei, ej) == (1, 1):
        return l >= -j + 1
    return False


def _collect(poly, ei, ej, hord, sign, j, store):
    for mon, c in poly.truncate_neighborhood(1).terms():
        key = (ei, ej, hord, mon.l, mon.i, mon.s)
        if _dispensed(key, j):
            continue
        val = c if sign == 1 else -c
        total = store.get(key, 0) + val
        if total:
            store[key] = total
        else:
            store.pop(key, None)


def _affine_form(c):
    """Pairs (variable, coefficient) of an entry affine in (p, delta).

    Variable 0 is the constant term, variable 1 + r the r-th parameter.
    """
    if not isinstance(c, ParamPoly):
        return ((0, c),)
    form = []
    for ev, coeff in c.terms():
        deg = sum(ev)
        if deg > 1:
            raise AssertionError(
                f"oracle entry {c.render()} is not affine in (p, delta)")
        form.append((1 + ev.index(1) if deg else 0, coeff))
    return tuple(form)


@dataclass(frozen=True, slots=True)
class OracleSystem:
    """Full intertwining system of one configuration, affine in (p, delta).

    Built once at the widest window; a narrower window keeps the unknowns
    whose unit has z-degree up to its top.  Unknowns and rows are numbered
    in sorted key order, so the solver meets them in the order of their
    keys.  Column c holds the entries col_start[c] to col_start[c + 1];
    entry e sits in row entry_row[e] and has the value of form
    entry_form[e].  A form is a tuple of (variable, integer coefficient)
    pairs (see _affine_form); the whole system is scaled by the common
    denominator of its symbolic coefficients, 1 for the catalog
    bivectors, which leaves its solvability unchanged.
    """

    j: int
    forms: tuple
    col_n: array
    col_start: array
    entry_row: array
    entry_form: array
    rhs_row: array
    rhs_form: array

    def form_values(self, point, delta):
        """Every form at (point, delta), as a Fraction.

        The forms are summed in integers over the common denominator d of
        the coordinates, then divided by d.
        """
        coords = point + delta
        d = math.lcm(*(c.denominator for c in coords))
        x = [d] + [c.numerator * (d // c.denominator) for c in coords]
        return [Fraction(sum(coeff * x[v] for v, coeff in form), d)
                for form in self.forms]

    def solvable(self, values, bump):
        """Whether the system in the window of the bump is solvable.

        Entries that vanish at the point are dropped, and with them the
        columns left empty; also returns the number of unknowns left.
        """
        hi = _oracle_hi(self.j, bump)
        columns = {}
        for c, n in enumerate(self.col_n):
            if n > hi:
                continue
            col = {}
            for e in range(self.col_start[c], self.col_start[c + 1]):
                v = values[self.entry_form[e]]
                if v:
                    col[self.entry_row[e]] = v
            if col:
                columns[c] = col
        rhs = {r: values[f] for r, f in zip(self.rhs_row, self.rhs_form)
               if values[f]}
        return linalg.solvable_sparse(columns, rhs), len(columns)


def _build_oracle_system(k, j, sigma):
    dim = direction_dimension(k, j)
    params = (tuple(f"p{r}" for r in range(dim))
              + tuple(f"d{r}" for r in range(dim)))
    coeffs = [ParamPoly.variable(params, name) for name in params]
    p_poly = _point_poly(k, j, coeffs[:dim])
    delta_poly = _point_poly(k, j, coeffs[dim:])
    zero = LaurentPoly.zero()
    Tq = Matrix2([
        [FormalFunction([LaurentPoly.monomial(j, 0, 0)]),
         FormalFunction([p_poly, delta_poly])],
        [FormalFunction([zero]),
         FormalFunction([LaurentPoly.monomial(-j, 0, 0)])],
    ])
    Tp = transition_matrix(j, p_poly)

    forms = {}  # affine form -> form id

    def compiled(store):
        return [(row, forms.setdefault(_affine_form(c), len(forms)))
                for row, c in store.items()]

    # star is bilinear in the gauge entries, so the contribution of a
    # single unit w sitting at entry (ei, ej) is T * (w E) resp. (w E) * T,
    # which only has one nonzero column resp. row
    columns = {}
    for key, (ui, uj), hord, w in _oracle_families(k, j, _ORACLE_BUMP):
        side = key[0]
        W = (FormalFunction([w]) if hord == 0
             else FormalFunction([zero, w]))
        col = {}
        if side == "U":
            for ei in range(2):
                d = sigma.star(Tp.entry(ei, ui), W, 1)
                for h in range(2):
                    if not d[h].is_zero():
                        _collect(d[h], ei, uj, h, -1, j, col)
        else:
            for ej in range(2):
                d = sigma.star(W, Tq.entry(uj, ej), 1)
                for h in range(2):
                    if not d[h].is_zero():
                        _collect(d[h], ui, ej, h, 1, j, col)
        if col:
            columns[key] = compiled(col)

    rhs = {}
    for ei in range(2):
        for ej in range(2):
            for h in range(2):
                d = Tp.entry(ei, ej)[h] - Tq.entry(ei, ej)[h]
                if not d.is_zero():
                    _collect(d, ei, ej, h, 1, j, rhs)
    rhs = compiled(rhs)

    rows = set(row for row, _ in rhs)
    for col in columns.values():
        rows.update(row for row, _ in col)
    row_id = {row: n for n, row in enumerate(sorted(rows))}
    scale = math.lcm(*(c.denominator for form in forms for _, c in form))
    col_n, col_start = array("i"), array("i", [0])
    entry_row, entry_form = array("i"), array("i")
    for key in sorted(columns):
        col_n.append(key[3])
        for row, f in columns[key]:
            entry_row.append(row_id[row])
            entry_form.append(f)
        col_start.append(len(entry_row))
    return OracleSystem(
        j=j,
        forms=tuple(tuple((v, int(c * scale)) for v, c in form)
                    for form in forms),
        col_n=col_n, col_start=col_start,
        entry_row=entry_row, entry_form=entry_form,
        rhs_row=array("i", (row_id[row] for row, _ in rhs)),
        rhs_form=array("i", (f for _, f in rhs)),
    )


def _get_oracle_system(k, j, sigma):
    key = ("oracle", k, j, sigma.cache_key())
    system = _MASTERS.get(key)
    if system is None:
        system = _build_oracle_system(k, j, sigma)
        _MASTERS[key] = system
    return system


@dataclass
class OracleReport:
    k: int
    j: int
    sigma: dict
    point: tuple
    delta: tuple
    decision: bool
    unknowns: int
    stability_checked: bool

    def as_dict(self):
        return {
            "k": self.k,
            "j": self.j,
            "sigma": self.sigma,
            "point": [str(c) for c in self.point],
            "delta": [str(c) for c in self.delta],
            "decision": self.decision,
            "unknowns": self.unknowns,
            "stability_checked": self.stability_checked,
        }


def full_gauge_oracle(k, j, sigma, point, delta, check_stability=True):
    """Decide triviality of a deformation direction from first principles.

    Solves the complete intertwining system between the transition
    matrices at the base point and at the perturbed direction, with
    independent gauge unknowns on both charts.  No reduction from the
    engine is reused.  The system is built on the first call for a
    configuration and cached; a call evaluates it at (point, delta).
    """
    pt = _coerce_point(k, j, point)
    dl = _coerce_point(k, j, delta)
    system = _get_oracle_system(k, j, sigma)
    values = system.form_values(pt, dl)
    decision, nunk = system.solvable(values, 0)
    if check_stability:
        wide, _ = system.solvable(values, _ORACLE_BUMP)
        if wide != decision:
            raise WindowInstabilityError(
                f"oracle decision flipped under window bump "
                f"(k={k}, j={j}, point={pt}, delta={dl})"
            )
    return OracleReport(
        k=k, j=j, sigma=sigma.describe(), point=pt, delta=dl,
        decision=decision, unknowns=nunk,
        stability_checked=check_stability,
    )


STANDARD_ORACLE_CONFIGS = (
    (1, 2, "gen1"),
    (1, 3, "gen1"),
    (1, 2, "u1*gen1"),
    (1, 3, "u1*gen1"),
    (2, 2, "gen4"),
    (2, 3, "gen4"),
    (2, 2, "u1*gen4"),
    (2, 3, "u1*gen4"),
)


def oracle_check(configs=None, trials_point=10, trials_delta=10,
                 seed=DEFAULT_SEED, check_stability=True):
    """Engine vs oracle agreement over a battery of decisions.

    For every configuration and random base point, tests a mix of
    directions built inside the engine column span and raw random
    directions; both routes must agree on every single decision.
    """
    if configs is None:
        configs = STANDARD_ORACLE_CONFIGS
    mismatches = []
    per_config = []
    total = 0
    for idx, (k, j, sig_text) in enumerate(configs):
        sigma = parse_sigma_spec(sig_text, k)
        master = _get_master(k, j, sigma, "derived", 0)
        dim = direction_dimension(k, j)
        rng = random.Random(seed + 7919 * idx)
        agree = 0
        count = 0
        for _ in range(trials_point):
            pt = random_point(k, j, rng)
            cols = master.evaluate(pt)
            cs = linalg.ColumnSpace(dim)
            for col in cols:
                cs.add(col)
            for t in range(trials_delta):
                if t % 2 == 0:
                    i1 = rng.randrange(len(cols))
                    i2 = rng.randrange(len(cols))
                    c1, c2 = rand_fraction(rng), rand_fraction(rng)
                    delta = [c1 * a + c2 * b
                             for a, b in zip(cols[i1], cols[i2])]
                else:
                    delta = [rand_fraction(rng) for _ in range(dim)]
                engine = cs.contains(delta)
                oracle = full_gauge_oracle(
                    k, j, sigma, pt, delta,
                    check_stability=check_stability,
                ).decision
                count += 1
                total += 1
                if engine == oracle:
                    agree += 1
                else:
                    mismatches.append({
                        "config": [k, j, sig_text],
                        "point": [str(c) for c in pt],
                        "delta": [str(c) for c in delta],
                        "engine": engine,
                        "oracle": oracle,
                    })
        per_config.append({
            "config": [k, j, sig_text],
            "decisions": count,
            "agreements": agree,
        })
    return {
        "total_decisions": total,
        "total_mismatches": len(mismatches),
        "mismatches": mismatches,
        "per_config": per_config,
        "status": PASS if not mismatches else FAIL,
    }


# ---------------------------------------------------------------------------
# claim verification


def verify_claims(k, j, sigma, seed=DEFAULT_SEED, trials=20,
                  formula="derived"):
    """Check the structural claims for one configuration.

    Emits one PASS/FAIL/EXCEEDS record per claim and never reconciles a
    deviation silently; EXCEEDS marks behaviour outside the scope the
    claims cover (special points, coranks beyond the stated bound).
    """
    claims = []
    master = _get_master(k, j, sigma, formula, 0)
    claims.append({
        "name": "identity-shift-column",
        "status": PASS,
        "detail": "asserted during construction",
    })

    printed = _get_master(k, j, sigma, "printed", 0)
    same = (master.tags == printed.tags and all(
        all(a == b for a, b in zip(ca, cb))
        for ca, cb in zip(master.columns, printed.columns)
    ))
    claims.append({
        "name": "closed-form-agreement",
        "status": PASS if same else FAIL,
        "detail": "derived and closed-form columns match symbolically"
                  if same else "column mismatch between routes",
    })

    rng = random.Random(seed)
    pt = random_point(k, j, rng)
    base_rank = linalg.rank(master.evaluate(pt), nrows=len(master.rows))
    scaled = [Fraction(7, 3) * c for c in pt]
    s_rank = linalg.rank(master.evaluate(scaled), nrows=len(master.rows))
    claims.append({
        "name": "scaling-invariance",
        "status": PASS if base_rank == s_rank else FAIL,
        "detail": f"rank {base_rank} at p and {s_rank} at (7/3)p",
    })

    dim = direction_dimension(k, j)
    extremal = is_extremal(sigma, j)
    basic = sigma.gen_index is not None and sigma.multiplier is None

    if basic:
        bad = []
        for _ in range(trials):
            q = random_point(k, j, rng)
            r = linalg.rank(master.evaluate(q), nrows=len(master.rows))
            if r != dim:
                bad.append([str(c) for c in q])
        claims.append({
            "name": "generic-rigidity",
            "status": PASS if not bad else FAIL,
            "detail": "full rank at all sampled points" if not bad
                      else f"rank drop witnesses: {bad[:3]}",
        })
        special = []
        for pt1 in single_coordinate_points(k, j):
            r = linalg.rank(master.evaluate(pt1), nrows=len(master.rows))
            if r != dim:
                special.append({
                    "point": [str(c) for c in pt1],
                    "stalk": dim - r,
                })
        claims.append({
            "name": "single-coordinate-rigidity",
            "status": PASS if not special else EXCEEDS,
            "detail": special if special
                      else "full rank on every coordinate axis",
        })

    if extremal:
        expected = 2 * j - k - 1
        bad = []
        for _ in range(trials):
            q = random_point(k, j, rng)
            r = linalg.rank(master.evaluate(q), nrows=len(master.rows))
            if dim - r != expected:
                bad.append([str(c) for c in q])
        claims.append({
            "name": "extremal-generic-stalk",
            "status": PASS if not bad else FAIL,
            "detail": f"generic stalk {expected}" if not bad
                      else f"unexpected stalks at {bad[:3]}",
        })
        bound = 4 * j - k - 4
        cap = 512 if dim > 10 else (1 << dim) - 1
        masks = _select_masks(k, j, seed, cap)
        desc = _sigma_descriptor(sigma)
        recs = _scan_masks(desc, k, j, formula, masks, seed, 2, False)
        seen = {}
        for mask, t, r, ptxt in recs:
            seen.setdefault(dim - r, {"mask": mask, "point": ptxt})
        max_corank = max(seen)
        claims.append({
            "name": "max-corank-bound",
            "status": PASS if max_corank <= bound else EXCEEDS,
            "detail": {
                "bound": bound,
                "max_corank": max_corank,
                "witness": seen[max_corank],
            },
        })
        lo = min(seen)
        contiguous = all(c in seen for c in range(lo, max_corank + 1))
        claims.append({
            "name": "corank-contiguity",
            "status": PASS if contiguous else EXCEEDS,
            "detail": {"achieved": sorted(seen)},
        })

    worst = PASS
    for c in claims:
        if c["status"] == FAIL:
            worst = FAIL
            break
        if c["status"] == EXCEEDS:
            worst = EXCEEDS
    return {
        "k": k,
        "j": j,
        "sigma": sigma.describe(),
        "claims": claims,
        "status": worst,
    }


# ---------------------------------------------------------------------------
# reports


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "ncbundles report envelope",
    "type": "object",
    "required": ["tool", "kind", "config", "seed", "result"],
    "properties": {
        "tool": {"const": "ncbundles"},
        "kind": {
            "enum": ["h1", "star-check", "normalize", "stalk",
                     "stratify", "verify", "oracle-check"],
        },
        "config": {"type": "object"},
        "seed": {"type": ["integer", "null"]},
        "result": {"type": "object"},
    },
    "additionalProperties": False,
}


def make_report(kind, config, seed, result):
    return {
        "tool": "ncbundles",
        "kind": kind,
        "config": config,
        "seed": seed,
        "result": result,
    }


def canonical_json(obj):
    """Deterministic serialization: same report, same bytes."""
    return json.dumps(obj, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"
