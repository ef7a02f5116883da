"""The reduced cancellation engine for first-order deformations of the
canonical extension bundles on W_k, k in {1, 2}.

Only the upper-right entry of the transformed transition matrix is
tracked, against the obstruction rows, after the right inverse of the
transition has been applied.  Columns of the resulting direction matrix
are indexed by gauge unknowns, and the stalk of the deformation sheaf at
a point is the corank.  The full gauge oracle (oracle.py) decides the
same triviality question without this reduction.

Everything is exact over the rationals.  A direction matrix is built once
per configuration and formula at the stability window, bump-0 columns
first, with entries symbolic in the base point; both formulas read one
frame of the configuration (_build_frame), which checks T * R = 1 once.
The entries are compiled into one ring.FormTable, as the oracle's
systems are, when a point or a stratum first reads them; a point only
evaluates that table.

The master records which of its columns are not identically zero, and a
point reduces only those: a zero column is the zero vector at every
point and enlarges no span, so ranks, pivots and the stability check
are those of a pass over every column.  In every catalog master all
columns of the stability window past the bump-0 window are zero, so the
stability pass reads none of them there; a nonzero column planted in
that window is still reduced, and raises if it enlarges the span.

Every rank on a support stratum, the points with the same nonzero
coordinates, is decided in one place, stratum_rank, which states why
its answer is exact: proved where the stratum's bounds (stratum_bounds)
meet, else from a point's evaluation.  The generic-rank certificate
reads its minor off the modular echelon that query accepts, where its
leading pivots prove the exact ones (point_pivots).

A derived column, the hbar-part of (T_0a * W) * R_b1 for a monomial unit
W, is not computed by star products: beyond bilinearity, the Leibniz rule
for {t0 w, r0} and {f, w} = sum_d dw/dd P_d(f) (Bivector.bracket_pieces)
make it a sum of monomial shifts of polynomials cached per gauge entry
(_leibniz_pieces).  Both identities are exact.  For the c0 entry, whose
classical parts are t0 = p and r0 = -p, the bracket parts drop out: the
bracket is antisymmetric, so {t0, r0} = -{p, p} = 0, and the pieces are
linear, so B_d = r0 P_d(t0) - t0 P_d(r0) = -p P_d(p) + p P_d(p) = 0.
_leibniz_pieces checks r0 = -t0 exactly and then builds neither.  A
printed column is such a sum too, and the frame holds the bracket pieces
that both formulas pair, so each is computed once per configuration: R_01
is -p classically, which the frame checks exactly, and the pieces are
linear, so its pieces are those of p negated.  The frame's T * R = 1 check
pairs the pieces of T's classical entries z^j, p and z^-j (star_matrix_mul
takes them from the caller), so a cold configuration takes
Bivector.bracket_pieces four times: those three and one in R.

Every column family g (lambda, a1, a2, d1, d2, c0) is one polynomial pair
(X_g, Y_g) per formula, built once per master (_derived_pairs,
_printed_pieces): its column (g, n), for the unit z^n u_g, is
z^n (X_g + n Y_g), the Leibniz rule dw/dz = n z^-1 w and dw/du_g = z^n
applied once for the whole family (u_g = 1 for lambda and c0, and Y_g = 0
where no bracket with the unit enters).  Each pair is cut to the first
neighbourhood, and a shift by z^n keeps the u-degree, so no column needs
another cut.  The two parts of a column are summed in one pass straight
into its rows (_entry_column): a term off the rows that the gauge absorbs
is skipped before its coefficient is read.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .bundles import (
    Matrix2,
    canonical_right_inverse,
    extension_basis,
    require_basis,
    star_matrix_mul,
    transition_matrix,
)
from .poisson import pieces_pairing
from .ring import (
    VARS,
    Evaluation,
    FormalFunction,
    FormTable,
    LaurentPoly,
    Monomial,
    ParamPoly,
)

PASS = "PASS"
FAIL = "FAIL"
EXCEEDS = "EXCEEDS"

DEFAULT_SEED = 97
STABILITY_BUMP = 2  # window bump of the stability check, engine and oracle


class WindowInstabilityError(RuntimeError):
    """Raised when enlarging truncation windows changes a result."""


def _point_text(point):
    """The coordinates of a point as the CLI's --point takes them, so an
    error that names the point can be pasted back: 1/2,1,0,0."""
    return ",".join(str(c) for c in point)


def require_positive(**counts):
    """Reject a count below 1: a check over nothing would pass vacuously."""
    for name, n in counts.items():
        if n < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")


def require_directions(j):
    """Reject j < 2: the extension has no moduli directions there."""
    if j < 2:
        raise ValueError(f"no moduli directions below j = 2, got j={j}")


# ---------------------------------------------------------------------------
# bases and windows


def direction_dimension(k, j):
    """Number of first-order deformation directions, 4j - 4 for j >= 2.

    The size of extension_basis(k, j, 1), counted without building it:
    its u1 block has 2j - 1 - k monomials and its u2 block 2j + k - 3.
    """
    require_basis(k)
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    return max(0, 2 * j - 1 - k) + max(0, 2 * j + k - 3)


def obstruction_basis(k, j):
    """Obstruction monomials paired with the direction basis.

    The z^j-shift of the extension basis, in the same block order, so the
    column of the identity gauge shift aligns index by index with the
    base point coordinates.
    """
    require_directions(j)
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

    l_min, the lowest z-degree of extension_basis(k, j, 1), is read off
    without building the basis, as direction_dimension counts it: a
    block's z-degrees run from k i + (2 - k) s - j + 1 up to j - 1, so
    the u1 block (i = 1) starts at k - j + 1 and the u2 block (s = 1) at
    3 - k - j, and 3 - k - j <= k - j + 1 for k in {1, 2}.  For j >= 2
    both blocks are nonempty, so l_min = 3 - k - j.
    """
    require_directions(j)
    require_basis(k)
    l_min = 3 - k - j
    s_lo = j + l_min - 1 + _sigma_h_min(sigma)
    return GaugeWindows(
        lambda_hi=2 * j - 2 + bump,
        unit_hi=(2 * j - 1) - s_lo + 2 + bump,
        shift_hi=2 * j,
    )


# the column families, in column order: the shifts, the units, c0
_FAMILIES = ("lambda", "a1", "a2", "d1", "d2", "c0")
_UNITS = _FAMILIES[1:5]


def _column_tags(win):
    tags = [("lambda", m) for m in range(win.lambda_hi + 1)]
    for fam in _UNITS:
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


def _leibniz_pieces(frame, a, b):
    """Polynomials that give every derived column of gauge entry (a, b).

    With t = T_0a and r = R_b1, a column is the hbar-part of
    (t * W) * r for its unit W.  For a monomial w the Leibniz rule
    {t0 w, r0} = w {t0, r0} + t0 {w, r0} and {f, w} = sum_d dw/dd P_d(f)
    make (t * w) * r = w t0 r0 + hbar (w A + sum_d dw/dd B_d) with
    A = t1 r0 + t0 r1 + {t0, r0} and B_d = r0 P_d(t0) - t0 P_d(r0),
    from the pieces P_d of the frame, those of R_01 = -p being p's
    negated.  {t0, r0} = sum_d dr0/dd P_d(t0) pairs the pieces of t0 that
    B uses.  All three are cut to the first neighbourhood, and their
    products build no term past it (LaurentPoly.mul_truncated): a shift
    by a monomial never lowers the u-degree, so no term cut here reaches
    a column.  Each family of the entry takes them into one pair
    (_derived_pairs).

    Where r0 = -t0 exactly, as for the c0 entry (1, 0), whose R_01 is
    -T_01 classically, B and {t0, r0} vanish and are not built, and B is
    returned empty: the pieces are linear, so B_d = -t0 P_d(t0) +
    t0 P_d(t0) = 0, and the bracket is antisymmetric, so
    {t0, -t0} = 0.
    """
    t, r = frame.T.entry(0, a), frame.R.entry(b, 1)
    A = t[1].mul_truncated(r[0], 1) + t[0].mul_truncated(r[1], 1)
    if (r[0] + t[0]).is_zero():
        return t[0].mul_truncated(r[0], 1), A, {}
    pt, pr = frame.t_pieces[a], frame.r_pieces[b]
    zero = LaurentPoly.zero()
    B = {d: r[0].mul_truncated(pt.get(d, zero), 1)
         - t[0].mul_truncated(pr.get(d, zero), 1) for d in VARS}
    A = A + pieces_pairing(pt, r[0]).truncate_neighborhood(1)
    return t[0].mul_truncated(r[0], 1), A, B


def _unit(fam):
    """The unit u_g of a family g with a classical part: its fibre
    coordinate and exponents, u_g = 1 for c0, whose unit is z^n."""
    if fam == "c0":
        return None, (0, 0, 0)
    return ("u1", (0, 1, 0)) if fam[1] == "1" else ("u2", (0, 0, 1))


def _derived_pairs(frame):
    """The pair (X_g, Y_g) of each family g of the derived formula, from
    the _leibniz_pieces of its gauge entry (a, b): (1, 1) for lambda, d1
    and d2, (0, 0) for a1 and a2, (1, 0) for c0.

    T * R = 1 mod hbar^2, so by bilinearity of the star product a column
    is the hbar-part of (T_0a * W) * R_b1 for its unit W.  For lambda,
    W = hbar z^n, only w t0 r0 is left: X = t0 r0 and Y = 0.  For the
    unit w = z^n u_g of any other family, w A + sum_d dw/dd B_d is
    z^n (X_g + n Y_g) with X_g = u_g A + B_{u_g} and Y_g = z^-1 u_g B_z,
    both cut to the first neighbourhood (u_g = 1 and no B_{u_g} for c0).
    Its classical part w t0 r0 must vanish there: it is one part, so no
    term of it can cancel, and a term of t0 r0 that u_g leaves at
    u-degree 1 or less raises, naming the family's first column; n moves
    no term's u-degree, so one check holds for every column of the
    family.
    """
    entry = {"a": (0, 0), "d": (1, 1), "c": (1, 0)}  # by family letter
    leibniz = {ab: _leibniz_pieces(frame, *ab) for ab in entry.values()}
    zero = LaurentPoly.zero()
    pairs = {"lambda": (leibniz[1, 1][0], zero)}
    for fam in _FAMILIES[1:]:
        t0r0, A, B = leibniz[entry[fam[0]]]
        ug, u = _unit(fam)
        if any(i + s + u[1] + u[2] <= 1 for _, i, s in t0r0.monomials()):
            raise AssertionError(
                f"classical upper-right residue for column {(fam, 0)}")
        pairs[fam] = (
            LaurentPoly.shifted_sum(
                [(A, u, 1), (B.get(ug, zero), (0, 0, 0), 1)], 1),
            LaurentPoly.shifted_sum([(B.get("z", zero), (-1, *u[1:]), 1)],
                                    1))
    return pairs


def _printed_pieces(frame, j):
    """The pair (X_g, Y_g) of each family g of the printed closed form.

    lambda is p z^(n+j) and c0 is 2 p z^(n-j) {z^j, p}, so X = z^j p and
    X = 2 z^-j p {z^j, p}, both with Y = 0.  A unit e = z^n u_g gives
    z^j {p, e} - p {z^j, e} +- e {z^j, p} (+ for a1 and a2), and
    {f, e} = sum_d de/dd P_d(f) for the frame's bracket pieces, so the
    column is z^n (X_g + n Y_g) with
    X_g = z^j P_{u_g}(p) - p P_{u_g}(z^j) +- u_g {z^j, p} and
    Y_g = z^-1 u_g (z^j P_z(p) - p P_z(z^j)), both cut to the first
    neighbourhood.  A monomial shift never lowers the u-degree, so the
    products are built only up to it.  The units' z^j {p, e} and
    p {z^j, e} pair the pieces of p and of z^j with e, where the derived
    route pairs those of the gauge entries of T and R, so the two routes
    still compute every column by different formulas.
    """
    p_poly = frame.p_poly
    pzj, pp = frame.t_pieces  # P_d(z^j) and P_d(p)
    zjp = pieces_pairing(pzj, p_poly)
    zero = LaurentPoly.zero()
    p_pzj = {d: p_poly.mul_truncated(piece, 1) for d, piece in pzj.items()}

    def brackets(d, shift):
        # the parts of z^j P_d(p) - p P_d(z^j), shifted
        l, i, s = shift
        return [(pp.get(d, zero), (l + j, i, s), 1),
                (p_pzj.get(d, zero), shift, -1)]

    pairs = {"lambda": (LaurentPoly.shifted_sum([(p_poly, (j, 0, 0), 1)]),
                        zero)}
    for fam in _UNITS:
        ug, u = _unit(fam)
        pairs[fam] = (
            LaurentPoly.shifted_sum(
                [*brackets(ug, (0, 0, 0)),
                 (zjp, u, 1 if fam[0] == "a" else -1)], 1),
            LaurentPoly.shifted_sum(brackets("z", (-1, *u[1:])), 1))
    pairs["c0"] = (LaurentPoly.shifted_sum(
        [(p_poly.mul_truncated(zjp, 1), (-j, 0, 0), 2)]), zero)
    return pairs


class MasterFrame(NamedTuple):
    """What both formulas of one configuration read (_build_frame): the
    symbolic point, p_poly, rows, the column tags of the stability window
    with the `narrow` of the bump-0 window first, that window, the
    transition matrix T with its right inverse R, and the bracket pieces
    (Bivector.bracket_pieces) of the classical parts of T_0a (t_pieces)
    and of R_b1 (r_pieces), each polynomial's pieces computed once, and
    those of R_01 = -p negated from p's.  t_pieces, those of z^j and p,
    are the ones the T * R = 1 check paired, with those of z^-j, which no
    build reads and the frame does not keep."""

    point: list
    p_poly: LaurentPoly
    rows: list
    tags: list
    narrow: int
    windows: GaugeWindows
    T: Matrix2
    R: Matrix2
    t_pieces: tuple
    r_pieces: tuple


def _build_frame(k, j, sigma):
    """The frame of a configuration, after checking T * R = 1 mod hbar^2."""
    _, coeffs = _symbolic_point(k, j)
    basis = extension_basis(k, j, 1)
    p_poly = LaurentPoly({m: c for m, c in zip(basis, coeffs)})
    # a column depends on its tag alone, so the bump-0 window is a prefix
    tags = _column_tags(compute_windows(k, j, sigma))
    narrow, seen = len(tags), set(tags)
    win = compute_windows(k, j, sigma, STABILITY_BUMP)
    tags += [t for t in _column_tags(win) if t not in seen]

    # identity gauge sanity: T * R must be the identity mod hbar^2; it
    # pairs the pieces of T's classical entries z^j, p and z^-j, and the
    # builds pair those of row 0 again
    T = transition_matrix(j, p_poly)
    R = canonical_right_inverse(sigma, j, FormalFunction([p_poly]))
    t_pieces = tuple(sigma.bracket_pieces(T.entry(0, a)[0]) for a in (0, 1))
    ident = star_matrix_mul(sigma, T, R, 1, (
        t_pieces, ({}, sigma.bracket_pieces(T.entry(1, 1)[0]))))
    for a in range(2):
        for b in range(2):
            want_cl = LaurentPoly.const(1) if a == b else LaurentPoly.zero()
            if not (ident.entry(a, b)[0] - want_cl).is_zero():
                raise AssertionError("right inverse failed classically")
            if not ident.entry(a, b)[1].is_zero():
                raise AssertionError("right inverse failed at order 1")
    # T_00 = R_11 = z^j and T_01 = p: the derived build pairs the pieces
    # of z^j, p and R_01, and the printed build those of z^j and p; R_01
    # is -p, so its pieces are p's negated, as the pieces are linear
    if not (R.entry(0, 1)[0] + T.entry(0, 1)[0]).is_zero():
        raise AssertionError("right inverse failed: R_01 is not -p")
    r_pieces = ({d: -piece for d, piece in t_pieces[1].items()},
                t_pieces[0])
    return MasterFrame(coeffs, p_poly, obstruction_basis(k, j), tags, narrow,
                       win, T, R, t_pieces, r_pieces)


@dataclass(slots=True)
class MasterSystem:
    """Direction matrix of one configuration (k, j).

    The cached master has entries symbolic in the base point and the
    columns of the stability window, the first `narrow` of them those of
    the bump-0 window; `nonzero` lists, ascending, the columns with an
    entry that is not identically zero.  `table` holds the nonzero
    entries of every column, in the same column order, compiled on its
    first read.  build_cancellation_system returns one window of it,
    symbolic or evaluated at a point.  `bounds` holds the rank bounds of
    each support stratum met so far (stratum_bounds), and `pattern` the
    zero pattern they are read from, built with the first of them: per
    table monomial, the coordinates it needs and the entries of the
    nonzero columns it occurs in, as bitsets in column-major and in
    row-major order (_zero_pattern).
    """

    k: int
    j: int
    rows: list
    tags: list
    windows: GaugeWindows
    columns: list
    narrow: int
    nonzero: tuple
    bounds: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)
    pattern: tuple = field(default=None, init=False, compare=False,
                           repr=False)
    _table: FormTable = field(default=None, init=False, compare=False,
                              repr=False)

    @property
    def table(self):
        """The ring.FormTable of the columns, compiled on the first read
        and kept on the master, as bounds and pattern are."""
        if self._table is None:
            # a zero column has an empty segment, so it is not read
            nonzero = set(self.nonzero)
            self._table = FormTable.compile(
                dict(enumerate(col)) if c in nonzero else {}
                for c, col in enumerate(self.columns))
        return self._table

    def nonzero_narrow(self):
        """The nonzero columns of the bump-0 window."""
        return self.nonzero[:bisect_left(self.nonzero, self.narrow)]

    def evaluate(self, point, ncols=None):
        """The first ncols columns of this window (every column for None)
        at the point, as Fractions, each a fresh list; a column not in
        `nonzero` has no entry in the table, so it is all zeros."""
        ev = Evaluation(self.table, point)
        values = [Fraction(v, ev.den) for v in ev.ints]
        n, zero = len(self.rows), Fraction(0)
        return [self.table.column(values, c, n, zero)
                for c in range(len(self.columns) if ncols is None else ncols)]

    def entries_rowmajor(self):
        out = []
        for r in range(len(self.rows)):
            out.append([
                e.render() if isinstance(e, ParamPoly) else str(e)
                for e in (col[r] for col in self.columns)
            ])
        return out


def _entry_column(k, j, pair, row_of, tag):
    """The coefficients in the rows (row_of: monomial -> row) of column
    tag = (g, n), z^n (X_g + n Y_g) for the pair (X_g, Y_g) of its
    family g, in one pass over the terms of X_g and then of n Y_g.

    A term the gauge absorbs, one that is not u-free and lies at z^2j or
    past it or has xi-exponent -z + k u1 + (2 - k) u2 >= 0
    (geometry.v_exponent), is skipped first, before its row is looked up
    or its coefficient read: no row lies there, since the rows have
    u-degree 1 and run over z = k+1..2j-1 (u1) and z = 3-k..2j-1 (u2),
    the blocks of compute_windows shifted by j.  Any other term is on a
    row, where it is added to the row's coefficient, or goes into a
    residue that must cancel to zero.  Terms are added in order, each
    scaled as LaurentPoly.shifted_sum scales it, so a row holds the
    coefficient of that sum.
    """
    n = tag[1]
    top, k2 = 2 * j, 2 - k
    acc = {}  # row -> coefficient, and residue monomial -> coefficient
    for poly, c in zip(pair, (1, n)):
        if not c:
            continue  # Y does not enter column n = 0
        scaled = c.__class__ is not int or c != 1
        for (l, u1, u2), v in poly.items():
            z = l + n
            if u1 + u2 and (z >= top or z <= k * u1 + k2 * u2):
                continue  # absorbed by the gauge
            mon = (z, u1, u2)
            key = row_of.get(mon)
            if key is None:
                key = Monomial(*mon)
            if key in acc:
                old = acc[key]
                if not scaled:
                    v = old + v
                elif old.__class__ is ParamPoly:
                    v = old.add_scaled(v, c)
                else:
                    v = old + v * c
                if not v:
                    del acc[key]
                    continue
            elif scaled:
                v = v * c
            acc[key] = v
    col = [0] * len(row_of)
    for key, v in acc.items():
        if key.__class__ is not int:
            kind = "unabsorbable" if key.degree_u() else "u-free"
            raise AssertionError(
                f"{kind} residue {key} in direction column {tag}")
        col[key] = v
    return col


def _build_master(k, j, sigma, formula):
    if formula not in ("derived", "printed"):
        raise ValueError(
            f"formula must be 'derived' or 'printed', got {formula!r}")
    frame = cached(_build_frame, k, j, sigma)
    pairs = (_derived_pairs(frame) if formula == "derived"
             else _printed_pieces(frame, j))
    row_of = {m: r for r, m in enumerate(frame.rows)}
    columns = [_entry_column(k, j, pairs[tag[0]], row_of, tag)
               for tag in frame.tags]

    # the shift column of lowest degree must reproduce the base point
    if columns[frame.tags.index(("lambda", 0))] != frame.point:
        raise AssertionError("identity shift column mismatch")

    nonzero = tuple(c for c, col in enumerate(columns) if any(col))
    return MasterSystem(k, j, frame.rows, frame.tags, frame.windows,
                        columns, frame.narrow, nonzero)


_MASTERS = {}


def cached(build, k, j, sigma, *args):
    """build(k, j, sigma, *args), built once per configuration.

    Holds the engine's masters and the oracle's systems.  The key uses
    the builder's name, so a wrapped builder shares the entries.  A
    bivector on another W_k than k is rejected with ValueError: its
    systems would mix the bases of W_k with the brackets of the other.
    """
    if sigma.k != k:
        raise ValueError(
            f"sigma is a bivector on W_{sigma.k}, not on W_{k}")
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
        if isinstance(c, (str, int)):
            c = Fraction(c)
        elif not isinstance(c, Fraction):
            raise TypeError(f"bad coordinate {c!r}")
        vals.append(c)
    if len(vals) != dim:
        raise ValueError(f"expected {dim} coordinates, got {len(vals)}")
    return tuple(vals)


def build_cancellation_system(k, j, sigma, point=None, formula="derived",
                              bump=0):
    """Direction matrix for one configuration, in the window of the bump.

    bump is 0 or STABILITY_BUMP.  point=None keeps the entries symbolic
    in the base point coordinates.
    """
    master = cached(_build_master, k, j, sigma, formula)
    n = len(master.columns)
    if bump == 0:
        n = master.narrow
    elif bump != STABILITY_BUMP:
        raise ValueError(f"bump must be 0 or {STABILITY_BUMP}, got {bump}")
    if point is None:
        columns = [list(c) for c in master.columns[:n]]
    else:
        # through the cached master, so its table is compiled only once
        columns = master.evaluate(_coerce_point(k, j, point), n)
    if bump:
        return replace(master, columns=columns)
    return replace(master, windows=compute_windows(k, j, sigma),
                   tags=master.tags[:n], columns=columns,
                   nonzero=master.nonzero_narrow())


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


class PointSpace(NamedTuple):
    """A master at a point, its evaluation and the span of its columns."""

    master: MasterSystem
    ev: Evaluation  # integer numerators of the master's forms
    space: linalg.ColumnSpace
    grew: list  # indices of the bump-0 columns that enlarged the span


def _span(master, ev, point):
    """The echelon span of the master's nonzero columns, checked, and
    the nonzero bump-0 columns that enlarged it, by column index.

    ev is the master's table at the point.  The nonzero bump-0 columns
    are added first; if a nonzero column of the rest, the stability
    window, enlarges the span, WindowInstabilityError is raised.  A zero
    column could enlarge neither span, so none is read.
    """
    n = len(master.rows)
    space = linalg.ColumnSpace(n)
    narrow = master.nonzero_narrow()
    grew = [narrow[i]
            for i in space.extend(ev.column(c, n) for c in narrow)]
    rank = space.rank
    space.extend(ev.column(c, n) for c in master.nonzero[len(narrow):])
    if space.rank != rank:
        raise WindowInstabilityError(
            f"rank moved {rank} -> {space.rank} under window bump "
            f"(k={master.k}, j={master.j}, point={_point_text(point)})"
        )
    return space, grew


def point_space(k, j, sigma, formula, point):
    """The master at a point, its table's Evaluation there and the
    checked span (_span) of its nonzero columns as integer numerators
    over one denominator, which span what the columns of values span."""
    master = cached(_build_master, k, j, sigma, formula)
    ev = Evaluation(master.table, point)
    return PointSpace(master, ev, *_span(master, ev, point))


def _zero_pattern(master):
    """Per table monomial, (need, by column, by row): bit r of need is
    coordinate r, and the two bitsets hold the entries of the nonzero
    columns that the monomial occurs in, entry (r, c) of the c-th nonzero
    column as bit c * #rows + r and as bit r * #nonzero + c."""
    table = master.table
    n, ncols = len(master.rows), len(master.nonzero)
    # the entries of each form first, as forms are shared between entries
    form_col, form_row = [0] * len(table.forms), [0] * len(table.forms)
    for c, col in enumerate(master.nonzero):
        for r, f in table.segment(col):
            form_col[f] |= 1 << (c * n + r)
            form_row[f] |= 1 << (r * ncols + c)
    by_col = [0] * len(table.monomials)
    by_row = [0] * len(table.monomials)
    for form, col_bits, row_bits in zip(table.forms, form_col, form_row):
        for m, _ in form:
            by_col[m] |= col_bits
            by_row[m] |= row_bits
    needs = (sum(1 << v for v in set(m)) >> 1 for m in table.monomials)
    return tuple(zip(needs, by_col, by_row))


def stratum_bounds(master, support):
    """(lower, upper): bounds of the rank at every point of a support
    stratum, the points whose nonzero coordinates are exactly the bits of
    support, cached per support in master.bounds.

    An entry is live on the stratum when one of its form's monomials
    needs no coordinate outside the support (the constant, variable 0,
    needs none); every other entry vanishes on the whole stratum.  An
    entry with a single live monomial is sure: it is nonzero at every
    point of the stratum.  One pass over the live monomials of
    master.pattern ORs their entry bitsets: `once` holds the live
    entries, `twice` those of two live monomials or more, and the sure
    entries are once & ~twice; the row mask of a column and the column
    mask of a row are shifts of them.  lower is linalg.triangular_rank of
    the nonzero bump-0 columns N, a nonsingular submatrix of N at every
    such point; upper is linalg.term_rank of every nonzero column, so no
    point of the stratum gives the columns of the whole stability window
    a larger rank.  upper is not computed when lower is already #rows or
    the number of nonzero columns, and is lower then.  stratum_rank reads
    them.

    master.pattern, the zero pattern of the nonzero columns as bitsets
    (_zero_pattern), is built with the first bounds of a master and kept
    on it, so emptying _MASTERS drops it with the bounds.
    """
    got = master.bounds.get(support)
    if got is None:
        if master.pattern is None:
            master.pattern = _zero_pattern(master)
        by_col = once = twice = 0
        outside = ~support
        for need, col_bits, row_bits in master.pattern:
            if not need & outside:
                by_col |= col_bits
                twice |= once & row_bits
                once |= row_bits
        n, ncols = len(master.rows), len(master.nonzero)
        narrow = len(master.nonzero_narrow())
        all_rows, narrow_cols = (1 << n) - 1, (1 << narrow) - 1
        columns = [by_col >> (c * n) & all_rows for c in range(ncols)]
        sure = once & ~twice
        lower = linalg.triangular_rank(
            columns[:narrow],
            [once >> (r * ncols) & narrow_cols for r in range(n)],
            [sure >> (r * ncols) & narrow_cols for r in range(n)])
        # the diagonal of lower sure entries is a matching that already
        # fills every row or every column
        upper = lower if lower == min(n, ncols) else linalg.term_rank(
            columns, n)
        got = master.bounds[support] = lower, upper
    return got


_PRIME = 2_147_483_647  # 2^31 - 1: every modular echelon of the package


def _support(point):
    """The support mask of a point: bit r for each nonzero coordinate r."""
    return sum(1 << r for r, c in enumerate(point) if c)


def stratum_rank(master, support, point=None):
    """(rank, upper): the rank of the master on a support stratum, and
    the stratum's upper bound from stratum_bounds.  Every rank on a
    stratum is decided here.

    For the nonzero bump-0 columns N and the columns of the whole
    stability window, at every point of the stratum, with rank_p the
    rank modulo the prime _PRIME of the integer columns of its
    Evaluation,
        lower <= rank_Q(N),
        rank_p(N) <= rank_Q(N) <= rank_Q(window) <= min(#rows, upper):
    lower and upper are stratum_bounds', and a minor of integer columns
    can only vanish modulo a prime.  So where lower == upper the stratum
    is closed: its rank is exact and window-stable at every point of it,
    and is returned with nothing evaluated.  On an open stratum the rank
    is None without a point, and with one it is the rank at the point:
    rank_p(N) where it reaches #rows or upper, which makes every term of
    the chain equal (_modular_echelon), else the exact span of the same
    columns, read from the same Evaluation (_span), which raises
    WindowInstabilityError where point_space would.
    """
    lower, upper = stratum_bounds(master, support)
    if lower == upper:
        return lower, upper
    if point is None:
        return None, upper
    ev = Evaluation(master.table, point)
    echelon = _modular_echelon(master, ev, upper)
    rank = len(echelon[0]) if echelon else _span(master, ev, point)[0].rank
    return rank, upper


def _modular_echelon(master, ev, upper):
    """The pivot rows and grown columns of linalg.rank_mod on the nonzero
    bump-0 columns of the evaluation ev, where their rank reaches #rows
    or the stratum's upper bound, and so is the exact, window-stable rank
    (stratum_rank); None where it falls short of both.  The echelon reads
    the columns in order and stops at full rank."""
    n = len(master.rows)
    pivots, grew = linalg.rank_mod(
        (ev.column(c, n) for c in master.nonzero_narrow()), n, _PRIME)
    return (pivots, grew) if len(pivots) in (n, upper) else None


def point_rank(k, j, sigma, point):
    """The rank point_space(k, j, sigma, "derived", point).space.rank
    gives, by stratum_rank on the point's support stratum."""
    master = cached(_build_master, k, j, sigma, "derived")
    return stratum_rank(master, _support(point), point)[0]


def point_pivots(k, j, sigma, point):
    """The master, its table's Evaluation at the point, and the pivot rows
    (ascending) and grown bump-0 columns of point_space's checked span,
    read off the modular echelon that stratum_rank accepts where it
    proves them.

    Where the echelon's first r columns grew, with the pivot of step s at
    row s - 1, every leading principal minor of those integer columns is
    nonzero modulo the prime, so nonzero over Q, and the exact forward
    echelon (ColumnSpace) gives them the same pivots; an accepted echelon
    has the exact, window-stable rank r, so no later column enlarges the
    span.  Otherwise the checked span of point_space, read from the same
    Evaluation, decides (_span), WindowInstabilityError included.
    """
    master = cached(_build_master, k, j, sigma, "derived")
    ev = Evaluation(master.table, point)
    upper = stratum_rank(master, _support(point))[1]
    echelon = _modular_echelon(master, ev, upper)
    if echelon:
        lead = list(range(len(echelon[0])))
        if echelon[0] == echelon[1] == lead:
            return master, ev, lead, list(master.nonzero_narrow()[:len(lead)])
    space, grew = _span(master, ev, point)
    return master, ev, space.pivot_rows(), grew


def stalk_dimension(k, j, sigma, point, formula="derived"):
    """Stalk of the deformation sheaf at a nonzero base point."""
    require_directions(j)
    pt = _coerce_point(k, j, point)
    if all(c == 0 for c in pt):
        raise ValueError("stalk is undefined at the zero base point")
    master, _, space, _ = point_space(k, j, sigma, formula, pt)
    quotient = [master.rows[r].render() for r in space.non_pivot_rows()]
    return StalkReport(
        k=k, j=j, sigma=sigma.describe(), point=pt, rank=space.rank,
        stalk=direction_dimension(k, j) - space.rank,
        quotient_rows=quotient,
        windows=compute_windows(k, j, sigma).as_dict(),
        formula=formula, stability_checked=True,
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
    one, zero = Fraction(1), Fraction(0)  # immutable, so shared
    return [[one if q == r else zero for q in range(dim)]
            for r in range(dim)]


def is_extremal(sigma, j):
    """Operational extremality used by the moduli computations.

    True when every gauge-direction column of the bump-0 cancellation
    system vanishes identically, leaving only the shift columns.
    Deviates from the literal ideal-membership test
    (poisson.is_extremal_literal) on some multiplied bivectors.

    The shift columns do not depend on sigma, so every extremal stratum
    has one closed form.  lambda_m = p z^(m+j) puts p_(r+m) on row r
    when r + m lies in r's block of the base point (u1: L1 = 2j - 1 - k
    coordinates, then u2: L2 = 2j + k - 3), 0 otherwise: a nilpotent
    shift inside each block.  So the rank at p is its Krylov index,
    1 + the deepest in-block position q of a nonzero coordinate
    (lambda_0 .. lambda_q are triangular there, and later shifts
    vanish), the same at every point of a support stratum.  Full support
    gives rank max(L1, L2), so the generic stalk is dim - max(L1, L2)
    = 2j - k - 1; mask 1 gives rank 1, the max corank dim - 1 = 4j - 5
    on both k; and corank dim - d, for d = 1 .. max(L1, L2), holds the
    2^c(d) - 2^c(d-1) masks with c(d) = min(d, L1) + min(d, L2), so
    every corank from 2j - k - 1 to 4j - 5 is achieved.  Rank 1 is all
    an extremal sigma can reach at e_1, so W_2 exceeds its bound
    4j - k - 4 = dim - 2 by one in this first-order model.
    """
    master = cached(_build_master, sigma.k, j, sigma, "derived")
    return all(master.tags[c][0] == "lambda"
               for c in master.nonzero_narrow())
