"""Shared strategies and helpers for the test suite."""

import math
import os
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

from hypothesis import HealthCheck, settings, strategies as st

import ncbundles
from ncbundles import LaurentPoly, Monomial, engine, linalg
from ncbundles.bundles import extension_basis
from ncbundles.geometry import v_exponent
from ncbundles.poisson import (
    pairing_shifts,
    parse_sigma_spec,
    pieces_pairing,
)
from ncbundles.ring import (
    VARS,
    Evaluation,
    ParamPoly,
    _join_terms,
    _render_term,
)

# CLI tests run `python -m ncbundles.cli` in child processes; they must
# import the package this suite imports, also when it is not installed
_ROOT = str(Path(ncbundles.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_ROOT, os.environ.get("PYTHONPATH")]))

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
# the suite's settings with more examples, for a deeper run:
# python -m pytest --hypothesis-profile=deep
settings.register_profile("deep", settings.get_profile("suite"),
                          max_examples=200)
settings.load_profile("suite")


fractions = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
).filter(lambda q: q != 0)

# a coefficient is an int or a Fraction, so the ring's tests mix the two
rationals = st.one_of(
    st.integers(min_value=-20, max_value=20).filter(lambda n: n != 0),
    fractions)

monomials = st.builds(
    Monomial,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)


@st.composite
def laurent_polys(draw, max_terms=4):
    terms = draw(st.dictionaries(monomials, rationals, max_size=max_terms))
    return LaurentPoly(terms)


PARAMS = ("p0", "p1", "p2")


@st.composite
def param_polys(draw):
    acc = ParamPoly.const(PARAMS, draw(st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6)))
    for name in draw(st.lists(st.sampled_from(PARAMS), max_size=3)):
        acc = acc + ParamPoly.variable(PARAMS, name)
    return acc


@st.composite
def mixed_laurent_polys(draw):
    """Laurent polynomials with int, Fraction and ParamPoly coefficients."""
    coeffs = st.one_of(rationals, param_polys())
    return LaurentPoly(draw(st.dictionaries(monomials, coeffs, max_size=5)))


# the 27 catalog bivectors: the generators of W_1 and W_2 and their u1
# and u2 multiples
CATALOG_SIGMAS = [
    parse_sigma_spec(m + f"gen{n}", k) for k, top in ((1, 4), (2, 5))
    for n in range(1, top + 1) for m in ("", "u1*", "u2*")]


class DenseParamPoly:
    """Reference ParamPoly that keys each term by its exponent vector,
    aligned with params, as given: the dense encoding that ring.ParamPoly
    takes and gives (its constructor and terms()) but does not store."""

    def __init__(self, params, terms=()):
        self.params = tuple(params)
        self.t = {tuple(ev): c for ev, c in dict(terms).items() if c}

    def _sum(self, other, c):
        t = dict(self.t)
        for ev, v in other.t.items():
            t[ev] = t.get(ev, 0) + v * c
        return DenseParamPoly(self.params, t)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def add_scaled(self, other, c):
        return self._sum(other, c)

    def __mul__(self, other):
        t = {}
        for ev1, c1 in self.t.items():
            for ev2, c2 in other.t.items():
                ev = tuple(a + b for a, b in zip(ev1, ev2))
                t[ev] = t.get(ev, 0) + c1 * c2
        return DenseParamPoly(self.params, t)

    def __eq__(self, other):
        return self.params == other.params and self.t == other.t

    def terms(self):
        return sorted(self.t.items())

    def evaluate(self, values):
        return sum((c * math.prod(Fraction(values[n]) ** e
                                  for n, e in zip(self.params, ev))
                    for ev, c in self.t.items()), Fraction(0))

    def render(self):
        if not self.t:
            return "0"
        return _join_terms([_render_term(c, [
            n if e == 1 else f"{n}^{e}" for n, e in zip(self.params, ev)
            if e]) for ev, c in self.terms()])


def lowest_basis_degree(k, j):
    """The lowest z-degree of extension_basis(k, j, 1), from the basis."""
    return min(m.l for m in extension_basis(k, j, 1))


def reference_windows(k, j, sigma, bump=0):
    """compute_windows' windows from the lowest degree of the built
    basis: units reach rows up to 2j - 1 from the lowest bracket degree
    j + l_min - 1 + h_min, with a margin of 2."""
    s_lo = j + lowest_basis_degree(k, j) - 1 + engine._sigma_h_min(sigma)
    return engine.GaugeWindows(lambda_hi=2 * j - 2 + bump,
                               unit_hi=(2 * j - 1) - s_lo + 2 + bump,
                               shift_hi=2 * j)


def reference_form_numerators(columns, coords):
    """The degree, scale and integer numerator of every entry of the
    columns (each a {row: ParamPoly or rational} dict) that ring.FormTable
    and ring.Evaluation give, from dense exponent vectors: with d the
    common denominator of coords, an entry of value v has the numerator
    scale * d^degree * v, keyed by (column, row)."""
    dense = {(c, r): DenseParamPoly(e.params, e.terms())
             if hasattr(e, "terms") else e
             for c, col in enumerate(columns) for r, e in col.items() if e}
    terms = [t for e in dense.values()
             for t in (e.terms() if hasattr(e, "terms") else [((), e)])]
    degree = max((sum(ev) for ev, _ in terms), default=0)
    scale = math.lcm(*(Fraction(c).denominator for _, c in terms))
    den = scale * math.lcm(*(c.denominator for c in coords)) ** degree
    env = {f"p{r}": c for r, c in enumerate(coords)}
    ints = {}
    for key, e in dense.items():
        value = e.evaluate(env) if hasattr(e, "evaluate") else e
        assert (value * den).denominator == 1
        ints[key] = int(value * den)
    return degree, scale, ints


def form_values(table, coords):
    """Every form of a ring.FormTable at coords, as a Fraction: its
    integer numerator (ring.Evaluation) over the common denominator."""
    ev = Evaluation(table, coords)
    return [Fraction(v, ev.den) for v in ev.ints]


# Reference zero-pattern bounds on Python lists, dicts and sets: the
# routes that linalg.term_rank, linalg.triangular_rank and
# engine.stratum_bounds take on bitmasks, written out entry by entry.

def reference_term_rank(columns, nrows):
    """The maximum matching of a zero pattern by augmenting paths, with
    columns[c] the list of the rows where column c may be nonzero."""
    owner = [None] * nrows  # row -> the column matched to it
    seen = set()  # rows reached since the matching last grew

    def augment(c):
        for r in columns[c]:
            if r not in seen:
                seen.add(r)
                if owner[r] is None or augment(owner[r]):
                    owner[r] = c
                    return True
        return False

    matched = 0
    for c in range(len(columns)):
        if augment(c):
            matched += 1
            if matched == nrows:
                break
            seen.clear()
    return matched


def reference_triangular_rank(columns, nrows):
    """The greedy triangular peeling of linalg.triangular_rank, with
    columns[c] the list of (row, sure) pairs of column c's entries that
    may be nonzero: a row or column left one sure entry peels it, and a
    stuck peeling keeps the sure entry (entries left, row, column) that
    is least and drops its row's other columns."""
    entries = [dict(col) for col in columns]  # column -> {row: sure} left
    lines = [set() for _ in range(nrows)]  # row -> its columns left
    for c, col in enumerate(entries):
        for r in col:
            lines[r].add(c)
    rows = [r for r, cs in enumerate(lines) if len(cs) == 1]
    cols = [c for c, col in enumerate(entries) if len(col) == 1]

    def drop_column(c):
        for r in entries[c]:
            lines[r].discard(c)
            if len(lines[r]) == 1:
                rows.append(r)
        entries[c] = {}

    def peel(r, c):
        for other in lines[r]:
            del entries[other][r]
            if len(entries[other]) == 1:
                cols.append(other)
        lines[r] = set()
        drop_column(c)

    size = 0
    while size < nrows:
        if rows:
            r = rows.pop()
            pick = (r, *lines[r]) if len(lines[r]) == 1 else None
        elif cols:
            c = cols.pop()
            pick = (*entries[c], c) if len(entries[c]) == 1 else None
        else:
            stuck = [(len(cs), r, c) for r, cs in enumerate(lines)
                     for c in cs if entries[c][r]]
            if not stuck:
                break
            _, r, c = min(stuck)
            for other in lines[r] - {c}:
                drop_column(other)
            pick = r, c
        if pick and entries[pick[1]][pick[0]]:  # a sure entry
            peel(*pick)
            size += 1
    return size


def reference_stratum_bounds(master, support):
    """engine.stratum_bounds from per-entry lists: an entry is live when
    one of its form's monomials needs no coordinate outside the support,
    and sure when exactly one does."""
    table = master.table
    live = {m for m, mon in enumerate(table.monomials)
            if all(v == 0 or support >> (v - 1) & 1 for v in mon)}
    entries = []
    for c in master.nonzero:
        col = []
        for r, f in table.segment(c):
            hits = sum(m in live for m, _ in table.forms[f])
            if hits:
                col.append((r, hits == 1))
        entries.append(col)
    n = len(master.rows)
    lower = reference_triangular_rank(
        entries[:len(master.nonzero_narrow())], n)
    upper = reference_term_rank([[r for r, _ in col] for col in entries], n)
    return lower, upper


# Reference master columns: the route engine._entry_column takes in one
# pass, written out in two steps, LaurentPoly.shifted_sum of a column's
# parts into one polynomial and then a walk over its terms.

def reference_entry_column(k, j, parts, row_of, tag):
    """The row coefficients of the shifted sum of a column's parts, a
    unit column's cut at u-degree 1, with its stray content checked."""
    cut = 1 if tag[0] in ("a1", "a2", "d1", "d2") else None
    col = [0] * len(row_of)
    for mon, c in LaurentPoly.shifted_sum(parts, cut).items():
        r = row_of.get(mon)
        if r is not None:
            col[r] = c
        elif mon.degree_u() == 0:
            raise AssertionError(
                f"u-free residue {mon} in direction column {tag}")
        elif v_exponent(mon, k) < 0 and mon.l < 2 * j:
            raise AssertionError(
                f"unabsorbable residue {mon} in direction column {tag}")
    return col


def reference_leibniz_pieces(frame, a, b):
    """engine._leibniz_pieces with B and {t0, r0} always built, also
    where r0 = -t0 makes both zero: t0 r0, A and B = {d: B_d} for
    every variable d."""
    t, r = frame.T.entry(0, a), frame.R.entry(b, 1)
    pt, pr = frame.t_pieces[a], frame.r_pieces[b]
    zero = LaurentPoly.zero()
    B = {d: r[0].mul_truncated(pt.get(d, zero), 1)
         - t[0].mul_truncated(pr.get(d, zero), 1) for d in VARS}
    A = (t[1].mul_truncated(r[0], 1) + t[0].mul_truncated(r[1], 1)
         + pieces_pairing(pt, r[0]).truncate_neighborhood(1))
    return t[0].mul_truncated(r[0], 1), A, B


def reference_entry_derived(pieces, tag):
    """The parts of a derived column, tag by tag: (A, w, 1) and the
    pairing_shifts of B for the unit w of the column, from the
    reference_leibniz_pieces of its gauge entry, with its classical
    residue checked per column."""
    fam, n = tag
    if fam == "lambda":
        return [(pieces[1, 1][0], (n, 0, 0), 1)]
    if fam in ("a1", "a2", "d1", "d2"):
        a = b = 0 if fam[0] == "a" else 1
        w = (n, 1, 0) if fam[1] == "1" else (n, 0, 1)
    else:
        a, b = 1, 0
        w = (n, 0, 0)
    t0r0, A, B = pieces[a, b]
    top = 1 - w[1] - w[2]
    if any(i + s <= top for _, i, s in t0r0.monomials()):
        raise AssertionError(f"classical upper-right residue for column {tag}")
    return [(A, w, 1), *pairing_shifts(B, w)]


def reference_printed_pieces(frame, j):
    """p, {z^j, p}, 2 p {z^j, p}, and the products z^j P_d(p) and
    p P_d(z^j) of the frame's bracket pieces, for
    reference_entry_printed."""
    p_poly = frame.p_poly
    pzj, pp = frame.t_pieces
    zjp = pieces_pairing(pzj, p_poly)
    zj_pp = {d: piece.shift((j, 0, 0)) for d, piece in pp.items()}
    p_pzj = {d: p_poly.mul_truncated(piece, 1) for d, piece in pzj.items()}
    return (p_poly, zjp, p_poly.mul_truncated(zjp, 1).scale(2), zj_pp,
            p_pzj)


def reference_entry_printed(j, pieces, tag):
    """The parts of a printed column, tag by tag: z^j {p, e} - p {z^j, e}
    +- e {z^j, p} for a unit e, each bracket with e the pairing_shifts of
    one product of reference_printed_pieces."""
    p_poly, zjp, quad, zj_pp, p_pzj = pieces
    fam, n = tag
    if fam == "lambda":
        return [(p_poly, (n + j, 0, 0), 1)]
    if fam == "c0":
        return [(quad, (n - j, 0, 0), 1)]
    w = (n, 1, 0) if fam[1] == "1" else (n, 0, 1)
    return [*pairing_shifts(zj_pp, w), *pairing_shifts(p_pzj, w, -1),
            (zjp, w, 1 if fam[0] == "a" else -1)]


def reference_master_columns(k, j, sigma, formula):
    """The symbolic base point and the columns of engine._build_master,
    each by reference_entry_column from the parts its formula gives tag
    by tag (reference_entry_derived, reference_entry_printed), the
    derived ones from reference_leibniz_pieces with the bracket pieces of
    R_01 taken from R_01 itself."""
    frame = engine._build_frame(k, j, sigma)
    if formula == "derived":
        frame = frame._replace(r_pieces=(
            sigma.bracket_pieces(frame.R.entry(0, 1)[0]), frame.t_pieces[0]))
        pieces = {ab: reference_leibniz_pieces(frame, *ab)
                  for ab in ((0, 0), (1, 1), (1, 0))}
        entry = partial(reference_entry_derived, pieces)
    else:
        entry = partial(reference_entry_printed, j,
                        reference_printed_pieces(frame, j))
    row_of = {m: r for r, m in enumerate(frame.rows)}
    return frame.point, [reference_entry_column(k, j, entry(tag), row_of, tag)
                         for tag in frame.tags]


# Planted content: a master column is z^n (X_g + n Y_g) for the pair of
# its family (engine._entry_column), so a test plants content in one
# column by adding to the pair that column reads.

def plant_in_pair(monkeypatch, tag, x=None, y=None):
    """Make the master build sum column tag = (g, n) from the pair
    (X_g + x, Y_g + y), every other column from its family's pair."""
    real = engine._entry_column
    zero = LaurentPoly.zero()

    def planted(k, j, pair, row_of, t):
        if t == tag:
            pair = (pair[0] + (x or zero), pair[1] + (y or zero))
        return real(k, j, pair, row_of, t)

    monkeypatch.setattr(engine, "_entry_column", planted)


def plant_row(monkeypatch, tag, row):
    """Plant the obstruction row monomial in column tag = (g, n), one that
    is zero on the rows: z^-n row added to X_g makes it the unit vector
    of that row."""
    plant_in_pair(monkeypatch, tag,
                  x=LaurentPoly.monomial(row.l - tag[1], row.i, row.s))


# Reference certificate: the route claims.certify_generic_rank takes off
# one modular echelon, read off the exact span of point_space instead.

def reference_certificate(k, j, sigma, seed):
    """The certificate of the minor that the pivot rows and the grown
    bump-0 columns of point_space's span give at the seed's point, its
    nonsingularity checked by one exact rank."""
    pt = engine.random_point(k, j, random.Random(seed))
    master, ev, space, picked = engine.point_space(k, j, sigma, "derived",
                                                   pt)
    r, pivots, n = space.rank, space.pivot_rows(), len(master.rows)
    sub = [[ev.column(i, n)[p] for p in pivots] for i in picked]
    assert linalg.rank(sub, r) == r
    upper = min(n, len(master.nonzero_narrow()))
    certified = r == upper
    return {
        "rank_observed": r,
        "structural_upper": upper,
        "minor_rows": [master.rows[p].render() for p in pivots],
        "minor_cols": [list(master.tags[i]) for i in picked],
        "certified": certified,
        "detail": "nonzero maximal minor meets structural upper bound"
                  if certified
                  else "generic rank >= minor size; upper bound open",
        "minor_nonzero": True,
    }


# Reference strata: the route claims._scan takes, one rank per support
# mask and no point drawn on a closed stratum, written out as a scan
# that draws and ranks several points on every mask.

ZERO = Fraction(0)


def reference_strata(k, j, sigma, seed, draws, rank_at=None, proved=None):
    """The strata, max corank and its witness of a scan of every support
    mask that draws `draws` points on each, seeded by (seed, mask, draw),
    and ranks every one: by rank_at, or by the exact span of point_space.

    proved(mask), where given, is the rank that rank_at gives at every
    point of the mask's stratum, or None: then a mask it proves ranks no
    point, and draws one only as the witness of a corank not seen
    before, which its first draw would be.  The scan is the one that
    draws and ranks every point.

    A stratum's count is its number of masks at draw 0, and its witness
    its first point in (mask, draw) order."""
    dim = engine.direction_dimension(k, j)
    if rank_at is None:
        def rank_at(pt):
            return engine.point_space(k, j, sigma, "derived", pt).space.rank

    def draw(mask, t):
        rng = random.Random((seed * 1000003 + mask * 97 + t) % 2 ** 63)
        return [engine.rand_fraction(rng) if mask >> r & 1 else ZERO
                for r in range(dim)]

    strata = {}
    for mask in range(1, 1 << dim):
        rank = None if proved is None else proved(mask)
        for t in range(draws if rank is None else 1):
            pt = None
            if rank is None or dim - rank not in strata:
                pt = draw(mask, t)
            corank = dim - (rank_at(pt) if rank is None else rank)
            if corank not in strata:
                strata[corank] = {"count": 0, "witness": {
                    "mask": mask, "point": [str(c) for c in pt]}}
            if t == 0:
                strata[corank]["count"] += 1
    top = max(strata)
    return ({str(c): strata[c] for c in sorted(strata)}, top,
            strata[top]["witness"])


# Reference extremal strata, built without the engine.  For an extremal
# sigma the only nonzero columns are the shifts lambda_m = p z^(m+j),
# m >= 0, and row r of lambda_m holds p_(r+m) when r + m lies in r's
# block, 0 otherwise: the u1 block of L1 = 2j - 1 - k coordinates, then
# the u2 block of L2 = 2j + k - 3, each by descending z-degree.

def extremal_blocks(k, j):
    """(L1, L2): the lengths of the u1 and u2 blocks of the base point."""
    return 2 * j - 1 - k, 2 * j + k - 3


def reference_extremal_columns(k, j):
    """The shifts lambda_0 .. lambda_(max(L1, L2) - 1), the nonzero bump-0
    columns of an extremal sigma, symbolic in the base point p_0 ..
    p_(dim - 1): row r of lambda_m is p_(r+m) where r + m lies in r's
    block, and 0 otherwise."""
    l1, l2 = extremal_blocks(k, j)
    params = tuple(f"p{r}" for r in range(l1 + l2))
    ends = [l1] * l1 + [l1 + l2] * l2  # the end of each row's block
    return [[ParamPoly.variable(params, f"p{r + m}") if r + m < ends[r]
             else 0 for r in range(l1 + l2)] for m in range(max(l1, l2))]


def reference_extremal_rank(k, j, mask):
    """The rank on the stratum of a support mask for an extremal sigma: 1
    + the deepest in-block position of a set bit.  Where that position
    is q, lambda_0 .. lambda_q are triangular (lambda_m puts p_q on row
    q - m) and every later shift is 0 on the stratum."""
    l1, _ = extremal_blocks(k, j)
    return 1 + max(r if r < l1 else r - l1
                   for r in range(mask.bit_length()) if mask >> r & 1)


def reference_extremal_counts(k, j):
    """{corank: number of masks} over every nonzero support mask for an
    extremal sigma.  A mask of rank at most d sets only bits of in-block
    position below d, c(d) = min(d, L1) + min(d, L2) of them, so corank
    dim - d holds 2^c(d) - 2^c(d-1) masks, for d = 1 .. max(L1, L2)."""
    l1, l2 = extremal_blocks(k, j)

    def c(d):
        return min(d, l1) + min(d, l2)

    return {l1 + l2 - d: 2 ** c(d) - 2 ** c(d - 1)
            for d in range(1, max(l1, l2) + 1)}


# Reference claims: the route claims.verify_claims takes off the base
# point's rank and the full-support stratum, decided by sampling instead.

def reference_verify_claims(k, j, sigma, seed):
    """The claims battery with each generic claim checked at 20 random
    points drawn after the base point, its witnesses the first three
    points whose rank fails it, and the corank claims read off two draws
    on every support mask (reference_strata).  Every point is ranked by
    point_rank, which reads a stratum's bounds, planted ones included,
    as verify does; the exact span of every draw would take minutes at
    j = 4.  On a closed stratum point_rank gives the proved rank at
    every point, so the scan ranks no point there."""
    dim = engine.direction_dimension(k, j)
    derived = engine.cached(engine._build_master, k, j, sigma, "derived")
    printed = engine.cached(engine._build_master, k, j, sigma, "printed")

    def rank_at(q):
        return engine.point_rank(k, j, sigma, q)

    same = derived.tags == printed.tags and all(
        all(a == b for a, b in zip(ca, cb))
        for ca, cb in zip(derived.columns, printed.columns))
    rng = random.Random(seed)
    pt = engine.random_point(k, j, rng)
    base_rank = rank_at(pt)
    s_rank = rank_at([Fraction(7, 3) * c for c in pt])
    battery = [
        {"name": "identity-shift-column", "status": "PASS",
         "detail": "asserted during construction"},
        {"name": "closed-form-agreement",
         "status": "PASS" if same else "FAIL",
         "detail": "derived and closed-form columns match symbolically"
                   if same else "column mismatch between routes"},
        {"name": "scaling-invariance",
         "status": "PASS" if base_rank == s_rank else "FAIL",
         "detail": f"rank {base_rank} at p and {s_rank} at (7/3)p"},
    ]

    def drops(ok):
        points = [engine.random_point(k, j, rng) for _ in range(20)]
        return [[str(c) for c in q] for q in points if not ok(rank_at(q))]

    if sigma.gen_index is not None and sigma.multiplier is None:
        bad = drops(lambda rank: rank == dim)
        battery.append({
            "name": "generic-rigidity",
            "status": "FAIL" if bad else "PASS",
            "detail": f"rank drop witnesses: {bad[:3]}" if bad
                      else "full rank at all sampled points"})
        axes = [(q, rank_at(q)) for q in engine.single_coordinate_points(k, j)]
        special = [{"point": [str(c) for c in q], "stalk": dim - rank}
                   for q, rank in axes if rank != dim]
        battery.append({
            "name": "single-coordinate-rigidity",
            "status": "EXCEEDS" if special else "PASS",
            "detail": special or "full rank on every coordinate axis"})
    if engine.is_extremal(sigma, j):
        expected = 2 * j - k - 1
        bad = drops(lambda rank: dim - rank == expected)
        battery.append({
            "name": "extremal-generic-stalk",
            "status": "FAIL" if bad else "PASS",
            "detail": f"unexpected stalks at {bad[:3]}" if bad
                      else f"generic stalk {expected}"})
        bound = 4 * j - k - 4
        strata, top, witness = reference_strata(
            k, j, sigma, seed, 2, rank_at,
            lambda mask: engine.stratum_rank(derived, mask)[0])
        battery.append({
            "name": "max-corank-bound",
            "status": "PASS" if top <= bound else "EXCEEDS",
            "detail": {"bound": bound, "max_corank": top,
                       "witness": witness}})
        achieved = [int(c) for c in strata]
        battery.append({
            "name": "corank-contiguity",
            "status": "PASS" if achieved == list(range(achieved[0], top + 1))
                      else "EXCEEDS",
            "detail": {"achieved": achieved}})
    statuses = {c["status"] for c in battery}
    worst = ("FAIL" if "FAIL" in statuses
             else "EXCEEDS" if "EXCEEDS" in statuses else "PASS")
    return {"k": k, "j": j, "sigma": sigma.describe(), "claims": battery,
            "status": worst}
