"""Exact linear algebra helpers, checked against naive elimination."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from ncbundles import linalg
from ncbundles.ring import ParamPoly

from conftest import reference_term_rank, reference_triangular_rank


def naive_rank(columns, nrows):
    """Textbook row reduction on the transpose, used as an oracle."""
    rows = [list(col) for col in columns]
    rank = 0
    for c in range(nrows):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][c]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                m = rows[r][c] / lead
                rows[r] = [a - m * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def frac_matrix(rng, nrows, ncols, density=1.0):
    cols = []
    for _ in range(ncols):
        col = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
               if rng.random() < density else Fraction(0)
               for _ in range(nrows)]
        cols.append(col)
    return cols


def test_column_space_small():
    cs = linalg.ColumnSpace(3)
    assert cs.add([Fraction(1), Fraction(0), Fraction(2)])
    assert cs.add([Fraction(0), Fraction(1), Fraction(0)])
    # dependent vector is rejected
    assert not cs.add([Fraction(2), Fraction(3), Fraction(4)])
    assert cs.rank == 2
    assert cs.contains([Fraction(-1), Fraction(5), Fraction(-2)])
    assert not cs.contains([Fraction(0), Fraction(0), Fraction(1)])


def test_column_space_late_high_pivot():
    # later vector whose pivot sits above earlier pivots must still reduce
    cs = linalg.ColumnSpace(3)
    cs.add([Fraction(0), Fraction(1), Fraction(0)])
    cs.add([Fraction(1), Fraction(1), Fraction(0)])
    assert cs.rank == 2
    assert cs.contains([Fraction(3), Fraction(-2), Fraction(0)])
    assert not cs.contains([Fraction(0), Fraction(0), Fraction(1)])
    assert set(cs.pivot_rows()) | set(cs.non_pivot_rows()) == {0, 1, 2}


def test_rank_against_naive():
    rng = random.Random(3)
    for _ in range(25):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 8)
        cols = frac_matrix(rng, nrows, ncols, density=0.6)
        assert linalg.rank(cols, nrows=nrows) == naive_rank(cols, nrows)


def column_space(cols, nrows):
    space = linalg.ColumnSpace(nrows)
    for col in cols:
        space.add(col)
    return space


def test_in_column_span_consistency():
    rng = random.Random(7)
    for _ in range(25):
        nrows = rng.randint(2, 6)
        cols = frac_matrix(rng, nrows, rng.randint(1, 5), density=0.7)
        space = column_space(cols, nrows)
        weights = [Fraction(rng.randint(-3, 3)) for _ in cols]
        combo = [sum((w * col[r] for w, col in zip(weights, cols)),
                     Fraction(0)) for r in range(nrows)]
        assert space.contains(combo)
        outside = list(combo)
        # appending a fresh axis direction usually leaves the span;
        # verify against rank growth instead of guessing
        outside[rng.randrange(nrows)] += Fraction(1)
        expected = linalg.rank(cols + [outside], nrows=nrows) == \
            linalg.rank(cols, nrows=nrows)
        assert space.contains(outside) == expected


@given(data=st.data())
def test_extend_matches_adding_every_vector(data):
    # full-rank, zero and repeated columns, in any order
    nrows = data.draw(st.integers(1, 5))
    fresh = st.lists(st.fractions(-4, 4, max_denominator=3),
                     min_size=nrows, max_size=nrows)
    zero = st.just([Fraction(0)] * nrows)
    unit = st.integers(0, nrows - 1).map(
        lambda r: [Fraction(int(q == r)) for q in range(nrows)])
    cols = []
    for _ in range(data.draw(st.integers(0, 2 * nrows + 2))):
        repeat = [st.sampled_from(cols)] if cols else []
        cols.append(list(data.draw(st.one_of([fresh, zero, unit] + repeat))))
    full = linalg.ColumnSpace(nrows)
    every = [i for i, col in enumerate(cols) if full.add(col)]
    space = linalg.ColumnSpace(nrows)
    read = []

    def columns():
        for col in cols:
            assert space.rank < nrows, "vector read from a full span"
            read.append(col)
            yield col

    assert space.extend(columns()) == every
    assert space.rank == full.rank == linalg.rank(cols, nrows)
    assert space.pivot_rows() == full.pivot_rows()
    assert len(read) == (every[-1] + 1 if full.rank == nrows else len(cols))


def test_column_space_stays_exact_on_int_vectors():
    # the third column is the sum of the first two, but 7 divides neither
    # 1 nor 6, so true division on ints would round and leave a residue
    cols = [[7, 6, 8], [1, 8, 1], [8, 14, 9]]
    ints, fracs = linalg.ColumnSpace(3), linalg.ColumnSpace(3)
    assert ints.extend(cols) == fracs.extend(
        [[Fraction(c) for c in col] for col in cols]) == [0, 1]
    assert ints.rank == fracs.rank == 2
    assert ints.pivot_rows() == fracs.pivot_rows()
    for probe, inside in (([8, 14, 9], True), ([13, 4, 15], True),
                          ([1, 0, 0], False)):
        assert ints.contains(probe) == inside
        assert fracs.contains([Fraction(c) for c in probe]) == inside
    assert not any(isinstance(c, float) for _, bv in ints.basis for c in bv)


def test_contains_checks_the_vector_length():
    # a full span answers with no arithmetic, but never a wrong length
    cs = linalg.ColumnSpace(2)
    for basis_vec in ([1, 0], [0, 1]):
        assert cs.add(basis_vec)
        for vec in ([1], [1, 0, 0]):
            with pytest.raises(ValueError, match="length"):
                cs.contains(vec)
            with pytest.raises(ValueError, match="length"):
                cs.add(vec)
    assert cs.rank == 2


class GaussJordan:
    """Fully reduced incremental basis: every basis vector is zero at the
    pivots of all the others, kept so by back-substitution in add.  The
    reference that ColumnSpace's forward echelon must agree with."""

    def __init__(self, nrows):
        self.nrows = nrows
        self.basis = []

    def reduce(self, vec):
        vec = list(vec)
        for pivot, bv in self.basis:
            if vec[pivot]:
                f = vec[pivot] / bv[pivot]
                vec = [a - f * b for a, b in zip(vec, bv)]
        return vec

    def add(self, vec):
        red = self.reduce(vec)
        pivot = next((r for r, c in enumerate(red) if c), None)
        if pivot is None:
            return False
        red[pivot] = Fraction(red[pivot])
        for _, bv in self.basis:
            if bv[pivot]:
                f = bv[pivot] / red[pivot]
                bv[:] = [a - f * b for a, b in zip(bv, red)]
        self.basis.append((pivot, red))
        return True

    def contains(self, vec):
        return not any(self.reduce(vec))

    def pivot_rows(self):
        return sorted(p for p, _ in self.basis)


@st.composite
def spans(draw):
    """(nrows, columns, probes): Fraction, int, zero, unit and repeated
    columns, enough of them to fill the span and go past it."""
    nrows = draw(st.integers(1, 5))
    fracs = st.lists(st.fractions(-4, 4, max_denominator=3),
                     min_size=nrows, max_size=nrows)
    ints = st.lists(st.integers(-9, 9), min_size=nrows, max_size=nrows)
    zero = st.just([0] * nrows)
    unit = st.integers(0, nrows - 1).map(
        lambda r: [Fraction(int(q == r)) for q in range(nrows)])
    cols = []
    for _ in range(draw(st.integers(0, 2 * nrows + 2))):
        repeat = [st.sampled_from(cols)] if cols else []
        cols.append(list(draw(st.one_of([fracs, ints, zero, unit] + repeat))))
    probes = draw(st.lists(st.one_of(fracs, ints, zero), max_size=3))
    return nrows, cols, probes


@settings(max_examples=200)
@given(spans())
@example((3, [[0, 0, 0], [0, 2, 1], [0, 4, 2], [1, 1, 1], [5, 0, 3],
              [0, 0, 7], [1, 2, 3]], [[1, 2, 2], [0, 0, 0]]))
def test_forward_echelon_matches_gauss_jordan(system):
    nrows, cols, probes = system
    space, ref = linalg.ColumnSpace(nrows), GaussJordan(nrows)
    grew = [i for i, col in enumerate(cols) if ref.add(col)]
    assert space.extend(cols) == grew
    assert space.rank == len(ref.basis) == naive_rank(cols, nrows)
    assert space.pivot_rows() == ref.pivot_rows()
    assert space.non_pivot_rows() == [
        r for r in range(nrows) if r not in ref.pivot_rows()]
    for probe in probes + cols:
        assert space.contains(probe) == ref.contains(probe)
    # fill the span with unit columns, then add and test past it
    for r in range(nrows):
        unit = [int(q == r) for q in range(nrows)]
        assert space.add(unit) == ref.add(unit)
        assert space.pivot_rows() == ref.pivot_rows()
    assert space.rank == nrows
    for vec in probes + cols:
        assert not space.add(vec) and space.contains(vec)
    assert space.pivot_rows() == list(range(nrows))
    assert space.non_pivot_rows() == []


@given(data=st.data())
def test_int_vectors_match_their_fraction_copies(data):
    nrows = data.draw(st.integers(1, 5))
    vector = st.lists(st.integers(-4, 4), min_size=nrows, max_size=nrows)
    cols = data.draw(st.lists(vector, max_size=2 * nrows + 1))
    probes = data.draw(st.lists(vector, min_size=1, max_size=4))
    ints, fracs = linalg.ColumnSpace(nrows), linalg.ColumnSpace(nrows)
    assert ints.extend(cols) == fracs.extend(
        [[Fraction(c) for c in col] for col in cols])
    assert ints.rank == fracs.rank == naive_rank(cols, nrows)
    assert ints.pivot_rows() == fracs.pivot_rows()
    assert ints.basis == fracs.basis
    assert not any(isinstance(c, float) for _, bv in ints.basis for c in bv)
    for probe in probes:
        assert ints.contains(probe) == fracs.contains(
            [Fraction(c) for c in probe])


def det(rows):
    """Integer determinant by expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** c * rows[0][c] * det([r[:c] + r[c + 1:]
                                             for r in rows[1:]])
               for c in range(len(rows)) if rows[0][c])


def minor_rank_mod(columns, nrows, prime):
    """The largest r with an r x r minor that is nonzero modulo prime."""
    return max((r for r in range(1, min(nrows, len(columns)) + 1)
                for cs in combinations(columns, r)
                for rs in combinations(range(nrows), r)
                if det([[col[q] for col in cs] for q in rs]) % prime),
               default=0)


BIG_PRIME = 2 ** 31 - 1


@st.composite
def int_matrices(draw):
    """(nrows, integer columns, prime), small and large primes."""
    nrows = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-9, 9), min_size=nrows, max_size=nrows)
    cols = draw(st.lists(vector, max_size=2 * nrows))
    return nrows, cols, draw(st.sampled_from([2, 3, 5, 7, BIG_PRIME]))


@settings(max_examples=200)
@given(int_matrices())
@example((1, [[3]], 3))  # the prime kills the only pivot
@example((2, [[1, 2], [3, 1]], 5))  # the 2x2 minor, -5, vanishes mod 5
def test_rank_mod_is_the_minor_rank_modulo_the_prime(system):
    nrows, cols, prime = system
    pivots, grew = linalg.rank_mod(cols, nrows, prime)
    got = len(pivots)
    assert got == len(grew) == len(set(pivots))
    assert got == minor_rank_mod(cols, nrows, prime)
    assert got <= linalg.rank(cols, nrows)
    # every minor is below 4! * 9^4 < BIG_PRIME, so none vanishes there
    if prime == BIG_PRIME:
        assert got == linalg.rank(cols, nrows)


@settings(max_examples=200)
@given(int_matrices())
@example((2, [[1, 2], [3, 1]], 5))  # the 2x2 leading minor vanishes mod 5
def test_rank_mod_pivots_are_exact_on_a_leading_triangle(system):
    # where the first r columns grew with the pivot of step s at row
    # s - 1, the exact echelon gives those columns the same pivots
    nrows, cols, prime = system
    pivots, grew = linalg.rank_mod(cols, nrows, prime)
    lead = list(range(len(pivots)))
    space = linalg.ColumnSpace(nrows)
    exact_grew = space.extend(cols)
    exact_pivots = [p for p, _ in space.basis]
    if pivots == grew == lead:
        assert exact_pivots[:len(lead)] == pivots
        assert exact_grew[:len(lead)] == grew


def test_rank_mod_drops_a_pivot_the_prime_divides():
    assert linalg.rank_mod([[3]], 1, 3) == ([], [])
    assert linalg.rank([[3]], 1) == 1
    assert linalg.rank_mod([[3], [1]], 1, 3) == ([0], [1])
    # the prime kills the leading entry: the pivots leave step order
    assert linalg.rank_mod([[3, 1], [1, 1]], 2, 3) == ([1, 0], [0, 1])
    with pytest.raises(ValueError, match="length mismatch"):
        linalg.rank_mod([[1, 2]], 3, 3)


def largest_matching(columns, nrows):
    """The most columns matched to distinct rows, by trying every set."""
    return max((len(cs) for r in range(len(columns) + 1)
                for cs in combinations(range(len(columns)), r)
                if any(all(row in columns[c] for c, row in zip(cs, rows))
                       for rows in permutations(range(nrows), len(cs)))),
               default=0)


def row_masks(columns):
    """Per column, the bitmask of the rows listed for it."""
    return [sum(1 << r for r in col) for col in columns]


@settings(max_examples=100)
@given(st.integers(1, 4).flatmap(lambda nrows: st.tuples(
    st.just(nrows),
    st.lists(st.lists(st.integers(0, nrows - 1), unique=True), max_size=5))))
# the second column takes the first one's row, which moves to its other
@example((2, [[0, 1], [0]]))
# the second column fails, and the fourth moves the third and not the first
@example((3, [[0], [0], [0, 1], [1, 2]]))
def test_term_rank_is_the_largest_matching(system):
    nrows, columns = system
    got = linalg.term_rank(row_masks(columns), nrows)
    assert got == largest_matching(columns, nrows)
    assert got == reference_term_rank([sorted(col) for col in columns],
                                      nrows)
    # the rank of any matrix with this zero pattern is at most the bound
    rng = random.Random(got)
    dense = [[rng.randint(-3, 3) if r in col else 0 for r in range(nrows)]
             for col in columns]
    assert linalg.rank(dense, nrows) <= got


def pattern_bitmasks(columns, nrows):
    """The (columns, rows, sure) bitmasks of linalg.triangular_rank for
    columns[c], the list of (row, sure) pairs of column c's entries."""
    cols = [sum(1 << r for r, _ in col) for col in columns]
    rows = [sum(1 << c for c, col in enumerate(columns)
                if any(r == row for r, _ in col)) for row in range(nrows)]
    sure = [sum(1 << c for c, col in enumerate(columns) if (row, True) in col)
            for row in range(nrows)]
    return cols, rows, sure


@settings(max_examples=100)
@given(st.integers(1, 4).flatmap(lambda nrows: st.tuples(
    st.just(nrows),
    st.lists(st.dictionaries(st.integers(0, nrows - 1), st.booleans()),
             max_size=5).map(lambda cols: [sorted(c.items())
                                           for c in cols]))))
# an entry that may vanish is never a diagonal entry
@example((1, [[(0, False)]]))
# no row or column has one entry: the stuck step drops a column
@example((2, [[(0, True), (1, True)], [(0, True), (1, True)]]))
# peeling the sure column first frees the second row
@example((2, [[(0, True), (1, False)], [(1, True)]]))
def test_triangular_rank_is_a_lower_bound(system):
    nrows, columns = system
    cols, rows, sure = pattern_bitmasks(columns, nrows)
    got = linalg.triangular_rank(cols, rows, sure)
    assert got <= linalg.term_rank(cols, nrows)
    # the bitmask peeling visits rows and columns as the list one does
    assert got == reference_triangular_rank(columns, nrows)
    # every matrix with this pattern, sure entries nonzero, has at least
    # that rank; an entry that is not sure may be zero
    rng = random.Random(got)
    for _ in range(8):
        dense = [[0] * nrows for _ in columns]
        for col, entries in zip(dense, columns):
            for r, sure_entry in entries:
                col[r] = rng.choice([-2, -1, 1, 2] if sure_entry
                                    else [0, 0, 1])
        assert linalg.rank(dense, nrows) >= got


def test_triangular_rank_meets_a_triangle():
    # upper triangular with a sure diagonal and entries above it that may
    # vanish: the whole triangle is found, in any column order
    cols = [[(r, r == c) for r in range(c + 1)] for c in range(4)]
    assert linalg.triangular_rank(*pattern_bitmasks(cols, 4)) == 4
    assert linalg.triangular_rank(*pattern_bitmasks(cols[::-1], 4)) == 4
    # with the first diagonal entry unsure, the first row and column
    # can go, and the rest is still a triangle
    cols[0] = [(0, False)]
    assert linalg.triangular_rank(*pattern_bitmasks(cols, 4)) == 3


def sparse_system(rng, nrows, nvars, density):
    columns = {}
    for v in range(nvars):
        col = {}
        for r in range(nrows):
            if rng.random() < density:
                col[(r,)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        columns[f"x{v}"] = {k: c for k, c in col.items() if c}
    return columns


def dense_solvable(columns, rhs, nrows):
    cols = []
    for col in columns.values():
        cols.append([col.get((r,), Fraction(0)) for r in range(nrows)])
    target = [rhs.get((r,), Fraction(0)) for r in range(nrows)]
    return column_space(cols, nrows).contains(target)


def test_solvable_sparse_matches_dense():
    rng = random.Random(11)
    for trial in range(40):
        nrows = rng.randint(2, 7)
        nvars = rng.randint(1, 9)
        columns = sparse_system(rng, nrows, nvars, density=0.4)
        if trial % 2 == 0:
            # right-hand side assembled inside the span
            rhs = {}
            for col in columns.values():
                w = Fraction(rng.randint(-3, 3))
                for key, c in col.items():
                    rhs[key] = rhs.get(key, Fraction(0)) + w * c
            rhs = {k: c for k, c in rhs.items() if c}
        else:
            rhs = {(r,): Fraction(rng.randint(-4, 4)) for r in range(nrows)
                   if rng.random() < 0.5}
            rhs = {k: c for k, c in rhs.items() if c}
        got = linalg.solvable_sparse(columns, rhs)
        assert got == dense_solvable(columns, rhs, nrows)
        # the same system with every entry scaled to an int
        ints = {v: {r: int(6 * c) for r, c in col.items()}
                for v, col in columns.items()}
        assert linalg.solvable_sparse(
            ints, {r: int(6 * c) for r, c in rhs.items()}) == got
        # and with explicit zero entries: a zero column and a zero row
        padded = {v: {**col, (nrows,): Fraction(0)}
                  for v, col in columns.items()}
        padded["zero"] = {(rng.randrange(nrows),): Fraction(0)}
        assert linalg.solvable_sparse(
            padded, {**rhs, (nrows,): Fraction(0)}) == got


def test_solvable_sparse_reads_explicit_zeros_as_zero():
    # 0 * x = 5 has no solution; an explicit zero is not a singleton
    assert not linalg.solvable_sparse({"x": {0: Fraction(0)}},
                                      {0: Fraction(5)})
    assert linalg.solvable_sparse({"x": {0: Fraction(0), 1: Fraction(2)}},
                                  {1: Fraction(5)})


def test_solvable_sparse_stops_at_full_rank(monkeypatch):
    # the first two columns already span both rows: the answer is yes
    # without reducing the third column or the right-hand side
    columns = {"x0": {(0,): Fraction(1), (1,): Fraction(1)},
               "x1": {(0,): Fraction(1), (1,): Fraction(2)},
               "x2": {(0,): Fraction(2), (1,): Fraction(3)}}
    plain_reduce = linalg.ColumnSpace._reduce
    calls = []

    def spy(space, vec):
        assert space.rank < space.nrows, "vector reduced against a full span"
        calls.append(vec)
        return plain_reduce(space, vec)

    monkeypatch.setattr(linalg.ColumnSpace, "_reduce", spy)
    assert linalg.solvable_sparse(columns, {(1,): Fraction(5)})
    assert len(calls) == 2


def test_presolve_preserves_solvability_and_terminates():
    rng = random.Random(13)
    for _ in range(30):
        nrows = rng.randint(2, 8)
        nvars = rng.randint(1, 10)
        columns = sparse_system(rng, nrows, nvars, density=0.25)
        rhs = {(r,): Fraction(rng.randint(-2, 2)) for r in range(nrows)}
        rhs = {k: c for k, c in rhs.items() if c}
        before = dense_solvable(columns, rhs, nrows)
        cols2, rhs2 = linalg.presolve_singletons(
            {v: set(col) for v, col in columns.items()}, rhs)
        assert rhs2 <= set(rhs)
        # surviving columns have no variable confined to a single row
        rows_count = {}
        for v, rows in cols2.items():
            assert rows and rows <= set(columns[v])
            for key in rows:
                rows_count[key] = rows_count.get(key, 0) + 1
        for rows in cols2.values():
            assert len(rows) != 1 or rows_count[next(iter(rows))] > 1
        # the value system restricted to the surviving support
        after = dense_solvable(
            {v: {r: columns[v][r] for r in rows} for v, rows in cols2.items()},
            {r: rhs[r] for r in rhs2}, nrows)
        assert before == after


def test_symbolic_det_known_values():
    a = Fraction(2)
    assert linalg.symbolic_det([[a]]) == 2
    m2 = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert linalg.symbolic_det(m2) == -2
    m3 = [[Fraction(2), Fraction(0), Fraction(1)],
          [Fraction(1), Fraction(1), Fraction(0)],
          [Fraction(0), Fraction(3), Fraction(1)]]
    assert linalg.symbolic_det(m3) == 5


def test_symbolic_det_param_entries():
    params = ("p0", "p1", "p2", "p3")
    var = {n: ParamPoly.variable(params, n) for n in params}
    m = [[var["p0"], var["p1"]], [var["p2"], var["p3"]]]
    det = linalg.symbolic_det(m)
    pt = {"p0": Fraction(2), "p1": Fraction(3),
          "p2": Fraction(5), "p3": Fraction(7)}
    assert det.evaluate(pt) == 2 * 7 - 3 * 5


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_symbolic_det_matches_numeric(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
    det = linalg.symbolic_det(m)
    # permutation-expansion oracle
    import itertools
    acc = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for x in range(n):
            for y in range(x + 1, n):
                if perm[x] > perm[y]:
                    sign = -sign
        term = Fraction(1)
        for r, c in enumerate(perm):
            term *= m[r][c]
        acc += sign * term
    assert det == acc
