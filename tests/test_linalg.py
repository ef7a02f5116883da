"""Exact linear algebra helpers, checked against naive elimination."""

import random
from fractions import Fraction

from hypothesis import given, strategies as st

from ncbundles import linalg
from ncbundles.ring import ParamPoly


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
    cs = linalg.ColumnSpace(2)
    cs.add([1, 2])
    cs.add([3, 4])
    assert [bv for _, bv in cs.basis] == [[1, 0], [0, -2]]
    assert all(type(c) is Fraction for _, bv in cs.basis for c in bv)


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


def test_solvable_sparse_stops_at_full_rank(monkeypatch):
    # no column is a singleton, so presolve keeps both rows, and the first
    # two columns already span them: the answer is yes without reducing
    # the third column or the right-hand side
    columns = {"x0": {(0,): Fraction(1), (1,): Fraction(1)},
               "x1": {(0,): Fraction(1), (1,): Fraction(2)},
               "x2": {(0,): Fraction(2), (1,): Fraction(3)}}
    plain_add = linalg.ColumnSpace.add
    calls = []

    def spy(space, vec):
        assert space.rank < space.nrows, "column added to a full span"
        calls.append(vec)
        return plain_add(space, vec)

    def no_contains(space, vec):
        raise AssertionError("right-hand side reduced against a full span")

    monkeypatch.setattr(linalg.ColumnSpace, "add", spy)
    monkeypatch.setattr(linalg.ColumnSpace, "contains", no_contains)
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
        cols2, rhs2 = linalg.presolve_singletons(columns, rhs)
        # surviving columns have no variable confined to a single row
        rows_count = {}
        for col in cols2.values():
            for key in col:
                rows_count[key] = rows_count.get(key, 0) + 1
        for col in cols2.values():
            assert len(col) != 1 or rows_count[next(iter(col))] > 1
        after = dense_solvable(cols2, rhs2, nrows)
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
