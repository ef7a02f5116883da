"""Exact linear algebra over the rationals for the small systems used here.

Dense vectors are plain lists of ints or Fractions.  The sparse solver
works on columns stored as {row_key: value} dicts; row keys only need a
total order.  Everything is exact, no pivoting heuristics needed.
rank_mod echelons integer columns modulo a prime.  Its rank is a lower
bound of theirs, which a caller can only use where an upper bound, such
as the term_rank of their zero pattern, meets it.  Where its first r
columns grew, with pivots on rows 0..r-1 in step order, ColumnSpace
gives them the same pivots.  triangular_rank is a lower bound that holds
for every matrix with a zero pattern whose sure entries never vanish;
where it meets term_rank, the pattern alone fixes the rank.  term_rank
and triangular_rank read a zero pattern as int bitmasks, bit r of a
column's mask for row r and bit c of a row's mask for column c, and
visit the set bits of a mask lowest first.
"""

from __future__ import annotations

from fractions import Fraction


class ColumnSpace:
    """Incremental forward echelon basis of a span of dense column vectors.

    A vector is reduced once, against the basis in insertion order, and
    enters with its first nonzero row as its pivot; a basis vector never
    changes after that.  It is zero above its pivot and at the pivots of
    the vectors before it, so a reduced vector is the one element of
    vec + span(basis) that is zero at every pivot: the vector that a
    fully reduced (Gauss-Jordan) basis leaves.  So ranks, pivot rows and
    membership are those of Gauss-Jordan.  A full span answers add and
    contains with no arithmetic; extend reads no vector once it is full.

    Vectors may hold ints or Fractions.  A pivot entry is stored as a
    Fraction when its vector enters the basis, so every division by one
    is exact, also on integer vectors, such as the numerators over one
    common denominator (ring.Evaluation) that the package spans.
    """

    def __init__(self, nrows):
        self.nrows = nrows
        self.basis = []  # list of (pivot_row, vector), in insertion order
        self._below = []  # the nonzero rows below each basis pivot

    def _full(self, vec):
        """Whether the span is full; vec must have nrows entries."""
        if len(vec) != self.nrows:
            raise ValueError("vector length mismatch")
        return len(self.basis) == self.nrows

    def _reduce(self, vec):
        vec = list(vec)
        for (pivot, bv), below in zip(self.basis, self._below):
            c = vec[pivot]
            if c:
                f = c / bv[pivot]
                for r in below:
                    vec[r] -= f * bv[r]
                vec[pivot] = 0
        return vec

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        if self._full(vec):
            return False
        red = self._reduce(vec)
        rows = [r for r, c in enumerate(red) if c]
        if rows:
            red[rows[0]] = Fraction(red[rows[0]])
            self.basis.append((rows[0], red))
            self._below.append(rows[1:])
        return bool(rows)

    def extend(self, vectors):
        """Add the vectors in order, reading none once the span is full.

        Returns the positions of the vectors that enlarged the span.
        """
        grew = []
        if self.rank < self.nrows:
            for i, vec in enumerate(vectors):
                if self.add(vec):
                    grew.append(i)
                    if self.rank == self.nrows:
                        break
        return grew

    def contains(self, vec):
        return self._full(vec) or not any(self._reduce(vec))

    @property
    def rank(self):
        return len(self.basis)

    def pivot_rows(self):
        return sorted(p for p, _ in self.basis)

    def non_pivot_rows(self):
        piv = set(p for p, _ in self.basis)
        return [r for r in range(self.nrows) if r not in piv]


def rank(columns, nrows):
    """Rank of the span of dense columns of length nrows."""
    cs = ColumnSpace(nrows)
    cs.extend(columns)
    return cs.rank


def rank_mod(columns, nrows, prime):
    """The echelon modulo a prime of integer columns of length nrows: its
    pivot rows in step order and the positions of the columns that
    enlarged it, so the rank modulo the prime is their count.

    A forward echelon over the integers modulo prime, as ColumnSpace is
    over the rationals, reading no column once the rank equals nrows, so
    columns may be computed as they are read.  A minor that vanishes
    modulo the prime may be nonzero, so the rank is never larger than
    rank(columns, nrows) and may be smaller.  Where the first r columns
    grew with the pivot of step s at row s - 1, every leading principal
    minor of them is nonzero modulo the prime, hence over Q, and
    ColumnSpace gives the same pivots to the same columns.
    """
    basis, grew = [], []  # basis: (pivot row, [(row below, entry)])
    for i, col in enumerate(columns):
        if len(col) != nrows:
            raise ValueError("vector length mismatch")
        vec = list(col)  # reduced modulo prime only where it is read
        for pivot, below in basis:
            c = vec[pivot] % prime
            if c:
                for r, b in below:
                    vec[r] -= c * b
                vec[pivot] = 0
        rows = [r for r, c in enumerate(vec) if c % prime]
        if rows:
            inv = pow(vec[rows[0]], -1, prime)
            basis.append((rows[0], [(r, vec[r] * inv % prime)
                                    for r in rows[1:]]))
            grew.append(i)
            if len(basis) == nrows:
                break
    return [pivot for pivot, _ in basis], grew


def term_rank(columns, nrows):
    """The most nonzero entries of a zero pattern that share no row or
    column: a maximum matching of rows and columns (augmenting paths).

    columns lists, per column, the bitmask of the rows where its entry
    may be nonzero (bit r is row r).  A nonzero minor of size r has a
    nonzero term in its expansion, which is r such entries, so every
    matrix with this zero pattern has rank at most the term rank
    (J. Edmonds, J. Res. NBS 71B, 1967).
    """
    owner = [-1] * nrows  # row -> the column matched to it
    # the rows a search reached since the matching last grew: a failed
    # search leaves the matching as it was, so none of them can start an
    # augmenting path for a later column either
    seen = 0

    def augment(c):
        nonlocal seen
        free = columns[c] & ~seen
        while free:  # its rows not yet reached, lowest first
            bit = free & -free
            seen |= bit
            r = bit.bit_length() - 1
            if owner[r] < 0 or augment(owner[r]):
                owner[r] = c
                return True
            free &= ~seen
        return False

    matched = 0
    for c in range(len(columns)):
        if augment(c):
            matched += 1
            if matched == nrows:
                break
            seen = 0
    return matched


def triangular_rank(columns, rows, sure):
    """The size of a square submatrix that is triangular after permutation
    and whose diagonal entries are sure: a lower bound of the rank of
    every matrix with this zero pattern.

    The pattern is given both ways, as bitmasks: columns[c] has bit r and
    rows[r] has bit c for each entry (r, c) that may be nonzero.  sure[r]
    has bit c when the entry (r, c) is nonzero in every such matrix, as a
    single monomial is on its support.  Greedy peeling: a row whose only
    entry left is sure, or a column whose only entry left is sure, gives
    a diagonal entry, and its row and column go.  When none is left, a
    row with a sure entry first drops its other columns, which only
    shrinks the submatrix: the row of fewest entries, then the lowest
    row, and its lowest sure column.  Each peeled row or column has no
    other entry among the rows and columns left, so the submatrix's
    determinant is its diagonal's product, up to sign, and never
    vanishes.  Where this meets term_rank, the upper bound, the two fix
    the rank of every matrix with the pattern (compare the
    block-triangular forms of A. L. Dulmage and N. S. Mendelsohn, Canad.
    J. Math. 10, 1958).
    """
    cols, rows = list(columns), list(rows)  # the entries left
    # a submatrix has no more rows than the matrix, nor more columns
    top = min(len(rows), len(cols))
    # the rows and columns to visit: those that were left one entry
    row_stack = [r for r, m in enumerate(rows) if m.bit_count() == 1]
    col_stack = [c for c, m in enumerate(cols) if m.bit_count() == 1]

    def drop_column(c):
        m = cols[c]
        cols[c] = 0
        keep = ~(1 << c)
        while m:
            bit = m & -m
            m ^= bit
            r = bit.bit_length() - 1
            left = rows[r] & keep
            rows[r] = left
            if left.bit_count() == 1:
                row_stack.append(r)

    size = 0
    while size < top:
        if row_stack:
            r = row_stack.pop()
            m = rows[r]
            if m.bit_count() != 1:
                continue
            c = m.bit_length() - 1
        elif col_stack:
            c = col_stack.pop()
            m = cols[c]
            if m.bit_count() != 1:
                continue
            r = m.bit_length() - 1
        else:
            best = None  # (entries left, row) of a row with a sure entry
            for r, m in enumerate(rows):
                if sure[r] & m and (best is None or m.bit_count() < best[0]):
                    best = m.bit_count(), r
            if best is None:
                break
            r = best[1]
            m = sure[r] & rows[r]
            bit = m & -m
            c = bit.bit_length() - 1
            m = rows[r] ^ bit
            while m:
                other = m & -m
                m ^= other
                drop_column(other.bit_length() - 1)
        if sure[r] >> c & 1:  # a sure entry: peel its row and column
            m = rows[r]
            rows[r] = 0
            keep = ~(1 << r)
            while m:
                bit = m & -m
                m ^= bit
                o = bit.bit_length() - 1
                left = cols[o] & keep
                cols[o] = left
                if left.bit_count() == 1:
                    col_stack.append(o)
            drop_column(c)
            size += 1
    return size


def presolve_singletons(columns, rhs):
    """Drop rows that contain a variable appearing in no other row.

    Such a row is satisfiable for any assignment of the remaining
    variables, so deleting it (with the variable) preserves solvability
    in both directions.  Cascades until a fixed point; the fixed point is
    independent of deletion order.  It reads only the support, so one
    presolve serves every system with the same nonzero entries.

    columns: {var_key: rows where the variable's entry is nonzero},
    rhs: the rows where the right-hand side is nonzero; the rows are any
    iterable of row keys, so a {row_key: value} dict passes its keys.
    Returns ({var_key: set of rows}, set of rows), the surviving support.
    """
    cols = {v: set(rows) for v, rows in columns.items()}
    cols = {v: rows for v, rows in cols.items() if rows}
    rhs = set(rhs)
    rows_of = {}
    for v, col in cols.items():
        for r in col:
            rows_of.setdefault(r, set()).add(v)
    queue = [v for v, col in cols.items() if len(col) == 1]
    while queue:
        v = queue.pop()
        col = cols.get(v)
        if col is None or len(col) != 1:
            continue
        (row,) = col
        for w in rows_of.pop(row, ()):
            wcol = cols.get(w)
            if wcol is None:
                continue
            wcol.discard(row)
            if not wcol:
                del cols[w]
            elif len(wcol) == 1:
                queue.append(w)
        cols.pop(v, None)
        rhs.discard(row)
    return cols, rhs


def solvable_sparse(columns, rhs):
    """Whether sum_v x_v * col_v = rhs has a solution, exactly.

    columns: {var_key: {row_key: value}}, rhs: {row_key: value}; zero
    values are allowed, ints (such as the oracle's integer numerators) or
    Fractions.  One dense consistency check on the rows the entries
    name, in sorted row-key order.  It does not presolve: the caller
    does, as OracleSystem.plan does once per support.
    """
    row_keys = set(rhs).union(*columns.values())
    order = {r: n for n, r in enumerate(sorted(row_keys))}

    def dense(entries):
        vec = [0] * len(order)
        for r, c in entries.items():
            vec[order[r]] = c
        return vec

    cs = ColumnSpace(len(order))
    cs.extend(dense(columns[v]) for v in sorted(columns))
    return cs.contains(dense(rhs))


# Nothing in the package calls this; it goes with the benchmark change
# that makes perfbench's name-based hook on it optional.
def symbolic_det(rows):
    """Determinant of a small square matrix by subset DP.

    Entries may be Fraction or any ring element supporting +, -, * and
    truthiness; cost is O(2^n * n), capped at n = 12.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n > 12:
        raise ValueError("symbolic determinant capped at 12x12")
    dp = {0: Fraction(1)}
    for r in range(n):
        nxt = {}
        row = rows[r]
        base = 1 if r % 2 == 0 else -1
        for mask, val in dp.items():
            if not val:
                continue
            sign = base
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    sign = -sign
                    continue
                e = row[c]
                if e:
                    term = val * e if sign > 0 else -(val * e)
                    new = mask | bit
                    if new in nxt:
                        nxt[new] = nxt[new] + term
                    else:
                        nxt[new] = term
        dp = nxt
    return dp.get((1 << n) - 1, Fraction(0))
