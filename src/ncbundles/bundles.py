"""Rank-2 extension bundles on W_k and their transition normal forms.

A bundle in the family is written through an upper-triangular transition
matrix [[z^j, p], [0, z^-j]] over the chart overlap, with p a Laurent
polynomial supported on the extension basis.  This module provides that
basis, star products of 2x2 matrices over the formal series ring, the
explicit right inverse of the transition used by the cancellation
systems, and the normalization of quantized line bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import cech_split
from .ring import FormalFunction, LaurentPoly, Monomial


def require_basis(k):
    """Reject a k with no extension basis: there are bases on W_1 and W_2
    only."""
    if k not in (1, 2):
        raise ValueError(f"extension bases exist only on W_1 and W_2, "
                         f"got k={k}")


def extension_basis(k, j, max_u=1, epsilon=None):
    """Monomial basis of the extension classes for the weight-j family.

    A monomial z^l u1^i u2^s with 1 <= i + s <= max_u qualifies when
    l <= j - 1 and its other-chart degree is also <= j - 1, which pins
    l >= k*i + (2-k)*s - j + 1.  epsilon in {0, 1} selects the half with
    i >= 1 - epsilon, s >= epsilon; None takes the union of both halves.
    Ordered by u-grade, then u2-degree, then descending z-degree.
    """
    require_basis(k)
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    if epsilon not in (None, 0, 1):
        raise ValueError(f"epsilon must be None, 0 or 1, got {epsilon}")
    halves = (0, 1) if epsilon is None else (epsilon,)
    seen = set()
    for eps in halves:
        for s in range(eps, max_u + 1):
            for i in range(1 - eps, max_u - s + 1):
                if i + s < 1:
                    continue
                lo = k * i + (2 - k) * s - j + 1
                for l in range(lo, j):
                    seen.add(Monomial(l, i, s))
    return sorted(seen, key=lambda m: (m.i + m.s, m.s, -m.l))


class Matrix2:
    """2x2 matrix of truncated hbar-series."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("need a 2x2 entry array")
        norm = []
        for r in rows:
            line = []
            for e in r:
                if isinstance(e, LaurentPoly):
                    e = FormalFunction([e])
                line.append(e)
            norm.append(line)
        self.rows = norm

    @classmethod
    def identity(cls, order=1):
        one = FormalFunction([LaurentPoly.const(1)]).pad(order)
        zero = FormalFunction([LaurentPoly.zero()]).pad(order)
        return cls([[one, zero], [zero, one]])

    def entry(self, i, j):
        return self.rows[i][j]

    def __sub__(self, other):
        return Matrix2([
            [self.rows[i][j] - other.rows[i][j] for j in range(2)]
            for i in range(2)
        ])

    def is_zero(self):
        return all(self.rows[i][j].is_zero()
                   for i in range(2) for j in range(2))

    def render(self):
        return [[self.rows[i][j].render() for j in range(2)]
                for i in range(2)]

    def __repr__(self):
        return f"Matrix2({self.render()})"


def star_matrix_mul(sigma, A, B, order=1, pieces=None):
    """Entrywise star product of 2x2 matrices, truncated in hbar.

    pieces, when given, holds sigma.bracket_pieces(A.entry(i, m)[0]) as
    pieces[i][m] for every entry of A: each star product pairs them
    (Bivector.star) instead of taking them again, so a caller that
    already holds the pieces of A's classical entries passes them here.
    """
    rows = []
    for i in range(2):
        line = []
        for j in range(2):
            acc = None
            for m in range(2):
                term = sigma.star(A.entry(i, m), B.entry(m, j), order,
                                  None if pieces is None else pieces[i][m])
                acc = term if acc is None else acc + term
            line.append(acc)
        rows.append(line)
    return Matrix2(rows)


def transition_matrix(j, p, pprime=None):
    """Canonical transition [[z^j, p + hbar p'], [0, z^-j]]."""
    if isinstance(p, FormalFunction):
        upper = p
    else:
        coeffs = [p]
        if pprime is not None:
            coeffs.append(pprime)
        upper = FormalFunction(coeffs)
    zero = FormalFunction([LaurentPoly.zero()])
    return Matrix2([
        [FormalFunction([LaurentPoly.monomial(j, 0, 0)]), upper],
        [zero, FormalFunction([LaurentPoly.monomial(-j, 0, 0)])],
    ])


def canonical_right_inverse(sigma, j, q):
    """Right (in fact two-sided) star inverse of the transition mod hbar^2.

    For T = [[z^j, q0 + hbar q1], [0, z^-j]] the inverse is
    [[z^-j, -q0 + hbar(-q1 + 2 z^-j {z^j, q0})], [0, z^j]].
    """
    if isinstance(q, LaurentPoly):
        q = FormalFunction([q])
    q0, q1 = q[0], q[1]
    zmj = LaurentPoly.monomial(-j, 0, 0)
    zj = LaurentPoly.monomial(j, 0, 0)
    corr = (zmj * sigma.bracket(zj, q0)).scale(2)
    upper = FormalFunction([-q0, -q1 + corr])
    zero = FormalFunction([LaurentPoly.zero(), LaurentPoly.zero()])
    return Matrix2([
        [FormalFunction([zmj, LaurentPoly.zero()]), upper],
        [zero, FormalFunction([zj, LaurentPoly.zero()])],
    ])


@dataclass
class NormalizationResult:
    """Outcome of the line bundle normalization recursion."""

    j: int
    unit: Fraction
    a: FormalFunction
    alpha: FormalFunction
    s_terms: list
    residuals: list
    product: FormalFunction

    @property
    def normalized(self):
        return all(r.is_zero() for r in self.residuals)


def normalize_line_bundle(sigma, f, order=None):
    """Normalize a quantized line bundle transition alpha * f * a.

    f must be an hbar-series whose classical term is a nonzero scalar
    times z^-j.  Chart-wise invertible a (on U) and alpha (on V) are
    built order by order so that the grouped product alpha * (f * a)
    collapses to the classical transition, up to residues that are
    holomorphic on neither chart.  On W_1 and W_2 those residues always
    vanish and the product returns exactly to unit * z^-j.
    """
    k = sigma.k
    if order is None:
        order = f.order
    if order < 0:
        raise ValueError(f"order must be at least 0, got {order}")
    f = f.pad(order)
    cls = f[0]
    mons = sorted(cls.monomials())
    if len(mons) != 1 or mons[0].i or mons[0].s or mons[0].l >= 0:
        raise ValueError(
            "classical term must be a single monomial c * z^-j with j >= 1"
        )
    j = -mons[0].l
    unit = cls.coefficient(mons[0])
    if isinstance(unit, int):
        unit = Fraction(unit)
    if not isinstance(unit, Fraction) or unit == 0:
        raise ValueError("classical coefficient must be a nonzero rational")

    zj = LaurentPoly.monomial(j, 0, 0)
    zmj = LaurentPoly.monomial(-j, 0, 0)
    inv_unit = 1 / unit
    a_coeffs = [LaurentPoly.const(1)]
    al_coeffs = [LaurentPoly.const(1)]
    s_terms = []
    residuals = []
    for n in range(1, order + 1):
        a_ff = FormalFunction(list(a_coeffs)).pad(order)
        al_ff = FormalFunction(list(al_coeffs)).pad(order)
        prod = sigma.star(al_ff, sigma.star(f, a_ff, order), order)
        s_n = prod[n]
        s_terms.append(s_n)
        g = zj * s_n
        g_u, g_v, g_rem = cech_split(g, k)
        a_coeffs.append(g_u.scale(-inv_unit))
        al_coeffs.append(g_v.scale(-inv_unit))
        residuals.append(g_rem)

    a = FormalFunction(a_coeffs)
    alpha = FormalFunction(al_coeffs)
    product = sigma.star(alpha, sigma.star(f, a, order), order)
    return NormalizationResult(
        j=j, unit=unit, a=a, alpha=alpha, s_terms=s_terms,
        residuals=residuals, product=product,
    )
