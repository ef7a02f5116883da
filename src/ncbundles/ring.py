"""Exact symbolic arithmetic in the coordinate ring of the charts.

Everything downstream works with Laurent polynomials in z with polynomial
dependence on the fibre variables u1, u2.  Coefficients are exact
rationals, a Python int or a fractions.Fraction, or ParamPoly values, i.e.
polynomials in a fixed list of named rational parameters.  An integer stays
an int: the mixed int/Fraction arithmetic of Python is exact, so a value
built without division keeps integer arithmetic throughout.  ParamPoly is
what makes symbolic point computations possible: a matrix entry like
"p0 + 3/2*p3" is a ParamPoly in the parameters p0..p7.

A monomial in the parameters has one encoding, shared by ParamPoly and
FormTable: the ascending tuple of its variable indices, each repeated by
its exponent, so p3*p7 is (3, 7), p0^2*p3 is (0, 0, 3) and 1 is ().  A
product concatenates two such keys, sorting only where the first ends past
the start of the second, and a key costs time in its degree, not in the
number of parameters.  FormTable pads the keys of its entries, shifted by
one, to a common degree; the exponent vectors aligned with the parameters
are only the input and output format of ParamPoly (the constructor and
terms()), so a render is the same in either encoding.

Canonical term order everywhere is lex on (i, s, l): u1-degree, then
u2-degree, then z-degree.  The canonical text form of a term is
"3/2*z^-1*u1*u2^2" and polynomials are sums of such terms.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import NamedTuple

VARS = ("z", "u1", "u2")


class Monomial(NamedTuple):
    """Exponent triple for z^l * u1^i * u2^s.  l may be negative."""

    l: int
    i: int
    s: int

    def degree_u(self):
        return self.i + self.s

    def render(self):
        parts = []
        for name, e in zip(VARS, self):
            if e == 1:
                parts.append(name)
            elif e:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


ONE_MON = Monomial(0, 0, 0)
# tuple.__new__(Monomial, (l, i, s)) is Monomial(l, i, s) with no Python
# frame: the arithmetic below builds its result keys with it
_new = tuple.__new__


def _rational(x):
    """x itself if it is an exact rational scalar, an int or a Fraction."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected rational scalar, got {type(x).__name__}")


class ParamPoly:
    """Polynomial with rational coefficients in a fixed tuple of parameters.

    A coefficient is an int or a Fraction, stored as given.  The
    constructor takes exponent vectors, tuples of nonnegative ints
    aligned with ``params``; a term is stored under its monomial key, the
    ascending tuple of its variable indices with repeats, so p3*p7 is
    (3, 7), p0^2*p3 is (0, 0, 3) and the constant is () (see the module
    docstring).  terms() gives exponent vectors again.  Instances are
    immutable by convention; all operators return new objects.  Mixed
    arithmetic with Fraction/int promotes the scalar, except that a
    product with one scales the coefficients directly.
    """

    __slots__ = ("params", "_terms")

    def __init__(self, params, terms=None):
        self.params = tuple(params)
        clean = {}
        if terms:
            width = len(self.params)
            for expv, c in dict(terms).items():
                c = _rational(c)
                expv = tuple(expv)
                if len(expv) != width:
                    raise ValueError("exponent vector width mismatch")
                if not all(isinstance(e, int) and e >= 0 for e in expv):
                    raise ValueError(
                        f"exponents must be nonnegative ints, got {expv}")
                if c == 0:
                    continue
                clean[tuple(r for r, e in enumerate(expv)
                            for _ in range(e))] = c
        self._terms = clean

    @classmethod
    def const(cls, params, c):
        out = cls(params)
        if _rational(c):
            out._terms[()] = c
        return out

    @classmethod
    def variable(cls, params, name):
        out = cls(params)
        out._terms[(out.params.index(name),)] = 1
        return out

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            if other.params != self.params:
                raise ValueError("parameter spaces differ")
            return other
        return ParamPoly.const(self.params, other)

    def _with_terms(self, terms):
        """A ParamPoly over self.params with terms taken as they are.

        For the results of arithmetic, whose terms are already checked
        and hold no zero coefficient, so __init__ need not check them.
        """
        out = ParamPoly.__new__(ParamPoly)
        out.params = self.params
        out._terms = terms
        return out

    def __add__(self, other):
        # an operand over the same params tuple, the case of every master
        # build, skips _coerce
        if other.__class__ is not ParamPoly or other.params is not self.params:
            other = self._coerce(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            if m in terms:
                c += terms[m]
                if not c:
                    del terms[m]
                    continue
            terms[m] = c
        return self._with_terms(terms)

    __radd__ = __add__

    def add_scaled(self, other, c):
        """self + other * c for a nonzero rational c, with each of other's
        terms scaled as it is added: one dict pass and one new ParamPoly,
        where other * c and the sum would make two."""
        if other.__class__ is not ParamPoly or other.params is not self.params:
            return self + other * c
        terms = dict(self._terms)
        for m, v in other._terms.items():
            v = v * c
            if m in terms:
                v += terms[m]
                if not v:
                    del terms[m]
                    continue
            terms[m] = v
        return self._with_terms(terms)

    def __neg__(self):
        return self._with_terms({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not ParamPoly or other.params is not self.params:
            if isinstance(other, (int, Fraction)):
                if not other:
                    return self._with_terms({})
                return self._with_terms(
                    {m: c * other for m, c in self._terms.items()})
            other = self._coerce(other)
        if len(self._terms) == 1 and len(other._terms) == 1:
            # one term times one term: a product of nonzero rationals is
            # nonzero, so there is nothing to merge or drop
            (m1, c1), = self._terms.items()
            (m2, c2), = other._terms.items()
            return self._with_terms({_key_product(m1, m2): c1 * c2})
        out = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _key_product(m1, m2)
                c = c1 * c2
                out[m] = out[m] + c if m in out else c
        return self._with_terms({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other):
        # two ParamPolys, the case of every master compare, skip the
        # scalar check
        if other.__class__ is ParamPoly:
            return self.params == other.params and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(self.params, other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.params == other.params and self._terms == other._terms

    __hash__ = None

    def evaluate(self, values):
        """values: dict name -> Fraction/int.  Returns a Fraction."""
        vals = [_rational(values[name]) for name in self.params]
        total = Fraction(0)
        for m, c in self._terms.items():
            for r in m:
                c *= vals[r]
            total += c
        return total

    def terms(self):
        """The (exponent vector, coefficient) pairs, ascending on the
        exponent vectors."""
        width = len(self.params)
        out = []
        for m, c in self._terms.items():
            ev = [0] * width
            for r in m:
                ev[r] += 1
            out.append((tuple(ev), c))
        return sorted(out)

    def render(self):
        if not self._terms:
            return "0"
        parts = []
        for ev, c in self.terms():
            factors = []
            for name, e in zip(self.params, ev):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            parts.append(_render_term(c, factors))
        return _join_terms(parts)

    def __repr__(self):
        return f"ParamPoly({self.render()})"


def _key_product(m1, m2):
    """The monomial key of the product of the monomial keys m1 and m2:
    their concatenation, sorted only when it is not ascending already."""
    if m1 and m2 and m1[-1] > m2[0]:
        return tuple(sorted(m1 + m2))
    return m1 + m2


class FormTable(NamedTuple):
    """Sparse columns of ParamPoly or rational entries, evaluated together
    at a point by an Evaluation.

    Column c holds entries start[c] to start[c + 1] (segment); entry e
    sits in row rows[e] and has the value of form ids[e].  Each distinct
    entry is stored once as an integer form: pairs (monomial id,
    coefficient), with the coefficients times `scale`, the common
    denominator of all of them.  A monomial is the ParamPoly key of its
    variables (see the module docstring) shifted by one, so that variable
    1 + r is the r-th parameter, and padded in front to the top degree of
    the entries, `degree`, with variable 0, which stands for the constant
    1.
    """

    degree: int
    scale: int
    monomials: tuple
    forms: tuple
    start: tuple
    rows: tuple
    ids: tuple

    @classmethod
    def compile(cls, columns):
        """The table of the columns, each a {row: entry} dict.

        Zero entries are dropped.  A constant entry, rational or
        ParamPoly, is keyed by its value and any other by the set of its
        terms, so equal entries share a form id with no sorting of terms.
        Form ids are given in order of first use, column by column, and
        monomial ids in order of first use, form by form.

        An entry object that sits in several columns is keyed once: its
        form id is remembered by id(entry) for this call only.  The
        columns hold every entry alive until compile returns (they are
        listed first, so a generator's dicts are kept too), and no id is
        reused for another entry meanwhile.
        """
        columns = list(columns)
        start, rows, ids, keys = [0], [], [], {}  # keys: entry -> form id
        seen = {}  # id(entry) -> form id
        for col in columns:
            for r, entry in col.items():
                if not entry:
                    continue
                f = seen.get(id(entry))
                if f is None:
                    key = entry
                    if isinstance(key, ParamPoly):
                        t = key._terms
                        key = (frozenset(t.items()) if len(t) > 1 or any(t)
                               else sum(t.values()))
                    f = seen[id(entry)] = keys.setdefault(key, len(keys))
                rows.append(r)
                ids.append(f)
            start.append(len(rows))
        terms = [key if isinstance(key, frozenset) else [((), key)]
                 for key in keys]
        degree = max((len(m) for form in terms for m, _ in form), default=0)
        scale = math.lcm(*(c.denominator for form in terms for _, c in form))
        mon_ids = {}  # monomial key -> monomial id
        forms = tuple(tuple((mon_ids.setdefault(m, len(mon_ids)),
                             int(c if scale == 1 else c * scale))
                            for m, c in form) for form in terms)
        monomials = tuple((0,) * (degree - len(m)) + tuple(r + 1 for r in m)
                          for m in mon_ids)
        return cls(degree, scale, monomials, forms, tuple(start),
                   tuple(rows), tuple(ids))

    def segment(self, c):
        """The (row, form id) pairs of column c's entries."""
        a, b = self.start[c], self.start[c + 1]
        return zip(self.rows[a:b], self.ids[a:b])

    def column(self, values, c, nrows, zero):
        """Column c as a list of nrows values of its forms, zero in every
        row it has no entry in."""
        col = [zero] * nrows
        rows, ids = self.rows, self.ids
        for e in range(self.start[c], self.start[c + 1]):
            col[rows[e]] = values[ids[e]]
        return col


class Evaluation:
    """A FormTable's integer numerators at one point, each form and
    monomial evaluated once, on construction.

    With d the common denominator of coords, variable 0 is d and
    variable 1 + r is d times coordinate r, so every monomial is an
    integer, and each form's sum over them is its numerator over
    den = scale * d^degree, the same nonzero number for every form.  The
    numerators are not reduced: a matrix of them has the rank of the
    matrix of values.  ints holds one numerator per form, in form order.
    """

    __slots__ = ("table", "den", "ints")

    def __init__(self, table, coords):
        d = math.lcm(*(c.denominator for c in coords))
        x = [d] + [c.numerator * (d // c.denominator) for c in coords]
        mons = [reduce(mul, (x[i] for i in m), 1) for m in table.monomials]
        self.table = table
        self.den = table.scale * d ** table.degree
        self.ints = [sum(c * mons[m] for m, c in form) for form in table.forms]

    def column(self, c, nrows):
        """Column c as nrows integer numerators."""
        return self.table.column(self.ints, c, nrows, 0)


def _render_term(coeff, factors):
    """Render one term as (sign, body) where body omits unit coefficients."""
    if isinstance(coeff, ParamPoly):
        body = "(" + coeff.render() + ")"
        if factors:
            body += "*" + "*".join(factors)
        return ("+", body)
    coeff = _rational(coeff)
    sign = "+" if coeff >= 0 else "-"
    mag = abs(coeff)
    if factors:
        if mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
    else:
        body = str(mag)
    return (sign, body)


def _join_terms(parts):
    out = []
    for n, (sign, body) in enumerate(parts):
        if n == 0:
            out.append(body if sign == "+" else "-" + body)
        else:
            out.append((" + " if sign == "+" else " - ") + body)
    return "".join(out)


class LaurentPoly:
    """Sparse Laurent polynomial in z, u1, u2.

    Internal storage is {Monomial: coeff} with zero coefficients dropped.
    u-exponents must be nonnegative.  Coefficients may be int, Fraction
    or ParamPoly, stored as given (mixing is allowed; sums promote
    through ParamPoly).
    """

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mon, c in items:
                if not isinstance(mon, Monomial):
                    mon = Monomial(*mon)
                if mon.i < 0 or mon.s < 0:
                    raise ValueError(f"negative fibre exponent in {mon}")
                if not c:
                    continue
                if mon in t:
                    c = t[mon] + c
                    if not c:
                        del t[mon]
                        continue
                t[mon] = c
        self._t = t

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _of(t):
        """A LaurentPoly holding the dict t as it is.

        For the results of arithmetic, whose monomials are already
        checked and hold no zero coefficient, so __init__ need not check
        them.
        """
        out = LaurentPoly.__new__(LaurentPoly)
        out._t = t
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({ONE_MON: c})

    @classmethod
    def monomial(cls, l, i, s, c=1):
        return cls({Monomial(l, i, s): c})

    @classmethod
    def var(cls, name, e=1):
        if name == "z":
            return cls.monomial(e, 0, 0)
        if name == "u1":
            return cls.monomial(0, e, 0)
        if name == "u2":
            return cls.monomial(0, 0, e)
        raise ValueError(f"unknown variable {name!r}")

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self._t

    def __bool__(self):
        return bool(self._t)

    def terms(self):
        """Terms in canonical order: lex ascending on (i, s, l)."""
        return sorted(self._t.items(), key=lambda kv: (kv[0].i, kv[0].s, kv[0].l))

    def monomials(self):
        return set(self._t)

    def items(self):
        """The (Monomial, coefficient) pairs as stored, unsorted."""
        return self._t.items()

    def coefficient(self, mon):
        """The coefficient of mon, the int 0 if the term is absent."""
        if not isinstance(mon, Monomial):
            mon = Monomial(*mon)
        return self._t.get(mon, 0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self._t.keys() != other._t.keys():
            return False
        return all(not self._t[m] - other._t[m] for m in self._t)

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        t = dict(self._t)
        for mon, c in other._t.items():
            if mon in t:
                c2 = t[mon] + c
                if not c2:
                    del t[mon]
                else:
                    t[mon] = c2
            else:
                t[mon] = c
        return LaurentPoly._of(t)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of({m: -c for m, c in self._t.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            return self.scale(other)
        return self._product(other, None)

    __rmul__ = __mul__

    def mul_truncated(self, other, n):
        """(self * other).truncate_neighborhood(n), without the cut terms.

        u-degree adds under multiplication, so a pair of terms whose
        u-degrees sum past n is skipped, not multiplied and then dropped;
        a one-term factor is a shift of the other factor's terms below
        the cut (_product).
        """
        return self._product(other, n)

    def _product(self, other, n):
        """The product with the polynomial other, cut at u-degree n unless
        n is None.

        A factor of one term c z^l u1^i u2^s is a shift of the other
        factor (shifted_sum).
        """
        if len(self._t) == 1 or len(other._t) == 1:
            one, poly = (self, other) if len(self._t) == 1 else (other, self)
            (mon, c), = one._t.items()
            return LaurentPoly.shifted_sum([(poly, mon, c)], n)
        terms = other._t.items()
        if n is not None:  # the terms of other by u-degree: a prefix is kept
            terms = sorted(terms, key=lambda mc: mc[0][1] + mc[0][2])
            degs = [i + s for (_, i, s), _ in terms]
        t = {}
        for (l1, i1, s1), c1 in self._t.items():
            kept = (terms if n is None
                    else terms[:bisect_right(degs, n - i1 - s1)])
            for (l2, i2, s2), c2 in kept:
                mon = _new(Monomial, (l1 + l2, i1 + i2, s1 + s2))
                c = c1 * c2
                if mon in t:
                    c = t[mon] + c
                    if not c:
                        del t[mon]
                        continue
                elif not c:
                    continue
                t[mon] = c
        return LaurentPoly._of(t)

    def scale(self, c):
        if not c:
            return LaurentPoly.zero()
        # a product of nonzero coefficients is nonzero
        return LaurentPoly._of({m: c * v for m, v in self._t.items()})

    @staticmethod
    def shifted_sum(parts, n=None):
        """sum c * z^l u1^i u2^s * P over the triples (P, (l, i, s), c) of
        parts, c rational or a ParamPoly, cut at u-degree n unless n is
        None: the ring's one routine that moves terms by a monomial.

        One pass into one dict: a shift never lowers the u-degree, so the
        terms of P past n - i - s are skipped, not shifted and then cut,
        no polynomial is built per part, and a term that cancels to zero
        is dropped.  The parts are added in order.  A term's coefficient v
        becomes v * c, except that the int c = 1 shares v, which is
        immutable; a Fraction(1) or a constant ParamPoly still
        multiplies, so that no coefficient changes type.  A ParamPoly
        that meets an earlier term of its monomial is scaled as it is
        added (ParamPoly.add_scaled) when c is rational.  It builds the
        products with a one-term factor (_product), the oracle's unit
        products (oracle._unit_product), whose every term the oracle
        reads, and the engine's family pairs.
        """
        t = {}
        for poly, (l, i, s), c in parts:
            if i < 0 or s < 0:
                raise ValueError(f"negative fibre exponent in {(l, i, s)}")
            top = None if n is None else n - i - s
            if not c or top is not None and top < 0:
                continue
            scaled = c.__class__ is not int or c != 1
            for (a, b, e), v in poly._t.items():
                if top is not None and b + e > top:
                    continue
                mon = _new(Monomial, (a + l, b + i, e + s))
                if mon in t:
                    old = t[mon]
                    if not scaled:
                        v = old + v
                    elif (old.__class__ is ParamPoly
                          and c.__class__ is not ParamPoly):
                        v = old.add_scaled(v, c)
                    else:
                        v = old + v * c
                    if not v:
                        del t[mon]
                        continue
                elif scaled:
                    v = v * c
                t[mon] = v
        return LaurentPoly._of(t)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers: use explicit z^-1 monomials")
        result = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def partial(self, name):
        """Partial derivative with respect to z, u1 or u2.

        Distinct monomials stay distinct, a term of exponent 0 in the
        variable is dropped and no fibre exponent goes below 0.
        """
        items = self._t.items()
        if name == "z":
            t = {_new(Monomial, (l - 1, i, s)): c * l
                 for (l, i, s), c in items if l}
        elif name == "u1":
            t = {_new(Monomial, (l, i - 1, s)): c * i
                 for (l, i, s), c in items if i}
        elif name == "u2":
            t = {_new(Monomial, (l, i, s - 1)): c * s
                 for (l, i, s), c in items if s}
        else:
            raise ValueError(f"unknown variable {name!r}")
        return LaurentPoly._of(t)

    # -- structure ---------------------------------------------------------

    def truncate_neighborhood(self, n):
        """Drop all terms with total u-degree i+s > n."""
        return LaurentPoly._of(
            {m: c for m, c in self._t.items() if m[1] + m[2] <= n})

    def map_exponents(self, fn):
        """Apply a bijection on exponent triples (used for chart changes)."""
        return LaurentPoly({fn(m): c for m, c in self._t.items()})

    # -- text form ---------------------------------------------------------

    def render(self):
        if not self._t:
            return "0"
        parts = []
        for mon, c in self.terms():
            factors = []
            if mon.l == 1:
                factors.append("z")
            elif mon.l:
                factors.append(f"z^{mon.l}")
            if mon.i == 1:
                factors.append("u1")
            elif mon.i:
                factors.append(f"u1^{mon.i}")
            if mon.s == 1:
                factors.append("u2")
            elif mon.s:
                factors.append(f"u2^{mon.s}")
            parts.append(_render_term(c, factors))
        return _join_terms(parts)

    def __repr__(self):
        return f"LaurentPoly({self.render()})"


_TERM_SPLIT = re.compile(r"(?<![\^/])([+-])")
_FACTOR_RE = re.compile(r"^(z|u1|u2)(?:\^(-?\d+))?$")
_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_poly(text):
    """Parse the canonical text syntax, e.g. "3/2*z^-1*u1*u2^2 - u2".

    Accepts rational coefficients only (no parameters); an integer
    coefficient is an int.  Whitespace around operators is ignored.  A
    leading sign is optional; a sign that no term follows, as in "--z"
    or "z +", raises ValueError.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return LaurentPoly.zero()
    # split into signed terms: text before the first sign, then
    # alternately a sign and its term
    pieces = _TERM_SPLIT.split(s)
    chunks = [(1, pieces[0].strip())] if pieces[0].strip() else []
    for sign, term in zip(pieces[1::2], pieces[2::2]):
        if not term.strip():
            raise ValueError(f"no term after {sign!r} in {text!r}")
        chunks.append((1 if sign == "+" else -1, term.strip()))

    total = LaurentPoly.zero()
    for sgn, term in chunks:
        coeff = sgn
        l = i = sdeg = 0
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {term!r}")
            m = _FACTOR_RE.match(factor)
            if m:
                e = int(m.group(2)) if m.group(2) else 1
                if m.group(1) == "z":
                    l += e
                elif m.group(1) == "u1":
                    i += e
                else:
                    sdeg += e
                continue
            r = _RAT_RE.match(factor)
            if r:
                num = int(r.group(1))
                den = int(r.group(2)) if r.group(2) else 1
                if not den:
                    raise ValueError(f"zero denominator in factor {factor!r}")
                coeff *= num if den == 1 else Fraction(num, den)
                continue
            raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
        total = total + LaurentPoly.monomial(l, i, sdeg, coeff)
    return total


class FormalFunction:
    """Finite hbar-series with LaurentPoly coefficients, f = sum f_n hbar^n.

    The truncation order is len(coeffs) - 1.  Arithmetic that needs the star
    product lives in the poisson module (it depends on a bivector); here we
    keep only the commutative series operations.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least the classical coefficient")
        for c in coeffs:
            if not isinstance(c, LaurentPoly):
                raise TypeError("FormalFunction coefficients must be LaurentPoly")
        self.coeffs = coeffs

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __getitem__(self, n):
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return LaurentPoly.zero()

    def pad(self, order):
        if order < self.order:
            return FormalFunction(self.coeffs[: order + 1])
        return FormalFunction(
            self.coeffs + [LaurentPoly.zero()] * (order - self.order)
        )

    def __add__(self, other):
        order = max(self.order, other.order)
        return FormalFunction(
            [self[n] + other[n] for n in range(order + 1)]
        )

    def __sub__(self, other):
        order = max(self.order, other.order)
        return FormalFunction(
            [self[n] - other[n] for n in range(order + 1)]
        )

    def __neg__(self):
        return FormalFunction([-c for c in self.coeffs])

    def scale(self, c):
        return FormalFunction([p.scale(c) for p in self.coeffs])

    def truncate_neighborhood(self, n):
        return FormalFunction([c.truncate_neighborhood(n) for c in self.coeffs])

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, FormalFunction):
            return NotImplemented
        order = max(self.order, other.order)
        return all(self[n] == other[n] for n in range(order + 1))

    __hash__ = None

    def render(self):
        return " ; ".join(c.render() for c in self.coeffs)

    def __repr__(self):
        return f"FormalFunction({self.render()})"
