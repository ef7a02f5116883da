"""Exact symbolic arithmetic in the coordinate ring of the charts.

Everything downstream works with Laurent polynomials in z with polynomial
dependence on the fibre variables u1, u2.  Coefficients are either exact
rationals (fractions.Fraction) or ParamPoly values, i.e. polynomials in a
fixed list of named rational parameters.  ParamPoly is what makes symbolic
point computations possible: a matrix entry like "p0 + 3/2*p3" is a ParamPoly
in the parameters p0..p7.

Canonical term order everywhere is lex on (i, s, l): u1-degree, then
u2-degree, then z-degree.  The canonical text form of a term is
"3/2*z^-1*u1*u2^2" and polynomials are sums of such terms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NamedTuple

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


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational scalar, got {type(x).__name__}")


class ParamPoly:
    """Polynomial with Fraction coefficients in a fixed tuple of parameters.

    Exponent vectors are tuples aligned with ``params``.  Instances are
    immutable by convention; all operators return new objects.  Mixed
    arithmetic with Fraction/int promotes the scalar.
    """

    __slots__ = ("params", "_terms")

    def __init__(self, params, terms=None):
        self.params = tuple(params)
        clean = {}
        if terms:
            width = len(self.params)
            for expv, c in dict(terms).items():
                c = _as_fraction(c)
                if c == 0:
                    continue
                expv = tuple(expv)
                if len(expv) != width:
                    raise ValueError("exponent vector width mismatch")
                clean[expv] = c
        self._terms = clean

    @classmethod
    def const(cls, params, c):
        params = tuple(params)
        return cls(params, {tuple([0] * len(params)): _as_fraction(c)})

    @classmethod
    def variable(cls, params, name):
        params = tuple(params)
        idx = params.index(name)
        ev = [0] * len(params)
        ev[idx] = 1
        return cls(params, {tuple(ev): Fraction(1)})

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

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self._terms)
        for ev, c in other._terms.items():
            terms[ev] = terms.get(ev, Fraction(0)) + c
        return ParamPoly(self.params, terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(self.params, {ev: -c for ev, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for ev1, c1 in self._terms.items():
            for ev2, c2 in other._terms.items():
                ev = tuple(a + b for a, b in zip(ev1, ev2))
                out[ev] = out.get(ev, Fraction(0)) + c1 * c2
        return ParamPoly(self.params, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(self.params, other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.params == other.params and self._terms == other._terms

    __hash__ = None

    def evaluate(self, values):
        """values: dict name -> Fraction/int.  Returns a Fraction."""
        vals = [
            _as_fraction(values[name]) for name in self.params
        ]
        total = Fraction(0)
        for ev, c in self._terms.items():
            term = c
            for base, e in zip(vals, ev):
                if e:
                    term *= base ** e
            total += term
        return total

    def terms(self):
        return sorted(self._terms.items())

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


def _coeff_is_zero(c):
    if isinstance(c, ParamPoly):
        return c.is_zero()
    return c == 0


def _render_term(coeff, factors):
    """Render one term as (sign, body) where body omits unit coefficients."""
    if isinstance(coeff, ParamPoly):
        body = "(" + coeff.render() + ")"
        if factors:
            body += "*" + "*".join(factors)
        return ("+", body)
    coeff = _as_fraction(coeff)
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
    u-exponents must be nonnegative.  Coefficients may be Fraction or
    ParamPoly (mixing is allowed; sums promote through ParamPoly).
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
                if _coeff_is_zero(c):
                    continue
                if mon in t:
                    c = t[mon] + c
                    if _coeff_is_zero(c):
                        del t[mon]
                        continue
                t[mon] = c
        self._t = t

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({ONE_MON: c})

    @classmethod
    def monomial(cls, l, i, s, c=Fraction(1)):
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

    def coefficient(self, mon):
        if not isinstance(mon, Monomial):
            mon = Monomial(*mon)
        return self._t.get(mon, Fraction(0))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self._t.keys() != other._t.keys():
            return False
        return all(_coeff_is_zero(self._t[m] - other._t[m]) for m in self._t)

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        t = dict(self._t)
        for mon, c in other._t.items():
            if mon in t:
                c2 = t[mon] + c
                if _coeff_is_zero(c2):
                    del t[mon]
                else:
                    t[mon] = c2
            else:
                t[mon] = c
        out = LaurentPoly.__new__(LaurentPoly)
        out._t = t
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out._t = {m: -c for m, c in self._t.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            return self.scale(other)
        t = {}
        for m1, c1 in self._t.items():
            for m2, c2 in other._t.items():
                mon = Monomial(m1.l + m2.l, m1.i + m2.i, m1.s + m2.s)
                c = c1 * c2
                if mon in t:
                    c = t[mon] + c
                    if _coeff_is_zero(c):
                        del t[mon]
                        continue
                elif _coeff_is_zero(c):
                    continue
                t[mon] = c
        out = LaurentPoly.__new__(LaurentPoly)
        out._t = t
        return out

    __rmul__ = __mul__

    def scale(self, c):
        if _coeff_is_zero(c):
            return LaurentPoly.zero()
        return LaurentPoly({m: c * v for m, v in self._t.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers: use explicit z^-1 monomials")
        result = LaurentPoly.const(Fraction(1))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def partial(self, name):
        """Partial derivative with respect to z, u1 or u2."""
        t = {}
        for m, c in self._t.items():
            if name == "z":
                if m.l == 0:
                    continue
                t[Monomial(m.l - 1, m.i, m.s)] = c * m.l
            elif name == "u1":
                if m.i == 0:
                    continue
                t[Monomial(m.l, m.i - 1, m.s)] = c * m.i
            elif name == "u2":
                if m.s == 0:
                    continue
                t[Monomial(m.l, m.i, m.s - 1)] = c * m.s
            else:
                raise ValueError(f"unknown variable {name!r}")
        return LaurentPoly(t)

    # -- structure ---------------------------------------------------------

    def truncate_neighborhood(self, n):
        """Drop all terms with total u-degree i+s > n."""
        return LaurentPoly({m: c for m, c in self._t.items() if m.i + m.s <= n})

    def map_exponents(self, fn):
        """Apply a bijection on exponent triples (used for chart changes)."""
        return LaurentPoly({fn(m): c for m, c in self._t.items()})

    def evaluate_params(self, values):
        """Specialize all ParamPoly coefficients at the given parameter values."""
        t = {}
        for m, c in self._t.items():
            if isinstance(c, ParamPoly):
                c = c.evaluate(values)
            if c != 0:
                t[m] = c
        return LaurentPoly(t)

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

    Accepts rational coefficients only (no parameters).  Whitespace around
    operators is ignored.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return LaurentPoly.zero()
    # split into signed terms; leading sign optional
    chunks = []
    sign = 1
    buf = []
    for piece in _TERM_SPLIT.split(s):
        if piece == "+" or piece == "-":
            if buf and "".join(buf).strip():
                chunks.append((sign, "".join(buf).strip()))
            buf = []
            sign = 1 if piece == "+" else -1
        else:
            buf.append(piece)
    if buf and "".join(buf).strip():
        chunks.append((sign, "".join(buf).strip()))
    if not chunks:
        raise ValueError(f"cannot parse polynomial: {text!r}")

    total = LaurentPoly.zero()
    for sgn, term in chunks:
        coeff = Fraction(sgn)
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
                coeff *= Fraction(num, den)
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

    @classmethod
    def classical(cls, p, order=1):
        return cls([p] + [LaurentPoly.zero()] * order)

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

    def series_mul(self, other, order=None):
        """Commutative truncated product (no bracket corrections)."""
        if order is None:
            order = max(self.order, other.order)
        out = []
        for n in range(order + 1):
            acc = LaurentPoly.zero()
            for a in range(n + 1):
                acc = acc + self[a] * other[n - a]
            out.append(acc)
        return FormalFunction(out)

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
