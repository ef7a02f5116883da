"""Poisson bivectors on W_k and the degree-one star product they induce.

A bivector is stored as a sum of terms h * d/dx ^ d/dy with h a polynomial
and (x, y) a coordinate pair.  The catalogs for k = 1 and k = 2 list the
generators of the global Poisson structures; any global-function multiple
of a generator is again admissible.

The star product implemented here is f * g = fg + hbar {f, g} extended to
hbar-series with no higher bidifferential corrections.  It is associative
only mod hbar^2, which is the regime every consumer in this package works
in.
"""

from __future__ import annotations

from .geometry import is_global_poly
from .ring import FormalFunction, LaurentPoly, parse_poly

_PAIRS = (("z", "u1"), ("z", "u2"), ("u1", "u2"))


class Bivector:
    """Sum of terms h * d/dx ^ d/dy on W_k.

    The terms never change after construction, so the cache key that
    renders them is computed once, here.
    """

    __slots__ = ("k", "terms", "gen_index", "multiplier", "spec_text",
                 "_key")

    def __init__(self, k, terms, gen_index=None, multiplier=None,
                 spec_text=None):
        if k not in (1, 2, 3):
            raise ValueError(f"unsupported k={k}")
        norm = []
        for h, pair in terms:
            if tuple(pair) not in _PAIRS:
                raise ValueError(f"bad coordinate pair {pair}")
            if not isinstance(h, LaurentPoly):
                h = LaurentPoly.const(h)
            if not h.is_zero():
                norm.append((h, tuple(pair)))
        self.k = k
        self.terms = tuple(norm)
        self.gen_index = gen_index
        self.multiplier = multiplier
        self.spec_text = spec_text
        self._key = "|".join([f"k={k}"] + [f"{h.render()}@{x}^{y}"
                                           for h, (x, y) in self.terms])

    def bracket(self, f, g):
        """Poisson bracket {f, g} = sum_d dg/dd * P_d(f) of two Laurent
        polynomials, from the pieces P_d(f) of bracket_pieces."""
        if f.is_zero() or g.is_zero():
            return LaurentPoly.zero()
        return pieces_pairing(self.bracket_pieces(f), g)

    def bracket_pieces(self, f):
        """The pieces P_d(f) with {f, g} = sum_d dg/dd * P_d(f) for all g.

        Keyed by coordinate name; a piece that vanishes is left out.  The
        bracket is a derivation in g, so a bracket with a monomial g is a
        few monomial shifts of these pieces (see pairing_shifts).
        """
        pieces = {}
        for h, (x, y) in self.terms:
            for d, piece in ((y, h * f.partial(x)), (x, -(h * f.partial(y)))):
                pieces[d] = pieces[d] + piece if d in pieces else piece
        return {d: p for d, p in pieces.items() if not p.is_zero()}

    def star(self, F, G, order=None, pieces=None):
        """Truncated star product of two hbar-series.

        pieces, when given, must be bracket_pieces(F[0]): each bracket
        {F[0], g} is then pieces_pairing(pieces, g), which is what bracket
        computes, without taking the pieces again.  The brackets of F's
        higher coefficients take their own.
        """
        if isinstance(F, LaurentPoly):
            F = FormalFunction([F])
        if isinstance(G, LaurentPoly):
            G = FormalFunction([G])
        if order is None:
            order = max(F.order, G.order)
        coeffs = []
        for n in range(order + 1):
            acc = LaurentPoly.zero()
            for a in range(n + 1):
                fa, gb = F[a], G[n - a]
                if not (fa.is_zero() or gb.is_zero()):
                    acc = acc + fa * gb
            for a in range(n):
                fa, gb = F[a], G[n - 1 - a]
                if pieces is None or a:
                    acc = acc + self.bracket(fa, gb)
                elif not (fa.is_zero() or gb.is_zero()):
                    acc = acc + pieces_pairing(pieces, gb)
            coeffs.append(acc)
        return FormalFunction(coeffs)

    def multiply(self, f):
        """Multiple f * sigma by a global function f."""
        if not isinstance(f, LaurentPoly):
            f = LaurentPoly.const(f)
        if not is_global_poly(f, self.k):
            raise ValueError(
                f"multiplier {f.render()} is not a global function on W_{self.k}"
            )
        terms = [(f * h, pair) for h, pair in self.terms]
        mult = f if self.multiplier is None else f * self.multiplier
        return Bivector(self.k, terms, gen_index=self.gen_index,
                        multiplier=mult, spec_text=None)

    def cache_key(self):
        return self._key

    def describe(self):
        """Stable dict echo for JSON reports."""
        return {
            "k": self.k,
            "generator": self.gen_index,
            "multiplier": (None if self.multiplier is None
                           else self.multiplier.render()),
            "terms": [[h.render(), x, y] for h, (x, y) in self.terms],
        }

    def __repr__(self):
        body = " + ".join(f"({h.render()}) d{x}^d{y}"
                          for h, (x, y) in self.terms) or "0"
        return f"Bivector(k={self.k}, {body})"


def pieces_pairing(pieces, g):
    """sum_d dg/dd * pieces[d] for a Laurent polynomial g.

    With pieces = sigma.bracket_pieces(f) this is {f, g}.
    """
    acc = LaurentPoly.zero()
    for d, piece in pieces.items():
        acc = acc + g.partial(d) * piece
    return acc


def pairing_shifts(pieces, mon, c=1):
    """The parts (P, shift, coefficient), as LaurentPoly.shifted_sum sums
    them, that sum to c * sum_d dw/dd * pieces[d] for the monomial
    w = z^l u1^i u2^s.

    With pieces = sigma.bracket_pieces(f) they sum to c {f, w}: dw/dd is
    e w / d for the exponent e of d in w, one shift of pieces[d].  The
    oracle's unit products (oracle._unit_product) are built from them.
    """
    l, i, s = mon
    out = []
    if l and "z" in pieces:
        out.append((pieces["z"], (l - 1, i, s), c * l))
    if i and "u1" in pieces:
        out.append((pieces["u1"], (l, i - 1, s), c * i))
    if s and "u2" in pieces:
        out.append((pieces["u2"], (l, i, s - 1), c * s))
    return out


def catalog(k):
    """Generators of the global Poisson structures on W_k, 1-based order."""
    z = LaurentPoly.var("z")
    u1 = LaurentPoly.var("u1")
    u2 = LaurentPoly.var("u2")
    one = LaurentPoly.const(1)
    if k == 1:
        data = [
            [(one, ("z", "u1"))],
            [(one, ("z", "u2"))],
            [(u1, ("u1", "u2")), (-z, ("z", "u2"))],
            [(u2, ("u1", "u2")), (z, ("z", "u1"))],
        ]
    elif k == 2:
        data = [
            [(one, ("z", "u1"))],
            [(one, ("z", "u2"))],
            [(z, ("z", "u2"))],
            [(u1, ("u1", "u2"))],
            [(2 * z * u1, ("u1", "u2")), (-(z ** 2), ("z", "u2"))],
        ]
    else:
        raise ValueError(f"no catalog for k={k}")
    return [Bivector(k, t, gen_index=n + 1, spec_text=f"gen{n + 1}")
            for n, t in enumerate(data)]


def generator(k, n):
    gens = catalog(k)
    if not 1 <= n <= len(gens):
        raise ValueError(f"k={k} has generators 1..{len(gens)}, got {n}")
    return gens[n - 1]


def parse_sigma_spec(text, k):
    """Parse 'genN' or '<global poly>*genN' into a Bivector."""
    text = text.strip()
    if "*" in text:
        mult_text, gen_text = text.rsplit("*", 1)
    else:
        mult_text, gen_text = None, text
    if not gen_text.startswith("gen"):
        raise ValueError(f"expected 'genN' tail in sigma spec {text!r}")
    try:
        n = int(gen_text[3:])
    except ValueError:
        raise ValueError(f"bad generator index in sigma spec {text!r}") from None
    sigma = generator(k, n)
    if mult_text is not None:
        sigma = sigma.multiply(parse_poly(mult_text))
    sigma.spec_text = text
    return sigma


def jacobi_defect(sigma, f, g, h):
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}; zero for every catalog bivector."""
    br = sigma.bracket
    return br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))


def associator_defect(sigma, F, G, H, order=1):
    """(F*G)*H - F*(G*H) truncated at the given hbar order."""
    left = sigma.star(sigma.star(F, G, order), H, order)
    right = sigma.star(F, sigma.star(G, H, order), order)
    return left - right


def is_extremal_literal(sigma):
    """Whether all coordinate brackets lie in the square of the fibre ideal."""
    z = LaurentPoly.var("z")
    u1 = LaurentPoly.var("u1")
    u2 = LaurentPoly.var("u2")
    for f, g in ((z, u1), (z, u2), (u1, u2)):
        if not sigma.bracket(f, g).truncate_neighborhood(1).is_zero():
            return False
    return True
