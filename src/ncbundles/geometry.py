"""Chart geometry of the threefolds W_k = Tot(O(-k) + O(k-2)) over P^1.

Two charts U and V with transition (xi, v1, v2) = (z^-1, z^k u1, z^(2-k) u2).
All polynomials in this package are written in U-coordinates; V-holomorphy of
a monomial is read off from its xi-exponent after the change of charts.
"""

from __future__ import annotations

from .ring import LaurentPoly, Monomial

U_ONLY = "U_only"
V_ONLY = "V_only"
GLOBAL = "global"
OBSTRUCTION = "obstruction"


def v_exponent(mon, k):
    """xi-exponent of z^l u1^i u2^s after the chart change.

    z^l u1^i u2^s = xi^(-l + k*i + (2-k)*s) v1^i v2^s.
    """
    if not isinstance(mon, Monomial):
        mon = Monomial(*mon)
    return -mon.l + k * mon.i + (2 - k) * mon.s


def classify(mon, k):
    """Classify a monomial by chart holomorphy."""
    if not isinstance(mon, Monomial):
        mon = Monomial(*mon)
    u_holo = mon.l >= 0
    v_holo = v_exponent(mon, k) >= 0
    if u_holo and v_holo:
        return GLOBAL
    if u_holo:
        return U_ONLY
    if v_holo:
        return V_ONLY
    return OBSTRUCTION


def to_V_chart(f, k):
    """Rewrite exponents in V-coordinates (an involution on exponent data)."""
    return f.map_exponents(
        lambda m: Monomial(v_exponent(m, k), m.i, m.s)
    )


# the transition is an involution on exponent triples
to_U_chart = to_V_chart


def cech_split(f, k):
    """Split f into (f_U, f_V, rem) by monomial chart class.

    f_U collects U-holomorphic monomials, f_V the strictly V-holomorphic
    ones, rem the monomials holomorphic on neither chart.  Monomials
    holomorphic on both charts are assigned to f_U (fixed tie-break).
    """
    fu = {}
    fv = {}
    rem = {}
    for mon, c in f.terms():
        cls = classify(mon, k)
        if cls in (GLOBAL, U_ONLY):
            fu[mon] = c
        elif cls == V_ONLY:
            fv[mon] = c
        else:
            rem[mon] = c
    return LaurentPoly(fu), LaurentPoly(fv), LaurentPoly(rem)


def h1_obstruction_basis(k, max_l=6, max_i=4, max_s=6):
    """Monomials holomorphic on neither chart within the given box.

    Enumerates l in [-max_l, max_l], i in [0, max_i], s in [0, max_s] and
    keeps the obstruction class.  Empty for k in {1, 2}: obstruction needs
    l <= -1 and -l + k*i + (2-k)*s <= -1, impossible when both fibre weights
    are >= 0.  For k >= 3 the count grows strictly with the s bound.
    A bound below 0 is rejected: the box would be empty.
    """
    for name, n in (("max_l", max_l), ("max_i", max_i), ("max_s", max_s)):
        if n < 0:
            raise ValueError(f"{name} must be at least 0, got {n}")
    out = []
    for i in range(max_i + 1):
        for s in range(max_s + 1):
            for l in range(-max_l, max_l + 1):
                mon = Monomial(l, i, s)
                if classify(mon, k) == OBSTRUCTION:
                    out.append(mon)
    out.sort(key=lambda m: (m.i, m.s, m.l))
    return out


def global_monomials(k, max_u=1):
    """All global monomials with total u-degree <= max_u.

    The z-range is bounded automatically: global needs 0 <= l <= k*i+(2-k)*s.
    """
    if k not in (1, 2):
        raise ValueError(f"global function ring tabulated only for W_1 "
                         f"and W_2, got k={k}")
    out = []
    for i in range(max_u + 1):
        for s in range(max_u - i + 1):
            for l in range(0, k * i + (2 - k) * s + 1):
                mon = Monomial(l, i, s)
                if classify(mon, k) == GLOBAL:
                    out.append(mon)
    out.sort(key=lambda m: (m.i, m.s, m.l))
    return out


def is_global_poly(f, k):
    return all(classify(m, k) == GLOBAL for m in f.monomials())
