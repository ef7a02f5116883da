"""Exact Laurent polynomial and hbar-series arithmetic."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from ncbundles import FormalFunction, LaurentPoly, Monomial, parse_poly, ring
from ncbundles.ring import VARS, Evaluation, FormTable, ParamPoly

from conftest import (
    PARAMS,
    DenseParamPoly,
    form_values,
    fractions,
    laurent_polys,
    mixed_laurent_polys,
    monomials,
    param_polys,
    rationals,
    reference_product,
)

P = parse_poly


def test_monomial_product():
    assert P("z*u1") * P("z^-1*u2") == P("u1*u2")


def test_additive_identity():
    f = P("3*z^2*u1 - 1/2*u2")
    assert f + LaurentPoly.zero() == f


def test_binomial_square():
    assert (P("z") + P("z^-1")) ** 2 == P("z^2 + 2 + z^-2")


def test_partial_derivatives():
    assert P("z^3*u1").partial("z") == P("3*z^2*u1")
    assert P("z^4").partial("u1").is_zero()
    assert P("z^2*u1*u2").partial("u1") == P("z^2*u2")


def test_truncate_neighborhood():
    assert P("z*u1^2 + z*u1").truncate_neighborhood(1) == P("z*u1")
    assert P("u1*u2").truncate_neighborhood(1).is_zero()
    f = P("z^-3 + z*u1 + u2")
    assert f.truncate_neighborhood(1) == f


def test_formal_function_padding_and_order():
    F = FormalFunction([P("z")])
    assert F.order == 0
    G = F.pad(2)
    assert G.order == 2 and G[1].is_zero() and G[2].is_zero()
    assert F[5].is_zero()  # reads beyond the truncation are zero


def test_canonical_term_order():
    f = P("z^2*u2 + u1*u2 + z^-1 + 4 + z*u1")
    keys = [(m.i, m.s, m.l) for m, _ in f.terms()]
    assert keys == sorted(keys)
    # lex ascending on (i, s, l): u-free block, then s=1 before i=1
    assert [m for m, _ in f.terms()] == [
        Monomial(-1, 0, 0), Monomial(0, 0, 0), Monomial(2, 0, 1),
        Monomial(1, 1, 0), Monomial(0, 1, 1),
    ]


def test_render_canonical_syntax():
    assert P("3/2*z^-1*u1*u2^2").render() == "3/2*z^-1*u1*u2^2"
    assert LaurentPoly.zero().render() == "0"
    assert LaurentPoly.const(1).render() == "1"
    assert P("-z^2").render() == "-z^2"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("z**2")
    with pytest.raises(ValueError):
        parse_poly("3x")


@pytest.mark.parametrize("text", ["--z", "z - - u1", "z +", "+", "z+-u1"])
def test_parse_rejects_a_sign_with_no_term(text):
    # "--z" once parsed to -z, "z - - u1" to z - u1 and "z +" to z
    with pytest.raises(ValueError, match="no term after"):
        parse_poly(text)


def test_parse_single_signs():
    assert parse_poly("-z") == -P("z")
    assert parse_poly("+z") == P("z")
    assert parse_poly(" - z + u1 ") == P("u1") - P("z")
    assert parse_poly("z^-1 - 2") == (LaurentPoly.monomial(-1, 0, 0)
                                      - LaurentPoly.const(2))


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator in factor '1/0'"):
        parse_poly("z - 1/0*u1")


@given(laurent_polys())
def test_render_parse_round_trip(f):
    assert parse_poly(f.render()) == f


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert f + g == g + f


@given(laurent_polys(), laurent_polys(), st.sampled_from(["z", "u1", "u2"]))
def test_leibniz_rule(f, g, var):
    assert (f * g).partial(var) == f.partial(var) * g + f * g.partial(var)


@given(laurent_polys(), laurent_polys(), st.integers(min_value=0, max_value=2))
def test_truncate_is_algebra_morphism(f, g, n):
    lhs = (f * g).truncate_neighborhood(n)
    rhs = (f.truncate_neighborhood(n)
           * g.truncate_neighborhood(n)).truncate_neighborhood(n)
    assert lhs == rhs


@given(param_polys(), param_polys(), st.tuples(fractions, fractions, fractions))
def test_param_specialization_commutes(A, B, vals):
    point = dict(zip(PARAMS, vals))
    assert (A + B).evaluate(point) == A.evaluate(point) + B.evaluate(point)
    assert (A * B).evaluate(point) == A.evaluate(point) * B.evaluate(point)


@given(param_polys(), st.one_of(st.integers(min_value=-9, max_value=9),
                                fractions))
def test_param_scalar_product_matches_constant_product(A, c):
    want = A * ParamPoly.const(PARAMS, c)
    for got in (A * c, c * A):
        assert got == want
        assert all(coeff != 0 for _, coeff in got.terms())


def test_param_scalar_product_by_zero_keeps_no_terms():
    A = ParamPoly.variable(PARAMS, "p0") + 3
    for zero in (0, Fraction(0)):
        assert (A * zero).terms() == []
        assert A * zero == A * ParamPoly.const(PARAMS, zero)


@st.composite
def cancelling_param_polys(draw):
    """A ParamPoly of few terms with small signed coefficients, so that
    sums and products of two of them often cancel a term."""
    exponents = st.tuples(*[st.integers(0, 1)] * len(PARAMS))
    coeffs = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 2)])
    return ParamPoly(PARAMS, draw(st.dictionaries(exponents, coeffs,
                                                  max_size=3)))


@given(cancelling_param_polys(), cancelling_param_polys())
@example(ParamPoly.variable(PARAMS, "p0") + 1,
         ParamPoly.variable(PARAMS, "p0") - 1)
def test_param_arithmetic_keeps_no_zero_coefficient(A, B):
    # the results skip the checking constructor, so rebuild them with it
    for got in (A + B, A - B, B - A, -A, A * B, A * (-B), A + 1, 1 - A):
        terms = got.terms()
        assert all(c != 0 for _, c in terms)
        assert got == ParamPoly(PARAMS, dict(terms))


def rehomed(A):
    """A over a params tuple equal to A's but a distinct object."""
    params = tuple(list(A.params))
    assert params == A.params and params is not A.params
    return ParamPoly(params, dict(A.terms()))


@given(cancelling_param_polys(), cancelling_param_polys())
@example(ParamPoly.variable(PARAMS, "p0"), ParamPoly.variable(PARAMS, "p1"))
def test_param_arithmetic_across_equal_params_tuples(A, B):
    # an operand over a distinct but equal params tuple misses the fast
    # path and goes through _coerce: the terms are those of the fast path
    other = rehomed(B)
    for got, want in ((A + other, A + B), (A - other, A - B),
                      (A * other, A * B), (other * A, B * A),
                      (other - A, B - A)):
        assert got.params == want.params
        assert got.terms() == want.terms()


def test_param_polys_over_other_params_differ():
    # the same terms over another params tuple are another polynomial
    A = ParamPoly.variable(PARAMS, "p0") + 1
    B = ParamPoly(("q0", "q1", "q2"), dict(A.terms()))
    assert A != B and B != A
    assert A == ParamPoly(PARAMS, dict(A.terms()))


def test_param_arithmetic_rejects_other_params():
    A = ParamPoly.variable(PARAMS, "p0") + 1
    for other in (ParamPoly.variable(("p0", "p1", "q2"), "q2"),
                  ParamPoly.const(PARAMS[:2], 2)):
        for op in (lambda: A + other, lambda: A - other, lambda: A * other,
                   lambda: other + A, lambda: other - A, lambda: other * A):
            with pytest.raises(ValueError, match="parameter spaces differ"):
                op()


@given(laurent_polys(), st.integers(0, 2), st.integers(0, 3),
       st.one_of(fractions, param_polys()))
def test_direct_results_match_checked_constructor(f, d, n, c):
    # partial, truncate_neighborhood and scale skip the checks of
    # __init__, so build the same terms through it and compare
    for g in (f, f.scale(c)):
        cases = [
            (g.partial(VARS[d]),
             [(m._replace(**{m._fields[d]: m[d] - 1}), v * m[d])
              for m, v in g.terms() if m[d]]),
            (g.truncate_neighborhood(n),
             [(m, v) for m, v in g.terms() if m.degree_u() <= n]),
            (g.scale(c), [(m, c * v) for m, v in g.terms()]),
        ]
        for got, terms in cases:
            assert got == LaurentPoly(terms)
            assert all(v for _, v in got.terms())
            assert all(m.i >= 0 and m.s >= 0 for m in got.monomials())


@given(mixed_laurent_polys(), mixed_laurent_polys(), st.integers(0, 2))
@settings(max_examples=200)
# a term of higher u-degree first keeps a shorter part of g than the next
@example(P("u1 + 1"), P("1 + u2 + z"), 1)
def test_mul_truncated_is_cut_product(f, g, n):
    got = f.mul_truncated(g, n)
    assert got == (f * g).truncate_neighborhood(n)
    assert all(c for _, c in got.terms())
    assert all(m.degree_u() <= n for m in got.monomials())


@given(mixed_laurent_polys(), monomials,
       st.one_of(st.just(1), st.just(Fraction(1)),
                 st.just(ParamPoly.const(PARAMS, 1)), rationals,
                 param_polys().filter(bool)),
       st.sampled_from([None, 0, 1, 2]), st.booleans())
@example(P("2*u1 + 3/2*z"), Monomial(0, 0, 0), Fraction(1), None, True)
@example(P("u1*u2 + z + u2^2"), Monomial(1, 1, 0), 1, 2, False)
def test_product_with_a_one_term_factor_is_a_shift(f, mon, c, n, left):
    # the one-term factor on either side, with and without the cut; an
    # int 1 shares the other coefficients, any other c multiplies them,
    # so that no coefficient changes type
    one = LaurentPoly({mon: c})
    a, b = (one, f) if left else (f, one)
    got = a * b if n is None else a.mul_truncated(b, n)
    assert typed_terms(got) == typed_terms(reference_product(a, b, n))


def typed_terms(f):
    """The terms of f, a LaurentPoly or a {monomial: coefficient} dict,
    each coefficient with its type."""
    return {m: (type(v), v) for m, v in f.items()}


def reference_shifted_sum(parts, n=None):
    """The sum, part by part in order, of the term-by-term products
    (reference_product) of each P with its c z^l u1^i u2^s, cut at
    u-degree n unless n is None."""
    want = LaurentPoly.zero()
    for poly, mon, c in parts:
        want = want + LaurentPoly(
            reference_product(poly, LaurentPoly({mon: c}), n))
    return want


@st.composite
def shifted_parts(draw):
    """Parts (P, shift, c) of LaurentPoly.shifted_sum, with int, Fraction
    and ParamPoly coefficients, in P and as c; some parts repeat an
    earlier P at its shift with -c, so every term of the two cancels."""
    coeffs = st.one_of(st.just(1), st.just(Fraction(1)), rationals,
                       param_polys().filter(bool))
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        if parts and draw(st.booleans()):
            poly, mon, c = draw(st.sampled_from(parts))
            parts.append((poly, mon, -c))
        else:
            parts.append((draw(mixed_laurent_polys()), draw(monomials),
                          draw(coeffs)))
    return parts


@given(shifted_parts(), st.sampled_from([None, 0, 1, 2]))
@settings(max_examples=200)
@example([(P("z + u1"), (1, 0, 0), 2), (P("z + u1"), (1, 0, 0), -2)], None)
@example([(P("u1*u2 + z"), (0, 1, 0), 1), (P("z*u2"), (-1, 0, 0), -1)], 1)
# Fraction(1) multiplies, so an int coefficient becomes a Fraction
@example([(P("2*u1 + 3/2*z"), (1, 0, 0), Fraction(1))], None)
# a ParamPoly c scales a ParamPoly term that meets an earlier one
@example([(LaurentPoly({Monomial(0, 1, 0): ParamPoly.variable(PARAMS, "p0")}),
           (0, 0, 0), c) for c in (1, ParamPoly.variable(PARAMS, "p1"))], 1)
def test_shifted_sum_is_sum_of_shifts(parts, n):
    got = LaurentPoly.shifted_sum(parts, n)
    # the same coefficients, of the same types; no zero coefficient, as a
    # term that cancels is dropped
    assert typed_terms(got) == typed_terms(reference_shifted_sum(parts, n))
    assert all(c for _, c in got.terms())


@given(param_polys(), st.one_of(param_polys(), rationals), rationals)
def test_add_scaled_is_sum_with_scaled_operand(A, B, c):
    got = A.add_scaled(B, c)
    assert got == A + B * c
    assert all(coeff != 0 for _, coeff in got.terms())


@st.composite
def colliding_parts(draw):
    """Parts (P, shift, c) of LaurentPoly.shifted_sum at one shift, with c
    neither 0 nor 1 and ParamPoly coefficients on three monomials, so the
    parts meet on their monomials."""
    mons = st.sampled_from([Monomial(0, 0, 0), Monomial(1, 0, 0),
                            Monomial(0, 1, 0)])
    polys = st.dictionaries(mons, param_polys(), min_size=1,
                            max_size=3).map(LaurentPoly)
    shift = draw(monomials)
    return [(draw(polys), shift, draw(rationals.filter(lambda c: c != 1)))
            for _ in range(draw(st.integers(2, 4)))]


P0_PLUS_ONE = LaurentPoly(
    {Monomial(0, 0, 0): ParamPoly.variable(PARAMS, "p0") + 1})


@given(colliding_parts())
# the second part cancels the first one's terms
@example([(P0_PLUS_ONE, (0, 0, 0), 2), (P0_PLUS_ONE, (0, 0, 0), -2)])
# a Fraction and an int scale meet on one ParamPoly term
@example([(P0_PLUS_ONE, (1, 1, 0), Fraction(1, 2)),
          (P0_PLUS_ONE, (1, 1, 0), 3)])
def test_shifted_sum_scales_meeting_terms_as_it_adds_them(parts):
    got = LaurentPoly.shifted_sum(parts)
    assert typed_terms(got) == typed_terms(reference_shifted_sum(parts))
    assert all(c for _, c in got.terms())


def test_shifted_sum_drops_a_cancelled_part():
    f = P("2*z^-1*u1 + 3/2*u2 + 1")
    assert LaurentPoly.shifted_sum([(f, (1, 0, 1), 3),
                                    (f, (1, 0, 1), -3)]).is_zero()
    got = LaurentPoly.shifted_sum([(f, (0, 1, 0), 1), (f, (2, 0, 0), 1),
                                   (f, (0, 1, 0), -1)], 1)
    assert got.items() == reference_product(f, P("z^2"), 1).items()
    with pytest.raises(ValueError, match="negative fibre exponent"):
        LaurentPoly.shifted_sum([(f, (0, -1, 0), 1)])


def test_integer_coefficients_stay_ints():
    f = parse_poly("3*z*u1 - u2 + 1/2*z^-1")
    assert [type(c) for _, c in f.terms()] == [Fraction, int, int]
    assert type(LaurentPoly.var("z").coefficient(Monomial(1, 0, 0))) is int
    assert type(P("z").coefficient(Monomial(2, 0, 0))) is int
    assert ParamPoly.variable(PARAMS, "p1").terms() == [((0, 1, 0), 1)]
    assert type(ParamPoly.const(PARAMS, 4).terms()[0][1]) is int
    g = (P("z + 2*u1") ** 3 * P("z^-1 - u2")).scale(-2)
    assert all(type(c) is int for _, c in g.terms())
    # an int and a Fraction mix exactly, and render alike
    h = f + P("1/2*u2")
    assert h.coefficient(Monomial(0, 0, 1)) == Fraction(-1, 2)
    assert P("2*z").render() == LaurentPoly.monomial(1, 0, 0,
                                                     Fraction(2)).render()


WIDE = tuple(f"p{r}" for r in range(5))


@st.composite
def dense_terms(draw):
    """Exponent vectors over WIDE with small coefficients, so that sums
    and products often cancel a term and keys often need sorting."""
    exponents = st.tuples(*[st.integers(0, 2)] * len(WIDE))
    coeffs = st.one_of(st.sampled_from([-2, -1, 1, 2]), rationals)
    return draw(st.dictionaries(exponents, coeffs, max_size=4))


@given(dense_terms(), dense_terms(), rationals,
       st.tuples(*[fractions] * len(WIDE)))
@example({(0, 0, 1, 0, 0): 1}, {(1, 0, 0, 0, 2): 1, (0, 0, 0, 0, 0): -1},
         Fraction(1, 2), (Fraction(2),) * len(WIDE))
def test_param_poly_matches_dense_reference(ta, tb, c, vals):
    # the sparse monomial keys against exponent vectors, through the
    # constructor and every operation a master build uses
    A, B = ParamPoly(WIDE, ta), ParamPoly(WIDE, tb)
    RA, RB = DenseParamPoly(WIDE, ta), DenseParamPoly(WIDE, tb)
    point = dict(zip(WIDE, vals))
    for got, want in ((A, RA), (A + B, RA + RB), (A - B, RA - RB),
                      (A * B, RA * RB), (B * A, RB * RA),
                      (A * B * A, RA * RB * RA),
                      (A.add_scaled(B, c), RA.add_scaled(RB, c))):
        assert [(ev, type(v), v) for ev, v in got.terms()] == [
            (ev, type(v), v) for ev, v in want.terms()]
        assert got.render() == want.render()
        assert got.evaluate(point) == want.evaluate(point)
        assert got == ParamPoly(WIDE, dict(want.terms()))
    assert (A == B) == (RA == RB)


def test_param_poly_keys_are_sorted_variable_indices():
    p = {name: ParamPoly.variable(WIDE, name) for name in WIDE}
    assert (p["p3"] * p["p0"] * p["p3"])._terms == {(0, 3, 3): 1}
    assert ParamPoly(WIDE, {(2, 0, 1, 0, 0): 3})._terms == {(0, 0, 2): 3}
    assert ParamPoly.const(WIDE, 5)._terms == {(): 5}
    assert (p["p3"] * p["p0"] * p["p3"]).terms() == [((1, 0, 0, 2, 0), 1)]


@pytest.mark.parametrize("ev", [(-1, 0), (0.5, 0), (0, Fraction(1, 2))])
def test_param_poly_rejects_negative_and_fractional_exponents(ev):
    # neither would be a monomial key; they rendered as p0^-1 and p0^0.5
    with pytest.raises(ValueError, match="nonnegative ints"):
        ParamPoly(("p0", "p1"), {ev: 1})


def test_param_poly_render():
    p0 = ParamPoly.variable(PARAMS, "p0")
    p1 = ParamPoly.variable(PARAMS, "p1")
    assert p0.render() == "p0"
    assert (p0 * p1 + p0 * p1).render() == "2*p0*p1"
    assert (p0 - p0).render() == "0"


@st.composite
def table_entries(draw):
    """A rational, possibly 0, or a ParamPoly of degree 0 to 3."""
    if draw(st.booleans()):
        return draw(st.one_of(st.just(Fraction(0)), fractions))
    exponents = st.tuples(*[st.integers(0, 3)] * len(PARAMS)).filter(
        lambda ev: sum(ev) <= 3)
    return ParamPoly(PARAMS, draw(st.dictionaries(exponents, fractions,
                                                  max_size=4)))


points = st.tuples(*[st.one_of(st.just(Fraction(0)), fractions)]
                   * len(PARAMS))


def evaluated(entry, point):
    return (entry.evaluate(dict(zip(PARAMS, point)))
            if isinstance(entry, ParamPoly) else entry)


@given(st.lists(table_entries(), min_size=1, max_size=6),
       st.lists(st.integers(0, 5), max_size=8), points)
def test_form_table_matches_param_evaluate(distinct, repeats, point):
    # equal entries that are distinct objects, as a master's entries are,
    # one per row of a single column
    entries = distinct + [distinct[r % len(distinct)] + 0 for r in repeats]
    table = FormTable.compile([dict(enumerate(entries))])
    values = form_values(table, point)
    segment = list(table.segment(0))
    assert [r for r, _ in segment] == [r for r, e in enumerate(entries) if e]
    for r, f in segment:
        want = evaluated(entries[r], point)
        assert type(values[f]) is Fraction and values[f] == want
    for (a, fa), (b, fb) in combinations(segment, 2):
        assert (fa == fb) == (entries[a] == entries[b])


@given(st.lists(st.dictionaries(st.integers(0, 5), table_entries(),
                                max_size=4), max_size=5),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)),
                max_size=4),
       points)
def test_form_table_columns_match_param_evaluate(columns, copies, point):
    # sparse columns of rationals, zeros, constant and other ParamPolys,
    # with entries copied to other columns and rows as distinct objects
    for c, r in copies:
        if c < len(columns) and columns[c]:
            entry = next(iter(columns[c].values()))
            columns[-1 - c][r] = entry + 0
    table = FormTable.compile(columns)
    values = form_values(table, point)
    ev = Evaluation(table, point)
    assert type(ev.den) is int and ev.den > 0
    assert len(table.start) == len(columns) + 1
    for c, col in enumerate(columns):
        dense = [evaluated(col.get(r, 0), point) for r in range(6)]
        assert table.column(values, c, 6, 0) == dense
        # the integer column, read on its own, over the denominator
        assert [Fraction(v, ev.den) for v in ev.column(c, 6)] == dense
        assert sorted(r for r, _ in table.segment(c)) == sorted(
            r for r, e in col.items() if e)


@given(st.lists(st.dictionaries(st.integers(0, 5), table_entries(),
                                max_size=4), max_size=5),
       points)
def test_form_table_numbers_forms_and_monomials_in_column_order(columns,
                                                                point):
    # form ids by first use column by column, monomial ids by first use
    # form by form
    table = FormTable.compile(columns)
    seen = []
    for c in range(len(columns)):
        # equal entries of one column share a form, counted once
        for f in table.ids[table.start[c]:table.start[c + 1]]:
            if f not in seen:
                seen.append(f)
        assert seen == list(range(len(seen)))
    assert len(seen) == len(table.forms)
    used = []
    for form in table.forms:
        used += [m for m, _ in form if m not in used]
        assert used == list(range(len(used)))
    assert len(used) == len(table.monomials)
    # an evaluation holds one numerator per form from construction on,
    # and reads every column off them
    ev = Evaluation(table, point)
    assert len(ev.ints) == len(table.forms)
    for c in range(len(columns)):
        assert ev.column(c, 6) == table.column(ev.ints, c, 6, 0)


@given(st.lists(st.dictionaries(st.integers(0, 5), table_entries(),
                                max_size=4), min_size=1, max_size=5),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)),
                max_size=6))
def test_form_table_of_shared_entries_equals_that_of_copies(columns, shares):
    # entry objects put into other columns too, as a master's shared
    # terms are, against the same columns with a distinct equal copy in
    # every place
    for c, r in shares:
        c %= len(columns)
        if columns[c]:
            columns[-1 - c][r] = next(iter(columns[c].values()))
    copies = [{r: e + 0 for r, e in col.items()} for col in columns]
    assert FormTable.compile(columns) == FormTable.compile(copies)


def test_form_table_keys_a_shared_entry_once(monkeypatch):
    # a ParamPoly entry is keyed by the frozenset of its terms: once per
    # entry object, however many columns hold it, and once per copy
    made = []

    class Counted(frozenset):
        def __new__(cls, items):
            made.append(1)
            return super().__new__(cls, items)

    monkeypatch.setattr(ring, "frozenset", Counted, raising=False)
    p = ParamPoly(PARAMS, {(1, 0, 0): 2, (0, 1, 0): Fraction(1, 3)})
    shared = FormTable.compile([{0: p, 1: p}, {2: p}, {0: p}])
    assert len(made) == 1
    copied = FormTable.compile([{0: p, 1: p + 0}, {2: p + 0}, {0: p + 0}])
    assert len(made) == 5
    assert shared == copied
