"""Bivector catalog, brackets, star products, defect checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncbundles import (
    FormalFunction,
    LaurentPoly,
    Monomial,
    ParamPoly,
    associator_defect,
    catalog,
    engine,
    generator,
    is_extremal,
    is_extremal_literal,
    jacobi_defect,
    parse_poly,
    parse_sigma_spec,
)

from ncbundles.poisson import pairing_shifts

from conftest import (
    CATALOG_SIGMAS,
    fractions,
    laurent_polys,
    mixed_laurent_polys,
    monomials,
)

P = parse_poly


def test_catalog_sizes():
    assert len(catalog(1)) == 4
    assert len(catalog(2)) == 5
    with pytest.raises(ValueError):
        catalog(3)


def test_catalog_w1_bracket_table():
    s1, s2, s3, s4 = catalog(1)
    z, u1, u2 = P("z"), P("u1"), P("u2")
    assert s1.bracket(z, u1) == P("1") and s1.bracket(z, u2).is_zero()
    assert s2.bracket(z, u2) == P("1") and s2.bracket(z, u1).is_zero()
    # sigma3 = u1 du1^du2 - z dz^du2
    assert s3.bracket(u1, u2) == u1
    assert s3.bracket(z, u2) == -z
    assert s3.bracket(z, u1).is_zero()
    # sigma4 = u2 du1^du2 + z dz^du1
    assert s4.bracket(u1, u2) == u2
    assert s4.bracket(z, u1) == z
    assert s4.bracket(z, u2).is_zero()


def test_catalog_w2_bracket_table():
    s1, s2, s3, s4, s5 = catalog(2)
    z, u1, u2 = P("z"), P("u1"), P("u2")
    assert s1.bracket(z, u1) == P("1")
    assert s2.bracket(z, u2) == P("1")
    assert s3.bracket(z, u2) == z and s3.bracket(z, u1).is_zero()
    assert s4.bracket(u1, u2) == u1 and s4.bracket(z, u1).is_zero()
    # sigma5 = 2z*u1 du1^du2 - z^2 dz^du2
    assert s5.bracket(u1, u2) == P("2*z*u1")
    assert s5.bracket(z, u2) == P("-z^2")


def test_bracket_spec_examples():
    s1 = generator(1, 1)
    assert s1.bracket(P("z^2"), P("u1")) == P("2*z")
    g = P("z*u1 + u2 + 3*z^2*u1*u2")
    j = 3
    got = s1.bracket(P("z^3"), g)
    assert got == P("3*z^2") * g.partial("u1")


def test_parse_sigma_spec_grammar():
    assert parse_sigma_spec("gen2", 1).describe()["generator"] == 2
    multi = parse_sigma_spec("u1*gen1", 1)
    assert multi.describe()["multiplier"] == "u1"
    sq = parse_sigma_spec("u1^2*gen4", 2)
    assert sq.describe()["multiplier"] == "u1^2"
    with pytest.raises(ValueError):
        parse_sigma_spec("gen9", 1)
    with pytest.raises(ValueError):
        parse_sigma_spec("gen1", 3)
    with pytest.raises(ValueError):
        parse_sigma_spec("z^-1*gen1", 1)  # multiplier must be global
    with pytest.raises(ValueError):
        parse_sigma_spec("z*u2*gen1", 2)  # z*u2 is not global on W_2


def test_multiplied_bracket_scales():
    base = generator(1, 1)
    multi = parse_sigma_spec("u1*gen1", 1)
    f, g = P("z^2 + u2"), P("z*u1")
    assert multi.bracket(f, g) == P("u1") * base.bracket(f, g)


def test_star_first_order():
    s1 = generator(1, 1)
    F = FormalFunction([P("z"), LaurentPoly.zero()])
    G = FormalFunction([P("u1"), LaurentPoly.zero()])
    H = s1.star(F, G, 1)
    assert H[0] == P("z*u1")
    assert H[1] == P("1")


def test_star_extremal_dead_bracket():
    sig = parse_sigma_spec("u1*gen1", 1)
    F = FormalFunction([P("z")])
    G = FormalFunction([P("u2")])
    H = sig.star(F.pad(1), G.pad(1), 1)
    assert H[0] == P("z*u2") and H[1].is_zero()


def test_star_with_self_classical():
    s2 = generator(1, 2)
    F = FormalFunction([P("z + u2"), LaurentPoly.zero()])
    H = s2.star(F, F, 1)
    assert H[0] == P("z + u2") * P("z + u2")
    assert H[1].is_zero()


series = st.lists(mixed_laurent_polys(), min_size=1, max_size=2).map(
    FormalFunction)


@given(st.sampled_from(CATALOG_SIGMAS), series, series)
def test_star_with_given_pieces_is_the_star(sigma, F, G):
    # the pieces of F[0] from the caller are paired as bracket pairs them
    pieces = sigma.bracket_pieces(F[0])
    assert sigma.star(F, G, 1, pieces=pieces) == sigma.star(F, G, 1)


def all_sigmas():
    rng = random.Random(23)
    sigmas = []
    for k in (1, 2):
        sigmas.extend(catalog(k))
        mons = [P("u1"), P("u2"), P("1 + u1")] if k == 1 else \
            [P("u1"), P("z*u1"), P("u2 + u1")]
        for m in mons:
            sigmas.append(catalog(k)[rng.randrange(len(catalog(k)))]
                          .multiply(m))
    return sigmas


@pytest.mark.parametrize("sigma", all_sigmas(),
                         ids=lambda s: f"k{s.k}-{s.cache_key()}")
def test_structural_defects_vanish(sigma):
    rng = random.Random(41)
    for _ in range(6):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert jacobi_defect(sigma, f, g, h).is_zero()
        assert (sigma.bracket(f, g) + sigma.bracket(g, f)).is_zero()
        lhs = sigma.bracket(f, g * h)
        assert lhs == sigma.bracket(f, g) * h + g * sigma.bracket(f, h)
        F = FormalFunction([f, random_poly(rng)])
        G = FormalFunction([g, random_poly(rng)])
        H = FormalFunction([h, random_poly(rng)])
        assert associator_defect(sigma, F, G, H, 1).is_zero()


PARAMS = ("p0", "p1")


@st.composite
def param_laurent_polys(draw):
    """Laurent polynomials with Fraction or ParamPoly coefficients."""
    terms = {}
    for mon, c in draw(st.dictionaries(monomials, fractions,
                                       max_size=4)).items():
        name = draw(st.sampled_from((None,) + PARAMS))
        terms[mon] = (c if name is None
                      else ParamPoly.variable(PARAMS, name) * c
                      + draw(fractions))
    return LaurentPoly(terms)


@given(st.sampled_from(all_sigmas()), param_laurent_polys(),
       st.builds(Monomial, st.integers(min_value=-6, max_value=3),
                 st.integers(min_value=0, max_value=2),
                 st.integers(min_value=0, max_value=2)))
def test_bracket_pieces_give_monomial_brackets(sigma, f, w):
    pieces = sigma.bracket_pieces(f)
    assert all(not p.is_zero() for p in pieces.values())
    assert (sigma.bracket(f, LaurentPoly.monomial(*w))
            == LaurentPoly.shifted_sum(pairing_shifts(pieces, w)))


def random_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mon = Monomial(rng.randint(-3, 3), rng.randint(0, 2),
                       rng.randint(0, 2))
        terms[mon] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return LaurentPoly(terms)


@given(laurent_polys(), laurent_polys(),
       st.integers(min_value=0, max_value=8))
def test_bracket_bilinear(f, g, n):
    s3 = generator(1, 3)
    c = Fraction(n - 4, 3)
    assert s3.bracket(f.scale(c), g) == s3.bracket(f, g).scale(c)
    assert s3.bracket(f, g) == -s3.bracket(g, f)


def test_unit_is_central():
    one = FormalFunction([LaurentPoly.const(1), LaurentPoly.zero()])
    for sigma in catalog(1) + catalog(2):
        F = FormalFunction([P("z^2*u1 + u2"), P("z^-1")])
        assert sigma.star(one, F, 1) == F
        assert sigma.star(F, one, 1) == F


def test_extremality_operational_vs_literal():
    u1s1 = parse_sigma_spec("u1*gen1", 1)
    assert is_extremal(u1s1, 2)
    assert not is_extremal_literal(u1s1)   # {z, u1} = u1 is not u-quadratic

    u1s4 = parse_sigma_spec("u1*gen4", 2)
    assert is_extremal(u1s4, 2)
    assert is_extremal_literal(u1s4)

    s1 = parse_sigma_spec("gen1", 1)
    assert not is_extremal(s1, 2)
    assert not is_extremal_literal(s1)


def test_describe_serialization():
    d = parse_sigma_spec("u1*gen1", 1).describe()
    assert d["k"] == 1 and d["generator"] == 1 and d["multiplier"] == "u1"
    d4 = generator(2, 4).describe()
    assert d4["multiplier"] is None


def test_multiply_rejects_nonglobal():
    with pytest.raises(ValueError):
        generator(1, 1).multiply(P("z^-1"))
    with pytest.raises(ValueError):
        generator(2, 2).multiply(P("z*u2"))


def test_cache_key_is_the_rendered_terms():
    sigmas = catalog(1) + catalog(2) + [parse_sigma_spec("u1*gen1", 1),
                                        parse_sigma_spec("u1*gen4", 2)]
    assert [s.cache_key() for s in sigmas] == [
        "k=1|1@z^u1", "k=1|1@z^u2", "k=1|u1@u1^u2|-z@z^u2",
        "k=1|u2@u1^u2|z@z^u1", "k=2|1@z^u1", "k=2|1@z^u2", "k=2|z@z^u2",
        "k=2|u1@u1^u2", "k=2|2*z*u1@u1^u2|-z^2@z^u2", "k=1|u1@z^u1",
        "k=2|u1^2@u1^u2"]


def test_warm_cached_lookup_renders_nothing(monkeypatch):
    sigma = parse_sigma_spec("u1*gen1", 1)
    engine.cached(engine._build_master, 1, 2, sigma, "derived")
    calls = []
    real = LaurentPoly.render

    def render(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(LaurentPoly, "render", render)
    engine.cached(engine._build_master, 1, 2, sigma, "derived")
    assert calls == []
