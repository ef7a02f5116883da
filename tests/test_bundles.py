"""Extension bases, canonical matrices, right inverse, normalization."""

import random
from fractions import Fraction

import pytest

from ncbundles import (
    FormalFunction,
    LaurentPoly,
    Matrix2,
    Monomial,
    canonical_right_inverse,
    catalog,
    extension_basis,
    generator,
    normalize_line_bundle,
    parse_poly,
    parse_sigma_spec,
    star_matrix_mul,
    transition_matrix,
)
from ncbundles.poisson import Bivector

from conftest import CATALOG_SIGMAS

P = parse_poly


def test_extension_basis_frozen_k1():
    assert extension_basis(1, 2) == [
        Monomial(1, 1, 0), Monomial(0, 1, 0),
        Monomial(1, 0, 1), Monomial(0, 0, 1),
    ]


def test_extension_basis_frozen_k2():
    assert extension_basis(2, 2) == [
        Monomial(1, 1, 0),
        Monomial(1, 0, 1), Monomial(0, 0, 1), Monomial(-1, 0, 1),
    ]


def test_extension_basis_ranges():
    assert extension_basis(1, 1) == []
    assert extension_basis(2, 1) == [Monomial(0, 0, 1)]
    for k in (1, 2):
        for j in (2, 3, 4, 5):
            basis = extension_basis(k, j)
            assert len(basis) == 4 * j - 4
            for m in basis:
                assert m.i + m.s == 1
                lo = k * m.i + (2 - k) * m.s - j + 1
                assert lo <= m.l <= j - 1
    with pytest.raises(ValueError):
        extension_basis(3, 2)


def test_extension_basis_epsilon_halves():
    for k in (1, 2):
        full = extension_basis(k, 3)
        e0 = extension_basis(k, 3, epsilon=0)
        e1 = extension_basis(k, 3, epsilon=1)
        assert all(m.i >= 1 for m in e0)
        assert all(m.s >= 1 for m in e1)
        assert sorted(e0 + e1) == sorted(full)


def test_transition_matrix_shape():
    p = P("z*u1")
    T = transition_matrix(2, p)
    assert T.entry(0, 0) == FormalFunction([P("z^2")]).pad(1)
    assert T.entry(0, 1)[0] == p and T.entry(0, 1)[1].is_zero()
    assert T.entry(1, 0).is_zero()
    assert T.entry(1, 1)[0] == P("z^-2")
    # hbar content goes to the (1,2) entry only
    Tq = transition_matrix(2, p, P("u2"))
    assert Tq.entry(0, 1)[1] == P("u2")
    assert Tq.entry(0, 0)[1].is_zero()


def test_transition_matrix_j1():
    T = transition_matrix(1, LaurentPoly.zero())
    assert T.entry(0, 1).is_zero()
    assert T.entry(0, 0)[0] == P("z")


def random_u_linear(rng, j, k):
    terms = {}
    for m in extension_basis(k, j):
        if rng.random() < 0.6:
            terms[m] = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
    return LaurentPoly(terms)


def test_right_inverse_two_sided():
    rng = random.Random(5)
    for k in (1, 2):
        for sigma in catalog(k):
            for j in (1, 2, 3):
                q0 = random_u_linear(rng, max(j, 2), k)
                q1 = random_u_linear(rng, max(j, 2), k)
                T = transition_matrix(j, q0, q1)
                R = canonical_right_inverse(sigma, j, FormalFunction([q0, q1]))
                left = star_matrix_mul(sigma, T, R, 1)
                right = star_matrix_mul(sigma, R, T, 1)
                assert (left - Matrix2.identity(1)).is_zero()
                assert (right - Matrix2.identity(1)).is_zero()


def test_right_inverse_correction_term():
    # frozen correction: q = z*u1, sigma_1 on W_1, j = 2
    sigma = generator(1, 1)
    R = canonical_right_inverse(sigma, 2, FormalFunction([P("z*u1")]))
    upper = R.entry(0, 1)
    assert upper[0] == P("-z*u1")
    assert upper[1] == P("4")   # 2*z^-2*{z^2, z*u1} = 2*z^-2*2z^2


def test_right_inverse_extremal_correction_vanishes():
    sig = parse_sigma_spec("u1*gen4", 2)
    q = P("z*u1")
    R = canonical_right_inverse(sig, 3, FormalFunction([q]))
    assert R.entry(0, 1)[1].is_zero()


def test_star_matrix_mul_associative_mod_h2():
    rng = random.Random(9)
    sigma = generator(1, 4)

    def rand_entry():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[Monomial(rng.randint(-2, 2), rng.randint(0, 1),
                           rng.randint(0, 1))] = Fraction(rng.randint(-5, 5))
        return FormalFunction([LaurentPoly(terms),
                               LaurentPoly(terms).scale(Fraction(1, 2))])

    for _ in range(5):
        A = Matrix2([[rand_entry() for _ in range(2)] for _ in range(2)])
        B = Matrix2([[rand_entry() for _ in range(2)] for _ in range(2)])
        C = Matrix2([[rand_entry() for _ in range(2)] for _ in range(2)])
        lhs = star_matrix_mul(sigma, star_matrix_mul(sigma, A, B, 1), C, 1)
        rhs = star_matrix_mul(sigma, A, star_matrix_mul(sigma, B, C, 1), 1)
        assert (lhs - rhs).is_zero()


def test_normalize_frozen_example():
    sigma = generator(1, 1)
    res = normalize_line_bundle(sigma, FormalFunction([P("z^-1"), P("z")]))
    assert res.j == 1 and res.unit == 1
    assert res.a[1] == P("-z^2")
    assert res.alpha[1].is_zero()
    assert res.residuals == [LaurentPoly.zero()]
    assert res.normalized
    assert res.product == FormalFunction([P("z^-1")]).pad(1)


def test_normalize_identity_input():
    sigma = generator(2, 4)
    res = normalize_line_bundle(sigma, FormalFunction([P("z^-3")]).pad(2))
    assert res.a == FormalFunction([P("1")]).pad(2)
    assert res.alpha == FormalFunction([P("1")]).pad(2)
    assert res.normalized


def test_normalize_k3_obstruction():
    sigma = Bivector(3, [(LaurentPoly.const(1), ("z", "u1"))])
    f = FormalFunction([P("z^-1"), P("z^-2*u2^2")])
    res = normalize_line_bundle(sigma, f)
    assert res.residuals[0] == P("z^-1*u2^2")
    assert not res.normalized


def test_normalize_rejects_bad_classical():
    sigma = generator(1, 1)
    for bad in ("z^-1 + u1", "z", "0"):
        with pytest.raises(ValueError):
            normalize_line_bundle(sigma, FormalFunction([P(bad), P("z")]))


def test_normalize_s1_equals_first_perturbation():
    rng = random.Random(17)
    sigma = generator(1, 2)
    for _ in range(5):
        f1 = LaurentPoly({Monomial(rng.randint(0, 3), rng.randint(0, 1),
                                   rng.randint(0, 1)):
                          Fraction(rng.randint(-5, 5), rng.randint(1, 3))})
        f = FormalFunction([P("z^-2"), f1])
        res = normalize_line_bundle(sigma, f)
        assert res.s_terms[0] == f1


def test_normalize_s2_closed_form():
    # S_2 = f_2 + alpha_1 f_1 + a_1 f_1 + {alpha_1, z^-j}
    #       + {z^-j, a_1} + alpha_1 z^-j a_1
    rng = random.Random(29)
    for k, sigma in ((1, generator(1, 1)), (2, generator(2, 3))):
        for _ in range(4):
            j = rng.randint(1, 3)
            zmj = LaurentPoly.monomial(-j, 0, 0)
            f1 = random_u_linear(rng, 2, k) + P("z^2 + z")
            f2 = random_u_linear(rng, 2, k)
            f = FormalFunction([zmj, f1, f2])
            res = normalize_line_bundle(sigma, f)
            a1 = res.a[1]
            al1 = res.alpha[1]
            s2 = (f2 + al1 * f1 + a1 * f1
                  + sigma.bracket(al1, zmj) + sigma.bracket(zmj, a1)
                  + al1 * zmj * a1)
            assert res.s_terms[1] == s2


def test_normalize_recursion_identity():
    # z^j S_n + unit * (a_n + alpha_n) = 0 at every solved order
    rng = random.Random(31)
    sigma = generator(2, 1)
    zj = P("z^2")
    f = FormalFunction([P("3/2*z^-2"), random_u_linear(rng, 3, 2),
                        P("z*u1"), P("u2")])
    res = normalize_line_bundle(sigma, f)
    for n in (1, 2, 3):
        combo = zj * res.s_terms[n - 1] \
            + (res.a[n] + res.alpha[n]).scale(res.unit)
        assert combo.is_zero()


def test_star_matrix_mul_with_pieces_is_the_product():
    # the pieces of A's classical entries from the caller give the
    # product without them, for T * R and R * T of every catalog sigma
    rng = random.Random(13)
    for sigma in CATALOG_SIGMAS:
        for j in (2, 3):
            q = FormalFunction([random_u_linear(rng, j, sigma.k),
                                random_u_linear(rng, j, sigma.k)])
            T = transition_matrix(j, q)
            R = canonical_right_inverse(sigma, j, q)
            for A, B in ((T, R), (R, T)):
                pieces = [[sigma.bracket_pieces(A.entry(i, m)[0])
                           for m in range(2)] for i in range(2)]
                got = star_matrix_mul(sigma, A, B, 1, pieces)
                want = star_matrix_mul(sigma, A, B, 1)
                assert all(got.entry(i, c) == want.entry(i, c)
                           for i in range(2) for c in range(2))
