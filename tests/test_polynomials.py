import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from cyclic_strata.polynomials import (
    FamilyMismatchError,
    InexactDivisionError,
    MissingAssignmentError,
    MultiIndex,
    SparsePolynomial as Poly,
    _det_bareiss,
    _vectorizable,
    det,
    exact_divide,
)

T1 = Poly.variable("t", 1)
T2 = Poly.variable("t", 2)
T3 = Poly.variable("t", 3)


def poly_strategy(family="t", nvars=3, max_exp=4, max_terms=6, coeff=st.integers(-9, 9)):
    mono = st.lists(
        st.tuples(st.integers(1, nvars), st.integers(0, max_exp)),
        max_size=nvars,
    ).map(MultiIndex)
    term = st.tuples(mono, coeff)
    return st.lists(term, max_size=max_terms).map(lambda ts: Poly(family, ts))


# -- construction and basics -------------------------------------------------


def test_multiindex_normalizes():
    m = MultiIndex([(2, 3), (1, 0), (3, 1)])
    assert m == ((2, 3), (3, 1))
    assert m.degree == 4
    with pytest.raises(ValueError):
        MultiIndex([(0, 1)])
    with pytest.raises(ValueError):
        MultiIndex([(1, -1)])


def test_zero_coefficients_dropped():
    p = Poly("t", {MultiIndex([(1, 1)]): 0})
    assert p.is_zero()
    assert (T1 - T1).is_zero()


def test_mul_examples():
    assert (T1 + T2) * (T1 - T2) == T1 * T1 - T2 * T2
    assert (T1 * Poly.zero("t")).is_zero()
    assert T1.scale(Fraction(1, 2)) + T1.scale(Fraction(1, 2)) == T1


def test_family_mismatch_is_hard_error():
    u = Poly.variable("u", 1)
    with pytest.raises(FamilyMismatchError):
        _ = T1 + u
    with pytest.raises(FamilyMismatchError):
        _ = T1 * u


def test_partial_derivative_examples():
    u1, u2 = Poly.variable("u", 1), Poly.variable("u", 2)
    p = (u2 ** 3).scale(Fraction(1, 3)) - u1
    assert p.partial_derivative(2) == u2 * u2
    assert Poly.constant("t", 5).partial_derivative(1).is_zero()
    assert (T1 * T2).partial_derivative(1) == T2


def test_evaluate_examples():
    assert (T1 ** 2 + T2).evaluate({1: 2, 2: 3}) == 7
    h2 = T1 ** 2 + T1 * T2 + T2 ** 2
    assert h2.evaluate({1: 1, 2: 1}) == 3
    with pytest.raises(MissingAssignmentError):
        T1.evaluate({2: 1})


def test_substitute_identity_and_composition():
    p = T1 ** 2 + T2
    ident = {1: Poly.variable("T", 1), 2: Poly.variable("T", 2)}
    q = p.substitute(ident)
    assert q.family == "T"
    assert q.terms == p.terms


def test_canonical_str():
    u1, u2 = Poly.variable("u", 1), Poly.variable("u", 2)
    p = (u2 ** 3).scale(Fraction(1, 3)) - u1
    assert p.canonical_str() == "1/3*u2^3 - u1"
    assert Poly.zero("t").canonical_str() == "0"
    assert (T1 ** 2 * T2 + T1 * T2 ** 2).canonical_str() == "t1^2*t2 + t1*t2^2"
    assert (-T1 + Poly.constant("t", 2)).canonical_str() == "-t1 + 2"


def test_immutability():
    with pytest.raises(AttributeError):
        T1.family = "u"
    with pytest.raises(TypeError):
        T1.terms[MultiIndex([(1, 1)])] = 2


def test_exponent_cap_raises():
    assert Poly.variable("t", 2, 511) == Poly("t", {MultiIndex([(2, 511)]): 1})
    with pytest.raises(OverflowError):
        Poly.variable("t", 2, 512)
    with pytest.raises(OverflowError):
        Poly("t", {MultiIndex([(1, 1), (7, 512)]): 3})
    with pytest.raises(OverflowError):
        _ = Poly.variable("t", 2, 511) * T2
    with pytest.raises(OverflowError):
        _ = (T1 * T3) ** 512
    # the same overflow inside a product large enough for numpy
    a = _random_poly(random.Random(3), 300, 6, 7, -9, 9) + Poly.variable("t", 6, 300)
    b = _random_poly(random.Random(4), 200, 6, 7, -9, 9) + Poly.variable("t", 6, 212)
    assert _vectorizable(a._terms, b._terms)
    with pytest.raises(OverflowError):
        _ = a * b


# -- determinants --------------------------------------------------------------


def test_det_examples():
    one, zero = Poly.one("t"), Poly.zero("t")
    assert det([[one, zero], [zero, one]]) == one
    a, b, c, d = T1, T2, T3, T1 * T2
    assert det([[a, b], [c, d]]) == a * d - b * c
    assert det([[a, b], [a, b]]).is_zero()


def test_det_multilinear_in_rows():
    rows = [[T1, T2], [T2, T3]]
    scaled = [[T1.scale(3), T2.scale(3)], rows[1]]
    assert det(scaled) == det(rows).scale(3)


def test_bareiss_matches_cofactor():
    rng = random.Random(11)

    def entry():
        terms = {}
        for _ in range(rng.randint(0, 2)):
            mono = MultiIndex([(rng.randint(1, 2), rng.randint(0, 2))])
            terms[mono] = terms.get(mono, 0) + rng.randint(-3, 3)
        return Poly("t", terms)

    for _ in range(5):
        m7 = [[entry() for _ in range(7)] for _ in range(7)]
        # Laplace against the 6x6 cofactor path along the first row.
        expansion = Poly.zero("t")
        for j in range(7):
            minor = [row[:j] + row[j + 1:] for row in m7[1:]]
            piece = m7[0][j] * det(minor)
            expansion = expansion + piece if j % 2 == 0 else expansion - piece
        assert det(m7) == expansion


def _leibniz(matrix):
    total = Fraction(0)
    for perm in permutations(range(len(matrix))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def test_integer_bareiss_matches_leibniz():
    rng = random.Random(37)

    def entry():
        roll = rng.random()
        if roll < 0.25:
            return 0
        if roll < 0.6:
            return rng.randint(-6, 6)
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))

    for trial in range(60):
        n = rng.randint(1, 6)
        m = [[entry() for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0 and n > 1:
            # zero leading pivots: the first columns vanish on the diagonal rows
            for i in range(n - 1):
                m[i][i] = 0
            m[0][0], m[n - 1][0] = 0, Fraction(5, 7)
        if trial % 5 == 0 and n > 1:
            m[-1] = [x * 3 for x in m[0]]  # singular
        got = _det_bareiss(m)
        assert type(got) is Fraction
        assert got == _leibniz(m), m
    assert _det_bareiss([]) == 1 and type(_det_bareiss([])) is Fraction
    assert type(_det_bareiss([[4]])) is Fraction
    assert _det_bareiss([[0, 1], [1, 0]]) == -1
    assert _det_bareiss([[0, 1], [0, 2]]) == 0


# -- property tests -------------------------------------------------------------


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(poly_strategy(), poly_strategy())
def test_product_rule(p, q):
    lhs = (p * q).partial_derivative(1)
    rhs = p.partial_derivative(1) * q + p * q.partial_derivative(1)
    assert lhs == rhs


@settings(max_examples=40)
@given(poly_strategy(max_exp=3), poly_strategy(max_exp=3))
def test_exact_division_roundtrip(p, q):
    if q.is_zero():
        return
    prod = p * q
    assert exact_divide(prod, q) == p
    assert prod / q == p


@settings(max_examples=30)
@given(poly_strategy(nvars=2, max_exp=3))
def test_evaluate_commutes_with_substitute(p):
    images = {
        1: Poly.variable("T", 1) + Poly.one("T"),
        2: Poly.variable("T", 1) * Poly.variable("T", 2),
    }
    point = {1: Fraction(2, 3), 2: Fraction(-5, 7)}
    direct = p.substitute(images).evaluate(point) if not p.is_zero() else Fraction(0)
    composed = p.evaluate({v: images[v].evaluate(point) for v in (1, 2)})
    assert direct == composed


def test_inexact_division_raises():
    t8 = Poly.variable("t", 8)
    for p, q in [
        # the divisor's lead lies in a field above every dividend key
        (T1 + Poly.one("t"), T2),
        (T1 ** 3 + T2, t8),
        (t8 * T1, t8 * T2 + T3),
        # the quotient would need t1^800, past the dividend's t1^300
        (T2 * T1 ** 300, T2 + T1 ** 500),
        (T1 * T2 + Poly.one("t"), T1 + T2),
        # a Vandermonde factor, as the bialternant divides by
        (T1 ** 2 + T2, T1 - T2),
    ]:
        with pytest.raises(InexactDivisionError):
            exact_divide(p, q)


# -- large products and divisions against a tuple-monomial oracle ---------------


def _random_poly(rng, n, nvars, max_exp, lo, hi, family="t"):
    terms = {}
    for _ in range(n):
        mono = MultiIndex((v, rng.randint(0, max_exp)) for v in range(1, nvars + 1))
        terms[mono] = rng.randint(lo, hi)
    return Poly(family, terms)


def _oracle_product(p, q):
    """p * q by the schoolbook double loop over (variable, exponent) tuples."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def test_large_products_match_tuple_oracle():
    rng = random.Random(17)
    cases = [
        # at most 6 variables and int coefficients: numpy
        (_random_poly(rng, 400, 6, 7, -50, 50), _random_poly(rng, 300, 6, 7, -50, 50), True),
        (_random_poly(rng, 250, 3, 40, -10**6, 10**6), _random_poly(rng, 120, 3, 40, -9, 9), True),
        # 8 variables: dict
        (_random_poly(rng, 220, 8, 5, -50, 50), _random_poly(rng, 150, 8, 5, -50, 50), False),
        # Fraction coefficients: dict
        (_random_poly(rng, 220, 6, 5, -50, 50).scale(Fraction(1, 3)),
         _random_poly(rng, 150, 6, 5, -50, 50), False),
        # coefficients too large for int64 sums: dict
        (_random_poly(rng, 200, 4, 5, -2**40, 2**40), _random_poly(rng, 150, 4, 5, -2**40, 2**40),
         False),
    ]
    for a, b, vectorized in cases:
        assert len(a) * len(b) >= 25_000
        assert (_vectorizable(a._terms, b._terms) is not None) == vectorized
        assert dict((a * b).terms) == _oracle_product(a, b)


def test_packed_product_under_25k_term_pairs():
    rng = random.Random(23)
    a = _random_poly(rng, 90, 5, 6, -30, 30)
    b = _random_poly(rng, 80, 5, 6, -30, 30)
    assert 5_000 <= len(a) * len(b) < 25_000
    assert _vectorizable(a._terms, b._terms) is not None
    assert dict((a * b).terms) == _oracle_product(a, b)
    small = _random_poly(rng, 10, 5, 6, -30, 30)
    assert len(small) * len(b) < 1_500
    assert _vectorizable(small._terms, b._terms) is None


def test_packed_product_cancels_mixed_signs():
    # (sum of t1^i t2^j, i, j < 50) * (1 - t1) telescopes to 100 terms, and
    # the alternating grid times t1 - t2 keeps only its border
    a = Poly("t", {MultiIndex([(1, i), (2, j)]): 1 for i in range(50) for j in range(50)})
    b = Poly.one("t") - T1
    c = Poly("t", {MultiIndex([(1, i), (2, j)]): (-1) ** (i + j) for i in range(50)
                   for j in range(50)})
    for p, q, size in [(a, b, 100), (c, T1 - T2, 198)]:
        assert _vectorizable(p._terms, q._terms) is not None
        product = p * q
        assert dict(product.terms) == _oracle_product(p, q)
        assert len(product) == size


def test_packed_product_coefficient_bound():
    # Both factors reach t1^49 t2^49: radii 99 and 99, so the index takes 14
    # bits and the coefficient field 48, and 2*max|c1|*max|c2| < 2^48 must hold.
    rng = random.Random(29)
    corner = MultiIndex([(1, 49), (2, 49)])
    grid = {MultiIndex([(1, i), (2, j)]): rng.randint(-9, 9) for i in range(50) for j in range(50)}
    sparse = {MultiIndex([(1, rng.randint(0, 49)), (2, rng.randint(0, 49))]): rng.choice([-1, 1])
              for _ in range(9)}
    for c1, c2, packed in [
        (2351 * 4513, -13264529, True),  # product 2^47 - 1
        (-(2 ** 23), 2 ** 24, False),  # product 2^47
    ]:
        a = Poly("t", {**grid, corner: c1})
        b = Poly("t", {**sparse, corner: c2})
        assert (_vectorizable(a._terms, b._terms) is not None) == packed
        assert dict((a * b).terms) == _oracle_product(a, b)


def test_packed_product_with_wide_exponents():
    # t6^300 * t6^200 widens the t6 radius from 11 to 501, which narrows the
    # coefficient field from 41 to 35 bits.
    rng = random.Random(31)
    a = _random_poly(rng, 120, 6, 5, -10**4, 10**4) + Poly.variable("t", 6, 300)
    b = _random_poly(rng, 60, 6, 5, -10**4, 10**4) + Poly.variable("t", 6, 200).scale(-7)
    assert _vectorizable(a._terms, b._terms) is not None
    product = a * b
    assert dict(product.terms) == _oracle_product(a, b)
    assert product.terms[MultiIndex([(6, 500)])] == -7


def test_exact_division_roundtrip_in_eight_variables():
    rng = random.Random(5)
    for _ in range(10):
        a = _random_poly(rng, rng.randint(1, 40), 8, 4, -9, 9)
        b = _random_poly(rng, rng.randint(1, 40), 8, 4, -9, 9)
        if b.is_zero():
            continue
        prod = a * b
        assert dict(prod.terms) == _oracle_product(a, b)
        assert exact_divide(prod, b) == a
        assert exact_divide(prod.scale(Fraction(2, 7)), b.scale(3)) == a.scale(Fraction(2, 21))
