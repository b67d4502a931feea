import operator
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclic_strata import polynomials
from cyclic_strata.polynomials import (
    FamilyMismatchError,
    InexactDivisionError,
    MissingAssignmentError,
    MultiIndex,
    SparsePolynomial as Poly,
    _det_bareiss,
    _dominant_keys,
    _encode,
    _expand_dominant,
    _sum_at,
    _sum_of_products,
    _symmetric_sum_of_products,
    _targeted_layout,
    _vectorizable,
    det,
    exact_divide,
)
from cyclic_strata.schur import jacobi_trudi_value, schur_bialternant, schur_jacobi_trudi
from cyclic_strata.semigroup import CurveSignature, young_diagram

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


def test_number_operands():
    p = T1 + 2
    assert p + 1 == 1 + p == T1 + 3
    assert p - 1 == T1 + 1 and 1 - p == -T1 - 1
    assert p - Fraction(1, 2) == T1 + Fraction(3, 2)
    assert 2 * p == p * 2 == T1.scale(2) + 4
    assert p * Fraction(1, 2) == T1.scale(Fraction(1, 2)) + 1
    assert Poly.one("t") == 1 and not p == 1 and Poly.zero("t") == 0
    assert p.scale(0) == Poly.zero("t") and p.scale(0).family == "t"
    assert repr(p) == "SparsePolynomial('t', 't1 + 2')"


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_foreign_operands_are_not_implemented(op):
    with pytest.raises(TypeError):
        op(T1, "t1")
    assert T1 != "t1"


@pytest.mark.parametrize("call, error, message", [
    (lambda: Poly("", {}), ValueError, "family tag must be non-empty"),
    (lambda: Poly.variable("t", 0), ValueError, "index must be >= 1, got 0"),
    (lambda: Poly.variable("t", 1, -1), ValueError, "exponent must be >= 0, got -1"),
    (lambda: (T1 + 1).constant_value(), ValueError, "not constant"),
    (lambda: T1 ** -1, ValueError, "non-negative integers"),
    (lambda: (T1 * T2).substitute({1: T1}), MissingAssignmentError, r"variables \[2\]"),
    (lambda: (T1 * T2).substitute({1: T1, 2: Poly.variable("u", 1)}), FamilyMismatchError,
     "span families"),
    (lambda: (T1 + T2).rename_variables({1: 1, 2: 1}, "u"), ValueError, "not injective"),
    (lambda: det([]), ValueError, "empty matrix"),
    (lambda: det([[T1, T2]]), ValueError, "not square"),
    (lambda: det([[T1, T2], [T3, Poly.variable("u", 1)]]), FamilyMismatchError,
     "multiple families"),
], ids=["empty_family", "variable_index_0", "negative_exponent", "constant_value",
        "negative_power", "substitute_missing", "substitute_mixed_families",
        "rename_not_injective", "det_empty", "det_not_square", "det_mixed_families"])
def test_documented_input_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


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


def test_substitute_repeated_variables_into_integer_images():
    p = (T1 ** 3 * T2 ** 2).scale(Fraction(3, 2)) - T1.scale(Fraction(1, 3))
    U1, U2 = Poly.variable("U", 1), Poly.variable("U", 2)
    got = p.substitute({1: U1 + 1, 2: U2.scale(2)})
    # 3/2 (U1 + 1)^3 (2 U2)^2 - 1/3 (U1 + 1)
    assert got == Poly("U", [
        (MultiIndex([(1, 3), (2, 2)]), 6),
        (MultiIndex([(1, 2), (2, 2)]), 18),
        (MultiIndex([(1, 1), (2, 2)]), 18),
        (MultiIndex([(2, 2)]), 6),
        (MultiIndex([(1, 1)]), Fraction(-1, 3)),
        (MultiIndex([]), Fraction(-1, 3)),
    ])


def test_powers_are_repeated_products():
    p = T1.scale(Fraction(1, 2)) - (T2 * T3).scale(Fraction(2, 3)) + 3
    assert p ** 5 == p * p * p * p * p
    assert p ** 1 == p
    assert (Poly.variable("u", 1) + 1) ** 0 == Poly.one("u")  # == compares families
    assert (T1 * T3) ** 511 == Poly("t", {MultiIndex([(1, 511), (3, 511)]): 1})


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
    assert _vectorizable([(1, a._terms, b._terms)])
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


def test_det_matches_leibniz(monkeypatch):
    layouts = []  # every layout det's sums chose; None is the dict loop
    vectorizable = polynomials._vectorizable

    def recording(pieces):
        layouts.append(vectorizable(pieces))
        return layouts[-1]

    monkeypatch.setattr(polynomials, "_vectorizable", recording)
    rng = random.Random(41)

    def entry(size, fractions):
        roll = rng.random()
        if roll < 0.2:
            return Poly.zero("t")
        p = _random_poly(rng, rng.randint(1, size), 3, 2, -9, 9)
        if fractions and roll < 0.45:
            return p.scale(Fraction(rng.randint(-7, 7) or 1, rng.randint(2, 9)))
        return p

    for n, size, fractions, trials in [(3, 4, True, 12), (4, 3, True, 4), (3, 25, False, 2),
                                       (4, 25, False, 1), (4, 25, True, 1)]:
        for _ in range(trials):
            m = [[entry(size, fractions) for _ in range(n)] for _ in range(n)]
            assert dict(det(m).terms) == _leibniz_oracle(m)
    assert any(layout is not None for layout in layouts)
    assert any(layout is None for layout in layouts)


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
        return 0 if rng.random() < 0.25 else rng.randint(-20, 20)

    for trial in range(60):
        n = rng.randint(1, 6)
        m = [[entry() for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0 and n > 1:
            # zero leading pivots: the first columns vanish on the diagonal rows
            for i in range(n - 1):
                m[i][i] = 0
            m[0][0], m[n - 1][0] = 0, 5
        if trial % 5 == 0 and n > 1:
            m[-1] = [x * 3 for x in m[0]]  # singular
        got = _det_bareiss(m)
        assert type(got) is int
        assert got == _leibniz(m), m
    assert _det_bareiss([]) == 1 and type(_det_bareiss([])) is int
    assert type(_det_bareiss([[4]])) is int
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


def _difference(a, b):
    return Poly.variable("t", a) - Poly.variable("t", b)


@settings(max_examples=40)
@given(poly_strategy(max_exp=3), st.permutations([1, 2, 3]))
def test_exact_division_roundtrip(p, vars_):
    d = _difference(*vars_[:2])
    prod = p * d
    assert exact_divide(prod, d) == p
    assert exact_divide(prod.scale(Fraction(2, 7)), d) == p.scale(Fraction(2, 7))


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
    # the second dividend's coefficients sum to 0, though not within each degree
    for p in (T1 ** 2 + T2, T1 - T1 ** 2):
        with pytest.raises(InexactDivisionError):
            exact_divide(p, T1 - T2)
    # every divisor but t_a - t_b, a != b
    t8, one = Poly.variable("t", 8), Poly.one("t")
    for p, q in [
        (T1 + one, T2),
        (T1 ** 3 + T2, t8),
        (t8 * T1, t8 * T2 + T3),
        (T2 * T1 ** 300, T2 + T1 ** 500),
        (T1 * T2 + one, T1 + T2),
        (T1 * T2, T1 ** 2 - T2),
        (T1 * T2, T1.scale(2) - T2.scale(2)),
        (T1 * T2, T1 - T2 + one),
        (T1 * T2, T1 - one),
        (T1 * T2, one - T2),
        (T1 * T2, Poly.constant("t", 3)),
        (Poly.zero("t"), T1 + T2),
    ]:
        with pytest.raises(ValueError, match="divides only by t_a - t_b"):
            exact_divide(p, q)
    with pytest.raises(ZeroDivisionError):
        exact_divide(T1, Poly.zero("t"))
    with pytest.raises(FamilyMismatchError):
        exact_divide(T1, Poly.variable("T", 1) - Poly.variable("T", 2))
    quotient = exact_divide(Poly.zero("t"), T1 - T2)
    assert quotient.is_zero() and quotient.family == "t"


# -- large products and divisions against a tuple-monomial oracle ---------------


def _random_poly(rng, n, nvars, max_exp, lo, hi, family="t"):
    terms = {}
    for _ in range(n):
        mono = MultiIndex((v, rng.randint(0, max_exp)) for v in range(1, nvars + 1))
        terms[mono] = rng.randint(lo, hi)
    return Poly(family, terms)


def _oracle_mul(x, y):
    """Schoolbook product of two dicts keyed by (variable, exponent) tuples."""
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _oracle_product(p, q):
    """p * q by the schoolbook double loop over (variable, exponent) tuples."""
    return _oracle_mul(dict(p.terms), dict(q.terms))


def _oracle_sum(pieces):
    """sum(sign * p * q) as a sum of oracle products."""
    out = {}
    for sign, p, q in pieces:
        for m, c in _oracle_product(p, q).items():
            out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _leibniz_oracle(matrix):
    """det of a polynomial matrix by the Leibniz formula over oracle products."""
    n = len(matrix)
    out = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = {(): (-1) ** inversions}
        for i, j in enumerate(perm):
            term = _oracle_mul(term, dict(matrix[i][j].terms))
        for m, c in term.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def test_large_products_match_tuple_oracle():
    rng = random.Random(17)
    cases = [
        # at most 6 variables and int coefficients: numpy
        (_random_poly(rng, 400, 6, 7, -50, 50), _random_poly(rng, 300, 6, 7, -50, 50), True),
        (_random_poly(rng, 250, 3, 40, -10**6, 10**6), _random_poly(rng, 120, 3, 40, -9, 9), True),
        # 8 variables: numpy, the keys read six fields at a time
        (_random_poly(rng, 220, 8, 5, -50, 50), _random_poly(rng, 150, 8, 5, -50, 50), True),
        # Fraction coefficients: dict
        (_random_poly(rng, 220, 6, 5, -50, 50).scale(Fraction(1, 3)),
         _random_poly(rng, 150, 6, 5, -50, 50), False),
        # coefficients too large for int64 sums: dict
        (_random_poly(rng, 200, 4, 5, -2**40, 2**40), _random_poly(rng, 150, 4, 5, -2**40, 2**40),
         False),
        # 12 variables whose radii need more than 62 index bits: dict
        (_random_poly(rng, 220, 12, 40, -50, 50), _random_poly(rng, 150, 12, 40, -50, 50), False),
    ]
    for a, b, vectorized in cases:
        assert len(a) * len(b) >= 25_000
        assert (_vectorizable([(1, a._terms, b._terms)]) is not None) == vectorized
        assert dict((a * b).terms) == _oracle_product(a, b)


def test_packed_product_under_25k_term_pairs():
    rng = random.Random(23)
    a = _random_poly(rng, 90, 5, 6, -30, 30)
    b = _random_poly(rng, 80, 5, 6, -30, 30)
    assert 5_000 <= len(a) * len(b) < 25_000
    assert _vectorizable([(1, a._terms, b._terms)]) is not None
    assert dict((a * b).terms) == _oracle_product(a, b)
    small = _random_poly(rng, 10, 5, 6, -30, 30)
    assert len(small) * len(b) < 1_500
    assert _vectorizable([(1, small._terms, b._terms)]) is None


def test_packed_product_cancels_mixed_signs():
    # (sum of t1^i t2^j, i, j < 50) * (1 - t1) telescopes to 100 terms, and
    # the alternating grid times t1 - t2 keeps only its border
    a = Poly("t", {MultiIndex([(1, i), (2, j)]): 1 for i in range(50) for j in range(50)})
    b = Poly.one("t") - T1
    c = Poly("t", {MultiIndex([(1, i), (2, j)]): (-1) ** (i + j) for i in range(50)
                   for j in range(50)})
    for p, q, size in [(a, b, 100), (c, T1 - T2, 198)]:
        assert _vectorizable([(1, p._terms, q._terms)]) is not None
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
        assert (_vectorizable([(1, a._terms, b._terms)]) is not None) == packed
        assert dict((a * b).terms) == _oracle_product(a, b)


def test_packed_product_with_wide_exponents():
    # t6^300 * t6^200 widens the t6 radius from 11 to 501, which narrows the
    # coefficient field from 41 to 35 bits.
    rng = random.Random(31)
    a = _random_poly(rng, 120, 6, 5, -10**4, 10**4) + Poly.variable("t", 6, 300)
    b = _random_poly(rng, 60, 6, 5, -10**4, 10**4) + Poly.variable("t", 6, 200).scale(-7)
    assert _vectorizable([(1, a._terms, b._terms)]) is not None
    product = a * b
    assert dict(product.terms) == _oracle_product(a, b)
    assert product.terms[MultiIndex([(6, 500)])] == -7


def test_exact_division_roundtrip_in_eight_variables():
    rng = random.Random(5)
    for _ in range(10):
        a = _random_poly(rng, rng.randint(1, 40), 8, 4, -9, 9)
        b = _difference(*rng.sample(range(1, 9), 2))
        prod = a * b
        assert dict(prod.terms) == _oracle_product(a, b)
        assert exact_divide(prod, b) == a
        assert exact_divide(prod.scale(Fraction(2, 7)), b) == a.scale(Fraction(2, 7))


# -- division by t_a - t_b -----------------------------------------------------


def _record_dtypes(monkeypatch):
    """The dtypes of the arrays ``np.argsort`` and ``np.cumsum`` see from here
    on: a division sorts its packed keys and sums its coefficients."""
    seen = []
    for name in ("argsort", "cumsum"):
        def recorded(x, *args, _fn=getattr(np, name), **kwargs):
            seen.append(np.asarray(x).dtype)
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(np, name, recorded)
    return seen


@settings(max_examples=60)
@given(st.data())
def test_difference_division_on_both_array_types(data):
    nvars = data.draw(st.integers(2, 8))
    a, b = data.draw(st.lists(st.integers(1, nvars), min_size=2, max_size=2, unique=True))
    q = data.draw(poly_strategy(nvars=nvars, max_exp=5, max_terms=12, coeff=st.integers(-50, 50)))
    # the 2**62 scale gives every nonzero dividend object coefficients
    q = q.scale(data.draw(st.sampled_from([1, Fraction(1, 3), 2**62])))
    d = _difference(a, b)
    p = q * d
    assert exact_divide(p, d) == q
    # a monomial m more, or m - m * t_a (two groups, one of them cancelling
    # the other's sum), leaves a remainder
    m = Poly("t", {MultiIndex(data.draw(st.lists(
        st.tuples(st.integers(1, nvars), st.integers(0, 6)), max_size=nvars))): 1})
    for extra in (p + m, p + m - m * Poly.variable("t", a)):
        with pytest.raises(InexactDivisionError):
            exact_divide(extra, d)


def test_difference_division_is_taken(monkeypatch):
    seen = _record_dtypes(monkeypatch)
    rng = random.Random(11)
    for nvars, a, b in [(2, 1, 2), (2, 2, 1), (6, 5, 3), (8, 2, 8), (8, 8, 7)]:
        q = _random_poly(rng, 60, nvars, 6, -99, 99)
        d = _difference(a, b)
        assert exact_divide(q * d, d) == q
    with pytest.raises(InexactDivisionError):
        exact_divide(T1 ** 2 + T2, T1 - T2)
    # every factor of the Vandermonde of a curve
    for r, s in [(2, 9), (3, 5), (3, 7), (3, 8)]:
        sig = CurveSignature(r, s)
        lam, g = young_diagram(sig), sig.genus
        ones = [1] * g
        assert schur_bialternant(lam, g).evaluate(dict(enumerate(ones, 1))) == \
            jacobi_trudi_value(lam, g, ones)
    assert seen and object not in seen


def test_difference_division_with_object_arrays(monkeypatch):
    rng = random.Random(13)
    q = _random_poly(rng, 30, 3, 4, -9, 9)
    diff = T1 - T2
    seen = _record_dtypes(monkeypatch)
    below = (T1 + T2).scale(2**61 - 1) * diff  # |coefficients| sum to 2**62 - 2
    assert exact_divide(below, diff) == (T1 + T2).scale(2**61 - 1)
    with pytest.raises(InexactDivisionError):
        exact_divide(below + Poly.variable("t", 3, 9), diff)  # ... to 2**62 - 1
    assert seen and object not in seen
    for quotient in [
        q.scale(Fraction(1, 3)),  # a Fraction coefficient
        (T1 + T2).scale(2**61),  # a dividend whose |coefficients| sum to 2**62
        Poly.variable("t", 8, 300) * T1 - T2,  # 8 fields of 10 bits: keys past 63
    ]:
        p = quotient * diff
        seen.clear()
        assert exact_divide(p, diff) == quotient
        assert object in seen
        with pytest.raises(InexactDivisionError):
            exact_divide(p + Poly.variable("t", 3, 9), diff)


def test_vandermonde_division_changes_array_types_on_the_way(monkeypatch):
    # The (3, 5) alternant has 24 terms of coefficient +/-1 and s_lambda's
    # coefficients sum to 45, so the scaled alternant starts in int64 and the
    # quotient by the whole Vandermonde ends with |coefficients| past 2**62.
    sig = CurveSignature(3, 5)
    lam, g = young_diagram(sig), sig.genus
    scale = (2**62 - 1) // 24
    alternant = det([[Poly.variable("t", j, lam.part(i) + g - i) for j in range(1, g + 1)]
                     for i in range(1, g + 1)]).scale(scale)
    vandermonde = [_difference(i, j) for i, j in combinations(range(1, g + 1), 2)]
    expected = schur_jacobi_trudi(lam, g).scale(scale)
    assert sum(map(abs, expected.terms.values())) == 45 * scale >= 2**62
    seen = _record_dtypes(monkeypatch)
    assert exact_divide(alternant, *vandermonde) == expected
    # the first factor sorts int64 keys and sums int64 coefficients
    assert seen[:2] == [np.int64, np.int64] and object in seen
    # divisible by t1 - t2 alone, so the chain stops at a later factor
    with pytest.raises(InexactDivisionError):
        exact_divide(alternant + (T1 - T2) * Poly.variable("t", 3, 5), *vandermonde)
    assert exact_divide(alternant) == alternant  # the empty product


# -- the sum-of-products kernel ------------------------------------------------


def test_sum_of_products_matches_oracle_sums():
    rng = random.Random(43)
    big = [_random_poly(rng, 60, 4, 6, -99, 99) for _ in range(6)]
    small = [_random_poly(rng, 6, 4, 3, -9, 9) for _ in range(6)]
    for polys, packed in [(big, True), (small, False)]:
        for _ in range(4):
            pieces = [((-1) ** i, rng.choice(polys), rng.choice(polys))
                      for i in range(rng.randint(2, 5))]
            layout = _vectorizable([(s, a._terms, b._terms) for s, a, b in pieces])
            assert (layout is not None) == packed
            assert dict(_sum_of_products("t", pieces).terms) == _oracle_sum(pieces)
    # the radii cover every piece, not just the first
    narrow, wide = _random_poly(rng, 40, 3, 2, -9, 9), _random_poly(rng, 60, 3, 9, -9, 9)
    pieces = [(1, narrow, narrow), (-1, wide, narrow), (1, wide, wide)]
    assert _vectorizable([(s, a._terms, b._terms) for s, a, b in pieces]) is not None
    assert dict(_sum_of_products("t", pieces).terms) == _oracle_sum(pieces)
    # a single piece is the product itself
    a, b = big[0], big[1]
    assert _sum_of_products("t", [(1, a, b)]) == a * b
    assert _sum_of_products("t", [(-1, a, b)]) == -(a * b)


def test_sum_of_products_cancels_to_zero():
    rng = random.Random(47)
    a = _random_poly(rng, 80, 3, 6, -50, 50)
    b = _random_poly(rng, 70, 3, 6, -50, 50)
    for x, y in [(a, b), (T1 + T2, T1 - T3)]:
        pieces = [(1, x, y), (-1, y, x), (1, x, -y), (1, x, y)]
        total = _sum_of_products("t", pieces)
        assert total.is_zero() and total.family == "t"
    assert _vectorizable([(1, a._terms, b._terms), (-1, b._terms, a._terms)]) is not None


def test_sum_of_products_of_nothing_is_zero_of_its_family():
    for family in ("t", "T", "u"):
        total = _sum_of_products(family, [])
        assert total.is_zero() and total.family == family
    u = Poly.variable("u", 1)
    zero = _sum_of_products("u", [(1, u, Poly.zero("u")), (-1, Poly.zero("u"), u)])
    assert zero.is_zero() and zero.family == "u"


def test_sum_of_products_with_a_fraction_takes_the_dict_loop():
    rng = random.Random(53)
    a = _random_poly(rng, 80, 4, 5, -20, 20)
    b = _random_poly(rng, 60, 4, 5, -20, 20)
    c = _random_poly(rng, 5, 4, 5, -20, 20).scale(Fraction(2, 3))
    pieces = [(1, a, b), (-1, c, T1)]
    assert _vectorizable([(1, a._terms, b._terms)]) is not None
    assert _vectorizable([(s, p._terms, q._terms) for s, p, q in pieces]) is None
    total = _sum_of_products("t", pieces)
    assert dict(total.terms) == _oracle_sum(pieces)
    assert any(type(v) is Fraction for v in total.terms.values())


def test_sum_of_products_merge_bound_takes_the_dict_loop():
    # Each piece packs alone: radius 199 leaves a 54-bit coefficient field,
    # bias = (2^27 - 1) * 2^26 < 2^53 and bias * 100 < 2^62.  Twelve pieces
    # give bias * 1200 >= 2^62, and the coefficient of t1^99 exceeds 2^63.
    a = Poly("t", {MultiIndex([(1, i)]): 2**27 - 1 for i in range(100)})
    b = Poly("t", {MultiIndex([(1, i)]): 2**26 for i in range(100)})
    piece = (1, a._terms, b._terms)
    assert _vectorizable([piece]) is not None
    assert _vectorizable([piece] * 5) is not None
    assert _vectorizable([piece] * 12) is None
    total = _sum_of_products("t", [(1, a, b)] * 12)
    assert dict(total.terms) == _oracle_sum([(1, a, b)] * 12)
    assert total.terms[MultiIndex([(1, 99)])] == 12 * 100 * (2**27 - 1) * 2**26 > 2**63


def test_sum_of_products_exponent_guard():
    rng = random.Random(59)
    a = _random_poly(rng, 300, 6, 7, -9, 9) + Poly.variable("t", 6, 300)
    b = _random_poly(rng, 200, 6, 7, -9, 9) + Poly.variable("t", 6, 212)
    small = Poly.variable("t", 6, 300) + T1
    for pieces in [[(1, a, b), (-1, T1, T2)], [(1, T1, T2), (-1, small, small)]]:
        packed = _vectorizable([(s, p._terms, q._terms) for s, p, q in pieces]) is not None
        assert packed == (pieces[0][1] is a)
        with pytest.raises(OverflowError):
            _sum_of_products("t", pieces)


def test_sum_of_products_family_check():
    u = Poly.variable("u", 1)
    for family, pieces in [
        ("t", [(1, T1, T2), (1, T1, u)]),
        ("t", [(1, u, T1)]),
        ("u", [(1, T1, T2)]),
        ("t", [(1, Poly.zero("u"), T1)]),
    ]:
        with pytest.raises(FamilyMismatchError):
            _sum_of_products(family, pieces)


def test_sum_of_products_blocks_match_oracle(monkeypatch):
    # Blocks of one row, of a few rows and of a whole piece give the same sum,
    # whichever factor of a piece is the longer, with cancellation across
    # blocks and pieces.
    rng = random.Random(61)
    a = _random_poly(rng, 90, 4, 6, -40, 40)
    b = _random_poly(rng, 25, 4, 6, -40, 40)
    c = _random_poly(rng, 60, 4, 6, -40, 40)
    pieces = [(1, a, b), (-1, b, a), (1, b, c), (-1, c, a), (1, a, a)]
    assert _vectorizable([(s, p._terms, q._terms) for s, p, q in pieces]) is not None
    expected = _oracle_sum(pieces)
    for block in (1, 7, 64, 1 << 30):
        monkeypatch.setattr(polynomials, "_BLOCK_PAIRS", block)
        assert dict(_sum_of_products("t", pieces).terms) == expected
        assert (a * b) - (b * a) == Poly.zero("t")


def test_packed_product_memory_is_bounded_by_the_block(monkeypatch):
    # 1,600 x 900 = 1.44M term pairs would take 11 MiB as one packed array;
    # in blocks the product's peak traced memory stays a few MiB.
    a = Poly("t", {MultiIndex([(1, i), (2, j)]): i - j + 1 for i in range(40) for j in range(40)})
    b = Poly("t", {MultiIndex([(1, i), (2, j)]): i + 2 * j - 5 for i in range(30) for j in range(30)})
    assert _vectorizable([(1, a._terms, b._terms)]) is not None

    def traced_peak():
        tracemalloc.start()
        try:
            product = a * b
            return tracemalloc.get_traced_memory()[1], product
        finally:
            tracemalloc.stop()

    blocked, product = traced_peak()
    monkeypatch.setattr(polynomials, "_BLOCK_PAIRS", 1 << 30)
    whole, unblocked = traced_peak()
    assert product == unblocked
    assert blocked < 8 * 2**20 < whole


# -- sums at target monomials and symmetric sums ---------------------------------


def _at_targets(pieces, targets):
    """The oracle sum's terms at ``targets``, a list of MultiIndex."""
    full = _oracle_sum(pieces)
    return {m: full[m] for m in targets if m in full}


def _targeted_layout_of(pieces, targets, nvars):
    return _targeted_layout([(s, a._terms, b._terms) for s, a, b in pieces],
                            [_encode(m) for m in targets], nvars)


def _random_symmetric(rng, n, nvars, max_exp, coeff):
    """A symmetric polynomial in variables 1..nvars as ``(form, expanded)``:
    n random terms at nonincreasing exponent vectors of at most three
    nonzero parts, so that each orbit stays small, and their expansion."""
    terms = {}
    for _ in range(n):
        parts = sorted((rng.randint(1, max_exp) for _ in range(rng.randint(0, min(3, nvars)))),
                       reverse=True)
        terms[MultiIndex(enumerate(parts, start=1))] = coeff(rng)
    form = Poly("t", terms)
    return form, _expand_dominant(form, nvars)


def _dominant_part(p, nvars):
    """The terms of p at nonincreasing exponent vectors of variables 1..nvars."""
    return Poly._raw(p.family, {k: c for k, c in p._terms.items()
                                if list(_decode_dense(k, nvars)) == sorted(_decode_dense(k, nvars),
                                                                           reverse=True)})


def test_sum_at_matches_the_full_sum_at_its_targets(monkeypatch):
    # b gives a symmetric B by its dominant terms; at every target the sum
    # equals the oracle's sum of sign * a * B, on either path, in blocks of
    # one target row, of a few and of all
    rng = random.Random(67)

    def ints(rng):
        return rng.randint(-60, 60)

    def fractions(rng):
        return Fraction(rng.randint(-60, 60), rng.randint(2, 9))

    for nvars, size, coeff, count, packed in [
            (4, 40, ints, 400, True), (4, 4, ints, 20, False), (8, 12, ints, 400, True),
            (8, 3, ints, 20, False), (4, 40, fractions, 400, False), (8, 12, fractions, 400, False)]:
        polys = [_random_poly(rng, rng.randint(size // 2, size), nvars, 4, -60, 60)
                 for _ in range(4)]
        symmetric = [_random_symmetric(rng, rng.randint(1, 4), nvars, 3, coeff) for _ in range(3)]
        for trial in range(3):
            chosen = [((-1) ** (i + trial), rng.choice(polys), rng.choice(symmetric))
                      for i in range(rng.randint(2, 4))]
            pieces = [(sign, a, form) for sign, a, (form, _) in chosen]
            full = _oracle_sum([(sign, a, expanded) for sign, a, (_, expanded) in chosen])
            # targets the sum reaches, and two it does not: exponents above
            # every product's
            reached = rng.sample(sorted(full), min(count, len(full) // 2))
            targets = reached + [MultiIndex([(1, 30)]), MultiIndex([(nvars, 30), (1, 1)])]
            expected = {m: full[m] for m in reached}
            assert (_targeted_layout_of(pieces, targets, nvars) is not None) == packed
            for block in (1, 7, 1 << 18):
                monkeypatch.setattr(polynomials, "_BLOCK_PAIRS", block)
                got = _sum_at("t", pieces, [_encode(m) for m in targets], nvars)
                assert got.family == "t" and dict(got.terms) == expected, (nvars, size, block)


def test_sum_at_reads_zero_where_no_pair_reaches():
    a = T1 + T2
    b = T1 * T2  # the dominant form of t1*t2 in two variables
    target = _encode(MultiIndex([(1, 3)]))
    assert _sum_at("t", [(1, a, b)], [target], 2).is_zero()
    assert _sum_at("t", [(1, a, b), (-1, a, b)], [_encode(MultiIndex([(1, 2), (2, 1)]))], 2).is_zero()
    assert _sum_at("t", [(1, a, b)], [], 2).is_zero()
    assert _sum_at("t", [(1, a, Poly.zero("t"))], [target], 2).is_zero()


def test_sum_at_coefficient_bound_takes_the_exact_loop():
    # 63 targets t1^0..t1^62 against 32-term factors in one variable, where
    # every polynomial is symmetric: 2,016 term pairs.  A target's sum adds
    # at most 32 = 2^5 products, so max|a| * max|b| must stay below 2^58 for
    # int64.
    targets = [MultiIndex([(1, d)]) for d in range(63)]
    for ca, cb, packed in [(2**29, 2**29 - 1, True), (2**29, 2**29, False),
                           (-(2**40), 2**40, False)]:
        a = Poly("t", {MultiIndex([(1, i)]): ca for i in range(32)})
        b = Poly("t", {MultiIndex([(1, j)]): cb for j in range(32)})
        pieces = [(1, a, b)]
        assert (_targeted_layout_of(pieces, targets, 1) is not None) == packed
        got = dict(_sum_at("t", pieces, [_encode(m) for m in targets], 1).terms)
        assert got == _at_targets(pieces, targets)
        assert got[MultiIndex([(1, 31)])] == 32 * ca * cb
    assert 32 * 2**40 * 2**40 > 2**63
    # Fractions take the exact loop as well
    rng = random.Random(71)
    a = _random_poly(rng, 40, 3, 4, -9, 9)
    form, expanded = _random_symmetric(rng, 6, 3, 4, lambda rng: Fraction(rng.randint(1, 9), 3))
    targets = sorted(_oracle_sum([(1, a, expanded)]))
    assert _targeted_layout_of([(1, a, form), (-1, a, form)], targets, 3) is None
    got = _sum_at("t", [(1, a, form), (-1, a, form.scale(2))], [_encode(m) for m in targets], 3)
    assert dict(got.terms) == _at_targets([(-1, a, expanded)], targets)


def test_sum_at_family_check():
    u = Poly.variable("u", 1)
    for family, pieces in [("t", [(1, T1, u)]), ("u", [(1, T1, T2)]),
                           ("t", [(1, Poly.zero("u"), T1)])]:
        with pytest.raises(FamilyMismatchError):
            _sum_at(family, pieces, [0], 3)


def _orbit_terms(exps, c):
    return {MultiIndex(enumerate(p, start=1)): c for p in set(permutations(exps))}


def test_expand_dominant_copies_each_coefficient_to_its_orbit():
    form = Poly("t", {MultiIndex(enumerate((2, 2, 1, 0), start=1)): 5,
                      MultiIndex([(1, 3)]): Fraction(-2, 3), MultiIndex(): 7})
    expanded = _expand_dominant(form, 4)
    assert len(expanded) == 12 + 4 + 1
    assert dict(expanded.terms) == {**_orbit_terms((2, 2, 1, 0), 5),
                                    **_orbit_terms((3, 0, 0, 0), Fraction(-2, 3)),
                                    MultiIndex(): 7}
    # eight variables: keys past 2**60, an orbit of 8!/(1! 2! 2! 3!) = 1,680
    wide = Poly("t", {MultiIndex(enumerate((3, 2, 2, 1, 1), start=1)): -4})
    assert dict(_expand_dominant(wide, 8).terms) == _orbit_terms((3, 2, 2, 1, 1, 0, 0, 0), -4)
    assert len(_expand_dominant(wide, 8)) == 1680
    assert _expand_dominant(Poly.zero("u"), 3) == Poly.zero("u")
    for bad, nvars in [(T1 * T2 * T2, 2), (T3, 2), (T1 * T3, 3)]:
        with pytest.raises(ValueError):
            _expand_dominant(bad, nvars)


def test_dominant_keys_are_the_partitions_with_at_most_nvars_parts():
    for nvars in range(1, 6):
        for degree in range(13):
            expected = {
                tuple(sorted(combo, reverse=True))
                for combo in combinations_with_replacement(range(degree + 1), nvars)
                if sum(combo) == degree
            }
            got = [_decode_dense(k, nvars) for k in _dominant_keys(degree, nvars)]
            assert len(got) == len(set(got)) and set(got) == expected, (degree, nvars)
    assert _dominant_keys(-1, 3) == ()
    assert _dominant_keys(0, 3) == (0,)
    with pytest.raises(OverflowError):
        _dominant_keys(512, 2)


def _decode_dense(key, nvars):
    dense = [0] * nvars
    for v, e in polynomials._decode(key):
        dense[v - 1] = e
    return tuple(dense)


def test_symmetric_sum_of_products_matches_the_full_sum():
    # Products of power sums are symmetric and homogeneous; each piece's
    # second factor is given by its dominant terms, and so is the sum.
    for nvars, packed in [(3, False), (6, True), (7, True)]:
        p = {m: Poly("t", {MultiIndex([(v, m)]): 1 for v in range(1, nvars + 1)})
             for m in range(1, 5)}
        one = Poly.one("t")
        square = p[1] * p[1]
        cube = square * p[1]
        pieces = [(1, square * square, (square * square).scale(3)), (-1, p[2] * p[3], p[3]),
                  (1, p[4] * p[1], cube), (-1, cube * cube, square), (1, one, p[4] * p[4])]
        dominant = [(sign, a, _dominant_part(b, nvars)) for sign, a, b in pieces]
        targets = [MultiIndex((v + 1, e) for v, e in enumerate(_decode_dense(k, nvars)))
                   for k in _dominant_keys(8, nvars)]
        assert (_targeted_layout_of(dominant, targets, nvars) is not None) == packed
        full = _sum_of_products("t", pieces)
        got = _symmetric_sum_of_products("t", dominant, 8, nvars)
        assert got == _dominant_part(full, nvars)
        assert _expand_dominant(got, nvars) == full
        assert len(full) > 0
