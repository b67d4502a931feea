import functools
import math
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import coprime_signatures
from oracles import (
    box_by_box_character_form,
    determinant_power_sum_form,
    generic_left_minors,
    generic_split_sum,
    power_sum_polynomial,
)
from test_acceptance import GENUS_6_SIGNATURES
from cyclic_strata import schur
from cyclic_strata.polynomials import MultiIndex, SparsePolynomial as Poly, det
from cyclic_strata.schur import (
    ExpansionLimitError,
    _beads,
    _partition,
    _remove_rim_hooks,
    bialternant_value,
    h_complete,
    h_from_T,
    h_recursion_check,
    jacobi_trudi_value,
    schur_bialternant,
    schur_in_T,
    schur_jacobi_trudi,
    schur_split_trudi,
    schur_tail_trudi,
    split_trudi_value,
    tail_trudi_value,
    transition_matrix,
)
from cyclic_strata.semigroup import CurveSignature, YoungDiagram, young_diagram, u_weights
from cyclic_strata.strata import natural_k, truncate_upper


def brute_h(n, lo, hi):
    """Oracle: expand prod 1/(1 - z t_i) by enumerating degree-n multisets."""
    if n < 0:
        return Poly.zero("t")
    terms = {}
    for combo in combinations_with_replacement(range(lo, hi + 1), n):
        exps = {}
        for v in combo:
            exps[v] = exps.get(v, 0) + 1
        terms[MultiIndex(exps.items())] = 1
    return Poly("t", terms)


def brute_newton_h(n):
    """Oracle: h_n in scaled power sums via n h_n = sum_m (m T_m) h_{n-m}."""
    hs = [Poly.one("T")]
    for d in range(1, n + 1):
        acc = Poly.zero("T")
        for m in range(1, d + 1):
            acc = acc + Poly.variable("T", m).scale(m) * hs[d - m]
        hs.append(acc.scale(Fraction(1, d)))
    return hs[n]


# -- complete homogeneous functions -------------------------------------------


def test_h_complete_examples():
    t1, t2 = Poly.variable("t", 1), Poly.variable("t", 2)
    assert h_complete(2, 1, 2) == t1 * t1 + t1 * t2 + t2 * t2
    assert h_complete(0, 1, 2) == Poly.one("t")
    assert h_complete(-3, 1, 2).is_zero()
    g = 5
    assert h_complete(1, 1, g) == sum(
        (Poly.variable("t", v) for v in range(2, g + 1)), Poly.variable("t", 1)
    )


def test_h_complete_against_generating_function():
    for lo, hi in [(1, 3), (2, 4), (1, 4)]:
        for n in range(0, 6):
            assert h_complete(n, lo, hi) == brute_h(n, lo, hi)


def test_window_validation():
    for lo, hi in [(3, 2), (0, 2)]:
        with pytest.raises(ValueError, match=rf"window must satisfy 1 <= lo <= hi, got \({lo}, {hi}\)"):
            h_complete(2, lo, hi)


def test_h_from_T_small():
    T1, T2, T3 = (Poly.variable("T", i) for i in (1, 2, 3))
    assert h_from_T(1) == T1
    assert h_from_T(2) == (T1 ** 2).scale(Fraction(1, 2)) + T2
    assert h_from_T(3) == (T1 ** 3).scale(Fraction(1, 6)) + T1 * T2 + T3
    assert h_from_T(0) == Poly.one("T")
    assert h_from_T(-1).is_zero()


def newton_determinant_h(n):
    """Oracle: h_n as the n x n Newton determinant divided by n!.

    Row i holds ``(i T_i, (i-1) T_(i-1), ..., T_1)`` followed by ``-i`` on the
    superdiagonal and zeros beyond it.
    """
    if n == 0:
        return Poly.one("T")
    matrix = [
        [
            Poly.variable("T", i - j + 1).scale(i - j + 1) if j <= i
            else Poly.constant("T", -i - 1) if j == i + 1
            else Poly.zero("T")
            for j in range(n)
        ]
        for i in range(n)
    ]
    return det(matrix).scale(Fraction(1, math.factorial(n)))


def test_h_from_T_matches_newton_recurrence():
    for n in range(11):
        assert h_from_T(n) == brute_newton_h(n)
        assert h_from_T(n) == newton_determinant_h(n)


def test_h_from_T_bridges_to_h_complete():
    # Substituting the actual power sums must recover the t-expansion.
    for g in (2, 3, 4):
        for n in range(1, 7):
            hT = h_from_T(n)
            expanded = hT.substitute(
                {m: power_sum_polynomial(m, 1, g) for m in hT.variables()}
            )
            assert expanded == h_complete(n, 1, g)


# -- the four routes -----------------------------------------------------------


def test_bialternant_examples():
    assert schur_bialternant(YoungDiagram((1,)), 1) == Poly.variable("t", 1)
    t1, t2 = Poly.variable("t", 1), Poly.variable("t", 2)
    assert schur_bialternant(YoungDiagram((2, 1)), 2) == t1 * t1 * t2 + t1 * t2 * t2
    assert schur_bialternant(YoungDiagram(()), 2) == Poly.one("t")


def test_jacobi_trudi_examples():
    t1, t2 = Poly.variable("t", 1), Poly.variable("t", 2)
    assert schur_jacobi_trudi(YoungDiagram((2, 1)), 2) == t1 * t1 * t2 + t1 * t2 * t2
    # single-row diagram reduces to h_n
    assert schur_jacobi_trudi(YoungDiagram((4,)), 3) == h_complete(4, 1, 3)
    assert schur_tail_trudi(YoungDiagram((3,)), 1) == Poly.variable("t", 1, 3)


def test_route_equality_small_signatures():
    for r, s in [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5)]:
        sig = CurveSignature(r, s)
        g = sig.genus
        lam = young_diagram(sig)
        reference = schur_bialternant(lam, g)
        assert schur_jacobi_trudi(lam, g) == reference
        assert schur_tail_trudi(lam, g) == reference
        for k in range(g + 1):
            assert schur_split_trudi(lam, g, k) == reference


def partitions(n, largest=None):
    """Every partition of n into parts of at most ``largest``, as tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def test_bialternant_matches_jacobi_trudi_on_small_partitions():
    # Jacobi-Trudi is the oracle of the factor-by-factor division.
    for n in range(11):
        for parts in partitions(n):
            nu = YoungDiagram(parts)
            for k in range(len(parts), 6):
                assert schur_bialternant(nu, k) == schur_jacobi_trudi(nu, k), (parts, k)


def test_route_equality_non_curve_diagram():
    # the identities are general; try a non-curve partition too
    d = YoungDiagram((3, 1, 1))
    ref = schur_bialternant(d, 3)
    assert schur_jacobi_trudi(d, 3) == ref
    assert schur_tail_trudi(d, 3) == ref
    for k in range(4):
        assert schur_split_trudi(d, 3, k) == ref


def test_dominant_minors_and_split_sums_match_the_generic_oracle():
    # Each left minor and Laplace sum is computed at its dominant monomials
    # and expanded; the oracle multiplies out every monomial.
    for r, s in GENUS_6_SIGNATURES:
        sig = CurveSignature(r, s)
        g = sig.genus
        lam = young_diagram(sig)
        parts = schur._padded_parts(lam, g)
        minors = schur._left_minors(parts, g)
        assert len(minors) == 2**g
        assert minors == generic_left_minors(parts, g), (r, s)
        for k in range(1, g):
            assert schur_split_trudi(lam, g, k) == generic_split_sum(parts, g, k), (r, s, k)


def test_trudi_routes_reach_genus_7():
    sig = CurveSignature(3, 8)
    g = sig.genus
    lam = young_diagram(sig)
    reference = schur_bialternant(lam, g)
    assert g == 7 and len(reference) == 20714
    assert schur_jacobi_trudi(lam, g) == reference
    for k in range(1, g):
        assert schur_split_trudi(lam, g, k) == reference, k


def test_schur_symmetry_by_evaluation():
    lam = young_diagram(CurveSignature(3, 4))
    poly = schur_jacobi_trudi(lam, 3)
    base = {1: Fraction(2), 2: Fraction(3, 2), 3: Fraction(-5, 3)}
    reference = poly.evaluate(base)
    for perm in permutations((1, 2, 3)):
        shuffled = {v: base[perm[v - 1]] for v in (1, 2, 3)}
        assert poly.evaluate(shuffled) == reference


def test_h_recursion_check():
    assert h_recursion_check(2, 1, 1, 3) == (True, True, True)
    assert h_recursion_check(0, 1, 1, 3) == (True, True, True)
    assert h_recursion_check(2, None, 1, 2)[2] is True
    assert h_recursion_check(5, 2, 1, 4) == (True, True, True)
    assert h_recursion_check(4, 3, 2, 6) == (True, True, True)
    with pytest.raises(ValueError):
        h_recursion_check(2, 3, 1, 3)  # m >= l2 - l1
    with pytest.raises(ValueError):
        h_recursion_check(2, 1, 2, 2)  # window too small


# -- power-sum coordinates ------------------------------------------------------


def test_schur_in_T_examples():
    sig = CurveSignature(2, 5)
    form = schur_in_T(young_diagram(sig), sig)
    assert form.as_u.canonical_str() == "1/3*u2^3 - u1"
    assert sorted(form.as_T.variables()) == [1, 3]

    sig23 = CurveSignature(2, 3)
    assert schur_in_T(young_diagram(sig23), sig23).as_u.canonical_str() == "u1"

    sig27 = CurveSignature(2, 7)
    form27 = schur_in_T(young_diagram(sig27), sig27)
    assert sorted(form27.as_T.variables()) == [1, 3, 5]


def test_schur_in_T_support_and_homogeneity():
    for r, s in [(2, 5), (2, 7), (2, 9), (2, 11), (3, 4), (3, 5), (3, 7), (4, 5)]:
        sig = CurveSignature(r, s)
        lam = young_diagram(sig)
        form = schur_in_T(lam, sig)
        hooks = set(u_weights(sig))
        assert form.as_T.variables() == hooks
        weight = lam.weight()
        for mono in form.as_T.terms:
            assert sum(v * e for v, e in mono) == weight
        # u-weighted homogeneity: deg(u_i) = hook_i
        weights = u_weights(sig)
        for mono in form.as_u.terms:
            assert sum(weights[v - 1] * e for v, e in mono) == weight


def test_schur_in_T_consistent_with_t_expansion():
    for r, s in [(2, 5), (2, 7), (3, 4)]:
        sig = CurveSignature(r, s)
        g = sig.genus
        form = schur_in_T(young_diagram(sig), sig)
        image = {m: power_sum_polynomial(m, 1, g) for m in form.as_T.variables()}
        assert form.as_T.substitute(image) == form.as_t


def test_schur_in_T_truncations():
    sig = CurveSignature(2, 5)
    head = schur_in_T(truncate_upper(young_diagram(sig), 1), sig)
    assert head.as_u.canonical_str() == "u2^2"
    assert head.as_t == Poly.variable("t", 1, 2)
    empty = schur_in_T(truncate_upper(young_diagram(sig), 0), sig)
    assert empty.as_u == Poly.one("u")
    # head truncations restrict to the k-variable Schur polynomial exactly
    for r, s in [(2, 7), (2, 9), (3, 4), (3, 5)]:
        sig = CurveSignature(r, s)
        hooks = u_weights(sig)
        for k in range(1, sig.genus):
            form = schur_in_T(truncate_upper(young_diagram(sig), k), sig)
            image = {
                m: power_sum_polynomial(m, 1, k) for m in form.as_T.variables()
            }
            assert form.as_T.substitute(image) == form.as_t


def test_schur_in_T_t_form_matches_jacobi_trudi():
    # as_t comes from the bialternant; Jacobi-Trudi is the oracle.
    for r, s in [(2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (4, 5), (2, 11)]:
        sig = CurveSignature(r, s)
        for k in range(sig.genus + 1):
            head = truncate_upper(young_diagram(sig), k)
            assert schur_in_T(head, sig).as_t == schur_jacobi_trudi(head, k), (r, s, k)


def test_schur_in_T_matches_determinant_oracle():
    # The bead walk against the h_from_T determinant and its natural-set
    # derivatives, at every head of every curve up to genus 6.
    for r, s in coprime_signatures(13):
        sig = CurveSignature(r, s)
        if sig.genus > 6:
            continue
        lam = young_diagram(sig)
        for k in range(sig.genus + 1):
            head = truncate_upper(lam, k)
            form = schur_in_T(head, sig)
            as_T, as_u = determinant_power_sum_form(head.parts, sig)
            assert form.as_T == as_T, (r, s, k)
            assert form.as_u == as_u, (r, s, k)


def test_schur_in_T_derives_t_form_on_read(monkeypatch):
    # schur_in_T builds no bialternant; reading as_t does.
    sig = CurveSignature(3, 7)
    heads = [truncate_upper(young_diagram(sig), k) for k in range(sig.genus + 1)]

    def refuse(*args):
        raise AssertionError("schur_in_T built the t-form")

    monkeypatch.setattr(schur, "schur_bialternant", refuse)
    forms = [schur_in_T(head, sig) for head in heads]
    monkeypatch.undo()
    for k, (head, form) in enumerate(zip(heads, forms)):
        assert (form.as_T, form.as_u) == determinant_power_sum_form(head.parts, sig), k
        assert form.as_t == schur_bialternant(head, k), k


def test_schur_in_T_reaches_genus_7():
    sig = CurveSignature(3, 8)
    lam = young_diagram(sig)
    values = [Fraction(3), Fraction(-1, 2), Fraction(5, 3), Fraction(2),
              Fraction(-7, 4), Fraction(1, 5), Fraction(4)]
    form = schur_in_T(lam, sig, max_expand_genus=7)
    point = {i + 1: v for i, v in enumerate(values)}
    assert form.as_t.evaluate(point) == jacobi_trudi_value(lam, sig.genus, values)
    for k in range(sig.genus + 1):
        head = truncate_upper(lam, k)
        form = schur_in_T(head, sig, max_expand_genus=7)
        expected = jacobi_trudi_value(head, k, values[:k])
        power_sums = {m: sum(v ** m for v in values[:k]) / m for m in form.as_T.variables()}
        assert form.as_T.evaluate(power_sums) == expected, k


def test_schur_in_T_matches_box_by_box_oracle():
    # The one-step close of each u_g run against the walk that removes its
    # boxes one at a time, at every head of five curves of genus 7 to 9.
    for rs in [(3, 8), (4, 7), (3, 10), (2, 15), (2, 17)]:
        sig = CurveSignature(*rs)
        hooks = u_weights(sig)
        lam = young_diagram(sig)
        for k in range(1, sig.genus + 1):
            head = truncate_upper(lam, k)
            state, sign = {_beads(sig): 1}, 1
            if k < sig.genus:
                for i in natural_k(sig, k):
                    state = _remove_rim_hooks(state, hooks[i - 1])
                sign = {_partition(mask): c for mask, c in state.items()}[head.parts]
            expected = box_by_box_character_form(state, hooks).scale(sign)
            assert schur_in_T(head, sig, max_expand_genus=9).as_u == expected, (rs, k)


def test_character_form_removes_no_single_boxes(monkeypatch):
    # Runs of u_g derivatives (hook 1) are closed by the hook-length count,
    # so the walk of a full diagram never removes a 1-hook.
    remove, sizes = schur._remove_rim_hooks, []

    def recording(state, m):
        sizes.append(m)
        return remove(state, m)

    monkeypatch.setattr(schur, "_remove_rim_hooks", recording)
    for rs in [(2, 9), (3, 5), (3, 7), (4, 5)]:
        sig = CurveSignature(*rs)
        schur_in_T(young_diagram(sig), sig)
    assert sizes and 1 not in sizes


def test_schur_in_T_rejects_foreign_diagrams():
    sig = CurveSignature(2, 5)
    with pytest.raises(ValueError):
        schur_in_T(YoungDiagram((3, 1)), sig)


def test_expansion_gate():
    sig = CurveSignature(5, 7)
    lam = young_diagram(sig)
    with pytest.raises(ExpansionLimitError):
        schur_in_T(lam, sig, max_expand_genus=6)
    for k in (1, 5, sig.genus - 1):
        with pytest.raises(ExpansionLimitError):
            schur_in_T(truncate_upper(lam, k), sig, max_expand_genus=6)
    assert schur_in_T(truncate_upper(lam, 0), sig, max_expand_genus=6).as_u == Poly.one("u")


def test_transition_matrix():
    sig = CurveSignature(3, 7)
    full = transition_matrix(sig, 6)
    exponents = []
    for row in full:
        mono = next(iter(row[0].terms)) if row[0].terms else ()
        exponents.append(mono[0][1] if mono else 0)
    assert exponents == [10, 7, 4, 3, 1, 0]
    assert all(len(row) == 6 for row in full)

    tiny = transition_matrix(CurveSignature(2, 3), 1)
    lam1 = young_diagram(CurveSignature(2, 3)).part(1)
    assert tiny == [[Poly.variable("t", 1, lam1 - 1)]]

    sig57 = CurveSignature(5, 7)
    block = transition_matrix(sig57, 4)
    assert len(block) == 8 and len(block[0]) == 8
    first = next(iter(block[0][0].terms))
    assert first == ((5, 22),)  # t_5^(hook_1 - 1) with hook_1 = 23


def test_value_routes_agree_with_polynomials():
    sig = CurveSignature(3, 4)
    g = sig.genus
    lam = young_diagram(sig)
    poly = schur_bialternant(lam, g)
    values = [Fraction(5), Fraction(7, 2), Fraction(-3)]
    point = {i + 1: values[i] for i in range(g)}
    expected = poly.evaluate(point)
    assert bialternant_value(lam, g, values) == expected
    assert jacobi_trudi_value(lam, g, values) == expected
    assert tail_trudi_value(lam, g, values) == expected
    for k in range(g + 1):
        assert split_trudi_value(lam, g, k, values) == expected


def test_value_routes_on_the_empty_matrix():
    empty = YoungDiagram(())
    assert jacobi_trudi_value(empty, 0, ()) == 1
    assert tail_trudi_value(empty, 0, ()) == 1
    assert split_trudi_value(empty, 0, 0, ()) == 1
    assert bialternant_value(empty, 0, ()) == 1


SYMBOLIC_ROUTES = {
    "bialternant": schur_bialternant,
    "jacobi_trudi": schur_jacobi_trudi,
    "tail_trudi": schur_tail_trudi,
    "split_trudi": functools.partial(schur_split_trudi, k=0),
}


@pytest.mark.parametrize("route", SYMBOLIC_ROUTES.values(), ids=SYMBOLIC_ROUTES)
def test_symbolic_routes_on_the_empty_matrix(route):
    # Genus 0 checks the rows against the variables, as every other genus does.
    assert route(YoungDiagram(()), 0) == Poly.one("t")
    for diagram, g in [(YoungDiagram((2,)), 0), (YoungDiagram((2, 1, 1)), 2)]:
        with pytest.raises(ValueError, match=f"has {len(diagram)} rows but only {g} variables"):
            route(diagram, g)


@pytest.mark.parametrize("call, message", [
    (lambda lam: schur_split_trudi(lam, 2, 3), r"split point must lie in \[0, 2\], got 3"),
    (lambda lam: split_trudi_value(lam, 2, 3, [1, 2]), r"split point must lie in \[0, 2\], got 3"),
    (lambda lam: transition_matrix(CurveSignature(2, 5), -1), r"k must lie in \[0, 2\], got -1"),
], ids=["schur_split_trudi", "split_trudi_value", "transition_matrix"])
def test_split_point_and_level_out_of_range(call, message):
    # (2, 5) has genus 2
    with pytest.raises(ValueError, match=message):
        call(young_diagram(CurveSignature(2, 5)))


VALUE_CURVES = [(2, 3), (2, 5), (3, 4), (2, 7), (3, 5), (2, 9), (2, 11)]  # g <= 5


@functools.lru_cache(maxsize=None)
def _curve_schur(r, s):
    sig = CurveSignature(r, s)
    lam = young_diagram(sig)
    return lam, sig.genus, schur_bialternant(lam, sig.genus)


def _trudi_values(lam, g, values):
    yield jacobi_trudi_value(lam, g, values)
    yield tail_trudi_value(lam, g, values)
    for k in range(g + 1):
        yield split_trudi_value(lam, g, k, values)


coordinate = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(VALUE_CURVES), st.data())
def test_value_routes_at_rational_points(curve, data):
    lam, g, poly = _curve_schur(*curve)
    values = data.draw(st.lists(coordinate, min_size=g, max_size=g, unique=True))
    expected = poly.evaluate(dict(enumerate(values, start=1)))
    for got in [bialternant_value(lam, g, values), *_trudi_values(lam, g, values)]:
        assert type(got) is Fraction and got == expected
    # ints, Fractions and a zero in one point
    mixed = [0, -3, Fraction(5, 6), Fraction(-7, 4), 2][:g]
    expected = poly.evaluate(dict(enumerate(mixed, start=1)))
    assert bialternant_value(lam, g, mixed) == expected
    assert all(got == expected for got in _trudi_values(lam, g, mixed))
    if g > 1:
        # the Trudi routes divide by nothing, the bialternant by the Vandermonde
        repeated = values[:-1] + values[:1]
        expected = poly.evaluate(dict(enumerate(repeated, start=1)))
        assert all(got == expected for got in _trudi_values(lam, g, repeated))
        with pytest.raises(ZeroDivisionError):
            bialternant_value(lam, g, repeated)


def test_value_routes_reject_points_of_the_wrong_length():
    lam = young_diagram(CurveSignature(2, 5))
    for values in ([Fraction(1, 2), Fraction(2, 3), 5], [Fraction(1, 2)], []):
        for route in (bialternant_value, jacobi_trudi_value, tail_trudi_value):
            with pytest.raises(ValueError):
                route(lam, 2, values)
        with pytest.raises(ValueError):
            split_trudi_value(lam, 2, 1, values)
    empty = YoungDiagram(())
    with pytest.raises(ValueError):
        jacobi_trudi_value(empty, 0, [1])


# -- the bead walk against border strips on the diagram -------------------------


def _border_strips(parts, m):
    """{mu: (-1)^(rows - 1)} over the m-box border strips L/mu of L.

    Every partition mu inside L with m boxes fewer is tried; L/mu is a
    border strip when its boxes are edge-connected and hold no 2x2 square
    (Macdonald, *Symmetric Functions*, I.3 Ex. 11).
    """
    out = {}
    inside = (mu for mu in partitions(sum(parts) - m)
              if len(mu) <= len(parts) and all(x <= y for x, y in zip(mu, parts)))
    for mu in inside:
        boxes = {(i, j) for i, row in enumerate(parts)
                 for j in range(mu[i] if i < len(mu) else 0, row)}
        if any({(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= boxes for i, j in boxes):
            continue
        seen, todo = set(), [min(boxes)]
        while todo:
            i, j = todo.pop()
            if (i, j) in boxes and (i, j) not in seen:
                seen.add((i, j))
                todo += [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)]
        if seen == boxes:
            out[mu] = (-1) ** (len({i for i, _ in boxes}) - 1)
    return out


def _bead_mask(parts, beads):
    return sum(1 << (part + beads - 1 - i) for i, part in
               enumerate(list(parts) + [0] * (beads - len(parts))))


diagram_strategy = st.integers(0, 12).flatmap(
    lambda n: st.sampled_from(list(partitions(n))))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(diagram_strategy, st.integers(-3, 3)), min_size=1, max_size=4),
       st.integers(1, 12), st.integers(0, 3))
def test_rim_hook_removal_matches_border_strips(combination, m, spare):
    beads = max(len(parts) for parts, _ in combination) + spare
    state, expected = {}, {}
    for parts, c in combination:
        mask = _bead_mask(parts, beads)
        assert _partition(mask) == parts
        state[mask] = state.get(mask, 0) + c
        for mu, sign in _border_strips(parts, m).items():
            expected[mu] = expected.get(mu, 0) + c * sign
    state = {mask: c for mask, c in state.items() if c}
    got = _remove_rim_hooks(state, m)
    assert all(mask.bit_count() == beads for mask in got)
    assert {_partition(mask): c for mask, c in got.items()} == {
        mu: c for mu, c in expected.items() if c}
