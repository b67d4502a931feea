import importlib
import pkgutil

import pytest

import cyclic_strata
from conftest import coprime_signatures
from cyclic_strata.semigroup import (
    CurveSignature,
    NonGapSequence,
    YoungDiagram,
    monomial_basis,
    nongap_sequence,
    pole_orders,
    u_weights,
    young_diagram,
)

SIG57 = CurveSignature(5, 7)
SIG79 = CurveSignature(7, 9)

# Pole orders and monomials of the (5,7) and (7,9) curves.
NONGAPS_57 = (0, 5, 7, 10, 12, 14, 15, 17, 19, 20, 21, 22, 24)
MONOMIALS_57 = ["1", "x", "y", "x^2", "x*y", "y^2", "x^3", "x^2*y",
                "x*y^2", "x^4", "y^3", "x^3*y", "x^2*y^2"]
DIAGRAM_57 = (12, 8, 7, 5, 4, 3, 3, 2, 1, 1, 1, 1)
HOOKS_57 = (23, 18, 16, 13, 11, 9, 8, 6, 4, 3, 2, 1)

NONGAPS_79 = (0, 7, 9, 14, 16, 18, 21, 23, 25, 27, 28, 30, 32,
              34, 35, 36, 37, 39, 41, 42, 43, 44, 45, 46, 48)
# phi(24): pole order 48 forces x^3*y^3 (48 = 3*7 + 3*9; b = 3 is the unique
# residue with 0 <= b < 7), and hook(12) = 5 + 24 - 12 = 17.
MONOMIALS_79 = ["1", "x", "y", "x^2", "x*y", "y^2", "x^3", "x^2*y", "x*y^2",
                "y^3", "x^4", "x^3*y", "x^2*y^2", "x*y^3", "x^5", "y^4",
                "x^4*y", "x^3*y^2", "x^2*y^3", "x^6", "x*y^4", "x^5*y",
                "y^5", "x^4*y^2", "x^3*y^3"]
DIAGRAM_79 = (24, 18, 17, 13, 12, 11, 9, 8, 7, 6, 6, 5,
              4, 3, 3, 3, 3, 2, 1, 1, 1, 1, 1, 1)
HOOKS_79 = (47, 40, 38, 33, 31, 29, 26, 24, 22, 20, 19, 17,
            15, 13, 12, 11, 10, 8, 6, 5, 4, 3, 2, 1)


def test_signature_validation():
    assert SIG57.genus == 12
    assert SIG79.genus == 24
    with pytest.raises(ValueError):
        CurveSignature(4, 6)  # not coprime
    with pytest.raises(ValueError):
        CurveSignature(7, 5)  # r >= s
    with pytest.raises(ValueError):
        CurveSignature(0, 5)


def test_nongap_sequences_golden():
    assert nongap_sequence(SIG57, 13).values == NONGAPS_57
    assert nongap_sequence(SIG79, 25).values == NONGAPS_79
    assert nongap_sequence(CurveSignature(2, 3), 2).values == (0, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: NonGapSequence(SIG57, (5, 7)), "must start at N\\(0\\) = 0"),
    (lambda: NonGapSequence(SIG57, (0, 5, 5)), "strictly increasing"),
    (lambda: nongap_sequence(SIG57, 0), "count must be >= 1"),
], ids=["not_from_0", "not_increasing", "count_0"])
def test_nongap_sequence_validation(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_nongap_endpoint_identities():
    for r, s in coprime_signatures(13):
        sig = CurveSignature(r, s)
        g = sig.genus
        values = nongap_sequence(sig, g + 1).values
        assert values[0] == 0
        assert values[g - 1] == 2 * g - 2
        assert values[g] == 2 * g


def test_monomial_basis_golden():
    assert [m.name() for m in monomial_basis(SIG57, 13)] == MONOMIALS_57
    assert [m.name() for m in monomial_basis(SIG79, 25)] == MONOMIALS_79
    # (7,9): the monomial of pole order 28 is x^4
    m10 = monomial_basis(SIG79, 11)[10]
    assert (m10.a, m10.b, m10.wdeg) == (4, 0, 28)
    # smallest nonzero pole order is r
    m1 = monomial_basis(CurveSignature(2, 5), 2)[1]
    assert (m1.a, m1.b, m1.wdeg) == (1, 0, 2)


def brute_semigroup(r, s, bound):
    """Oracle: {a*r + b*s <= bound} with the (a, b), 0 <= b < r, of each."""
    reps = {}
    for b in range(r):
        for a in range((bound - b * s) // r + 1 if b * s <= bound else 0):
            reps[a * r + b * s] = (a, b)
    return reps


def test_monomial_wdeg_matches_nongaps():
    # counts up to 3s run past N(g) = 2g, where N(n) = n + g.
    for r, s in coprime_signatures(15):
        sig = CurveSignature(r, s)
        g = sig.genus
        count = 3 * s
        reps = brute_semigroup(r, s, count + 2 * g)
        expected = sorted(reps)[:count]
        assert nongap_sequence(sig, count).values == tuple(expected)
        assert nongap_sequence(sig, count).gaps() == tuple(
            n for n in range(2 * g) if n not in reps
        )
        basis = monomial_basis(sig, count)
        assert [(mono.a, mono.b) for mono in basis] == [reps[n] for n in expected]
        for n, mono in enumerate(basis):
            assert mono.wdeg == expected[n]
            assert mono.a * r + mono.b * s == expected[n]
            assert 0 <= mono.b < r
        for c in range(1, count):
            assert nongap_sequence(sig, c).values == tuple(expected[:c])


def test_young_diagram_golden():
    assert young_diagram(SIG57).parts == DIAGRAM_57
    assert young_diagram(SIG79).parts == DIAGRAM_79
    assert young_diagram(CurveSignature(2, 3)).parts == (1,)


def test_diagram_weight_formula():
    for r, s in coprime_signatures(13):
        sig = CurveSignature(r, s)
        assert young_diagram(sig).weight() == (r * r - 1) * (s * s - 1) // 24


def test_u_weights_golden():
    assert u_weights(SIG57) == HOOKS_57
    assert u_weights(SIG79)[:3] == (47, 40, 38)
    assert u_weights(SIG79) == HOOKS_79


def test_u_weights_are_first_row_hooks():
    # 2g - N(i-1) - 1 agrees with L_i + g - i, the last weight is 1, and the
    # i-th weight is the hook length of node (1, i): the first row always has
    # length g, so arm + leg + 1 = (g - i) + (conj_i - 1) + 1 must match.
    for r, s in coprime_signatures(13):
        sig = CurveSignature(r, s)
        g = sig.genus
        diagram = young_diagram(sig)
        weights = u_weights(sig)
        assert weights == tuple(diagram.part(i) + g - i for i in range(1, g + 1))
        if g == 0:
            continue
        assert weights[-1] == 1
        assert diagram.part(1) == g
        conj = diagram.conjugate()
        for i in range(1, g + 1):
            assert weights[i - 1] == (g - i) + conj.part(i)


def test_gap_count_is_genus():
    for r, s in coprime_signatures(13):
        sig = CurveSignature(r, s)
        assert len(nongap_sequence(sig, max(sig.genus, 1)).gaps()) == sig.genus


def test_curve_data_is_cached_by_signature_value():
    # Fresh signature instances share one cache entry, and no lru_cache of
    # any module of the package is unbounded.
    assert young_diagram(CurveSignature(5, 7)) is young_diagram(CurveSignature(5, 7))
    assert u_weights(CurveSignature(5, 7)) is u_weights(CurveSignature(5, 7))
    assert pole_orders(CurveSignature(5, 7)) is pole_orders(CurveSignature(5, 7))
    assert pole_orders(SIG57) == NONGAPS_57
    caches = {
        (module.__name__, name): value
        for info in pkgutil.iter_modules(cyclic_strata.__path__)
        for module in [importlib.import_module(f"cyclic_strata.{info.name}")]
        for name, value in vars(module).items()
        if callable(getattr(value, "cache_info", None)) and value.__module__ == module.__name__
    }
    assert {pole_orders, young_diagram, u_weights} <= set(caches.values())
    for key, cached in caches.items():
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and maxsize > 0, key


def test_young_diagram_validation():
    with pytest.raises(ValueError):
        YoungDiagram((1, 2))
    with pytest.raises(ValueError):
        YoungDiagram((2, 0))
    d = YoungDiagram((3, 1))
    assert d.part(1) == 3 and d.part(2) == 1 and d.part(5) == 0
    with pytest.raises(IndexError, match="1-based"):
        d.part(0)
    assert d.conjugate().parts == (2, 1, 1)
    assert d.conjugate().conjugate() == d
