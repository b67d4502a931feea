import json
import math

import pytest

from conftest import coprime_signatures
from oracles import per_level_profile
from cyclic_strata import strata
from cyclic_strata.semigroup import CurveSignature, YoungDiagram, pole_orders, young_diagram, u_weights
from cyclic_strata.strata import (
    FrobeniusCharacteristics,
    InternalConsistencyError,
    characteristics,
    fay_sets,
    hyperelliptic_natural,
    n_k,
    N_k_sum,
    N_k_tail,
    natural_k,
    natural_k_i,
    rim_hook_reading,
    stratum_profile,
    truncate_lower,
    truncate_upper,
)

SIG57 = CurveSignature(5, 7)
SIG79 = CurveSignature(7, 9)

# Per-level data of the (5,7) curve: k -> (a, b, hooks, natural).
TABLE_57 = {
    0: ((1, 4, 6, 11), (1, 4, 6, 11), (3, 9, 13, 23), (10, 6, 4, 1)),
    1: ((0, 3, 5, 10), (0, 2, 5, 7), (1, 6, 11, 18), (12, 8, 5, 2)),
    2: ((2, 4, 9), (1, 3, 6), (4, 8, 16), (9, 7, 3)),
    3: ((1, 3, 8), (0, 2, 4), (2, 6, 13), (11, 8, 4)),
    4: ((0, 2, 7), (0, 1, 3), (1, 4, 11), (12, 9, 5)),
    5: ((1, 6), (1, 2), (3, 9), (10, 6)),
    6: ((0, 5), (0, 2), (1, 8), (12, 7)),
    7: ((4,), (1,), (6,), (8,)),
    8: ((3,), (0,), (4,), (9,)),
    9: ((2,), (0,), (3,), (10,)),
    10: ((1,), (0,), (2,), (11,)),
    11: ((0,), (0,), (1,), (12,)),
}
N_57 = (4, 4, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1)
NK_57 = (48, 36, 28, 21, 16, 12, 9, 6, 4, 3, 2, 1)

TABLE_79 = {
    0: ((0, 2, 5, 7, 9, 14, 16, 23), (0, 2, 5, 7, 9, 14, 16, 23),
        (1, 5, 11, 15, 19, 29, 33, 47), (24, 20, 16, 13, 11, 6, 4, 1)),
    1: ((1, 4, 6, 8, 13, 15, 22), (1, 3, 6, 8, 10, 15, 17),
        (3, 8, 13, 17, 24, 31, 40), (22, 18, 14, 12, 8, 5, 2)),
    2: ((0, 3, 5, 7, 12, 14, 21), (0, 2, 4, 7, 9, 11, 16),
        (1, 6, 10, 15, 22, 26, 38), (24, 19, 17, 13, 9, 7, 3)),
    3: ((2, 4, 6, 11, 13, 20), (1, 3, 5, 8, 10, 12),
        (4, 8, 12, 20, 24, 33), (21, 18, 15, 10, 8, 4)),
    4: ((1, 3, 5, 10, 12, 19), (0, 2, 4, 6, 9, 11),
        (2, 6, 10, 17, 22, 31), (23, 19, 17, 12, 9, 5)),
    5: ((0, 2, 4, 9, 11, 18), (0, 1, 3, 5, 7, 10),
        (1, 4, 8, 15, 19, 29), (24, 21, 18, 13, 11, 6)),
    6: ((1, 3, 8, 10, 17), (1, 2, 4, 6, 8),
        (3, 6, 13, 17, 26), (22, 19, 14, 12, 7)),
    7: ((0, 2, 7, 9, 16), (0, 2, 3, 5, 7),
        (1, 5, 11, 15, 24), (24, 20, 16, 13, 8)),
    8: ((1, 6, 8, 15), (1, 3, 4, 6), (3, 10, 13, 22), (22, 17, 14, 9)),
    9: ((0, 5, 7, 14), (0, 2, 4, 5), (1, 8, 12, 20), (24, 18, 15, 10)),
    10: ((4, 6, 13), (1, 3, 5), (6, 10, 19), (19, 17, 11)),
    11: ((3, 5, 12), (0, 2, 4), (4, 8, 17), (21, 18, 12)),
    12: ((2, 4, 11), (0, 1, 3), (3, 6, 15), (22, 19, 13)),
    13: ((1, 3, 10), (0, 1, 2), (2, 5, 13), (23, 20, 14)),
    14: ((0, 2, 9), (0, 1, 2), (1, 4, 12), (24, 21, 15)),
    15: ((1, 8), (1, 2), (3, 11), (22, 16)),
    16: ((0, 7), (0, 2), (1, 10), (24, 17)),
    17: ((6,), (1,), (8,), (18,)),
    18: ((5,), (0,), (6,), (19,)),
    19: ((4,), (0,), (5,), (20,)),
    20: ((3,), (0,), (4,), (21,)),
    21: ((2,), (0,), (3,), (22,)),
    22: ((1,), (0,), (2,), (23,)),
    23: ((0,), (0,), (1,), (24,)),
}
N_79 = (8, 7, 7, 6, 6, 6, 5, 5, 4, 4, 3, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1)
NK_79 = (160, 136, 118, 101, 88, 76, 65, 56, 48, 41, 35, 29,
         24, 20, 17, 14, 11, 8, 6, 5, 4, 3, 2, 1)

# Natural-set grids.  The (3,10) entries for k = 1, 2 listed here satisfy the
# hook-sum identity sum of matched hooks == N_k (see the weight test below).
NATURAL_GRID = {
    (2, 3): [],
    (2, 5): [{2}],
    (2, 7): [{2}, {3}],
    (2, 9): [{2, 4}, {3}, {4}],
    (2, 11): [{2, 4}, {3, 5}, {4}, {5}],
    (2, 13): [{2, 4, 6}, {3, 5}, {4, 6}, {5}, {6}],
    (2, 15): [{2, 4, 6}, {3, 5, 7}, {4, 6}, {5, 7}, {6}, {7}],
    (2, 17): [{2, 4, 6, 8}, {3, 5, 7}, {4, 6, 8}, {5, 7}, {6, 8}, {7}, {8}],
    (3, 4): [{2}, {3}],
    (3, 5): [{2}, {3}, {4}],
    (3, 7): [{2, 5}, {3, 6}, {4}, {5}, {6}],
    (3, 8): [{2, 5}, {3, 6}, {4, 7}, {5}, {6}, {7}],
    (3, 10): [{2, 4, 8}, {3, 6, 9}, {4, 7}, {5, 8}, {6, 9}, {7}, {8}, {9}],
    (5, 6): [{2, 5, 8}, {3, 7, 9}, {4, 8, 10}, {5, 9}, {6}, {7}, {8}, {9}, {10}],
    (5, 7): [{2, 5, 8, 12}, {3, 7, 9}, {4, 8, 11}, {5, 9, 12}, {6, 10},
             {7, 12}, {8}, {9}, {10}, {11}, {12}],
}


def test_truncations():
    lam = young_diagram(SIG57)
    assert truncate_lower(lam, 4).parts == (4, 3, 3, 2, 1, 1, 1, 1)
    assert truncate_upper(lam, 0).parts == ()
    assert truncate_upper(lam, 12) == lam
    assert truncate_lower(lam, 0) == lam
    assert truncate_lower(young_diagram(CurveSignature(2, 5)), 1).parts == (1,)
    with pytest.raises(ValueError):
        truncate_upper(lam, 13)
    with pytest.raises(ValueError):
        truncate_lower(lam, -1)


def test_characteristics_examples():
    lam = young_diagram(SIG57)
    chars = characteristics(truncate_lower(lam, 2))
    assert (chars.a, chars.b) == ((2, 4, 9), (1, 3, 6))
    chars79 = characteristics(truncate_lower(young_diagram(SIG79), 13))
    assert (chars79.a, chars79.b) == ((1, 3, 10), (0, 1, 2))
    single = characteristics(YoungDiagram((1,)))
    assert (single.a, single.b) == ((0,), (0,))
    assert characteristics(YoungDiagram(())).rank == 0


def test_characteristics_validation():
    with pytest.raises(ValueError):
        FrobeniusCharacteristics((1, 1), (0, 2))
    with pytest.raises(ValueError):
        FrobeniusCharacteristics((0,), (0, 1))
    with pytest.raises(ValueError, match="non-negative"):
        FrobeniusCharacteristics((-1,), (0,))


def test_characteristics_roundtrip_and_weight():
    for r, s in coprime_signatures(13):
        diagram = young_diagram(CurveSignature(r, s))
        for k in range(len(diagram) + 1):
            tail = truncate_lower(diagram, k)
            chars = characteristics(tail)
            assert chars.to_diagram() == tail
            assert sum(chars.hooks()) == tail.weight()


def test_table_57():
    assert tuple(n_k(SIG57, k) for k in range(12)) == N_57
    assert n_k(SIG57, 12) == 0
    assert tuple(N_k_tail(SIG57, k) for k in range(12)) == NK_57
    for k, (a, b, hooks, natural) in TABLE_57.items():
        profile = stratum_profile(SIG57, k)
        assert (profile.chars.a, profile.chars.b) == (a, b)
        assert profile.chars.hooks() == hooks
        assert profile.natural == natural
        assert profile.N_k == sum(hooks)


def test_table_79():
    assert tuple(n_k(SIG79, k) for k in range(24)) == N_79
    assert tuple(N_k_tail(SIG79, k) for k in range(24)) == NK_79
    for k, (a, b, hooks, natural) in TABLE_79.items():
        profile = stratum_profile(SIG79, k)
        assert (profile.chars.a, profile.chars.b) == (a, b)
        assert profile.chars.hooks() == hooks
        assert profile.natural == natural


def test_n_k_examples():
    assert n_k(SIG79, 13) == 3
    for r, s in coprime_signatures(13):
        sig = CurveSignature(r, s)
        if sig.genus >= 1:
            assert n_k(sig, sig.genus - 1) == 1
    for count in (n_k, N_k_sum):
        with pytest.raises(ValueError, match=r"k must lie in \[0, 12\], got 13"):
            count(SIG57, 13)


def test_n_k_equals_tail_rank():
    for r, s in coprime_signatures(13):
        sig = CurveSignature(r, s)
        diagram = young_diagram(sig)
        for k in range(sig.genus + 1):
            assert n_k(sig, k) == characteristics(truncate_lower(diagram, k)).rank


def test_N_k_identity_all_signatures():
    for r, s in coprime_signatures(13):
        sig = CurveSignature(r, s)
        for k in range(sig.genus + 1):
            assert N_k_sum(sig, k) == N_k_tail(sig, k)
        assert N_k_tail(sig, sig.genus) == 0


def test_hyperelliptic_closed_form():
    for g in range(2, 11):
        sig = CurveSignature(2, 2 * g + 1)
        for k in range(g + 1):
            assert N_k_tail(sig, k) == (g - k) * (g - k + 1) // 2


def test_fay_sets():
    m_plus, m_minus = fay_sets(CurveSignature(2, 5), 1)
    assert m_plus == (0,) and m_minus == (0,)
    # (5,7) level 11: n = 1 and N = 1 force both sets to {0}
    m_plus, m_minus = fay_sets(SIG57, 11)
    assert m_plus == (0,) and m_minus == (0,)
    for r, s in coprime_signatures(11):
        sig = CurveSignature(r, s)
        for k in range(sig.genus):
            count = n_k(sig, k)
            m_plus, m_minus = fay_sets(sig, k)
            assert len(m_plus) == count and len(m_minus) == count
            assert count + sum(m_plus) + sum(m_minus) == N_k_tail(sig, k)
        if sig.genus >= 2:
            assert fay_sets(sig, sig.genus - 1) == ((0,), (0,))
    with pytest.raises(ValueError, match=r"k must lie in \[0, 12\), got 12"):
        fay_sets(SIG57, 12)


def test_natural_grid():
    for (r, s), expected in NATURAL_GRID.items():
        sig = CurveSignature(r, s)
        got = [set(natural_k(sig, k)) for k in range(1, sig.genus)]
        assert got == expected, (r, s)


def test_natural_weight_identity():
    hooks_cache = {}
    for r, s in coprime_signatures(13):
        sig = CurveSignature(r, s)
        weights = u_weights(sig)
        for k in range(sig.genus + 1):
            nat = natural_k(sig, k)
            assert len(nat) == n_k(sig, k)
            assert sum(weights[i - 1] for i in nat) == N_k_tail(sig, k)
            if 1 <= k < sig.genus:
                assert nat[-1] == k + 1
            assert nat == tuple(sorted(nat, reverse=True))


def test_natural_k_i():
    sig = CurveSignature(2, 9)
    assert natural_k_i(sig, 1, 1) == (4, 1)
    assert set(natural_k_i(sig, 3, 2)) == {2}.union(set(natural_k(sig, 3)) - {4})
    assert natural_k_i(sig, 4, 3) == (3,)  # k = g case
    with pytest.raises(ValueError):
        natural_k_i(sig, 2, 3)
    for k, i, message in [(0, 1, r"k must lie in \[1, 4\], got 0"),
                          (5, 1, r"k must lie in \[1, 4\], got 5"),
                          (4, 0, r"i must lie in \[1, 4\], got 0"),
                          (4, 5, r"i must lie in \[1, 4\], got 5")]:
        with pytest.raises(ValueError, match=message):
            natural_k_i(sig, k, i)
    # at k = g the base set is empty, so each variant is the one index i
    for r, s in coprime_signatures(13):
        curve = CurveSignature(r, s)
        g = curve.genus
        indices = range(1, g + 1)
        assert [natural_k_i(curve, g, i) for i in indices] == [(i,) for i in indices], (r, s)


def test_hyperelliptic_natural_examples():
    assert set(hyperelliptic_natural(8, 1)) == {2, 4, 6, 8}
    assert set(hyperelliptic_natural(6, 2)) == {3, 5}
    for g in range(2, 11):
        assert hyperelliptic_natural(g, g - 1) == (g,)
        sig = CurveSignature(2, 2 * g + 1)
        for k in range(1, g):
            assert set(hyperelliptic_natural(g, k)) == set(natural_k(sig, k))
    with pytest.raises(ValueError, match="genus must be >= 2, got 1"):
        hyperelliptic_natural(1, 1)
    with pytest.raises(ValueError, match=r"k must lie in \[1, 4\], got 0"):
        hyperelliptic_natural(5, 0)


def test_rim_hook_reading():
    expected = ((1, 12), (1, 11), (1, 10), (1, 9), (1, 8), (2, 8),
                (2, 7), (3, 7), (3, 6), (3, 5), (4, 5), (4, 4))
    assert rim_hook_reading(SIG57) == expected
    # brute-force cross-check on (2,5): rim of (2,1) walked from (1,2)
    assert rim_hook_reading(CurveSignature(2, 5)) == ((1, 2), (1, 1))
    assert rim_hook_reading(CurveSignature(2, 3)) == ((1, 1),)
    assert rim_hook_reading(CurveSignature(1, 2)) == ()  # genus 0: nothing to read


def test_rim_hook_matches_counts():
    # nodes along the rim are (n_k, n_k + k) for k = g-1 down to 0
    for r, s in coprime_signatures(13):
        sig = CurveSignature(r, s)
        g = sig.genus
        expected = tuple((n_k(sig, k), n_k(sig, k) + k) for k in range(g - 1, -1, -1))
        assert rim_hook_reading(sig) == expected
        # each node is on the rim: inside the diagram, (i+1, j+1) outside
        diagram = young_diagram(sig)
        for i, j in expected:
            assert diagram.contains(i, j)
            assert not diagram.contains(i + 1, j + 1)


def test_profile_json_roundtrip():
    profile = stratum_profile(SIG57, 2)
    payload = json.loads(json.dumps(profile.to_json_dict()))
    assert payload == {
        "k": 2, "n_k": 3, "N_k": 28,
        "a": [2, 4, 9], "b": [1, 3, 6],
        "natural": [9, 7, 3], "m_plus": list(profile.m_plus),
        "m_minus": list(profile.m_minus),
    }


@pytest.mark.parametrize("s", [*range(3, 41), 201])
def test_table_matches_the_per_level_oracle(s):
    for r in [2] if s == 201 else [r for r in range(2, s) if math.gcd(r, s) == 1]:
        sig = CurveSignature(r, s)
        for k in range(sig.genus + 1):
            expected = per_level_profile(sig, k)
            assert stratum_profile(sig, k) == expected, (r, s, k)
            assert natural_k(sig, k) == expected.natural, (r, s, k)


@pytest.mark.parametrize("r, s, name, value, message", [
    (3, 4, "pole_orders", pole_orders(CurveSignature(2, 7)),
     r"rank 1 of the tail disagrees with n_k = 2 \(k=0\)"),
    (2, 9, "pole_orders", pole_orders(CurveSignature(3, 5)), "N_k computations disagree at k=0"),
    (3, 4, "u_weights", u_weights(CurveSignature(2, 7)),
     r"no row of the \(3,4\) diagram has hook length 2 \(k=1\)"),
    (3, 4, "u_weights", (2, 5, 1), r"natural index set for k=1 does not end at k\+1: \(1,\)"),
    (2, 5, "pole_orders", (0, 2, 3), "Fay set sizes disagree with n_k at k=2"),
    (3, 7, "pole_orders", (1, 2, 7, 8, 9, 10, 11), "Fay sets do not recompose N_k at k=1"),
    (3, 4, "u_weights", (5, 2, 2), "first-column hook lengths are not distinct"),
])
def test_table_checks_fire_on_inconsistent_data(monkeypatch, r, s, name, value, message):
    # Each injection keeps every earlier check consistent, so the named one fires.
    sig = CurveSignature(r, s)
    strata.stratum_table.cache_clear()
    monkeypatch.setattr(strata, name, lambda _sig: value)
    for read in (stratum_profile, natural_k):
        with pytest.raises(InternalConsistencyError, match=message):
            read(sig, 0)
    monkeypatch.undo()
    assert stratum_profile(sig, 0) == per_level_profile(sig, 0)


def test_k_is_checked_before_the_table_is_read(monkeypatch):
    def unreachable(sig):
        raise AssertionError("the table was read for a level outside [0, g]")

    monkeypatch.setattr(strata, "stratum_table", unreachable)
    for read in (stratum_profile, natural_k):
        for k in (-1, SIG57.genus + 1):
            with pytest.raises(ValueError, match=r"k must lie in \[0, 12\]"):
                read(SIG57, k)


def test_table_cache_is_bounded():
    table = strata.stratum_table
    maxsize = table.cache_info().maxsize
    assert maxsize == 64
    signatures = [CurveSignature(r, s) for r, s in coprime_signatures(30)[:100]]
    assert len(set(signatures)) == 100
    for sig in signatures:
        natural_k(sig, sig.genus)
    assert table.cache_info().currsize <= maxsize
