import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb
from math import prod

import pytest

from conftest import coprime_signatures
from oracles import box_by_box_survivors, determinant_power_sum_form, tail_hierarchy
from cyclic_strata import certifier
from cyclic_strata import cli
from cyclic_strata.certifier import (
    CertificateBundle,
    CertificationError,
    DerivativeCertificate,
    _beads,
    _constant_multiple_certificate,
    _partition,
    _prune,
    _remove_rim_hooks,
    _schur_sum_value,
    _survivors,
    _vanishing_walk,
    build_hierarchy,
    certify_g_power,
    certify_natural,
    sub_vanishing_sweep,
    trial_points,
)
from cyclic_strata.polynomials import SparsePolynomial
from cyclic_strata.schur import _tableaux
from cyclic_strata.schur import schur_bialternant
from cyclic_strata.semigroup import CurveSignature, YoungDiagram, u_weights, young_diagram
from cyclic_strata.strata import FrobeniusCharacteristics, stratum_table
from cyclic_strata.strata import natural_k, natural_k_i


SIG25 = CurveSignature(2, 5)


def test_trial_points_are_distinct_nonzero():
    for k in (1, 3, 6):
        for trial in range(4):
            pts = trial_points(k, trial, seed=0)
            assert len(pts) == k == len(set(pts))
            assert all(p != 0 for p in pts)
    assert trial_points(2, 0, seed=0) != trial_points(2, 1, seed=0)
    assert trial_points(2, 0, seed=5) != trial_points(2, 0, seed=6)
    for trial, seed in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="must be non-negative"):
            trial_points(2, trial, seed)


def derivative_value(sig, k, index, point):
    """(prod d/du_i) S at a level-k point: sum c_nu s_nu(point) over the survivors."""
    return _schur_sum_value(_survivors(sig, k, index), k, point)


def restricted_poly(sig, k, index):
    """(prod d/du_i) S on level k as a t-polynomial: sum c_nu s_nu(t_1..t_k)."""
    total = SparsePolynomial.zero("t")
    for nu, c in _survivors(sig, k, index).items():
        total = total + schur_bialternant(YoungDiagram(nu), k).scale(c)
    return total


def test_derivative_on_stratum_examples():
    # On (2,5): S = u2^3/3 - u1; on the level-1 locus u1 = t^3/3, u2 = t.
    assert derivative_value(SIG25, 1, (2,), (Fraction(1, 2),)) == Fraction(1, 4)  # t^2
    assert derivative_value(SIG25, 1, (), (Fraction(1, 2),)) == 0
    # at level g there is no restriction left: S itself is generically nonzero
    assert derivative_value(SIG25, 2, (), (Fraction(1, 2), Fraction(1, 3))) != 0


def substitute_route(sig, index_multiset):
    """Independent oracle: expand S in the u coordinates, differentiate, and
    return a function of k substituting the level-k power sums.

    u_i = p_(hook_i) / hook_i: each 1/hook_i is folded into the coefficients
    first, so that the images substituted are the integer power sums.
    """
    hooks = u_weights(sig)
    derivative = determinant_power_sum_form(young_diagram(sig).parts, sig)[1]
    for i in index_multiset:
        derivative = derivative.partial_derivative(i)
    folded = SparsePolynomial("u", {
        m: Fraction(c, prod(hooks[i - 1] ** e for i, e in m)) for m, c in derivative.terms.items()
    })

    def at_level(k):
        if folded.is_constant():  # substitute would keep the u family
            return SparsePolynomial.constant("t", folded.constant_value())
        assignment = {i: SparsePolynomial("t", {((v, hooks[i - 1]),): 1 for v in range(1, k + 1)})
                      for i in folded.variables()}
        return folded.substitute(assignment)

    return at_level


def test_derivative_matches_expanded_route():
    # The rim-hook engine against the expand-differentiate-substitute oracle:
    # every multiset of size <= 3 at every level, as polynomials and as values.
    for rs in [(2, 5), (2, 7), (3, 4), (3, 5), (4, 5)]:
        sig = CurveSignature(*rs)
        g = sig.genus
        for size in range(4):
            for index in combinations_with_replacement(range(1, g + 1), size):
                oracle = substitute_route(sig, index)
                for k in range(1, g):
                    want = oracle(k)
                    assert restricted_poly(sig, k, index) == want, (rs, k, index)
                    pts = trial_points(k, k % 2)
                    assignment = dict(enumerate(pts, start=1))
                    value = want.evaluate(assignment) if not want.is_zero() else 0
                    assert derivative_value(sig, k, index, pts) == value, (rs, k, index)


def unpruned_verdicts(sig, k, first, top):
    """Every nondecreasing multiset over [first, g] of size <= top, in walk
    (lexicographic) order, with whether its derivative survives on level k;
    states are extended one index at a time and never pruned."""
    g = sig.genus
    hooks = u_weights(sig)
    out = []

    def visit(state, index, last):
        out.append((index, any(len(_partition(mask)) <= k for mask in state)))
        if len(index) < top:
            for j in range(last, g + 1):
                visit(_remove_rim_hooks(state, hooks[j - 1]), index + (j,), j)

    visit({_beads(sig): 1}, (), first)
    return out


def test_pruned_walk_matches_unpruned():
    for rs in [(3, 8), (5, 7)]:
        sig = CurveSignature(*rs)
        g = sig.genus
        for k in range(1, g):
            n = len(natural_k(sig, k))
            verdicts = unpruned_verdicts(sig, k, 1, n)
            below = [survives for index, survives in verdicts if len(index) < n]
            assert not any(below)
            assert sub_vanishing_sweep(sig, k).checked == len(below)
            # One order further the walk must stop at the first surviving multiset.
            first_survivor = next(index for index, survives in verdicts if survives)
            with pytest.raises(CertificationError) as info:
                _vanishing_walk(sig, k, 1, n + 1, 1, 0)
            error = info.value
            assert error.index_multiset == first_survivor
            assert error.survivors and all(len(nu) <= k for nu in error.survivors)
            assert derivative_value(sig, k, first_survivor, error.point) != 0
            # The pure chain along u_g: every power below N_k vanishes (checked
            # unpruned on short chains only; unpruned states grow along it).
            total = sum(u_weights(sig)[i - 1] for i in natural_k(sig, k))
            if total <= 12:
                chain = unpruned_verdicts(sig, k, g, total - 1)
                assert not any(survives for _, survives in chain)
            assert _vanishing_walk(sig, k, g, total, 1, 0) == total


def test_trial_points_are_built_only_for_witnesses(monkeypatch):
    calls = []

    def counted(k, trial, seed=0):
        calls.append(trial)
        return trial_points(k, trial, seed)

    monkeypatch.setattr(certifier, "trial_points", counted)
    sig = CurveSignature(2, 7)
    for k in range(1, sig.genus):
        certify_natural(sig, k)
        sub_vanishing_sweep(sig, k)
        for ell in range(1, len(natural_k(sig, k)) + 2):
            certify_g_power(sig, k, ell)
    assert calls == []
    # The failing walks of test_pruned_walk_matches_unpruned search the trial
    # points in order and stop at the witness.
    for rs in [(3, 8), (5, 7)]:
        sig = CurveSignature(*rs)
        for k in range(1, sig.genus):
            calls.clear()
            with pytest.raises(CertificationError) as info:
                _vanishing_walk(sig, k, 1, len(natural_k(sig, k)) + 1, 50, 0)
            witness = next(t for t in range(50) if trial_points(k, t) == info.value.point)
            assert calls == list(range(witness + 1)), (rs, k)


def test_long_chains_match_unpruned():
    # Pure u_g chains of every order up to one past the diagram size: the
    # pruned survivors against single boxes removed without pruning.
    for rs in [(3, 5), (4, 5), (3, 7)]:
        sig = CurveSignature(*rs)
        g = sig.genus
        state = {_beads(sig): 1}
        for order in range(young_diagram(sig).weight() + 2):
            for k in range(1, g):
                stepwise = {_partition(m): c for m, c in state.items() if len(_partition(m)) <= k}
                assert _survivors(sig, k, (g,) * order) == stepwise, (rs, k, order)
            state = _remove_rim_hooks(state, 1)


def test_prune_reads_rows_below_off_the_size():
    # States reached by random rim-hook removals: for every level and for
    # budgets on both sides of each term's count, _prune keeps exactly the
    # terms with at most ``budget`` boxes below row k.
    rng = random.Random(15)
    for rs in [(2, 9), (3, 7), (4, 5), (3, 10), (5, 7)]:
        sig = CurveSignature(*rs)
        g = sig.genus
        sizes = u_weights(sig) + (1, 2, 3)
        for _ in range(3):
            state, size = {_beads(sig): 1}, sig.diagram_weight()
            while state:
                for k in range(1, g):
                    below = {mask: sum(_partition(mask)[k:]) for mask in state}
                    for budget in {b + d for b in below.values() for d in (-1, 0)}:
                        expected = {m: c for m, c in state.items() if below[m] <= budget}
                        kept = _prune(state, g, k, size, budget, g - k)
                        assert kept == expected, (rs, k, budget)
                m = rng.choice(sizes)
                state, size = _remove_rim_hooks(state, m), size - m


def holes(nu, g, k):
    """Empty positions in 0..g-k-1 of nu's g-bead abacus, bead i at nu_i + g - i."""
    beads = {p + g - i for i, p in enumerate(nu + (0,) * (g - len(nu)), start=1)}
    return sum(1 for x in range(g - k) if x not in beads)


def test_prune_drops_terms_with_more_holes_than_moves():
    # States reached by random rim-hook removals: with the size bound slack,
    # _prune keeps exactly the terms with at most ``moves`` holes; with both
    # bounds set it keeps the terms that meet both.
    rng = random.Random(16)
    for rs in [(2, 9), (3, 7), (4, 5), (3, 10), (5, 7)]:
        sig = CurveSignature(*rs)
        g = sig.genus
        sizes = u_weights(sig) + (1, 2, 3)
        for _ in range(3):
            state, size = {_beads(sig): 1}, sig.diagram_weight()
            while state:
                for k in range(1, g):
                    gaps = {mask: holes(_partition(mask), g, k) for mask in state}
                    below = {mask: sum(_partition(mask)[k:]) for mask in state}
                    for moves in {h + d for h in gaps.values() for d in (-1, 0) if h + d >= 0}:
                        expected = {m: c for m, c in state.items() if gaps[m] <= moves}
                        assert _prune(state, g, k, size, size, moves) == expected, (rs, k, moves)
                        budget = rng.choice(list(below.values()))
                        expected = {m: c for m, c in expected.items() if below[m] <= budget}
                        assert _prune(state, g, k, size, budget, moves) == expected, (rs, k)
                m = rng.choice(sizes)
                state, size = _remove_rim_hooks(state, m), size - m


def test_dropped_terms_have_no_short_descendant():
    # A term dropped with ``moves`` derivatives left has no descendant with
    # l(nu) <= k after that many rim-hook removals of the curve's hooks,
    # followed on single bead masks without pruning.
    rng = random.Random(17)
    dropped_count = 0
    for rs in [(3, 5), (2, 9), (3, 7), (4, 5)]:
        sig = CurveSignature(*rs)
        g = sig.genus
        hooks = u_weights(sig)
        state, size = {_beads(sig): 1}, sig.diagram_weight()
        for _ in range(3):
            for k in range(1, g):
                for moves in range(3):
                    kept = _prune(state, g, k, size, size, moves)
                    frontier = set(state) - set(kept)
                    dropped_count += len(frontier)
                    for _ in range(moves + 1):
                        assert all(len(_partition(mask)) > k for mask in frontier), (rs, k)
                        frontier = {
                            child for mask in frontier for m in hooks
                            for child in _remove_rim_hooks({mask: 1}, m)
                        }
            m = rng.choice(hooks[1:])
            state, size = _remove_rim_hooks(state, m), size - m
    assert dropped_count


def g_power_index(sig, k, ell):
    """The index multiset of the ell-th g-power trade at level k."""
    hooks = u_weights(sig)
    nat = natural_k(sig, k)
    dropped = sum(hooks[i - 1] for i in nat[: ell - 1])
    return tuple(sorted(nat[ell - 1:] + (sig.genus,) * dropped))


def test_survivors_match_box_by_box_oracle():
    # Every natural subset, variant set and g-power trade of each level, and
    # random multisets ending in runs of u_g derivatives of length up to 8.
    rng = random.Random(16)
    for rs in [(3, 5), (4, 5), (3, 7), (5, 7), (2, 9), (3, 8)]:
        sig = CurveSignature(*rs)
        g = sig.genus
        for k in range(1, g):
            nat = natural_k(sig, k)
            indices = {tuple(sorted(sub)) for n in range(len(nat) + 1) for sub in combinations(nat, n)}
            indices |= {tuple(sorted(natural_k_i(sig, k, i))) for i in range(1, k + 1)}
            indices |= {g_power_index(sig, k, ell) for ell in range(1, len(nat) + 2)}
            for _ in range(20):
                prefix = rng.choices(range(1, g), k=rng.randint(0, 4))
                indices.add(tuple(sorted(prefix)) + (g,) * rng.randint(0, 8))
            for index in sorted(indices):
                assert _survivors(sig, k, index) == box_by_box_survivors(sig, k, index), (rs, k, index)


def test_certified_runs_close_in_one_pass(monkeypatch):
    # Every natural set, g-power trade and variant set of the curves with
    # g <= 12 closes its u_g run without a peel.  The certifier's other
    # hooks are >= 2, so a removal of size 1 can only come from the peel,
    # which a pure chain longer than N_k does reach.
    sizes = []
    remove = certifier._remove_rim_hooks

    def recording(state, m):
        sizes.append(m)
        return remove(state, m)

    monkeypatch.setattr(certifier, "_remove_rim_hooks", recording)
    closures = 0
    for rs in coprime_signatures(25):
        sig = CurveSignature(*rs)
        g = sig.genus
        if g > 12:
            continue
        for k in range(1, g):
            nat = natural_k(sig, k)
            indices = {tuple(sorted(nat))}
            indices |= {g_power_index(sig, k, ell) for ell in range(1, len(nat) + 2)}
            indices |= {tuple(sorted(natural_k_i(sig, k, i))) for i in range(1, k + 1)}
            for index in indices:
                _survivors.cache_clear()
                _survivors(sig, k, index)
                assert 1 not in sizes, (rs, k, index)
                closures += 1
    assert closures > 1000 and sizes
    sig = CurveSignature(3, 5)
    _survivors.cache_clear()
    _survivors(sig, 1, (sig.genus,) * (sum(young_diagram(sig).parts[1:]) + 1))
    assert 1 in sizes


@lru_cache(maxsize=None)
def corner_tableaux(shape):
    """Standard tableaux of a straight shape: the last box sits in a corner."""
    if not shape:
        return 1
    total = 0
    for i, p in enumerate(shape):
        if i + 1 == len(shape) or shape[i + 1] < p:
            total += corner_tableaux(tuple(q for q in shape[:i] + (p - 1,) + shape[i + 1:] if q))
    return total


def test_pure_case_is_the_head_times_tail_tableaux():
    # N_k derivatives along u_g leave only the head, with f of the tail.
    for rs in coprime_signatures(25):
        sig = CurveSignature(*rs)
        g = sig.genus
        if g > 12:
            continue
        hooks = u_weights(sig)
        parts = young_diagram(sig).parts
        for k in range(1, g):
            head, tail = parts[:k], parts[k:]
            assert sum(tail) == sum(hooks[i - 1] for i in natural_k(sig, k)), (rs, k)
            expected = {head: corner_tableaux(tail)}
            assert _survivors(sig, k, (g,) * sum(tail)) == expected, (rs, k)


def test_mixed_partials_commute():
    # Rim hooks removed in any order give one combination of partitions.
    sig = CurveSignature(2, 9)
    hooks = u_weights(sig)
    states = []
    for order in [(2, 3, 4), (4, 3, 2), (3, 4, 2)]:
        state = {_beads(sig): 1}
        for i in order:
            state = _remove_rim_hooks(state, hooks[i - 1])
        states.append(state)
    assert states[0] and states[0] == states[1] == states[2]
    survivors = {_partition(m): c for m, c in states[0].items() if len(_partition(m)) <= 2}
    assert _survivors(sig, 2, (2, 3, 4)) == survivors


def test_certifiers_reject_bad_trials_and_seed():
    sig = CurveSignature(2, 7)
    certifiers = [
        lambda **settings: certify_natural(sig, 1, **settings),
        lambda **settings: sub_vanishing_sweep(sig, 1, **settings),
        lambda **settings: certify_g_power(sig, 1, 1, **settings),
    ]
    for run in certifiers:
        for settings in [{"trials": 0}, {"trials": -2}, {"seed": -1}]:
            with pytest.raises(ValueError):
                run(**settings)


@pytest.mark.parametrize("k", [0, 3])
def test_certify_natural_rejects_a_level_outside_1_to_g(k):
    with pytest.raises(ValueError, match=r"k must lie in \[1, 3\)"):
        certify_natural(CurveSignature(2, 7), k)


def test_certify_natural_small():
    bundle = certify_natural(CurveSignature(2, 9), 1)
    assert bundle.main.verdict == "nonzero"
    assert abs(bundle.main.constant) == 1
    assert bundle.mode == "expanded"
    # zero certificates for all proper subsets are included
    zero_sets = [c.index_multiset for c in bundle.certificates if c.verdict == "zero"]
    assert () in zero_sets and (2,) in zero_sets and (4,) in zero_sets

    bundle34 = certify_natural(CurveSignature(3, 4), 1)
    assert bundle34.main.constant == -1


def test_natural_zero_certificates_are_the_proper_subsets():
    # One walk proves them; each subset's own survivors are the oracle.
    for rs in [(3, 5), (4, 5), (3, 7), (5, 7), (2, 9), (3, 8), (2, 21)]:
        sig = CurveSignature(*rs)
        for k in range(1, sig.genus):
            nat = natural_k(sig, k)
            subsets = [tuple(sorted(s)) for n in range(len(nat)) for s in combinations(nat, n)]
            bundle = certify_natural(sig, k)
            zero = bundle.certificates[:-1]
            assert [c.index_multiset for c in zero] == subsets, (rs, k)
            assert all((c.verdict, c.constant) == ("zero", None) for c in zero), (rs, k)
            assert all(_survivors(sig, k, subset) == {} for subset in subsets), (rs, k)


def test_certify_natural_reads_survivors_once(monkeypatch):
    # The proper subsets come from the walk; only the full set is read.
    calls = []

    def counting(sig, k, index):
        calls.append(index)
        return _survivors(sig, k, index)

    monkeypatch.setattr(certifier, "_survivors", counting)
    certify_natural(CurveSignature(2, 21), 1)
    assert len(calls) == 1


def test_certify_natural_builds_only_the_main_certificate(monkeypatch):
    # The walk proves the 31 proper subsets of (2,21)'s level-1 set; their
    # zero certificates are built only when the bundle's certificates are read.
    built = []

    def counting(*args):
        built.append(args)
        return DerivativeCertificate(*args)

    monkeypatch.setattr(certifier, "DerivativeCertificate", counting)
    bundle = certify_natural(CurveSignature(2, 21), 1)
    assert len(built) == 1
    certificates = bundle.certificates
    assert len(certificates) == 32 and certificates[-1] is bundle.main
    assert len(built) == 32


def test_a_bundle_lists_its_certificates_on_each_read():
    sig = CurveSignature(2, 9)
    nat = natural_k(sig, 1)
    main = DerivativeCertificate(1, nat[::-1], "nonzero", Fraction(-1), "expanded", 3)
    bundle = CertificateBundle(sig, 1, nat, "expanded", 3, main=main)
    assert nat == (4, 2)
    assert bundle.certificates == bundle.certificates
    assert [c.index_multiset for c in bundle.certificates] == [(), (4,), (2,), (2, 4)]
    variant = tuple(sorted(natural_k_i(sig, 1, 1), reverse=True))
    main = DerivativeCertificate(1, variant[::-1], "nonzero", None, "expanded", 3)
    bundle = CertificateBundle(sig, 1, variant, "expanded", 3, main=main)
    assert bundle.certificates == (main,)
    assert certify_natural(sig, 1, index_set=variant).certificates == (main,)


def test_certify_natural_names_a_surviving_subset(monkeypatch):
    # Injected fault: with (4, 3, 2) as the level-1 set of (2,9) the
    # multisets of order below 3 do not all vanish.
    sig = CurveSignature(2, 9)
    monkeypatch.setattr(certifier, "natural_k", lambda sig, k: (4, 3, 2))
    with pytest.raises(CertificationError) as info:
        certify_natural(sig, 1)
    error = info.value
    assert len(error.index_multiset) < 3 and error.survivors
    assert error.survivors == _survivors(sig, 1, error.index_multiset)
    assert (error.index_multiset, error.survivors) == ((1, 3), {(): 1})


def test_certify_natural_sampled_mode():
    bundle = certify_natural(CurveSignature(5, 7), 11)
    assert bundle.mode == "sampled"
    assert bundle.main.index_multiset == (12,)
    assert abs(bundle.main.constant) == 1


def test_certify_variants():
    sig = CurveSignature(2, 9)
    bundle = certify_natural(sig, 1, index_set=natural_k_i(sig, 1, 1))
    assert bundle.main.verdict == "nonzero"
    assert bundle.main.constant is None


def test_certify_variants_reject_out_of_range_indices():
    sig = CurveSignature(3, 5)
    for index_set in [(0, 2), (-1, 2), (2, 5)]:
        with pytest.raises(ValueError):
            certify_natural(sig, 1, index_set=index_set)


def test_certify_all_variants_low_genus():
    # Every traded-bottom-index variant of the canonical set is non-vanishing.
    for r, s in [(2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (3, 7)]:
        sig = CurveSignature(r, s)
        for k in range(1, sig.genus):
            for i in range(1, k + 1):
                bundle = certify_natural(sig, k, index_set=natural_k_i(sig, k, i))
                assert bundle.main.verdict == "nonzero", (r, s, k, i)


def test_certify_detects_vanishing_variant():
    # Trading the smallest member for an index above k+1 vanishes identically,
    # so certification must fail loudly on such a set.
    sig = CurveSignature(2, 9)
    bad = (set(natural_k(sig, 1)) - {2}) | {3}
    with pytest.raises(CertificationError) as info:
        certify_natural(sig, 1, index_set=tuple(bad))
    assert info.value.survivors == {}


def test_certify_natural_names_a_constant_of_the_wrong_magnitude(monkeypatch):
    # The natural set's one survivor is the head diagram with coefficient
    # +/-1; any other magnitude fails and names the constant.
    sig = CurveSignature(2, 7)
    head = young_diagram(sig).parts[:1]
    monkeypatch.setattr(certifier, "_survivors", lambda sig, k, index: {head: 2})
    with pytest.raises(CertificationError, match="has constant 2, expected magnitude 1") as info:
        certify_natural(sig, 1)
    assert info.value.survivors == {head: 2}


def test_constant_failure_carries_survivors():
    # A variant set survives, but not as a multiple of the head diagram (4).
    sig = CurveSignature(2, 9)
    variant = tuple(sorted(natural_k_i(sig, 1, 1)))
    with pytest.raises(CertificationError) as info:
        _constant_multiple_certificate(sig, 1, variant, 1)
    survivors = info.value.survivors
    assert survivors and (4,) not in survivors and all(len(nu) <= 1 for nu in survivors)


def test_certify_g_power():
    # (2,7) level 1: one natural member, total weight 3.
    sig = CurveSignature(2, 7)
    ell1 = certify_g_power(sig, 1, 1)
    assert ell1.index_multiset == (2,)
    assert abs(ell1.constant) == 1
    pure = certify_g_power(sig, 1, 2)
    assert pure.index_multiset == (3, 3, 3)
    assert pure.constant != 0
    with pytest.raises(ValueError):
        certify_g_power(sig, 1, 3)


def test_certify_g_power_weight_bookkeeping():
    # (3,4) level 2: the tail weight is the bottom diagram row.
    sig = CurveSignature(3, 4)
    lam = young_diagram(sig)
    pure = certify_g_power(sig, 2, len(natural_k(sig, 2)) + 1)
    assert len(pure.index_multiset) == lam.part(3)


def test_sweep():
    report = sub_vanishing_sweep(CurveSignature(2, 7), 1)
    assert report.order_bound == 1
    assert report.checked == 1  # only the empty multiset
    report29 = sub_vanishing_sweep(CurveSignature(2, 9), 1)
    assert report29.order_bound == 2
    assert report29.checked == 1 + 4


def curves_within_the_certify_cap():
    """Every coprime curve with 2 <= g <= cli.CERTIFY_MAX_GENUS."""
    cap = cli.CERTIFY_MAX_GENUS
    curves = [CurveSignature(*rs) for rs in coprime_signatures(2 * cap + 1)]
    return [sig for sig in curves if 2 <= sig.genus <= cap]


def test_vanishing_is_proved_by_counting_bead_holes(monkeypatch):
    # The root's positions 0..g-k-1 hold n_k holes, one per pole order below
    # g - k, so the sweep's n_k - 1 moves cannot fill them; the pure chain's
    # N_k - 1 boxes cannot clear the N_k below row k.  Either way one _prune
    # of the root settles the walk, and no multiset is read.
    prunes = []
    prune = certifier._prune

    def counting(*args):
        prunes.append(args)
        return prune(*args)

    def unreachable(*args):
        raise AssertionError("the count left a multiset to read")

    monkeypatch.setattr(certifier, "_prune", counting)
    monkeypatch.setattr(certifier, "_survivors", unreachable)
    curves = curves_within_the_certify_cap()
    levels = 0
    for sig in curves:
        g = sig.genus
        root = _beads(sig)
        for profile in stratum_table(sig)[1:g]:
            k, n, total = profile.k, profile.n_k, profile.N_k
            assert g - k - (root & ((1 << (g - k)) - 1)).bit_count() == n, (sig, k)
            for first, bound in [(1, n), (g, total)]:
                prunes.clear()
                assert _vanishing_walk(sig, k, first, bound, 1, 0) == comb(g - first + bound, bound - 1)
                assert len(prunes) == 1, (sig, k, first)
            levels += 1
    assert (len(curves), levels) == (93, 1862)


def test_the_walk_reads_each_multiset_when_the_count_does_not_settle_it(monkeypatch):
    # Should the root survive the count, each multiset is read, shortest
    # first; on a sound curve none survives and the walk returns its count.
    sig = CurveSignature(3, 7)
    g = sig.genus
    prune, survivors = certifier._prune, certifier._survivors

    def keep_the_root(state, *args):
        pruned.append(args)
        return state if len(pruned) == 1 else prune(state, *args)

    def reading(sig, k, index):
        read.append(index)
        return survivors(sig, k, index)

    monkeypatch.setattr(certifier, "_prune", keep_the_root)
    monkeypatch.setattr(certifier, "_survivors", reading)
    for k in range(1, g):
        pruned, read = [], []
        n = len(natural_k(sig, k))
        assert _vanishing_walk(sig, k, 1, n, 1, 0) == comb(g - 1 + n, n - 1)
        assert read == [index for order in range(n)
                        for index in combinations_with_replacement(range(1, g + 1), order)]


def test_g_power_constants_are_the_inner_hooks_tableaux():
    # c_ell = (-1)^(a_ell + ... + a_n) f^(a_1..a_(ell-1) | b_1..b_(ell-1)):
    # the trade's constant removes the tail's n_k - ell + 1 outer diagonal
    # hooks, with sign from their legs, and counts the tableaux of the rest.
    trades = 0
    for sig in curves_within_the_certify_cap():
        for profile in stratum_table(sig)[1:sig.genus]:
            a, b = profile.chars.a, profile.chars.b
            for ell in range(1, profile.n_k + 2):
                inner = FrobeniusCharacteristics(a[:ell - 1], b[:ell - 1]).to_diagram().parts
                expected = (-1) ** sum(a[ell - 1:]) * _tableaux(inner)
                assert certify_g_power(sig, profile.k, ell).constant == expected, (sig, profile.k, ell)
                trades += 1
    assert trades == 10932


def test_certificate_json():
    bundle = certify_natural(CurveSignature(2, 5), 1)
    payload = json.loads(json.dumps(bundle.to_json_dict()))
    assert payload["r"] == 2 and payload["s"] == 5 and payload["k"] == 1
    main = payload["certificates"][-1]
    assert main["verdict"] == "nonzero"
    assert (main["constant_num"], main["constant_den"]) in [(1, 1), (-1, 1)]
    assert main["mode"] == "expanded"
    assert main["engine"] == "rimhook"
    sweep = sub_vanishing_sweep(CurveSignature(5, 7), 3).to_json_dict()
    assert (sweep["mode"], sweep["engine"]) == ("sampled", "rimhook")


# -- hierarchy -----------------------------------------------------------------


@pytest.mark.parametrize("k", [-1, 12])
def test_hierarchy_rejects_a_level_outside_0_to_g(k):
    with pytest.raises(ValueError, match=rf"k must lie in \[0, 12\), got {k}"):
        build_hierarchy(CurveSignature(5, 7), k)


def test_hierarchy_5_7_level_4():
    h = build_hierarchy(CurveSignature(5, 7), 4)
    assert h.matrices[0][0] == (4, 5, 6, 7, 8, 9, 10, 11)
    assert len(h.matrices[0]) == 8 and len(h.matrices[0][0]) == 8
    assert h.matrices[1] == ((2, 3, 4), (1, 2, 3), (None, 0, 1))
    assert h.matrices[2] == ((1,),)
    assert len(h.matrices) == 3  # next block is empty
    assert h.pairs == ((12, 1), (7, 1), (5, 1))


def test_hierarchy_7_9_level_13():
    h = build_hierarchy(CurveSignature(7, 9), 13)
    assert h.matrices[0][0] == (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)
    assert h.matrices[1] == ((2, 3, 4, 5), (1, 2, 3, 4), (0, 1, 2, 3), (None, None, 0, 1))
    assert h.matrices[2] == ((1, 2), (0, 1))


def test_hierarchy_3_7_level_2():
    h = build_hierarchy(CurveSignature(3, 7), 2)
    assert h.matrices[0] == (
        (2, 3, 4, 5), (1, 2, 3, 4), (None, 0, 1, 2), (None, None, 0, 1)
    )
    assert h.matrices[1] == ((1,),)


def test_hierarchy_matches_the_rebuilt_tail():
    # Every level 0 <= k < g of the 64 coprime curves with s <= 16: 2,018 levels.
    levels = 0
    for rs in coprime_signatures(16):
        sig = CurveSignature(*rs)
        for k in range(sig.genus):
            assert build_hierarchy(sig, k) == tail_hierarchy(sig, k), (rs, k)
            levels += 1
    assert levels == 2018


def test_hierarchy_invariants():
    from cyclic_strata.strata import n_k

    for r, s in coprime_signatures(9):
        sig = CurveSignature(r, s)
        g = sig.genus
        for k in range(g):
            h = build_hierarchy(sig, k)
            count = n_k(sig, k)
            assert len(h.matrices) == count
            assert h.h_zero_count() == g - k - count
            # nesting: block m+1 sits inside block m shifted one row up-left
            for m in range(count - 1):
                outer, inner = h.matrices[m], h.matrices[m + 1]
                assert len(inner) <= len(outer) and len(inner[0]) <= len(outer[0])
            # corner subscripts are the characteristic hooks, largest first
            from cyclic_strata.strata import characteristics, truncate_lower

            hooks = characteristics(truncate_lower(young_diagram(sig), k)).hooks()
            corners = [block[0][-1] for block in h.matrices]
            assert corners == list(reversed(hooks))
