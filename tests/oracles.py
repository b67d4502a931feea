"""Test oracles that share no code path with the routes they check.

The determinant route of the power-sum form expands the Jacobi-Trudi
determinant over ``h_from_T`` (Newton's recurrence in ``T_m = p_m/m``),
checks that it collapses onto the hook-indexed variables and is weighted
homogeneous, and reaches a head truncation by differentiating along the
canonical index set, with the sign measured at one positive point.  The
production ``schur_in_T`` builds the same forms from the Murnaghan-Nakayama
bead walk instead.

The generic minors build every full-window left minor of the Jacobi-Trudi
matrix, and every split route's Laplace sum, as one ``_sum_of_products``
over all monomials.  The production routes compute the same symmetric sums
only at their dominant monomials and expand them by permutation.

The box-by-box survivors remove every derivative's rim hooks in turn, the
closing run of u_g derivatives one box at a time, and prune each state by the
boxes below row k read off its partitions.  The production engine closes
that run by counting the tableaux of each term's rows below k, peels a box
only off a term with fewer boxes there than the run, and also prunes by empty
bead positions.

The box-by-box character form walks every branch of the Murnaghan-Nakayama
expansion of the power-sum form, the u_g derivatives (hook 1) one box at a
time, and reads chi off the empty partition.  The production walk closes each
run of u_g derivatives in one step with the hook-length formula.

The tail hierarchy rebuilds the tail diagram, its conjugate and its
characteristics to lay out the nested blocks of one level.  The production
``build_hierarchy`` reads the column lengths and the rank off the curve's
stratum table and the rows off the curve diagram.

The per-level profile builds one level of the stratum table from scratch
with the public per-level functions: the tail diagram's characteristics, the
counts over the pole orders and a hook-to-row dictionary.  The production
table builds every level in one pass from the full diagram's conjugate.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, prod

from cyclic_strata.certifier import HookHierarchy
from cyclic_strata.polynomials import MultiIndex, SparsePolynomial, _sum_of_products, det
from cyclic_strata.schur import (
    _beads,
    _partition,
    _remove_rim_hooks,
    h_complete,
    h_from_T,
    schur_bialternant,
)
from cyclic_strata.semigroup import CurveSignature, YoungDiagram, u_weights, young_diagram
from cyclic_strata.strata import (
    N_k_sum,
    N_k_tail,
    StratumProfile,
    characteristics,
    fay_sets,
    n_k,
    natural_k,
    truncate_lower,
)


def power_sum_polynomial(m: int, lo: int, hi: int) -> SparsePolynomial:
    """T_m over the window as a t-polynomial: (1/m) (t_lo^m + ... + t_hi^m)."""
    return SparsePolynomial("t", {((v, m),): Fraction(1, m) for v in range(lo, hi + 1)})


@lru_cache(maxsize=None)
def determinant_power_sum_form(parts: tuple[int, ...], sig: CurveSignature):
    """(as_T, as_u) of the curve diagram's head with these parts, by the
    determinant route."""
    g = sig.genus
    lam = young_diagram(sig)
    hooks = u_weights(sig)
    renaming = {h: i for i, h in enumerate(hooks, start=1)}
    if not parts:
        return SparsePolynomial.one("T"), SparsePolynomial.one("u")
    if parts == lam.parts:
        as_T = det([
            [h_from_T(lam.part(i) + j - i) for j in range(1, g + 1)]
            for i in range(1, g + 1)
        ])
        assert as_T.variables() <= set(hooks), (sig, sorted(as_T.variables()))
        for mono in as_T.terms:
            assert sum(v * e for v, e in mono) == lam.weight(), (sig, mono)
        return as_T, as_T.rename_variables(renaming, "u")

    k = len(parts)
    derivative = determinant_power_sum_form(lam.parts, sig)[0]
    for i in natural_k(sig, k):
        derivative = derivative.partial_derivative(hooks[i - 1])
    # The natural-set derivative restricts to the head Schur polynomial up to
    # a sign; measure it on a positive point, where the head value is positive.
    point = {j: Fraction(j + 1) for j in range(1, k + 1)}
    power_sums = {m: sum(x ** m for x in point.values()) / m for m in derivative.variables()}
    measured = derivative.evaluate(power_sums) if not derivative.is_zero() else Fraction(0)
    reference = schur_bialternant(YoungDiagram(parts), k).evaluate(point)
    assert reference and measured in (reference, -reference), (sig, k, measured, reference)
    as_T = derivative.scale(1 if measured == reference else -1)
    return as_T, as_T.rename_variables(renaming, "u")


def _h(n: int, lo: int, g: int) -> SparsePolynomial:
    return h_complete(n, lo, g)


@lru_cache(maxsize=None)
def generic_left_minors(parts: tuple[int, ...], g: int) -> dict:
    """Every determinant of rows S against columns 1..|S| of
    ``|h_(parts_i + j - i)(t_1..t_g)|``, each one cofactor sum along its last
    column over all monomials."""
    minors = {(): SparsePolynomial.one("t")}
    for k in range(1, g + 1):
        for subset in combinations(range(1, g + 1), k):
            minors[subset] = _sum_of_products("t", [
                (-1 if (p + k - 1) % 2 else 1, _h(parts[i - 1] + k - i, 1, g),
                 minors[subset[:p] + subset[p + 1:]])
                for p, i in enumerate(subset)
            ])
    return minors


def generic_split_sum(parts: tuple[int, ...], g: int, k: int) -> SparsePolynomial:
    """The split determinant (full window in columns <= k, suffix window
    t_(k+1)..t_g beyond) as its Laplace sum along the first k columns over
    all monomials."""
    minors = generic_left_minors(parts, g)
    pieces = []
    for subset in combinations(range(1, g + 1), k):
        complement = [i for i in range(1, g + 1) if i not in subset]
        right = det([[_h(parts[i - 1] + j - i, k + 1, g) for j in range(k + 1, g + 1)]
                     for i in complement]) if complement else SparsePolynomial.one("t")
        sign = -1 if (sum(subset) + k * (k + 1) // 2) % 2 else 1
        pieces.append((sign, minors[subset], right))
    return _sum_of_products("t", pieces)


def box_by_box_survivors(sig: CurveSignature, k: int, index) -> dict:
    """{nu: c} with l(nu) <= k of the sorted index multiset's derivative of S,
    one rim hook per derivative, pruned only by the boxes below row k."""
    hooks = u_weights(sig)
    weights = [hooks[i - 1] for i in sorted(index)]
    remaining = sum(weights)

    def prune(state):
        return {m: c for m, c in state.items() if sum(_partition(m)[k:]) <= remaining}

    state = prune({_beads(sig): 1})
    for m in weights:
        remaining -= m
        state = prune(_remove_rim_hooks(state, m))
    return {_partition(mask): c for mask, c in state.items()}


def box_by_box_character_form(state: dict[int, int], hooks) -> SparsePolynomial:
    """``sum_M chi(M) / prod_j m_j(M)! * u^M`` over the nondecreasing multisets
    M of hook indices, branching on every index; chi(M) is the coefficient of
    the empty partition once the rim hooks of M are removed from ``state``, a
    combination of partitions of one size."""
    empty = (1 << len(hooks)) - 1
    terms = {}

    def visit(state, index, last):
        if empty in state:  # then it is the only partition left
            counts = Counter(index)
            terms[MultiIndex(counts.items())] = Fraction(
                state[empty], prod(map(factorial, counts.values())))
            return
        for j in range(last, len(hooks) + 1):
            reduced = _remove_rim_hooks(state, hooks[j - 1])
            if reduced:
                visit(reduced, index + (j,), j)

    visit(state, (), 1)
    return SparsePolynomial("u", terms)


def per_level_profile(sig: CurveSignature, k: int) -> StratumProfile:
    """The level-k profile, computed level by level with every cross-check."""
    chars = characteristics(truncate_lower(young_diagram(sig), k))
    count, total = n_k(sig, k), N_k_tail(sig, k)
    assert chars.rank == count and N_k_sum(sig, k) == total == sum(chars.hooks()), (sig, k)
    position = {value: idx for idx, value in enumerate(u_weights(sig), start=1)}
    assert len(position) == sig.genus, sig
    natural = tuple(sorted((position[h] for h in chars.hooks()), reverse=True))
    if 1 <= k < sig.genus:
        assert natural[-1] == k + 1, (sig, k)
    m_plus, m_minus = fay_sets(sig, k) if k < sig.genus else ((), ())
    assert len(m_plus) == len(m_minus) == count, (sig, k)
    assert count + sum(m_plus) + sum(m_minus) == total, (sig, k)
    return StratumProfile(k, count, total, chars, natural, m_plus, m_minus)


def tail_hierarchy(sig: CurveSignature, k: int) -> HookHierarchy:
    """The level-k hierarchy, laid out from the rebuilt tail diagram."""
    tail = truncate_lower(young_diagram(sig), k)
    conj = tail.conjugate().parts
    rank = characteristics(tail).rank
    matrices = []
    for m in range(1, rank + 1):
        c = conj[m - 1]
        width = c - m + 1
        block = tuple(
            tuple(
                (tail.part(i) + j - i) if tail.part(i) + j - i >= 0 else None
                for j in range(1, width + 1)
            )
            for i in range(m, c + 1)
        )
        matrices.append(block)
    pairs = []
    m = 1
    while m <= rank:
        run = 1
        while m + run <= rank and conj[m + run - 1] == conj[m - 1]:
            run += 1
        pairs.append((k + conj[m - 1] - m + 1, run))
        m += run
    return HookHierarchy(k, tuple(pairs), tuple(matrices))
