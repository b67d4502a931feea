"""Derivative-vanishing certificates on the strata of the curve diagram.

The object under test is S, the Schur function of the full curve diagram in
the stratum coordinates ``u_i = T_(hook_i)``, whose weights are the
first-column hook lengths.  S is never expanded here: the certificates and
:func:`~cyclic_strata.schur.schur_in_T`, which expands S below the genus
gate, run one Murnaghan-Nakayama bead walk, kept in
:mod:`cyclic_strata.schur`.  Level k of the stratification restricts S
to ``u_i = (1/hook_i) (t_1^hook_i + ... + t_k^hook_i)`` for k free parameters
``t_1..t_k``.  The certified statements, for 1 <= k < g:

* every derivative of order below n_k vanishes identically on the level-k
  locus, as does every proper subset of the canonical index set natural_k;
* the full natural_k derivative restricts to exactly +/- the k-variable
  Schur polynomial of the head diagram (the sign depends on the diagram and
  on k and is read off the survivors, not predicted; the coefficient of the
  product of hook-indexed power sums in any Schur polynomial is a unit,
  since the principal-hook character value is +/-1 and the cycle-type
  normalizer cancels the power-sum scaling), and the variant sets
  natural_k^(i) are likewise non-vanishing.  The tests also predict it:
  ``test_g_power_constants_are_the_inner_hooks_tableaux`` checks the
  constant of every g-power trade with g <= 36 (the natural set is the
  first) against one computed from the tail's diagonal hooks;
* trading the members of natural_k for powers of the last derivative
  (weight-preserving, one hook each) keeps the value a fixed nonzero
  rational multiple of the head Schur polynomial, down to the pure case of
  ``N_k`` derivatives along u_g, below which all pure powers vanish.

The rim-hook engine
-------------------
S is the Schur function s_L written in ``T_m = p_m/m``, so
``d/du_i = d/dT_(hook_i) = p_(hook_i)^perp``.  By the Murnaghan-Nakayama rule
(Macdonald, *Symmetric Functions and Hall Polynomials*, I.3 Ex. 11) that
operator sends s_mu to the signed sum of s_(mu - xi) over the rim hooks xi of
size hook_i.  The hooks are the beta-numbers of L, so on a g-bead abacus (an
int bit mask, ``schur._beads``) removing an m-rim hook moves one bead from x
to x - m with sign (-1)^(beads strictly between) (``schur._remove_rim_hooks``).
A derivative is thus a signed combination
``sum c_nu s_nu``; on level k it restricts to ``sum c_nu s_nu(t_1..t_k)`` over
the *survivors* l(nu) <= k, which are linearly independent.  Hence a
derivative vanishes on level k iff nothing survives, and it is a constant
multiple of the head Schur polynomial iff its only survivor is the head
L^(k), with that survivor's coefficient as the constant.  These are exact
identities at every genus: S is neither expanded nor sampled.

Two bounds prune a state.  Removing a rim hook never adds boxes below row
k, so a term with more of them than the derivative weight still to come is
dropped at once.  Every term has the diagram's size less the hooks removed,
and row i holds b - (g - i) boxes on its bead b, so the top k beads give the
count.  A survivor l(nu) <= k has beads on all of positions 0..g-k-1, and a
removal moves one bead onto one free position, so it fills at most one of
them: a term with more empty positions there than derivatives still to come
is dropped too.

The sweeps are proved by a count.  The beads of L sit on the gaps of the
symmetric semigroup <r, s>, all below 2g, so positions 0..g-k-1 hold n_k
holes, one per pole order there.  A multiset of order below n_k has n_k - 1
moves to fill them, so the root is pruned to nothing and all such multisets
vanish at once; the pure chains below N_k take off fewer than the N_k boxes
the root has below row k.  Should the root survive, each multiset is read,
shortest first, and the first survivor is the error.

Every sorted index multiset ends in its run of N derivatives along u_g,
whose hook is 1, and that run is closed without walking it box by box:
``(p_1^perp)^N s_mu = sum f^(mu/nu) s_nu`` over the nu inside mu with
``|mu/nu| = N``, where f counts the standard tableaux of the skew shape
(p_1^perp removes each corner box with coefficient 1, and a chain of N such
removals read backwards is a standard tableau of mu/nu).  Only nu inside
``mu[:k]`` survive.  A pruned term has at most N boxes below row k; with
exactly N its one survivor is ``mu[:k]``, and ``mu/mu[:k]`` is the straight
shape of its lower rows, counted by the hook-length formula (Frame, Robinson
and Thrall, 1954).  A short term, with fewer, gives up one box through
``(p_1^perp)^N = (p_1^perp)^(N-1) p_1^perp``, and the rest of the run is
closed the same way.  The certified multisets never leave a term short, so
their run closes in one pass.  The natural set and its g-power trades have
weight ``N_k = |L[k:]|``, and every term mu lies inside L and has
``|L| - N_k + N`` boxes, of which its top k rows keep at most ``|L[:k]|``:
at least N lie below row k.  A variant set holds at most one u_g
derivative, and a term short of it already has length <= k: it survives a
multiset of order below n_k, which the hole count proves zero.

Every proper subset of natural_k is a multiset of order below n_k, so the
hole count that proves the sub-vanishing statement proves them all:
:func:`certify_natural` makes it once and builds only the full set's
certificate, and a bundle lists the 2^n_k - 1 zero certificates of the
subsets each time its ``certificates`` are read.  Only the full set, the
variant sets and the g-power trades read their own survivors.

Certificates keep the vocabulary of the earlier evaluation pipelines: mode
``"expanded"`` at genus <= ``schur.EXPANSION_GATE`` and ``"sampled"`` above
it (now a conservative label, since every verdict is exact), the trial count,
and ``"engine": "rimhook"`` in their JSON.  Failures raise
:class:`CertificationError` carrying the survivors, and for a derivative that
should vanish a witness: the first of ``trials`` trial points (from ``seed``)
where it is nonzero, built only for that search.  A clean run returns
certificate bundles suitable for JSON output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, groupby
from typing import Iterator

from .schur import EXPANSION_GATE, _beads, _partition, _remove_rim_hooks, _tableaux
from .schur import jacobi_trudi_value
from .semigroup import CurveSignature, YoungDiagram, u_weights, young_diagram
from .strata import InternalConsistencyError, natural_k, stratum_table

ENGINE = "rimhook"


class CertificationError(Exception):
    """A certified statement failed; carries the witnessing data.

    ``survivors`` is the rim-hook evidence {nu: c} behind the verdict, or
    None when the failure did not come from the engine.
    """

    def __init__(
        self, message: str, *, signature=None, k=None, index_multiset=None, point=None,
        survivors=None,
    ):
        super().__init__(message)
        self.signature = signature
        self.k = k
        self.index_multiset = index_multiset
        self.point = point
        self.survivors = survivors


@dataclass(frozen=True)
class DerivativeCertificate:
    """Verdict for one derivative index multiset at one stratum level."""

    k: int
    index_multiset: tuple[int, ...]
    verdict: str  # "zero" | "nonzero"
    constant: Fraction | None
    mode: str  # "expanded" | "sampled"
    trials: int

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "index_multiset": list(self.index_multiset),
            "verdict": self.verdict,
            "constant_num": None if self.constant is None else self.constant.numerator,
            "constant_den": None if self.constant is None else self.constant.denominator,
            "mode": self.mode,
            "engine": ENGINE,
            "trials": self.trials,
        }


@dataclass(frozen=True)
class CertificateBundle:
    """The certified index set of one level and its ``main`` certificate.

    ``certificates`` is listed afresh on each read and not stored: for the
    canonical set, one zero certificate per proper subset in ``combinations``
    order and then ``main``; for a variant set, ``main`` alone.
    """

    signature: CurveSignature
    k: int
    index_set: tuple[int, ...]
    mode: str
    trials: int
    main: DerivativeCertificate

    @property
    def certificates(self) -> tuple[DerivativeCertificate, ...]:
        return tuple(self.iter_certificates())

    def iter_certificates(self) -> Iterator[DerivativeCertificate]:
        """The ``certificates`` one at a time, none of them held."""
        if self.index_set == natural_k(self.signature, self.k):
            for size in range(len(self.index_set)):
                for subset in combinations(self.index_set, size):
                    yield DerivativeCertificate(self.k, subset[::-1], "zero", None, self.mode, self.trials)
        yield self.main

    def json_head(self) -> dict:
        """``to_json_dict`` up to its last key, ``certificates``, for a writer
        that streams them."""
        return {
            "r": self.signature.r,
            "s": self.signature.s,
            "k": self.k,
            "index_set": list(self.index_set),
            "mode": self.mode,
            "trials": self.trials,
        }

    def to_json_dict(self) -> dict:
        return {**self.json_head(), "certificates": [c.to_json_dict() for c in self.iter_certificates()]}


@dataclass(frozen=True)
class SweepReport:
    signature: CurveSignature
    k: int
    order_bound: int
    checked: int
    mode: str
    trials: int

    def to_json_dict(self) -> dict:
        return {
            "r": self.signature.r,
            "s": self.signature.s,
            "k": self.k,
            "order_bound": self.order_bound,
            "checked": self.checked,
            "mode": self.mode,
            "engine": ENGINE,
            "trials": self.trials,
        }


@dataclass(frozen=True)
class HookHierarchy:
    """Nested subscript matrices of the tail determinant, one per rank step.

    ``matrices[m-1]`` holds the integer subscripts of the m-th nested block
    (None marks entries that are identically absent); ``pairs`` is the
    (i_l, d_l) bookkeeping sequence locating the blocks inside the tail.
    """

    k: int
    pairs: tuple[tuple[int, int], ...]
    matrices: tuple[tuple[tuple[int | None, ...], ...], ...]

    def h_zero_count(self) -> int:
        return sum(row.count(0) for row in self.matrices[0]) if self.matrices else 0


def trial_points(k: int, trial: int, seed: int = 0) -> tuple[Fraction, ...]:
    """Deterministic distinct nonzero rationals t_j = j / (j + q)."""
    if trial < 0 or seed < 0:
        raise ValueError("trial and seed must be non-negative")
    q = seed + trial + 1
    return tuple(Fraction(j, j + q) for j in range(1, k + 1))


# -- rim-hook engine -----------------------------------------------------------


def _prune(
    state: dict[int, int], g: int, k: int, size: int, budget: int, moves: int
) -> dict[int, int]:
    """Keep the terms of ``size`` boxes with at most ``budget`` below row k
    and at most ``moves`` empty bead positions in 0..g-k-1."""
    floor = size - budget + k * g - k * (k + 1) // 2
    low, beads = (1 << (g - k)) - 1, g - k - moves
    kept = {}
    for mask, c in state.items():
        if (mask & low).bit_count() < beads:
            continue
        rest, top = mask, 0
        for _ in range(k):
            bead = rest.bit_length() - 1
            top += bead
            rest ^= 1 << bead
        if top >= floor:
            kept[mask] = c
    return kept


def _remove_boxes(state: dict[int, int], k: int, n: int) -> dict:
    """{nu: c} with l(nu) <= k of ``(p_1^perp)^n`` on a state whose terms have
    at most n boxes below row k: ``sum f^(mu/nu) s_nu`` over nu inside mu[:k].

    A term with exactly n boxes below row k has the one survivor mu[:k], with
    f of its rows below k.  A short term, with fewer, gives up one box, since
    ``(p_1^perp)^n = (p_1^perp)^(n-1) p_1^perp``, and the pass runs again on
    what it leaves with n - 1; it stops once no term is short.
    """
    out: dict = {}
    while True:
        short = {}
        for mask, c in state.items():
            mu = _partition(mask)
            if sum(mu[k:]) < n:
                short[mask] = c
                continue
            head = mu[:k]
            total = out.get(head, 0) + c * _tableaux(mu[k:])
            if total:
                out[head] = total
            else:
                del out[head]
        if not short:
            return out
        state, n = _remove_rim_hooks(short, 1), n - 1


@lru_cache(maxsize=4096)
def _survivors(sig: CurveSignature, k: int, index: tuple[int, ...]) -> dict:
    """{nu: c} with l(nu) <= k of the sorted index multiset's derivative of S.

    The largest hooks go first, and after each step only the terms that the
    remaining derivatives can still bring to length <= k are kept; the
    closing run of u_g derivatives (hook 1) is then closed by counting
    tableaux (:func:`_remove_boxes`).  Callers must not mutate the (cached)
    result.
    """
    g = sig.genus
    hooks = u_weights(sig)
    run = index.count(g)
    weights = [hooks[i - 1] for i in index[:len(index) - run]]
    size = sig.diagram_weight()
    remaining = sum(weights) + run
    moves = len(index)
    state = _prune({_beads(sig): 1}, g, k, size, remaining, moves)
    for m in weights:
        size -= m
        remaining -= m
        moves -= 1
        state = _prune(_remove_rim_hooks(state, m), g, k, size, remaining, moves)
    return _remove_boxes(state, k, run)


def _schur_sum_value(survivors: dict, k: int, point) -> Fraction:
    """sum c_nu s_nu(point) over the survivors."""
    return sum(
        (c * (jacobi_trudi_value(YoungDiagram(nu), k, point) if nu else 1)
         for nu, c in survivors.items()),
        Fraction(0),
    )


def _sorted_index(sig: CurveSignature, index_multiset) -> tuple[int, ...]:
    index = tuple(sorted(index_multiset))
    if any(not 1 <= i <= sig.genus for i in index):
        raise ValueError(f"derivative indices must lie in [1, {sig.genus}]")
    return index


def _vanishing_failure(sig, k, index, survivors, trials, seed) -> CertificationError:
    """The error for a derivative that survives on level k, with a witness:
    the first of the trial points where its value is nonzero, if any is."""
    points = (trial_points(k, t, seed) for t in range(trials))
    witness = next((p for p in points if _schur_sum_value(survivors, k, p)), None)
    return CertificationError(
        f"derivative {index} does not vanish on level {k} of ({sig.r},{sig.s})",
        signature=sig, k=k, index_multiset=index, point=witness, survivors=dict(survivors),
    )


def _vanishing_walk(sig: CurveSignature, k: int, first: int, bound: int, trials, seed) -> int:
    """Check that no nondecreasing multiset of indices in [first, g] of size
    below ``bound`` survives on level k; return how many multisets that is.
    ``bound`` is n_k or N_k, both at least 1 on every level 1 <= k < g.

    A multiset of order below ``bound`` removes at most ``bound - 1`` rim
    hooks of at most ``hook(first)`` boxes each, so when the root is pruned
    to nothing under those two bounds every such multiset vanishes.  If it is
    not, each multiset is read, shortest first, and the first survivor is the
    error.
    """
    g = sig.genus
    count = math.comb(g - first + bound, bound - 1)
    budget = (bound - 1) * u_weights(sig)[first - 1]
    if not _prune({_beads(sig): 1}, g, k, sig.diagram_weight(), budget, bound - 1):
        return count
    for order in range(bound):
        for index in combinations_with_replacement(range(first, g + 1), order):
            survivors = _survivors(sig, k, index)
            if survivors:
                raise _vanishing_failure(sig, k, index, survivors, trials, seed)
    return count


def _mode(sig: CurveSignature) -> str:
    return "expanded" if sig.genus <= EXPANSION_GATE else "sampled"


def _constant_multiple_certificate(
    sig, k, index, trials, expected_abs=None
) -> DerivativeCertificate:
    """Certify that the index derivative is a fixed nonzero multiple of the
    head Schur polynomial: its only survivor is the head diagram."""
    survivors = _survivors(sig, k, index)
    constant = Fraction(survivors.get(young_diagram(sig).parts[:k], 0))
    if not constant or len(survivors) > 1:
        raise CertificationError(
            f"derivative {index} on level {k} of ({sig.r},{sig.s}) is not a "
            f"fixed nonzero multiple of the head Schur polynomial",
            signature=sig, k=k, index_multiset=index, survivors=dict(survivors),
        )
    if expected_abs is not None and abs(constant) != expected_abs:
        raise CertificationError(
            f"derivative {index} on level {k} of ({sig.r},{sig.s}) has constant "
            f"{constant}, expected magnitude {expected_abs}",
            signature=sig, k=k, index_multiset=index, survivors=dict(survivors),
        )
    return DerivativeCertificate(k, index, "nonzero", constant, _mode(sig), trials)


# -- public certification operations ------------------------------------------


def _check_arguments(sig: CurveSignature, k: int, trials: int, seed: int) -> None:
    """Level in [1, g); ``trials`` >= 1 and ``seed`` >= 0 pick witness points."""
    if not 1 <= k < sig.genus:
        raise ValueError(f"k must lie in [1, {sig.genus}), got {k}")
    if trials < 1 or seed < 0:
        raise ValueError("need trials >= 1 and seed >= 0")


def certify_natural(
    sig: CurveSignature,
    k: int,
    trials: int = 3,
    *,
    seed: int = 0,
    index_set=None,
) -> CertificateBundle:
    """Certify the canonical index set (or a supplied variant) at level k.

    For the canonical set: every proper subset yields zero identically, and
    the full set yields sign * (head Schur polynomial) with |sign| = 1.  The
    subsets have order below n_k, so the root's n_k bead holes prove them
    with every other such multiset (should the count fail, the first
    survivor, shortest first, is the error); the bundle keeps only the full
    set's certificate and lists the subsets' zero certificates when read.  For
    a variant set only non-vanishing is certified (its ratio to the head
    polynomial is a non-constant function of the point).
    """
    _check_arguments(sig, k, trials, seed)
    nat = natural_k(sig, k)
    index = nat if index_set is None else _sorted_index(sig, index_set)[::-1]
    ascending = index[::-1]
    mode = _mode(sig)

    if index == nat:
        _vanishing_walk(sig, k, 1, len(index), trials, seed)
        main = _constant_multiple_certificate(sig, k, ascending, trials, expected_abs=1)
    else:
        if not _survivors(sig, k, ascending):
            raise CertificationError(
                f"variant derivative {ascending} vanishes identically on "
                f"level {k} of ({sig.r},{sig.s})",
                signature=sig, k=k, index_multiset=ascending, survivors={},
            )
        main = DerivativeCertificate(k, ascending, "nonzero", None, mode, trials)
    return CertificateBundle(sig, k, index, mode, trials, main)


def certify_g_power(
    sig: CurveSignature,
    k: int,
    ell: int,
    trials: int = 3,
    *,
    seed: int = 0,
) -> DerivativeCertificate:
    """Certify the weight-preserving trade of leading natural members for
    powers of d/du_g.

    The tail J_ell of the canonical set keeps its ell-th..n_k-th members
    (ordered by increasing hook); the dropped hooks are compensated by the
    same total number of u_g derivatives.  ell = n_k + 1 is the pure case:
    N_k derivatives along u_g, with every lower pure power certified zero.
    """
    _check_arguments(sig, k, trials, seed)
    g = sig.genus
    nat = natural_k(sig, k)
    n = len(nat)
    if not 1 <= ell <= n + 1:
        raise ValueError(f"ell must lie in [1, {n + 1}], got {ell}")
    hooks = u_weights(sig)
    # nat is listed by decreasing index = increasing hook; drop the first
    # ell-1 members (the smallest hooks) and compensate along u_g.
    kept = nat[ell - 1:]
    dropped_weight = sum(hooks[i - 1] for i in nat[: ell - 1])
    index = tuple(sorted(kept + (g,) * dropped_weight))

    if ell == n + 1:
        # Pure case: all lower pure powers along u_g must vanish first.
        _vanishing_walk(sig, k, g, sum(hooks[i - 1] for i in nat), trials, seed)
    return _constant_multiple_certificate(sig, k, index, trials)


def sub_vanishing_sweep(
    sig: CurveSignature,
    k: int,
    trials: int = 3,
    *,
    seed: int = 0,
) -> SweepReport:
    """Check every derivative multiset of order below n_k vanishes at level k."""
    _check_arguments(sig, k, trials, seed)
    bound = len(natural_k(sig, k))
    checked = _vanishing_walk(sig, k, 1, bound, trials, seed)
    return SweepReport(sig, k, bound, checked, _mode(sig), trials)


# -- hierarchy of nested tail blocks ------------------------------------------


def build_hierarchy(sig: CurveSignature, k: int) -> HookHierarchy:
    """Nested subscript blocks of the tail determinant at level k.

    Block m runs over rows m..c_m and columns 1..c_m - m + 1 of the tail's
    Jacobi-Trudi layout, where c_m is the m-th column length of the tail;
    equivalently it is the layout of the tail with its first m-1 hooks
    stripped.  The corner subscripts recover the characteristic hooks and
    the count of zero subscripts in the outer block is g - k - n_k.

    The level's profile in :func:`~cyclic_strata.strata.stratum_table` gives
    the column lengths ``c_m = m + a_m`` from its legs ``chars.a`` (listed
    from the bottom of the diagonal, so read reversed) and the rank n_k;
    the tail's rows are the curve diagram's rows below row k.
    """
    g = sig.genus
    if not 0 <= k < g:
        raise ValueError(f"k must lie in [0, {g}), got {k}")
    profile = stratum_table(sig)[k]
    rows = young_diagram(sig).parts[k:]
    columns = [m + a for m, a in enumerate(reversed(profile.chars.a), start=1)]
    matrices = tuple(
        tuple(
            tuple(rows[i - 1] + j - i if rows[i - 1] + j - i >= 0 else None
                  for j in range(1, c - m + 2))
            for i in range(m, c + 1)
        )
        for m, c in enumerate(columns, start=1)
    )
    pairs, m = [], 1
    for c, run in groupby(columns):
        size = len(list(run))
        pairs.append((k + c - m + 1, size))
        m += size
    hierarchy = HookHierarchy(k, tuple(pairs), matrices)
    expected_zeros = g - k - profile.n_k
    if hierarchy.h_zero_count() != expected_zeros:
        raise InternalConsistencyError(
            f"outer block of ({sig.r},{sig.s}) level {k} has "
            f"{hierarchy.h_zero_count()} zero subscripts, expected {expected_zeros}"
        )
    return hierarchy
