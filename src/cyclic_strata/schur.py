"""Schur polynomials by several determinant routes, and power-sum coordinates.

Routes
------
For a diagram L inside g variables ``t_1..t_g`` the Schur polynomial is
computed four independent ways, all of which must agree exactly:

* ``schur_bialternant``  -- ratio of alternants: the monomial determinant
  ``|t_j^(L_i + g - i)|`` divided exactly by each factor ``t_i - t_j``, i < j,
  of the Vandermonde (Macdonald, *Symmetric Functions*, I.(3.1)).  It is the
  ``t``-form that ``SchurForm.as_t`` derives on read.
* ``schur_jacobi_trudi`` -- determinant of complete homogeneous functions
  ``|h_(L_i + j - i)|`` over the full window of variables.
* ``schur_tail_trudi``   -- same shape, but column j only uses the suffix
  window ``t_j..t_g``.
* ``schur_split_trudi``  -- columns 1..k use the full window, columns
  k+1..g use the suffix window ``t_(k+1)..t_g``; one route per split point.

The three Trudi routes are the bialternant's independent oracles; the
Jacobi-Trudi and split routes share the full-window minors ``_left_minors``.
Each of those minors is a polynomial in the ``h_m(t_1..t_g)``, and each
split route's Laplace sum over row subsets is ``s_L`` itself, so all of them
are symmetric in ``t_1..t_g``: ``_symmetric_sum_of_products`` computes each
one only at the partitions of its degree with at most g parts and expands
them by permutation.  That is exact for a symmetric polynomial (Macdonald,
I.6), and it took ``schur_jacobi_trudi`` of (3, 7) from 0.22 to 0.07 s and
of (3, 8), at genus 7, from 200 to 1.0 s.  ``det``, and so
``schur_tail_trudi``, the bialternant and the split routes' right-hand
determinants, stays a generic cofactor expansion whose rows are one
``_sum_of_products`` call each: those rows are not symmetric in all the
variables.  The routes share only the accumulation of signed products, and
the four determinants stay independent.

``h_complete(n, lo, hi)`` expands the complete homogeneous function h_n over
the window ``t_lo..t_hi`` of the ``t`` variables and rejects any window but
``1 <= lo <= hi``; the symbolic routes read the same cached expansion, whose
windows satisfy that rule by construction.  :func:`h_from_T` writes h_n in
the scaled power sums
``T_m = (1/m) sum t_i^m`` by Newton's recurrence
``n h_n = sum_(m=1..n) m T_m h_(n-m)`` (note the 1/m scaling: these are not
the plain power sums); no route here uses it, and the tests build their
determinant oracle of :func:`schur_in_T` from it.

Power-sum form of the curve Schur polynomial
--------------------------------------------
In ``T_m = p_m/m`` the Schur function is
``s_L = sum_rho chi^L_rho / prod_j m_j(rho)! * prod_i T_(rho_i)``
(Macdonald, *Symmetric Functions*, I.(7.8)), and the Murnaghan-Nakayama
rule computes ``chi^L_rho`` as the signed count of ways to empty L by
removing rim hooks of sizes ``rho_1, rho_2, ...``.  On a g-bead abacus (an
int bit mask whose beads are the beta-numbers ``L_i + g - i``) removing an
m-rim hook moves one bead from x to x - m with sign (-1)^(beads strictly
between); the certifier runs the same walk.  The smallest hook is 1, and a
run of N 1-hooks empties a partition mu of N boxes in f^mu ways, one per
standard tableau.  So the walk branches only on the other hooks, and at each
of its states ``sum c_mu s_mu`` closes the run in one step: it adds the term
``(sum c_mu f^mu) / (prod_j m_j! * N!) * u^M u_g^N`` with f^mu from the
hook-length formula (Frame, Robinson and Thrall, 1954; Macdonald I.7).

For the diagram of a curve signature only the g power sums
``T_(L_i + g - i)`` indexed by the first-column hook lengths occur.
:func:`schur_in_T` therefore sums over multisets of hooks alone, depth first
(the certifier walks no such tree: a count of bead holes proves its sweeps),
and names the variables by the stratum coordinates ``u_i = T_(L_i + g - i)``,
e.g. for (2, 5): ``1/3*u2^3 - u1``.

For a head truncation (first k rows) the walk starts from the combination
``sum c_nu s_nu`` left by the canonical derivative set of level k, i.e. by
removing its hooks, and is scaled by the head diagram's coefficient
``c_head = +/-1``; restricted to the level-k locus it reproduces the
k-variable Schur polynomial of the truncated diagram.  The full diagram is
the head at k = g: its derivative set is empty and its coefficient 1.

Large genus
-----------
:func:`schur_in_T` expands the power-sum form up to genus ``EXPANSION_GATE``
unless ``max_expand_genus`` raises the gate.  The gate bounds the expanded form
and the walk that builds it, which grows with it: ``schur 2 21
--max-expand-genus 10`` takes about 1.9 s for 4,114 terms, in a walk over
about 193,000 states whose tableau counts mostly miss their cache.
``SchurForm.as_t`` builds the ``t``-form only when it is read.  The certifier
labels its exact certificates ``"expanded"`` at genus <= ``EXPANSION_GATE``
and ``"sampled"`` above it.  Above the gate the ``*_value`` functions
evaluate each route exactly at rational points, which is how route agreement
is checked for e.g. (5, 7) at genus 12.  They take the point times the lcm
D of its denominators, so the h-tables, the alternant and Bareiss run in
``int``, and divide by ``D^|L|`` once at the end.  A point needs exactly g
coordinates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm, prod

from .polynomials import (
    InexactDivisionError,
    MultiIndex,
    SparsePolynomial,
    _det_bareiss,
    _symmetric_sum_of_products,
    det,
    exact_divide,
)
from .semigroup import CurveSignature, YoungDiagram, u_weights, young_diagram
from .strata import InternalConsistencyError, _check_level, natural_k


EXPANSION_GATE = 6  # default genus gate of symbolic expansion


class ExpansionLimitError(ValueError):
    """Full symbolic expansion was requested above the configured genus gate."""


def check_expansion_gate(sig: CurveSignature, max_expand_genus: int) -> None:
    """Raise :class:`ExpansionLimitError` when the genus exceeds the gate."""
    if sig.genus > max_expand_genus:
        raise ExpansionLimitError(
            f"genus {sig.genus} exceeds the expansion gate {max_expand_genus}; "
            "raise max_expand_genus (--max-expand-genus on the command line)"
        )


@dataclass(frozen=True)
class SchurForm:
    """One Schur polynomial in three coordinate systems.

    ``as_T`` lives in the scaled power sums restricted to the hook-indexed
    set and ``as_u`` is ``as_T`` with ``T_(hook_i)`` renamed ``u_i``.
    ``as_t``, in the symmetric variables ``t_1..t_l`` with l the number of
    rows, is the bialternant, built afresh on each read and not stored.
    """

    diagram: YoungDiagram
    as_T: SparsePolynomial
    as_u: SparsePolynomial

    @property
    def as_t(self) -> SparsePolynomial:
        return schur_bialternant(self.diagram, len(self.diagram))


# -- complete homogeneous symmetric functions --------------------------------


@lru_cache(maxsize=1024)
def _h(n: int, lo: int, hi: int) -> SparsePolynomial:
    # h_n over the window t_lo..t_hi, lo <= hi.
    if n < 0:
        return SparsePolynomial.zero("t")
    if n == 0:
        return SparsePolynomial.one("t")
    if lo == hi:
        return SparsePolynomial.variable("t", lo, n)
    return _h(n, lo + 1, hi) + SparsePolynomial.variable("t", lo) * _h(n - 1, lo, hi)


def h_complete(n: int, lo: int, hi: int) -> SparsePolynomial:
    """h_n over the window t_lo..t_hi; h_0 = 1 and h_n = 0 for n < 0."""
    if not 1 <= lo <= hi:
        raise ValueError(f"window must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
    return _h(n, lo, hi)


@lru_cache(maxsize=64)
def h_from_T(n: int) -> SparsePolynomial:
    """h_n written in the scaled power sums T_1..T_n.

    Newton's recurrence ``n h_n = sum_(m=1..n) m T_m h_(n-m)``.
    """
    if n < 0:
        return SparsePolynomial.zero("T")
    if n == 0:
        return SparsePolynomial.one("T")
    total = SparsePolynomial.zero("T")
    for m in range(1, n + 1):
        total = total + (SparsePolynomial.variable("T", m) * h_from_T(n - m)).scale(m)
    return total.scale(Fraction(1, n))


# -- the four symbolic routes -------------------------------------------------


def _padded_parts(diagram: YoungDiagram, g: int) -> tuple[int, ...]:
    if len(diagram) > g:
        raise ValueError(f"diagram has {len(diagram)} rows but only {g} variables")
    return tuple(diagram.part(i) for i in range(1, g + 1))


def schur_bialternant(diagram: YoungDiagram, g: int) -> SparsePolynomial:
    """Alternant |t_j^(L_i + g - i)| divided by each factor t_i - t_j of the
    Vandermonde, i < j in lexicographic order; every exact division doubles
    as a self-check."""
    parts = _padded_parts(diagram, g)
    if g == 0:  # det refuses the 0 x 0 matrix
        return SparsePolynomial.one("t")
    num = [
        [SparsePolynomial.variable("t", j, parts[i - 1] + g - i) for j in range(1, g + 1)]
        for i in range(1, g + 1)
    ]
    quotient = det(num)
    try:
        for i, j in combinations(range(1, g + 1), 2):
            factor = SparsePolynomial.variable("t", i) - SparsePolynomial.variable("t", j)
            quotient = exact_divide(quotient, factor)
    except InexactDivisionError as exc:  # pragma: no cover - mathematically impossible
        raise InternalConsistencyError("Vandermonde does not divide the alternant") from exc
    return quotient


@lru_cache(maxsize=4)
def _left_minors(parts: tuple[int, ...], g: int) -> dict:
    """Determinants over full-window columns 1..k for every sorted row subset.

    Key: tuple of 1-based row indices S with |S| = k; value: the determinant
    of rows S against columns 1..k with entries h_(parts_i + j - i) over the
    full window.  Shared by the Jacobi-Trudi route (k = g) and every split
    route (Laplace expansion along the first k columns).  Each minor expands
    along its last column, ``sum_p +/- h * minor(S minus its p-th row)``, a
    symmetric sum of degree ``sum(parts_i - i, i in S) + k(k+1)/2``.
    """
    minors: dict[tuple[int, ...], SparsePolynomial] = {(): SparsePolynomial.one("t")}
    for k in range(1, g + 1):
        for subset in combinations(range(1, g + 1), k):
            degree = sum(parts[i - 1] - i for i in subset) + k * (k + 1) // 2
            minors[subset] = _symmetric_sum_of_products("t", [
                (-1 if (p + k - 1) % 2 else 1, _h(parts[i - 1] + k - i, 1, g),
                 minors[subset[:p] + subset[p + 1:]])
                for p, i in enumerate(subset)
            ], degree, g)
    return minors


def schur_jacobi_trudi(diagram: YoungDiagram, g: int) -> SparsePolynomial:
    """Determinant |h_(L_i + j - i)| over the full variable window."""
    parts = _padded_parts(diagram, g)
    return _left_minors(parts, g)[tuple(range(1, g + 1))]


def schur_tail_trudi(diagram: YoungDiagram, g: int) -> SparsePolynomial:
    """Determinant whose column j only involves the suffix window t_j..t_g."""
    parts = _padded_parts(diagram, g)
    if g == 0:  # det refuses the 0 x 0 matrix
        return SparsePolynomial.one("t")
    matrix = [
        [_h(parts[i - 1] + j - i, j, g) for j in range(1, g + 1)]
        for i in range(1, g + 1)
    ]
    return det(matrix)


def schur_split_trudi(diagram: YoungDiagram, g: int, k: int) -> SparsePolynomial:
    """Split determinant: full window in columns <= k, suffix window beyond.

    Evaluated by Laplace expansion along the first k columns so that the
    expensive full-window minors are shared across all split points.
    """
    if not 0 <= k <= g:
        raise ValueError(f"split point must lie in [0, {g}], got {k}")
    parts = _padded_parts(diagram, g)
    if k in (0, g):
        # Both degenerate splits coincide with the plain Jacobi-Trudi matrix.
        return schur_jacobi_trudi(diagram, g)
    minors = _left_minors(parts, g)
    pieces = []
    for subset in combinations(range(1, g + 1), k):
        left = minors[subset]
        if left.is_zero():
            continue
        complement = tuple(i for i in range(1, g + 1) if i not in subset)
        right_matrix = [
            [_h(parts[i - 1] + j - i, k + 1, g) for j in range(k + 1, g + 1)]
            for i in complement
        ]
        sign = -1 if (sum(subset) + k * (k + 1) // 2) % 2 else 1
        pieces.append((sign, left, det(right_matrix)))
    return _symmetric_sum_of_products("t", pieces, sum(parts), g)


def h_recursion_check(n: int, m: int | None, l1: int, l2: int) -> tuple[bool, bool, bool]:
    """Verify the three window-splitting identities for h_n as exact equalities.

    1. peeling one variable off either end of the window;
    2. peeling an m-variable prefix (requires 0 < m < l2 - l1; pass None to
       skip, e.g. on a two-variable window where no such m exists);
    3. the full split, i.e. identity 2 pushed to m = l2 - l1.
    """
    if l2 <= l1:
        raise ValueError("window must contain at least two variables")
    if m is not None and not 0 < m < l2 - l1:
        raise ValueError(f"require 0 < m < {l2 - l1}, got m={m}")

    lhs = _h(n, l1, l2)
    t_l1 = SparsePolynomial.variable("t", l1)
    t_l2 = SparsePolynomial.variable("t", l2)
    part1 = lhs == _h(n, l1 + 1, l2) + _h(n - 1, l1, l2) * t_l1 and lhs == _h(
        n, l1, l2 - 1
    ) + _h(n - 1, l1, l2) * t_l2

    def prefix_split(depth: int) -> SparsePolynomial:
        total = SparsePolynomial.zero("t")
        for i in range(depth + 1):
            total = total + _h(n - i, l1 + depth - i, l2) * _h(i, l1, l1 + depth - i)
        return total

    part2 = True if m is None else lhs == prefix_split(m)
    part3 = lhs == prefix_split(l2 - l1)
    return (part1, part2, part3)


# -- Murnaghan-Nakayama bead walk ----------------------------------------------


def _beads(sig: CurveSignature) -> int:
    """Bead mask of the curve diagram: its beta-numbers are the hooks."""
    return sum(1 << h for h in u_weights(sig))


def _partition(mask: int) -> tuple[int, ...]:
    beads = [x for x in range(mask.bit_length()) if mask >> x & 1]
    return tuple(p for p in reversed([b - i for i, b in enumerate(beads)]) if p)


@lru_cache(maxsize=4096)
def _tableaux(shape: tuple[int, ...]) -> int:
    """f^shape, the standard tableaux of a straight shape (hook-length formula)."""
    cols = [sum(1 for p in shape if p > j) for j in range(shape[0] if shape else 0)]
    hooks = prod(p - j + cols[j] - i - 1 for i, p in enumerate(shape) for j in range(p))
    return factorial(sum(shape)) // hooks


def _remove_rim_hooks(state: dict[int, int], m: int) -> dict[int, int]:
    """p_m^perp on a signed combination of bead masks (Murnaghan-Nakayama).

    Each bead x with x - m free moves there, with sign (-1)^(beads strictly
    between); terms that cancel are dropped, so an empty result is zero.
    """
    out: dict[int, int] = {}
    between = (1 << (m - 1)) - 1
    for mask, c in state.items():
        movable = (mask >> m) & ~mask  # bit j: a bead at j + m and none at j
        while movable:
            low = movable & -movable
            movable ^= low
            j = low.bit_length() - 1
            target = mask ^ low ^ (low << m)
            odd = ((mask >> (j + 1)) & between).bit_count() & 1
            total = out.get(target, 0) + (-c if odd else c)
            if total:
                out[target] = total
            else:
                del out[target]
    return out


def _character_form(state: dict[int, int], hooks, size: int) -> SparsePolynomial:
    """``sum_M chi(M) / prod_j m_j(M)! * u^M`` over the nondecreasing multisets
    M of hook indices; chi(M) is the coefficient of the empty partition once
    the rim hooks of M are removed from ``state``, a combination of partitions
    of ``size`` boxes.

    M ends in its run of N indices g, whose hook is 1, and the walk branches
    only on the indices below g: at each node the run is closed in one step,
    ``chi = sum c_mu f^mu``, since the ways to empty mu one box at a time are
    its standard tableaux.
    """
    g = len(hooks)
    terms = {}

    def visit(state, size, index, last):
        chi = sum(c * _tableaux(_partition(mask)) for mask, c in state.items())
        if chi:
            counts = Counter(index)
            counts[g] = size
            terms[MultiIndex(counts.items())] = Fraction(
                chi, prod(map(factorial, counts.values())))
        for j in range(last, g):
            reduced = _remove_rim_hooks(state, hooks[j - 1])
            if reduced:
                visit(reduced, size - hooks[j - 1], index + (j,), j)

    visit(state, size, (), 1)
    return SparsePolynomial("u", terms)


# -- power-sum form of the curve Schur polynomial -----------------------------


def schur_in_T(
    diagram: YoungDiagram, sig: CurveSignature, max_expand_genus: int = EXPANSION_GATE
) -> SchurForm:
    """Power-sum (and stratum-coordinate) form of a curve diagram's Schur.

    The diagram must be the signature's diagram or a head truncation of it.
    Every form but the empty head's expands the full form, so it raises
    :class:`ExpansionLimitError` when the genus exceeds ``max_expand_genus``.
    """
    parts = diagram.parts
    if not parts:  # the empty head of every curve, built without the diagram
        return SchurForm(diagram, SparsePolynomial.one("T"), SparsePolynomial.one("u"))
    lam = young_diagram(sig)
    k = len(parts)
    if parts != lam.parts[:k]:
        raise ValueError("diagram must be the curve diagram or one of its head truncations")
    check_expansion_gate(sig, max_expand_genus)
    hooks = u_weights(sig)
    state = {_beads(sig): 1}
    for i in natural_k(sig, k):
        state = _remove_rim_hooks(state, hooks[i - 1])
    sign = next((c for mask, c in state.items() if _partition(mask) == parts), 0)
    if sign not in (1, -1):
        raise InternalConsistencyError(
            f"natural derivative for head truncation k={k} of ({sig.r},{sig.s}) "
            f"carries the head diagram with coefficient {sign}, not +/-1"
        )
    as_u = _character_form(state, hooks, sum(parts)).scale(sign)
    as_T = as_u.rename_variables(dict(enumerate(hooks, start=1)), "T")
    return SchurForm(diagram, as_T, as_u)


def transition_matrix(sig: CurveSignature, k: int) -> list[list[SparsePolynomial]]:
    """Jacobian monomial matrix t_j^(L_i + g - i - 1) of the u coordinates.

    k = g gives the full g x g matrix over columns t_1..t_g; k < g gives the
    (g-k) x (g-k) block over the trailing columns t_(k+1)..t_g with rows
    i = 1..g-k.
    """
    g = sig.genus
    _check_level(sig, k)
    hooks = u_weights(sig)
    if k == g:
        rows, cols = range(1, g + 1), range(1, g + 1)
    else:
        rows, cols = range(1, g - k + 1), range(k + 1, g + 1)
    return [
        [SparsePolynomial.variable("t", j, hooks[i - 1] - 1) for j in cols]
        for i in rows
    ]


# -- exact pointwise evaluation of every route --------------------------------


def _integer_point(values, g: int) -> tuple[list[int], int]:
    """``values`` times the lcm D of their denominators, and D."""
    point = [Fraction(v) for v in values]
    if len(point) != g:
        raise ValueError(f"expected {g} coordinates, got {len(point)}")
    scale = lcm(*(x.denominator for x in point))
    return [x.numerator * (scale // x.denominator) for x in point], scale


def _trudi_value(diagram: YoungDiagram, g: int, values, start) -> Fraction:
    """Exact |h_(L_i + j - i)| at ``values``, column j over the window t_start(j)..t_g.

    One h-table per suffix window serves every entry: the table of
    t_lo..t_g is the table of t_(lo+1)..t_g with t_lo added.  The tables are
    taken at the point times D, in ints; every term of the determinant has
    degree |L|, so it is divided by D^|L| once at the end.
    """
    parts = _padded_parts(diagram, g)
    point, scale = _integer_point(values, g)
    top = parts[0] + g - 1 if g else 0
    table = [1] + [0] * top
    tables = [table]
    for x in reversed(point):
        table = table[:]
        for d in range(1, top + 1):
            table[d] += x * table[d - 1]
        tables.append(table)
    matrix = []
    for i in range(1, g + 1):
        row = []
        for j in range(1, g + 1):
            n = parts[i - 1] + j - i
            row.append(tables[g + 1 - start(j)][n] if n >= 0 else 0)
        matrix.append(row)
    return Fraction(_det_bareiss(matrix), scale ** sum(parts))


def bialternant_value(diagram: YoungDiagram, g: int, values) -> Fraction:
    """Exact alternant over Vandermonde at ``values``, both taken at the
    point times D in ints: their degrees differ by |L|."""
    parts = _padded_parts(diagram, g)
    point, scale = _integer_point(values, g)
    num = [[x ** (parts[i] + g - i - 1) for x in point] for i in range(g)]
    d = prod(x - y for x, y in combinations(point, 2))
    if not d:
        raise ZeroDivisionError("evaluation points must be pairwise distinct")
    return Fraction(_det_bareiss(num), d * scale ** sum(parts))


def jacobi_trudi_value(diagram: YoungDiagram, g: int, values) -> Fraction:
    return _trudi_value(diagram, g, values, lambda j: 1)


def tail_trudi_value(diagram: YoungDiagram, g: int, values) -> Fraction:
    return _trudi_value(diagram, g, values, lambda j: j)


def split_trudi_value(diagram: YoungDiagram, g: int, k: int, values) -> Fraction:
    if not 0 <= k <= g:
        raise ValueError(f"split point must lie in [0, {g}], got {k}")
    return _trudi_value(diagram, g, values, lambda j: 1 if j <= k else k + 1)
