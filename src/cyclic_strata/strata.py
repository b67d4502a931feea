"""Stratification combinatorics: truncated diagrams, Frobenius data, index sets.

For each stratum level k (0 <= k <= g) the curve diagram splits into a head
``L^(k)`` (first k rows) and a tail ``L^[k]`` (rows k+1..g).  The tail drives
everything: its Frobenius characteristics (a; b), its rank n_k, its weight
N_k, the Fay exponent sets, and the canonical derivative index set natural_k
obtained by matching each characteristic hook a_i + b_i + 1 against the
first-column hook lengths L_l + g - l of the full diagram.

One table per curve, built in one pass by :func:`stratum_table`, serves
:func:`stratum_profile`, :func:`natural_k` and the CLI's whole-curve tables.
At each level it raises :class:`InternalConsistencyError` when two
independent routes disagree: n_k and the tail rank, N_k from the pole orders,
the tail weight and the hook sum, each hook and the rows, natural_k and
k + 1, the Fay sets and n_k and N_k.
The per-level functions below recompute each item from scratch for the tests.
The cache keeps 64 tables; one retains about 20 KB at genus 24, 0.5 MB at
genus 200 and 28 MB at genus 1000 (the CLI's cap), and the 45 curves with
s <= 13 hold 0.64 MB together.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .semigroup import CurveSignature, YoungDiagram, pole_orders, u_weights, young_diagram


class InternalConsistencyError(AssertionError):
    """A structural identity that must hold by theory failed on real data."""


@dataclass(frozen=True)
class FrobeniusCharacteristics:
    """Leg/arm lengths (a; b) along the diagonal, lower-right to upper-left.

    Both tuples are strictly increasing and of equal length (the rank); the
    i-th diagonal box counted from the bottom of the diagonal has a_i boxes
    below it and b_i boxes to its right.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("leg and arm tuples must have equal length")
        for seq in (self.a, self.b):
            if any(x < 0 for x in seq):
                raise ValueError("characteristics must be non-negative")
            if any(x >= y for x, y in zip(seq, seq[1:])):
                raise ValueError("characteristics must be strictly increasing")

    @property
    def rank(self) -> int:
        return len(self.a)

    def hooks(self) -> tuple[int, ...]:
        """Diagonal hook lengths a_i + b_i + 1, increasing with i."""
        return tuple(x + y + 1 for x, y in zip(self.a, self.b))

    def to_diagram(self) -> YoungDiagram:
        """Rebuild the diagram; inverse of :func:`characteristics`."""
        rank = self.rank
        arms = self.b[::-1]  # top-down
        legs = self.a[::-1]
        parts = [m + arms[m - 1] for m in range(1, rank + 1)]
        i = rank + 1
        while True:
            row = sum(1 for m in range(1, rank + 1) if legs[m - 1] >= i - m)
            if row == 0:
                break
            parts.append(row)
            i += 1
        return YoungDiagram(tuple(parts))


@dataclass(frozen=True)
class StratumProfile:
    """Per-k bundle of stratification data for one curve signature."""

    k: int
    n_k: int
    N_k: int
    chars: FrobeniusCharacteristics
    natural: tuple[int, ...]
    m_plus: tuple[int, ...]
    m_minus: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n_k": self.n_k,
            "N_k": self.N_k,
            "a": list(self.chars.a),
            "b": list(self.chars.b),
            "natural": list(self.natural),
            "m_plus": list(self.m_plus),
            "m_minus": list(self.m_minus),
        }


def truncate_upper(diagram: YoungDiagram, k: int) -> YoungDiagram:
    """Head L^(k): the first k rows."""
    if not 0 <= k <= len(diagram):
        raise ValueError(f"k must lie in [0, {len(diagram)}], got {k}")
    return YoungDiagram(diagram.parts[:k])


def truncate_lower(diagram: YoungDiagram, k: int) -> YoungDiagram:
    """Tail L^[k]: rows k+1 onward."""
    if not 0 <= k <= len(diagram):
        raise ValueError(f"k must lie in [0, {len(diagram)}], got {k}")
    return YoungDiagram(diagram.parts[k:])


def characteristics(diagram: YoungDiagram) -> FrobeniusCharacteristics:
    """Frobenius characteristics of a diagram (rank 0 for the empty one)."""
    parts = diagram.parts
    conj = diagram.conjugate().parts
    rank = 0
    while rank < len(parts) and parts[rank] >= rank + 1:
        rank += 1
    legs = tuple(conj[m - 1] - m for m in range(rank, 0, -1))
    arms = tuple(parts[m - 1] - m for m in range(rank, 0, -1))
    return FrobeniusCharacteristics(legs, arms)


def n_k(sig: CurveSignature, k: int) -> int:
    """Count of pole orders N(l) <= g - k - 1; the tail rank."""
    _check_level(sig, k)
    return sum(1 for v in pole_orders(sig) if v <= sig.genus - k - 1)


def N_k_sum(sig: CurveSignature, k: int) -> int:
    """Derivative-order bound as a sum over pole orders."""
    _check_level(sig, k)
    values = pole_orders(sig)
    return sum(2 * sig.genus - values[l] - values[k + l] - 1 for l in range(n_k(sig, k)))


def N_k_tail(sig: CurveSignature, k: int) -> int:
    """The same bound as the weight of the tail diagram."""
    return truncate_lower(young_diagram(sig), k).weight()


def fay_sets(sig: CurveSignature, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exponent sets (M_k, M-bar_k); each has n_k elements.

    M_k collects g - N(l) - k - 1 while non-negative, M-bar_k collects
    g - N(l+k) + k - 1 while non-negative; together with n_k they recompose
    N_k as n_k + sum(M_k) + sum(M-bar_k).
    """
    g = sig.genus
    if not 0 <= k < g:
        raise ValueError(f"k must lie in [0, {g}), got {k}")
    values = pole_orders(sig)
    m_plus = sorted(g - v - k - 1 for v in values if v < g - k)
    m_minus = sorted(g - v + k - 1 for v in values[k:] if v < g + k)
    return tuple(m_plus), tuple(m_minus)


def natural_k(sig: CurveSignature, k: int) -> tuple[int, ...]:
    """Canonical derivative index set for level k, listed by decreasing index.

    Each characteristic hook a_i + b_i + 1 of the tail L^[k] equals exactly
    one first-column hook length L_l + g - l of the full diagram; the matched
    row indices l form the set.  Its size is n_k and its last element (the
    smallest index) is k + 1.  Empty at k = g.
    """
    _check_level(sig, k)
    return stratum_table(sig)[k].natural


def natural_k_i(sig: CurveSignature, k: int, i: int) -> tuple[int, ...]:
    """Variant index set: replace the member k+1 by i (1 <= i <= k).

    At k = g the base set is empty and the variant is just (i,), 1 <= i <= g.
    """
    g = sig.genus
    if not 1 <= k <= g:
        raise ValueError(f"k must lie in [1, {g}], got {k}")
    if not 1 <= i <= k:
        raise ValueError(f"i must lie in [1, {k}], got {i}")
    base = set(natural_k(sig, k))
    base.discard(k + 1)
    base.add(i)
    return tuple(sorted(base, reverse=True))


def hyperelliptic_natural(g: int, k: int) -> tuple[int, ...]:
    """Closed form of natural_k for (2, 2g+1): a step-2 run ending at k+1.

    The run starts at g when g - k is odd and at g - 1 when it is even, so
    that the bottom element is always k + 1.
    """
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    if not 1 <= k <= g - 1:
        raise ValueError(f"k must lie in [1, {g - 1}], got {k}")
    start = g if (g - k) % 2 == 1 else g - 1
    return tuple(range(start, k, -2))


def rim_hook_reading(sig: CurveSignature) -> tuple[tuple[int, int], ...]:
    """First g nodes of the rim, walked right-to-left then down from (1, L_1).

    Row i contributes columns L_i down to max(L_{i+1}, 1).  The g nodes read
    off are exactly (n_k, n_k + k) for k = g-1 down to 0.
    """
    diagram = young_diagram(sig)
    g = sig.genus
    nodes: list[tuple[int, int]] = []
    for i in range(1, len(diagram) + 1):
        lo = max(diagram.part(i + 1), 1)
        for col in range(diagram.part(i), lo - 1, -1):
            nodes.append((i, col))
            if len(nodes) == g:
                return tuple(nodes)
    return tuple(nodes)


def _check_level(sig: CurveSignature, k: int) -> None:
    if not 0 <= k <= sig.genus:
        raise ValueError(f"k must lie in [0, {sig.genus}], got {k}")


def stratum_profile(sig: CurveSignature, k: int) -> StratumProfile:
    """The per-k bundle, read from the curve's cross-checked table."""
    _check_level(sig, k)
    return stratum_table(sig)[k]


@lru_cache(maxsize=64)
def stratum_table(sig: CurveSignature) -> tuple[StratumProfile, ...]:
    """All g + 1 profiles of one curve (index k is level k), built in one pass."""
    g = sig.genus
    orders = pole_orders(sig)
    diagram = young_diagram(sig)
    parts, conj = diagram.parts, diagram.conjugate().parts
    position = {value: idx for idx, value in enumerate(u_weights(sig), start=1)}
    if len(position) != g:
        raise InternalConsistencyError("first-column hook lengths are not distinct")
    tail_weights = tuple(accumulate(reversed(parts), initial=0))[::-1]
    table = []
    rank = len(conj)
    for k, total in enumerate(tail_weights):
        # Tail column j has conj_j - k boxes; the rank is the last j with conj_j - k >= j.
        while rank and conj[rank - 1] - k < rank:
            rank -= 1
        chars = FrobeniusCharacteristics(
            tuple(conj[m - 1] - k - m for m in range(rank, 0, -1)),
            tuple(parts[k + m - 1] - m for m in range(rank, 0, -1)),
        )
        count = bisect_right(orders, g - k - 1)
        if rank != count:
            raise InternalConsistencyError(
                f"rank {rank} of the tail disagrees with n_k = {count} (k={k})"
            )
        hooks = chars.hooks()
        from_orders = sum(2 * g - orders[l] - orders[k + l] - 1 for l in range(count))
        if from_orders != total or sum(hooks) != total:
            raise InternalConsistencyError(f"N_k computations disagree at k={k}")
        indices = []
        for target in hooks:
            l = position.get(target)
            if l is None:
                raise InternalConsistencyError(
                    f"no row of the ({sig.r},{sig.s}) diagram has hook length {target} (k={k})"
                )
            indices.append(l)
        natural = tuple(sorted(indices, reverse=True))
        if 1 <= k < g and natural[-1:] != (k + 1,):
            raise InternalConsistencyError(
                f"natural index set for k={k} does not end at k+1: {natural}"
            )
        # M_k has n_k elements by construction; M-bar_k (from N(k), below g + k) must match.
        m_plus = tuple(g - k - 1 - v for v in reversed(orders[:count]))
        m_minus = tuple(g + k - 1 - v for v in reversed(orders[k:bisect_left(orders, g + k)]))
        if count + sum(m_plus) + sum(m_minus) != total:
            raise InternalConsistencyError(f"Fay sets do not recompose N_k at k={k}")
        if len(m_minus) != count:
            raise InternalConsistencyError(f"Fay set sizes disagree with n_k at k={k}")
        table.append(StratumProfile(k, count, total, chars, natural, m_plus, m_minus))
    return tuple(table)
