"""Numerical-semigroup and Young-diagram data for cyclic plane curves.

A coprime pair ``r < s`` fixes the curve ``y^r = f(x)`` (``f`` monic of
degree ``s``) with a single point at infinity.  Everything in this module is
determined by the Weierstrass semigroup ``<r, s>`` at that point, and read
off one tuple per signature: :func:`pole_orders`, the pole orders
``N(0) < ... < N(g)`` realizable by functions regular off infinity, i.e. the
g + 1 elements of ``<r, s>`` up to ``N(g) = 2g`` (``N(g-1) = 2g-2``).  Every
integer from 2g on is a pole order, so ``N(n) = n + g`` for ``n >= g`` and no
caller needs a bound.  From that tuple come

* the genus ``g = (r-1)(s-1)/2``, equal to the number of gaps,
* the monic monomials ``x^a y^b`` (``0 <= b < r``) realizing them, with
  ``b = N * s^-1 mod r``,
* the Young diagram with rows ``L_i = g - N(i-1) + (i-1)`` of total weight
  ``(r^2-1)(s^2-1)/24``,
* the first-column hook lengths ``L_i + g - i = 2g - N(i-1) - 1``, which are
  the inverse pole orders of the natural holomorphic-integral coordinates
  ``u_1..u_g`` and index everything downstream.

For (r, s) = (5, 7), genus 12::

    n         0  1  2  3   4   5   6   7    8    9   10   11    12
    monomial  1  x  y  x2  xy  y2  x3  x2y  xy2  x4  y3   x3y   x2y2
    N(n)      0  5  7  10  12  14  15  17   19   20  21   22    24
    row       -  12 8  7   5   4   3   3    2    1   1    1     1

All values are small exact integers; everything here is pure and immutable.
The pole orders, the diagram and the hook lengths are held in bounded
``lru_cache``s keyed by the signature's value, so every caller shares one
entry per (r, s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class CurveSignature:
    """Coprime exponent pair (r, s) with r < s defining ``y^r = f(x)``."""

    r: int
    s: int

    def __post_init__(self):
        if self.r < 1 or self.s < 1:
            raise ValueError(f"exponents must be positive, got ({self.r}, {self.s})")
        if self.r >= self.s:
            raise ValueError(f"require r < s, got ({self.r}, {self.s})")
        if math.gcd(self.r, self.s) != 1:
            raise ValueError(f"require gcd(r, s) = 1, got ({self.r}, {self.s})")

    @property
    def genus(self) -> int:
        return (self.r - 1) * (self.s - 1) // 2

    def diagram_weight(self) -> int:
        return (self.r**2 - 1) * (self.s**2 - 1) // 24


@dataclass(frozen=True)
class NonGapSequence:
    """Initial segment N(0..m) of the pole-order sequence of ``<r, s>``."""

    signature: CurveSignature
    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values or self.values[0] != 0:
            raise ValueError("pole-order sequence must start at N(0) = 0")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("pole-order sequence must be strictly increasing")

    def gaps(self) -> tuple[int, ...]:
        """The g gaps: complement of the semigroup within [0, 2g)."""
        members = set(pole_orders(self.signature))
        return tuple(n for n in range(2 * self.signature.genus) if n not in members)


@dataclass(frozen=True)
class WeierstrassMonomial:
    """Monic monomial x^a y^b with 0 <= b < r; pole order a*r + b*s."""

    a: int
    b: int
    wdeg: int

    def name(self) -> str:
        if self.a == 0 and self.b == 0:
            return "1"
        parts = []
        if self.a:
            parts.append("x" if self.a == 1 else f"x^{self.a}")
        if self.b:
            parts.append("y" if self.b == 1 else f"y^{self.b}")
        return "*".join(parts)


@dataclass(frozen=True)
class YoungDiagram:
    """Weakly decreasing positive parts; zero-padded beyond its length."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError("diagram parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("diagram parts must be weakly decreasing")

    def __len__(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """Row length L_i, 1-based; zero past the last row."""
        if i < 1:
            raise IndexError("rows are 1-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def weight(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "YoungDiagram":
        # Column j has length i for p_(i+1) < j <= p_i; read rows bottom-up.
        cols: list[int] = []
        for i in range(len(self.parts), 0, -1):
            cols += [i] * (self.parts[i - 1] - len(cols))
        return YoungDiagram(tuple(cols))

    def contains(self, row: int, col: int) -> bool:
        return 1 <= row <= len(self.parts) and 1 <= col <= self.parts[row - 1]


@lru_cache(maxsize=256)
def pole_orders(sig: CurveSignature) -> tuple[int, ...]:
    """N(0..g): the g + 1 elements of <r, s> up to 2g.

    n lies in <r, s> iff n = a*r + b*s with b = n * s^-1 mod r and a >= 0.
    """
    inverse = pow(sig.s, -1, sig.r)
    return tuple(n for n in range(2 * sig.genus + 1) if n * inverse % sig.r * sig.s <= n)


def nongap_sequence(sig: CurveSignature, count: int) -> NonGapSequence:
    """First `count` pole orders N(0), N(1), ... of the semigroup <r, s>."""
    if count < 1:
        raise ValueError("count must be >= 1")
    g = sig.genus
    values = pole_orders(sig)[:count] + tuple(range(2 * g + 1, count + g))
    return NonGapSequence(sig, values)


def monomial_basis(sig: CurveSignature, count: int) -> list[WeierstrassMonomial]:
    """Monomials of pole orders N(0)..N(count-1), reduced to 0 <= b < r.

    The representative is unique: b = N * s^-1 mod r is fixed by the pole
    order, and y^r reduces via the curve equation.
    """
    inverse = pow(sig.s, -1, sig.r)
    out = []
    for n in nongap_sequence(sig, count).values:
        b = n * inverse % sig.r
        out.append(WeierstrassMonomial((n - b * sig.s) // sig.r, b, n))
    return out


@lru_cache(maxsize=256)
def young_diagram(sig: CurveSignature) -> YoungDiagram:
    """Rows L_i = g - N(i-1) + (i-1) for i = 1..g."""
    g = sig.genus
    orders = pole_orders(sig)
    diagram = YoungDiagram(tuple(g - orders[i] + i for i in range(g)))
    assert diagram.weight() == sig.diagram_weight()
    return diagram


@lru_cache(maxsize=256)
def u_weights(sig: CurveSignature) -> tuple[int, ...]:
    """Inverse pole orders 2g - N(i-1) - 1 = L_i + g - i of u_1..u_g.

    Strictly decreasing, ending in 1; these are the first-column hook lengths
    of the diagram and serve as the weights of the stratum coordinates.
    """
    g = sig.genus
    return tuple(2 * g - n - 1 for n in pole_orders(sig)[:g])
