"""Reference computations the benchmark checks the program against.

Nothing here imports the package.  The curve data is rebuilt from the gap
sequence of the semigroup <r, s> (the package builds it from the pole
orders), Schur values come from the hook-content formula or from a
bialternant over plain ``Fraction``s, and polynomials are read back from
their canonical text, the package's stable output format.
"""

from __future__ import annotations

import math
from fractions import Fraction


def genus(r: int, s: int) -> int:
    return (r - 1) * (s - 1) // 2


def semigroup_members(r: int, s: int, bound: int) -> set[int]:
    """Elements a*r + b*s <= bound of the numerical semigroup <r, s>."""
    return {a * r + b * s for a in range(bound // r + 1) for b in range(bound // s + 1)
            if a * r + b * s <= bound}


def pole_orders(r: int, s: int, count: int) -> list[int]:
    members = semigroup_members(r, s, 2 * genus(r, s) + count)
    return sorted(members)[:count]


def gaps(r: int, s: int) -> list[int]:
    g = genus(r, s)
    members = semigroup_members(r, s, 2 * g)
    return [n for n in range(1, 2 * g) if n not in members]


def diagram(r: int, s: int) -> tuple[int, ...]:
    """Weierstrass partition read from the gaps: L_i = w_(g+1-i) - (g - i)."""
    w = gaps(r, s)
    g = len(w)
    parts = [w[g - i] - (g - i) for i in range(1, g + 1)]
    return tuple(p for p in parts if p)


def first_column_hooks(r: int, s: int) -> tuple[int, ...]:
    """The hook lengths L_i + g - i are the gaps, largest first."""
    return tuple(sorted(gaps(r, s), reverse=True))


def conjugate(parts) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, (parts[0] if parts else 0) + 1))


def diagonal_hooks(parts) -> tuple[int, ...]:
    """Hook lengths of the diagonal boxes (the Frobenius hooks a_i + b_i + 1)."""
    conj = conjugate(parts)
    return tuple(parts[i] + conj[i] - 2 * i - 1 for i in range(len(parts)) if parts[i] > i)


def tail(r: int, s: int, k: int) -> tuple[int, ...]:
    return diagram(r, s)[k:]


def rank(r: int, s: int, k: int) -> int:
    """n_k: the Durfee size of the tail below row k."""
    return len(diagonal_hooks(tail(r, s, k)))


def tail_weight(r: int, s: int, k: int) -> int:
    """N_k: the number of boxes of the tail below row k."""
    return sum(tail(r, s, k))


def natural_set(r: int, s: int, k: int) -> set[int]:
    """Rows l whose first-column hook equals a diagonal hook of the tail."""
    row_of = {h: l for l, h in enumerate(first_column_hooks(r, s), start=1)}
    return {row_of[h] for h in diagonal_hooks(tail(r, s, k))}


def sweep_count(g: int, n: int) -> int:
    """Multisets of [1, g] of size below n: sum_j C(g-1+j, j) = C(g+n-1, n-1)."""
    return math.comb(g + n - 1, n - 1)


def hook_content(parts, n: int) -> Fraction:
    """s_L(1, ..., 1) in n variables: prod over boxes of (n + c) / h."""
    conj = conjugate(parts)
    value = Fraction(1)
    for i, row in enumerate(parts):
        for j in range(row):
            value *= Fraction(n + j - i, row - j + conj[j] - i - 1)
    return value


def _det(matrix) -> Fraction:
    """Gaussian elimination over Fractions with a nonzero pivot search."""
    m = [list(row) for row in matrix]
    n = len(m)
    value = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            value = -value
        value *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            factor = m[i][c] * inv
            if factor:
                for j in range(c + 1, n):
                    m[i][j] -= factor * m[c][j]
    return value


def schur_value(parts, point) -> Fraction:
    """s_L at distinct values t_1..t_n: |t_j^(L_i + n - i)| / Vandermonde."""
    t = [Fraction(x) for x in point]
    n = len(t)
    padded = list(parts) + [0] * (n - len(parts))
    if len(padded) > n:
        return Fraction(0)
    alternant = _det([[x ** (padded[i] + n - i - 1) for x in t] for i in range(n)])
    vandermonde = math.prod(t[i] - t[j] for i in range(n) for j in range(i + 1, n))
    return alternant / vandermonde


def parse_polynomial(text: str) -> list[tuple[Fraction, dict[int, int]]]:
    """Terms of a canonical polynomial text such as ``1/3*u2^3 - u1``."""
    if text == "0":
        return []
    tokens = text.split(" ")
    signed = [(1, tokens[0])] if not tokens[0].startswith("-") else [(-1, tokens[0][1:])]
    for sign, body in zip(tokens[1::2], tokens[2::2]):
        if sign not in "+-":
            raise ValueError(f"unexpected separator {sign!r} in {text[:80]!r}")
        signed.append((1 if sign == "+" else -1, body))
    terms = []
    for sign, body in signed:
        coeff = Fraction(sign)
        mono: dict[int, int] = {}
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, exp = factor.partition("^")
            var = int(name.lstrip("tTu"))
            mono[var] = mono.get(var, 0) + (int(exp) if exp else 1)
        terms.append((coeff, mono))
    return terms


def evaluate_text(text: str, values) -> Fraction:
    """Value of a canonical polynomial text; ``values[v]`` is variable v."""
    total = Fraction(0)
    for coeff, mono in parse_polynomial(text):
        term = coeff
        for v, e in mono.items():
            term *= values[v] ** e
        total += term
    return total


def coefficient_sum(text: str) -> Fraction:
    return sum((c for c, _ in parse_polynomial(text)), Fraction(0))


def u_point(r: int, s: int, t_point) -> dict[int, Fraction]:
    """u_i = p_(hook_i)(t) / hook_i, the stratum coordinates of a t-point."""
    t = [Fraction(x) for x in t_point]
    return {
        i: Fraction(sum(x ** h for x in t), h)
        for i, h in enumerate(first_column_hooks(r, s), start=1)
    }


def monomial_exponents(r: int, s: int, count: int) -> list[tuple[int, int]]:
    """(a, b) with a*r + b*s = N(n), 0 <= b < r, for the first count pole orders."""
    out = []
    for n in pole_orders(r, s, count):
        b = next(b for b in range(r) if n - b * s >= 0 and (n - b * s) % r == 0)
        out.append(((n - b * s) // r, b))
    return out


def mu_residual(r: int, s: int, coefficients, x: complex, y: complex) -> float:
    """|mu_n(P)| over the size of its terms, mu_n = phi_n + sum (-1)^(n-k) mu_k phi_k."""
    n = len(coefficients)
    phi = [x ** a * y ** b for a, b in monomial_exponents(r, s, n + 1)]
    terms = [phi[n]] + [(-1) ** (n - k) * coefficients[k] * phi[k] for k in range(n)]
    return abs(sum(terms)) / max(sum(abs(v) for v in terms), 1e-300)
