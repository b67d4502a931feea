"""Exact sparse multivariate polynomial arithmetic over rationals.

This is the substrate for every symbolic computation in the package.  A
polynomial lives over a declared *variable family* -- ``"t"`` for curve-side
symmetric variables, ``"T"`` for scaled power sums, ``"u"`` for stratum
coordinates.  Mixing families in one arithmetic operation is a hard error:
the whole point of tagging is that a ``t``-space expression and a ``T``-space
expression are different mathematical objects even when they happen to look
alike.

Representation
--------------
A monomial is one Python ``int`` key.  The exponent of variable v (``t3`` is
variable 3 of family ``t``) sits in the 10-bit field at bit ``10*(v-1)``, and
the top bit of every field is a guard, so an exponent is at most 511.  A
larger one raises ``OverflowError``, whether it is given at construction or
produced by a product; it never carries into the next field.  Multiplying
monomials adds their keys, and differentiating subtracts one unit of a field.

A polynomial is a dict from keys to nonzero coefficients.  Coefficients are
exact: Python ``int`` or ``fractions.Fraction``; there is deliberately no
floating-point fallback because downstream vanishing certificates rely on
exact zeros.  ``Fraction`` fills the role of an exact rational scalar type
(normalized sign, reduced terms), so no bespoke rational class is defined.

:class:`MultiIndex`, a sorted tuple of ``(variable, exponent)`` pairs, is the
monomial at the API edge only: the constructor encodes it, and ``terms`` is a
read-only view decoded back into it.  The canonical text form used in golden
files, e.g. ``1/3*u2^3 - u1``, lists terms in graded lexicographic order
(total degree first, then the exponent of the lowest-numbered variable, and
so on).

Exact division
--------------
:func:`exact_divide` is heap division (Monagan & Pearce, "Sparse polynomial
division using a heap", JSC 2011) in key order.  Because no field carries,
comparing keys as ints is a monomial order: lexicographic with the highest
variable first.  An exact quotient does not depend on the order.  A guard
mask over every field either operand uses turns the divisibility test into
two int operations.  Its one caller in the symbolic routes is
``schur.schur_bialternant``, which divides the alternant by the binomials
``t_i - t_j`` one at a time, so the divisor always has two terms.

Determinants
------------
:func:`det` computes exact determinants of square polynomial matrices by
cofactor expansion with memoized minors keyed by column subsets, expanding
rows bottom-up -- this is essentially free when the lower rows are sparse,
which is the shape of every Jacobi-Trudi style matrix in this package.  It
has no size dispatch: polynomial Bareiss, whose every step is an exact
division, took about 100 times as long on the 7x7 alternants of (2, 15).
The exact-number value routes use :func:`_det_bareiss`, integer-preserving
Bareiss elimination on rows scaled by the lcm of their denominators (0.06 s
against 0.21 s over ``Fraction`` on the ``routes`` value determinants).

Performance notes
-----------------
A product of at least 1,500 term pairs, with at most 6 variables (keys below
2**60) and ``int`` coefficients, runs in numpy when each term pair fits one
int64; every other product runs the dict loop.  Both are exact.  The packing
(Monagan & Pearce, ISSAC 2009): with radius ``R_v = maxexp_v(a) +
maxexp_v(b) + 1``, a monomial's index ``sum(e_v * prod(R_u, u < v))`` orders
monomials as their keys do, and a term pair is ``index << shift | (c1*c2 +
bias)`` with ``shift = 62 - bit_length(prod(R_v))`` and ``bias = max|c1| *
max|c2|``.  It fits when ``2 * bias < 2**shift`` and no merged sum can
overflow (``bias * min(len(a), len(b)) < 2**62``); :func:`_vectorizable` is
that rule.  One in-place sort orders the pairs, ``reduceat`` merges equal
indices, and ``divmod`` over the radii decodes them to keys.  The cutoff is
the measured crossover on the ``routes`` products (2 cores, Python 3.11):
packed won 10 of 11 products of 1,500-2,000 pairs, and the paths tied below.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import reduce
from math import lcm, prod
from operator import or_
from types import MappingProxyType
from typing import Iterable, Mapping, Union

import numpy as np

Coeff = Union[int, Fraction]


class FamilyMismatchError(ValueError):
    """Raised when two polynomials from different variable families meet."""


class MissingAssignmentError(KeyError):
    """Raised by evaluate/substitute when a variable has no assigned value."""


class InexactDivisionError(ArithmeticError):
    """Raised when an allegedly exact division leaves a remainder."""


class MultiIndex(tuple):
    """Sparse exponent vector: sorted ``(variable, exponent)`` pairs."""

    __slots__ = ()

    def __new__(cls, pairs: Iterable[tuple[int, int]] = ()):
        exps: dict[int, int] = {}
        for var, exp in pairs:
            if var < 1:
                raise ValueError(f"variable index must be >= 1, got {var}")
            if exp < 0:
                raise ValueError(f"exponent must be >= 0, got {exp}")
            if exp:
                exps[int(var)] = exps.get(int(var), 0) + int(exp)
        return super().__new__(cls, sorted(exps.items()))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self)


_BITS = 10
_FIELD = (1 << _BITS) - 1
_MAX_EXP = (1 << (_BITS - 1)) - 1
_VECTOR_CUTOFF = 1_500
_VECTOR_KEY_LIMIT = 1 << 60  # at most six fields
_FIELD_SHIFTS = np.arange(0, 60, _BITS, dtype=np.int64)


def _encode(mono) -> int:
    key = 0
    for v, e in mono:
        if e > _MAX_EXP:
            raise OverflowError(f"exponent {e} of variable {v} exceeds {_MAX_EXP}")
        key |= e << (_BITS * (v - 1))
    return key


def _decode(key: int) -> MultiIndex:
    pairs = []
    var = 1
    while key:
        e = key & _FIELD
        if e:
            pairs.append((var, e))
        key >>= _BITS
        var += 1
    return tuple.__new__(MultiIndex, pairs)


def _guard_mask(key: int) -> int:
    """The guard bit of every field up to the highest field set in ``key``."""
    fields = -(-key.bit_length() // _BITS)
    return ((1 << (_BITS * fields)) - 1) // _FIELD << (_BITS - 1)


def _grlex_key(m: MultiIndex):
    # Descending sort on this key lists terms in graded-lex order: highest
    # total degree first, ties broken by the exponent of t1, then t2, ...
    dense = [0] * (m[-1][0] if m else 0)
    for v, e in m:
        dense[v - 1] = e
    return (m.degree, tuple(dense))


def _mono_str(m: MultiIndex, family: str) -> str:
    return "*".join(f"{family}{v}" if e == 1 else f"{family}{v}^{e}" for v, e in m)


def _vectorizable(t1: dict, t2: dict):
    """The packed layout of ``t1 * t2``, or None for the dict loop."""
    if len(t1) * len(t2) < _VECTOR_CUTOFF:
        return None
    if max(t1) >= _VECTOR_KEY_LIMIT or max(t2) >= _VECTOR_KEY_LIMIT:
        return None
    if any(type(c) is not int for t in (t1, t2) for c in t.values()):
        return None
    bias = max(map(abs, t1.values())) * max(map(abs, t2.values()))
    # reduceat adds at most min(len) products of bounded size
    if bias * min(len(t1), len(t2)) >= 2**62:
        return None
    e1, e2 = ((np.fromiter(t, np.int64, len(t))[:, None] >> _FIELD_SHIFTS) & _FIELD
              for t in (t1, t2))
    radii = (e1.max(axis=0) + e2.max(axis=0) + 1).tolist()
    shift = 62 - prod(radii).bit_length()
    if 2 * bias >= 1 << shift:
        return None
    return e1, e2, radii, shift, bias


def _mul_vectorized(t1: dict, t2: dict, layout) -> dict:
    e1, e2, radii, shift, bias = layout
    strides = np.cumprod([1] + radii[:-1], dtype=np.int64)
    i1 = (e1 @ strides) << shift
    i2 = (e2 @ strides) << shift
    i2 += bias
    # One int64 per term pair: index << shift | (c1*c2 + bias).
    packed = np.empty((len(t1), len(t2)), dtype=np.int64)
    np.multiply.outer(np.fromiter(t1.values(), dtype=np.int64, count=len(t1)),
                      np.fromiter(t2.values(), dtype=np.int64, count=len(t2)), out=packed)
    packed += i2[None, :]
    packed += i1[:, None]
    packed = packed.ravel()
    packed.sort()
    index = packed >> shift
    packed &= (1 << shift) - 1
    packed -= bias
    starts = np.concatenate(([0], np.flatnonzero(index[1:] != index[:-1]) + 1))
    index = index[starts]
    sums = np.add.reduceat(packed, starts)
    del packed
    keep = sums != 0
    index, sums = index[keep], sums[keep]
    keys = np.zeros_like(index)
    for v, radius in enumerate(radii):
        index, e = np.divmod(index, radius)
        keys |= e << (_BITS * v)
    return dict(zip(keys.tolist(), sums.tolist()))


def _mul_dict(t1: dict, t2: dict) -> dict:
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    out: dict = {}
    get = out.get
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


class SparsePolynomial:
    """Immutable exact multivariate polynomial over one variable family."""

    __slots__ = ("family", "_terms")

    def __init__(self, family: str, terms: Mapping = ()):
        if not family:
            raise ValueError("variable family tag must be non-empty")
        clean: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for m, c in items:
            key = _encode(m if isinstance(m, MultiIndex) else MultiIndex(m))
            if c:
                clean[key] = clean.get(key, 0) + c
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "_terms", {m: c for m, c in clean.items() if c})

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("SparsePolynomial is immutable")

    @classmethod
    def _raw(cls, family: str, terms: dict) -> "SparsePolynomial":
        # Internal: int keys within the exponent cap, no zero coefficients.
        self = object.__new__(cls)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "_terms", terms)
        return self

    @classmethod
    def zero(cls, family: str) -> "SparsePolynomial":
        return cls._raw(family, {})

    @classmethod
    def constant(cls, family: str, value: Coeff) -> "SparsePolynomial":
        return cls._raw(family, {0: value} if value else {})

    @classmethod
    def one(cls, family: str) -> "SparsePolynomial":
        return cls.constant(family, 1)

    @classmethod
    def variable(cls, family: str, index: int, exponent: int = 1) -> "SparsePolynomial":
        if index < 1:
            raise ValueError("variable index must be >= 1")
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        return cls._raw(family, {_encode(((index, exponent),)): 1})

    # -- basic queries ---------------------------------------------------

    @property
    def terms(self) -> Mapping[MultiIndex, Coeff]:
        """Read-only view of the terms, keyed by decoded :class:`MultiIndex`."""
        return MappingProxyType({_decode(m): c for m, c in self._terms.items()})

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> Coeff:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._terms.get(0, 0)

    def variables(self) -> set[int]:
        used = reduce(or_, self._terms, 0)
        return {v for v, _ in _decode(used)} if used else set()

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePolynomial):
            return self.family == other.family and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    __hash__ = None  # mutable dict inside; equality is structural

    def _check_family(self, other: "SparsePolynomial"):
        if self.family != other.family:
            raise FamilyMismatchError(
                f"cannot combine family {self.family!r} with {other.family!r}"
            )

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(self.family, other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._check_family(other)
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for m, c in b.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return SparsePolynomial._raw(self.family, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePolynomial._raw(self.family, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(self.family, other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._check_family(other)
        t1, t2 = self._terms, other._terms
        if not t1 or not t2:
            return SparsePolynomial.zero(self.family)
        layout = _vectorizable(t1, t2)
        out = _mul_vectorized(t1, t2, layout) if layout else _mul_dict(t1, t2)
        # Each exponent is at most 511, so a sum of two never carries out of
        # its field, but it can reach the guard bit.
        used = reduce(or_, out, 0)
        if used & _guard_mask(used):
            raise OverflowError(f"a product exponent exceeds {_MAX_EXP}")
        return SparsePolynomial._raw(self.family, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return exact_divide(self, other)

    def scale(self, c: Coeff) -> "SparsePolynomial":
        if not c:
            return SparsePolynomial.zero(self.family)
        return SparsePolynomial._raw(self.family, {m: c * v for m, v in self._terms.items()})

    def __pow__(self, n: int) -> "SparsePolynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = SparsePolynomial.one(self.family)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and specialization --------------------------------------

    def partial_derivative(self, var: int) -> "SparsePolynomial":
        shift = _BITS * (var - 1)
        unit = 1 << shift
        out = {}
        for m, c in self._terms.items():
            e = (m >> shift) & _FIELD
            if e:
                out[m - unit] = c * e
        return SparsePolynomial._raw(self.family, out)

    def evaluate(self, assignment: Mapping[int, Coeff]) -> Coeff:
        missing = self.variables() - set(assignment)
        if missing:
            raise MissingAssignmentError(f"no value for variables {sorted(missing)}")
        total: Coeff = 0
        for m, c in self._terms.items():
            value = c
            for v, e in _decode(m):
                value = value * assignment[v] ** e
            total = total + value
        return Fraction(total)

    def substitute(self, assignment: Mapping[int, "SparsePolynomial"]) -> "SparsePolynomial":
        """Map every variable to a polynomial of one common target family."""
        missing = self.variables() - set(assignment)
        if missing:
            raise MissingAssignmentError(f"no substitution for variables {sorted(missing)}")
        families = {p.family for p in assignment.values()}
        if len(families) > 1:
            raise FamilyMismatchError(f"substitution images span families {sorted(families)}")
        target = families.pop() if families else self.family
        powers: dict[tuple[int, int], SparsePolynomial] = {}

        def power(v: int, e: int) -> SparsePolynomial:
            got = powers.get((v, e))
            if got is None:
                got = assignment[v] if e == 1 else power(v, e - 1) * assignment[v]
                powers[(v, e)] = got
            return got

        result = SparsePolynomial.zero(target)
        for m, c in self._terms.items():
            # The coefficient comes last, so integer images multiply as ints.
            factors = sorted((power(v, e) for v, e in _decode(m)), key=len)
            term = reduce(SparsePolynomial.__mul__, factors, SparsePolynomial.one(target))
            result = result + term.scale(c)
        return result

    def rename_variables(self, mapping: Mapping[int, int], family: str) -> "SparsePolynomial":
        """Injective relabel of variables, possibly into another family."""
        used = self.variables()
        if len({mapping[v] for v in used}) != len(used):
            raise ValueError("variable renaming is not injective")
        out = {}
        for m, c in self._terms.items():
            out[_encode((mapping[v], e) for v, e in _decode(m))] = c
        return SparsePolynomial._raw(family, out)

    # -- canonical text ----------------------------------------------------

    def canonical_str(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        decoded = sorted(self.terms.items(), key=lambda mc: _grlex_key(mc[0]), reverse=True)
        for m, c in decoded:
            neg = c < 0
            mag = -c if neg else c
            if not m:
                body = f"{mag}"
            elif mag == 1:
                body = _mono_str(m, self.family)
            else:
                body = f"{mag}*{_mono_str(m, self.family)}"
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.canonical_str()

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.family!r}, {self.canonical_str()!r})"


# -- exact division ---------------------------------------------------------


def exact_divide(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    """Return p / q, raising :class:`InexactDivisionError` unless exact."""
    p._check_family(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    qkeyed = sorted(q._terms.items(), reverse=True)
    lead, lead_c = qkeyed[0]
    qtail = qkeyed[1:]
    rem = dict(p._terms)
    # Every key met below lies in the fields of p or q.  An exact quotient
    # never takes an exponent past p's, so a remainder key with a guard bit
    # set proves the division inexact.
    guard = _guard_mask(max(max(rem, default=0), lead))
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quo: dict = {}
    while rem:
        # Lazy deletion: the heap may hold keys cancelled since they were pushed.
        while -heap[0] not in rem:
            heapq.heappop(heap)
        m = -heapq.heappop(heap)
        if ((m | guard) - lead) & guard != guard:
            raise InexactDivisionError("leading term not divisible; division is not exact")
        qm = m - lead
        c = rem.pop(m)
        qc = Fraction(c, lead_c) if c % lead_c else c // lead_c
        quo[qm] = qc
        for kq, cq in qtail:
            mm = qm + kq
            d = qc * cq
            c = rem.get(mm)
            if c is None:
                if mm & guard:
                    raise InexactDivisionError("quotient exponent exceeds the dividend's")
                heapq.heappush(heap, -mm)
                rem[mm] = -d
            elif c == d:
                del rem[mm]
            else:
                rem[mm] = c - d
    return SparsePolynomial._raw(p.family, quo)


# -- determinants ------------------------------------------------------------


def det(matrix) -> SparsePolynomial:
    """Exact determinant of a square matrix of SparsePolynomial entries.

    Cofactor expansion with memoized column-subset minors, rows expanded
    bottom-up so sparse lower rows prune early.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("determinant of an empty matrix needs a family; handle 0x0 upstream")
    family = matrix[0][0].family
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
        for entry in row:
            if entry.family != family:
                raise FamilyMismatchError("matrix entries span multiple families")
    memo: dict[tuple[int, ...], SparsePolynomial] = {}

    def minor(cols: tuple[int, ...]) -> SparsePolynomial:
        got = memo.get(cols)
        if got is not None:
            return got
        row = n - len(cols)
        if len(cols) == 1:
            value = matrix[row][cols[0]]
        else:
            value = SparsePolynomial.zero(family)
            for pos, j in enumerate(cols):
                entry = matrix[row][j]
                if entry.is_zero():
                    continue
                sub = minor(cols[:pos] + cols[pos + 1:])
                if sub.is_zero():
                    continue
                piece = entry * sub
                value = value + piece if pos % 2 == 0 else value - piece
        memo[cols] = value
        return value

    return minor(tuple(range(n)))


def _det_bareiss(matrix) -> Fraction:
    """Exact determinant of ``int``/``Fraction`` entries by integer Bareiss; a
    remainder raises :class:`InexactDivisionError`, and 0x0 gives 1."""
    n = len(matrix)
    scales = [lcm(*(x.denominator for x in row)) for row in matrix]
    m = [[x.numerator * (d // x.denominator) for x in row] for row, d in zip(matrix, scales)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot_row is None:
                return Fraction(0)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                q, r = divmod(pivot * row[j] - lead * top[j], prev)
                if r:
                    raise InexactDivisionError("Bareiss step left a remainder")
                row[j] = q
        prev = pivot
    return Fraction(sign * m[-1][-1], prod(scales)) if n else Fraction(1)
