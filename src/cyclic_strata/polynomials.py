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
which is the shape of every Jacobi-Trudi style matrix in this package.  Each
cofactor row ``sum_j +/- a_(i,j) * minor_j`` is one fused sum of products (see
below).  It has no size dispatch: polynomial Bareiss, whose every step is an
exact division, took about 100 times as long on the 7x7 alternants of
(2, 15).  The exact-number value routes use :func:`_det_bareiss`,
integer-preserving Bareiss elimination on rows scaled by the lcm of their
denominators (0.06 s against 0.21 s over ``Fraction`` on the ``routes`` value
determinants).

Performance notes
-----------------
Every product runs through one kernel, :func:`_sum_of_products`, which
computes ``sum(sign * a * b)`` over a list of ``(sign, a, b)`` pieces into one
dict; ``a * b`` is its one-piece case, and cofactor rows and Laplace sums are
one call each, so no piece becomes a polynomial of its own.  A sum of at
least 1,500 term pairs, with at most 6 variables (keys below 2**60) and
``int`` coefficients in every piece, runs in numpy when each term pair fits
one int64; every other sum runs the dict loop over all its pieces.  Both are
exact.  The packing (Monagan & Pearce, ISSAC 2009): with radius ``R_v`` one
more than the largest ``maxexp_v(a) + maxexp_v(b)`` over the pieces, a
monomial's index ``sum(e_v * prod(R_u, u < v))`` orders monomials as their
keys do, and a term pair is ``index << shift | (c1*c2 + bias)`` with ``shift
= 62 - bit_length(prod(R_v))`` and ``bias`` the largest ``max|c1| * max|c2|``
over the pieces.  It fits when ``2 * bias < 2**shift`` and no merged sum can
overflow (``bias * sum(min(len(a), len(b))) < 2**62``); :func:`_vectorizable`
is that rule.  Each piece is packed in blocks of whole rows of its longer
factor, at most ``_BLOCK_PAIRS`` (2**18, 2 MiB) term pairs each; a block is
sorted in place and ``reduceat`` merges its equal indices.  The small reduced
``(index, sum)`` arrays of all blocks are merged by one stable argsort and
``reduceat``, and ``divmod`` over the radii decodes the indices to keys.  The
block bound caps the kernel's working memory whatever the size of the sum:
with one packed array per piece (11.5 MiB for the largest ``(3, 7)`` minor)
the allocator kept a varying share of the space between arrays, and the
``routes`` peak RSS read 72-82 MB from run to run; in blocks it reads about
60 MB in every run.  The cutoff is the measured crossover on the ``routes``
products (2 cores, Python 3.11): packed won 10 of 11 products of 1,500-2,000
pairs, and the paths tied below; on the fused ``routes`` sums it won 5 of 9
sums of 1,500-3,000 pairs and 42 of 49 larger ones.
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
_BLOCK_PAIRS = 1 << 18
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


def _vectorizable(pieces: list):
    """The packed layout of ``sum(sign * t1 * t2)`` over ``pieces``, or None
    for the dict loop."""
    if sum(len(t1) * len(t2) for _, t1, t2 in pieces) < _VECTOR_CUTOFF:
        return None
    bias = merged = 0
    exps, top = [], 0
    for _, t1, t2 in pieces:
        for t in (t1, t2):
            if max(t) >= _VECTOR_KEY_LIMIT or not {int}.issuperset(map(type, t.values())):
                return None
        bias = max(bias, max(map(abs, t1.values())) * max(map(abs, t2.values())))
        # reduceat adds at most min(len) products of bounded size per piece,
        # and the merge adds the pieces' sums
        merged += min(len(t1), len(t2))
        e1 = (np.fromiter(t1, np.int64, len(t1))[:, None] >> _FIELD_SHIFTS) & _FIELD
        e2 = (np.fromiter(t2, np.int64, len(t2))[:, None] >> _FIELD_SHIFTS) & _FIELD
        top = np.maximum(top, e1.max(axis=0) + e2.max(axis=0))
        exps.append((e1, e2))
    if bias * merged >= 2**62:
        return None
    radii = (top + 1).tolist()
    shift = 62 - prod(radii).bit_length()
    if 2 * bias >= 1 << shift:
        return None
    return exps, radii, shift, bias


def _reduce_runs(index, values):
    """Sum ``values`` over each run of equal entries of the sorted ``index``."""
    starts = np.concatenate(([0], np.flatnonzero(index[1:] != index[:-1]) + 1))
    return index[starts], np.add.reduceat(values, starts)


def _sum_vectorized(pieces: list, layout) -> dict:
    exps, radii, shift, bias = layout
    strides = np.cumprod([1] + radii[:-1], dtype=np.int64)
    indices, sums = [], []
    for (sign, t1, t2), (e1, e2) in zip(pieces, exps):
        if len(t1) < len(t2):
            t1, t2, e1, e2 = t2, t1, e2, e1
        i1 = (e1 @ strides) << shift
        i2 = (e2 @ strides) << shift
        i2 += bias
        c1 = np.fromiter(t1.values(), dtype=np.int64, count=len(t1))
        c2 = np.fromiter(t2.values(), dtype=np.int64, count=len(t2))
        rows = max(1, _BLOCK_PAIRS // len(t2))
        for lo in range(0, len(t1), rows):
            # One int64 per term pair: index << shift | (c1*c2 + bias).
            packed = np.multiply.outer(c1[lo:lo + rows], c2)
            packed += i2[None, :]
            packed += i1[lo:lo + rows, None]
            packed = packed.ravel()
            packed.sort()
            index = packed >> shift
            packed &= (1 << shift) - 1
            packed -= bias
            index, block_sums = _reduce_runs(index, packed)
            del packed
            indices.append(index)
            sums.append(-block_sums if sign < 0 else block_sums)
    index, total = indices[0], sums[0]
    if len(indices) > 1:
        index, total = np.concatenate(indices), np.concatenate(sums)
        order = np.argsort(index, kind="stable")
        index, total = _reduce_runs(index[order], total[order])
    keep = total != 0
    index, total = index[keep], total[keep]
    keys = np.zeros_like(index)
    for v, radius in enumerate(radii):
        index, e = np.divmod(index, radius)
        keys |= e << (_BITS * v)
    return dict(zip(keys.tolist(), total.tolist()))


def _sum_dict(pieces: list) -> dict:
    out: dict = {}
    get = out.get
    for sign, t1, t2 in pieces:
        if len(t1) > len(t2):
            t1, t2 = t2, t1
        for m1, c1 in t1.items():
            if sign < 0:
                c1 = -c1
            for m2, c2 in t2.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _sum_of_products(family: str, pieces) -> "SparsePolynomial":
    """``sum(sign * a * b for sign, a, b in pieces)``, each sign +1 or -1.

    The one product kernel: ``a * b`` is its one-piece case, and ``det``,
    ``schur._left_minors`` and ``schur.schur_split_trudi`` build each
    cofactor row or Laplace sum with one call.
    """
    terms = []
    for sign, a, b in pieces:
        for p in (a, b):
            if p.family != family:
                raise FamilyMismatchError(f"cannot combine family {family!r} with {p.family!r}")
        if a._terms and b._terms:
            terms.append((sign, a._terms, b._terms))
    if not terms:
        return SparsePolynomial.zero(family)
    layout = _vectorizable(terms)
    out = _sum_vectorized(terms, layout) if layout else _sum_dict(terms)
    # Each exponent is at most 511, so a sum of two never carries out of its
    # field, but it can reach the guard bit.
    used = reduce(or_, out, 0)
    if used & _guard_mask(used):
        raise OverflowError(f"a product exponent exceeds {_MAX_EXP}")
    return SparsePolynomial._raw(family, out)


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
        return _sum_of_products(self.family, [(1, self, other)])

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
            value = _sum_of_products(family, [
                (-1 if pos % 2 else 1, matrix[row][j], minor(cols[:pos] + cols[pos + 1:]))
                for pos, j in enumerate(cols) if not matrix[row][j].is_zero()
            ])
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
