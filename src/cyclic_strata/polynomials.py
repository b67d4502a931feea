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
The package divides only by a Vandermonde factor: :func:`exact_divide`
takes a divisor ``t_a - t_b`` with a != b and raises ``ValueError`` for any
other.  :func:`_divide_difference` computes the quotient by grouped prefix
sums: the terms with equal exponents off ``t_a, t_b`` and equal ``d = e_a +
e_b`` form a group, and the quotient's coefficient at ``t_a^e t_b^(d-1-e)``
is ``-sum(p_f, f <= e)`` over the group's terms ``p_f t_a^f t_b^(d-f)``.  It
is exact iff every group sums to 0.  The arrays are int64 when the
coefficients are ints whose absolute values sum below 2**62 and the repacked
keys fit 63 bits, and Python objects otherwise, so the quotient is exact for
any coefficients.  Its one caller, ``schur.schur_bialternant``, divides by
the Vandermonde's factors one at a time, in int64 up to (3, 8) at least:
(3, 7) takes 0.02 s and (3, 8), at genus 7, 0.9 s (2 cores, Python 3.11).

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
integer-preserving Bareiss elimination over ``int`` entries.  The routes
clear the point's denominators first, so they build their entries and run the
elimination in ``int`` and make one ``Fraction`` at the end: the 34 value
operations of the ``routes`` benchmark, at genus 12, took about 45 ms with
``Fraction`` entries and take 15 ms.

Performance notes
-----------------
Every product runs through one kernel, :func:`_sum_of_products`, which
computes ``sum(sign * a * b)`` over a list of ``(sign, a, b)`` pieces into one
dict; ``a * b`` is its one-piece case, and cofactor rows are one call each,
so no piece becomes a polynomial of its own.  Sums known to be symmetric
may instead take :func:`_sum_at` (next section).  A sum of at least 1,500 term
pairs with ``int`` coefficients in every piece runs in numpy when each term
pair fits one int64; every other sum runs the dict loop over all its pieces.
Both are exact.  The packing (Monagan & Pearce, ISSAC 2009): with radius
``R_v`` one more than the largest ``maxexp_v(a) + maxexp_v(b)`` over the
pieces, a monomial's index ``sum(e_v * prod(R_u, u < v))`` orders monomials
as their keys do, and a term pair is ``index << shift | (c1*c2 + bias)`` with
``shift = 62 - bit_length(prod(R_v))`` and ``bias`` the largest ``max|c1| *
max|c2|`` over the pieces.  It fits when ``2 * bias < 2**shift`` and no
merged sum can overflow (``bias * sum(min(len(a), len(b))) < 2**62``);
:func:`_vectorizable` is that rule.  :func:`_exponents` reads the keys six
fields (60 bits) at a time, so the number of variables enters only through
the radii: the 6x6 determinants in ``t_2..t_7`` of a genus-7 split route
run in numpy.  Each piece is packed in blocks of whole rows of its longer
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

numpy is imported inside the functions that use it, so a process that never
reaches a packed kernel, :func:`_expand_dominant` or the difference division
never loads it: ``cyclic-strata certify 3 7`` runs in about 100 ms and 17 MB
instead of 165 ms and 30 MB (2 cores, Python 3.11).

Sums known to be symmetric
--------------------------
:func:`_symmetric_sum_of_products` is for a sum that the caller knows to be
symmetric in variables ``1..n`` and homogeneous of degree ``d``.  A symmetric
polynomial is fixed by its terms at the dominant monomials, the exponent
vectors ``a_1 >= ... >= a_n`` of degree ``d`` (the partitions of ``d`` with at
most ``n`` parts; Macdonald, *Symmetric Functions*, I.6:
``s_L = sum K_(L,mu) m_mu``).  So :func:`_sum_at` computes only those
coefficients, each exactly, as ``sum(sign * a[m] * b[t - m])`` over the terms
m of the shorter factor that divide t, and :func:`_expand_dominant` copies
each one to every distinct permutation of its exponent vector.  The result
equals the full sum whenever the sum is symmetric; nothing here checks that,
so only sums symmetric by construction may take this path.  In ``schur``
they are the full-window left minors of the Jacobi-Trudi matrix and the
split routes' Laplace sums, all polynomials in the ``h_m(t_1..t_g)``.  For
``(3, 7)`` the 64 minors hold 49,943 terms, 462 of them dominant; the full
sums took 8.1 M term pairs, and the sums at the 897 dominant targets take
0.48 M.

:func:`_sum_at` tests ``m <= t`` with a guard bit atop every field, on keys
repacked into fields of ``bit_length(max exponent) + 1`` bits so that seven
and more variables fit one int64, and looks ``t - m`` up in b's sorted
repacked keys with ``searchsorted``.  It runs in numpy, in blocks of at most
``_BLOCK_PAIRS`` pairs, when the repacked keys fit 63 bits, every
coefficient is an ``int``, no target's sum can leave int64
(``sum(len(a) * max|a| * max|b|) < 2**63``), and the target pairs number at
least 1,500 and at least twice the terms of the b factors, which numpy reads
and sorts; otherwise it runs an exact dict loop.  On the Trudi sums of eight
curves with g <= 6 that rule took 112.8 ms in all, the faster path of every
sum 112.8 ms, and the 1,500-pair cutoff alone 119.2 ms (2 cores, Python
3.11).  :func:`det`, and with it
``schur_tail_trudi``, the bialternant and the split routes' right-hand
determinants, stays generic: a cofactor row of those matrices is not
symmetric in all the variables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, groupby
from math import prod
from operator import or_
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Union

if TYPE_CHECKING:
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
_BLOCK_PAIRS = 1 << 18
_CHUNK = (1 << 60) - 1  # six fields


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


def _fields(key: int) -> int:
    """The number of fields up to the highest field set in ``key``."""
    return -(-key.bit_length() // _BITS)


def _guard_mask(key: int) -> int:
    """The guard bit of every field up to the highest field set in ``key``."""
    return ((1 << (_BITS * _fields(key))) - 1) // _FIELD << (_BITS - 1)


@lru_cache(maxsize=1)
def _field_shifts() -> np.ndarray:
    """The shifts of the six fields of a 60-bit chunk."""
    import numpy as np

    shifts = np.arange(0, 60, _BITS, dtype=np.int64)
    shifts.flags.writeable = False  # cached, and shared by every caller
    return shifts


def _exponents(keys, nvars: int) -> np.ndarray:
    """The ``len(keys) x nvars`` int64 exponent matrix of the keys."""
    import numpy as np

    if nvars <= 6:
        chunks = [np.fromiter(keys, np.int64, len(keys))]
    else:
        # six fields (60 bits) at a time, so that every chunk fits an int64
        chunks = [np.fromiter((k >> (_BITS * lo) & _CHUNK for k in keys), np.int64, len(keys))
                  for lo in range(0, nvars, 6)]
    return np.hstack([(c[:, None] >> _field_shifts()) & _FIELD for c in chunks])[:, :nvars]


def _keys(exps: np.ndarray) -> list[int]:
    """The keys of the rows of an int64 exponent matrix: ``_exponents``
    inverted."""
    chunks = [(exps[:, lo:lo + 6] << _field_shifts()[:exps.shape[1] - lo]).sum(axis=1).tolist()
              for lo in range(0, exps.shape[1], 6)]
    keys = chunks.pop()
    while chunks:
        keys = [k << (_BITS * 6) | c for k, c in zip(keys, chunks.pop())]
    return keys


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
    import numpy as np

    bias = merged = top_key = 0
    for _, t1, t2 in pieces:
        for t in (t1, t2):
            if not {int}.issuperset(map(type, t.values())):
                return None
            top_key = max(top_key, max(t))
        bias = max(bias, max(map(abs, t1.values())) * max(map(abs, t2.values())))
        # reduceat adds at most min(len) products of bounded size per piece,
        # and the merge adds the pieces' sums
        merged += min(len(t1), len(t2))
    if bias * merged >= 2**62:
        return None
    nvars = max(1, _fields(top_key))
    exps, top = [], 0
    for _, t1, t2 in pieces:
        e1, e2 = _exponents(t1, nvars), _exponents(t2, nvars)
        top = np.maximum(top, e1.max(axis=0) + e2.max(axis=0))
        exps.append((e1, e2))
    radii = (top + 1).tolist()
    shift = 62 - prod(radii).bit_length()
    if shift <= 0 or 2 * bias >= 1 << shift:
        return None
    return exps, radii, shift, bias


def _reduce_runs(index, values):
    """Sum ``values`` over each run of equal entries of the sorted ``index``."""
    import numpy as np

    starts = np.concatenate(([0], np.flatnonzero(index[1:] != index[:-1]) + 1))
    return index[starts], np.add.reduceat(values, starts)


def _sum_vectorized(pieces: list, layout) -> dict:
    import numpy as np

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
    exps = np.empty((len(index), len(radii)), np.int64)
    for v, radius in enumerate(radii):
        index, exps[:, v] = np.divmod(index, radius)
    return dict(zip(_keys(exps), total.tolist()))


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


def _piece_terms(family: str, pieces) -> list:
    """The ``(sign, a terms, b terms)`` of the pieces with two nonzero factors,
    each factor checked against ``family``."""
    terms = []
    for sign, a, b in pieces:
        for p in (a, b):
            if p.family != family:
                raise FamilyMismatchError(f"cannot combine family {family!r} with {p.family!r}")
        if a._terms and b._terms:
            terms.append((sign, a._terms, b._terms))
    return terms


def _sum_of_products(family: str, pieces) -> "SparsePolynomial":
    """``sum(sign * a * b for sign, a, b in pieces)``, each sign +1 or -1.

    The general product kernel: ``a * b`` is its one-piece case, and
    ``det`` builds each cofactor row with one call.
    """
    terms = _piece_terms(family, pieces)
    layout = _vectorizable(terms)
    out = _sum_vectorized(terms, layout) if layout else _sum_dict(terms)
    # Each exponent is at most 511, so a sum of two never carries out of its
    # field, but it can reach the guard bit.
    used = reduce(or_, out, 0)
    if used & _guard_mask(used):
        raise OverflowError(f"a product exponent exceeds {_MAX_EXP}")
    return SparsePolynomial._raw(family, out)


# -- sums known to be symmetric ------------------------------------------------


def _targeted_layout(pieces: list, targets: list):
    """``(nvars, width)`` of the packed sum at ``targets``, or None for the
    dict loop."""
    # numpy also reads and sorts every term of b, so it must pay for those too
    pairs = len(targets) * sum(len(a) for _, a, _ in pieces)
    if pairs < max(_VECTOR_CUTOFF, 2 * sum(len(b) for _, _, b in pieces)):
        return None
    bound = 0
    used = reduce(or_, targets)
    for _, a, b in pieces:
        for t in (a, b):
            if not {int}.issuperset(map(type, t.values())):
                return None
        # a target's share of a piece adds at most len(a) products
        bound += len(a) * max(map(abs, a.values())) * max(map(abs, b.values()))
        used |= reduce(or_, a) | reduce(or_, b)
    nvars = max(1, _fields(used))
    width = max(((used >> (_BITS * v)) & _FIELD).bit_length() for v in range(nvars)) + 1
    if bound >= 2**63 or nvars * width > 63:
        return None
    return nvars, width


def _sum_at_vectorized(pieces: list, targets: list, layout) -> dict:
    import numpy as np

    nvars, width = layout
    # Repacked keys: ``width``-bit fields whose top bit is a guard, as in
    # _sum_at_dict, so t - m clears a field's guard bit exactly when m
    # exceeds t in that field.  Such a difference matches no key of b once
    # the guards are flipped back; dropping it first spares its lookup.
    weights = np.left_shift(1, width * np.arange(nvars, dtype=np.int64))
    guard = int(weights.sum()) << (width - 1)
    guarded = (_exponents(targets, nvars) @ weights) | guard
    total = np.zeros(len(targets), np.int64)
    for sign, a, b in pieces:
        ka = _exponents(a, nvars) @ weights
        ca = np.fromiter(a.values(), np.int64, len(a))
        kb = _exponents(b, nvars) @ weights
        order = np.argsort(kb)
        kb = kb[order]
        cb = np.fromiter(b.values(), np.int64, len(b))[order]
        rows = max(1, _BLOCK_PAIRS // len(a))
        for lo in range(0, len(targets), rows):
            diff = guarded[lo:lo + rows, None] - ka
            row, col = np.nonzero((diff & guard) == guard)
            diff = diff[row, col] ^ guard
            at = np.minimum(np.searchsorted(kb, diff), len(kb) - 1)
            hit = kb[at] == diff
            if not hit.any():
                continue
            index, sums = _reduce_runs(row[hit], ca[col[hit]] * cb[at[hit]])
            total[lo + index] += sums if sign > 0 else -sums
    return {t: c for t, c in zip(targets, total.tolist()) if c}


def _sum_at_dict(pieces: list, targets: list) -> dict:
    guard = _guard_mask(reduce(or_, (reduce(or_, a) for _, a, _ in pieces), reduce(or_, targets, 0)))
    out = dict.fromkeys(targets, 0)
    for sign, a, b in pieces:
        get = b.get
        for t in out:
            guarded = t | guard
            acc = 0
            for m, c in a.items():
                d = guarded - m
                if d & guard == guard:
                    c2 = get(d ^ guard)
                    if c2 is not None:
                        acc += c * c2
            out[t] += acc if sign > 0 else -acc
    return {t: c for t, c in out.items() if c}


def _sum_at(family: str, pieces, targets) -> "SparsePolynomial":
    """The terms at the monomial keys ``targets`` of ``sum(sign * a * b)``.

    Each is ``sum(sign * a[m] * b[t - m])`` over the terms m of the shorter
    factor that divide t; no other monomial of the sum is computed.
    """
    terms = [(s, a, b) if len(a) <= len(b) else (s, b, a)
             for s, a, b in _piece_terms(family, pieces)]
    targets = list(dict.fromkeys(targets))
    layout = _targeted_layout(terms, targets)
    out = _sum_at_vectorized(terms, targets, layout) if layout else _sum_at_dict(terms, targets)
    return SparsePolynomial._raw(family, out)


@lru_cache(maxsize=128)
def _dominant_keys(degree: int, nvars: int) -> tuple[int, ...]:
    """Keys of the monomials of ``degree`` in variables 1..nvars with
    nonincreasing exponents: the partitions of ``degree`` into at most
    ``nvars`` parts."""
    if degree > _MAX_EXP:
        raise OverflowError(f"a dominant monomial of degree {degree} exceeds {_MAX_EXP}")
    out = []

    def place(rest, var, largest, key):
        if not rest:
            out.append(key)
        elif var < nvars:
            for e in range(min(rest, largest), -(-rest // (nvars - var)) - 1, -1):
                place(rest - e, var + 1, e, key | e << (_BITS * var))

    if degree >= 0:
        place(degree, 0, degree, 0)
    return tuple(out)


@lru_cache(maxsize=128)
def _arrangements(runs: tuple[int, ...]) -> np.ndarray:
    """The distinct arrangements of runs of equal exponents, of lengths
    ``runs``, on variables 1..sum(runs): one row per arrangement, holding
    the run index at each variable."""
    import numpy as np

    n = sum(runs)
    rows = np.zeros((1, n), np.intp)  # run 0 takes the variables left over
    free = np.arange(n)[None, :]
    for j, length in enumerate(runs[1:], start=1):
        width = free.shape[1]
        chosen = np.array(list(combinations(range(width), length)), np.intp).reshape(-1, length)
        rest = np.array([[v for v in range(width) if v not in c] for c in chosen.tolist()],
                        np.intp).reshape(len(chosen), width - length)
        rows = np.repeat(rows, len(chosen), axis=0)
        picked = free[:, chosen].reshape(len(rows), length)
        rows[np.arange(len(rows))[:, None], picked] = j
        free = free[:, rest].reshape(len(rows), width - length)
    rows.flags.writeable = False  # cached, and shared by every caller
    return rows


def _expand_dominant(form: "SparsePolynomial", nvars: int) -> "SparsePolynomial":
    """The symmetric polynomial in variables 1..nvars whose terms at
    nonincreasing exponent vectors are the terms of ``form``: each
    coefficient goes to every distinct permutation of its exponent vector."""
    import numpy as np

    orbits: dict[tuple[int, ...], list] = {}
    for key, c in form._terms.items():
        exps = [(key >> (_BITS * v)) & _FIELD for v in range(nvars)]
        if key >> (_BITS * nvars) or any(x < y for x, y in zip(exps, exps[1:])):
            raise ValueError(f"{_decode(key)} is not a nonincreasing exponent vector")
        runs = [(e, len(list(run))) for e, run in groupby(exps)]
        orbits.setdefault(tuple(n for _, n in runs), []).append(([e for e, _ in runs], c))
    if not orbits:
        return SparsePolynomial.zero(form.family)
    exps, coeffs = [], []
    for runs, members in orbits.items():
        slots = _arrangements(runs)
        exps.append(np.array([values for values, _ in members], np.int64)[:, slots].reshape(-1, nvars))
        coeffs += [c for _, c in members for _ in range(len(slots))]
    return SparsePolynomial._raw(form.family, dict(zip(_keys(np.vstack(exps)), coeffs)))


def _symmetric_sum_of_products(family: str, pieces, degree: int, nvars: int) -> "SparsePolynomial":
    """``_sum_of_products`` of a sum known to be symmetric in variables
    1..nvars and homogeneous of ``degree``: computed at its dominant
    monomials only, then expanded."""
    return _expand_dominant(_sum_at(family, pieces, _dominant_keys(degree, nvars)), nvars)


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
        return cls._raw(family, {_encode(MultiIndex(((index, exponent),))): 1})

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
        if not isinstance(other, (int, Fraction, SparsePolynomial)):
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
    """Return p / q for a divisor ``q = t_a - t_b`` with a != b, raising
    :class:`InexactDivisionError` unless exact."""
    p._check_family(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    signs = {c: k for k, c in q._terms.items()}
    ka, kb = signs.get(1, 0), signs.get(-1, 0)
    a, b = ((k.bit_length() - 1) // _BITS for k in (ka, kb))
    if len(q) != 2 or not ka or not kb or (ka, kb) != (1 << (_BITS * a), 1 << (_BITS * b)):
        raise ValueError(f"exact_divide divides only by t_a - t_b with a != b, not by {q}")
    return SparsePolynomial._raw(p.family, _divide_difference(p._terms, a, b) if p else {})


def _divide_difference(terms: dict, a: int, b: int) -> dict:
    """The quotient by ``t_(a+1) - t_(b+1)`` by grouped prefix sums.

    ``q_e = -sum(p_f, f <= e)`` holds from a group's term at ``e_a = f`` up
    to its next term, so each run is one ``np.repeat``.  The coefficients
    are int64 when they are ints whose absolute values sum below 2**62 (no
    prefix sum can overflow), and the packed keys when they fit 63 bits;
    either is a Python-object array otherwise, which numpy sums and sorts
    exactly.
    """
    import numpy as np

    used = reduce(or_, terms, 1 << (_BITS * a) | 1 << (_BITS * b))
    nvars = _fields(used)
    # one field per variable, wide enough for e_a + e_b
    width = (2 * max((used >> (_BITS * v)) & _FIELD for v in range(nvars))).bit_length()
    exps = _exponents(terms, nvars)
    total = sum(map(abs, terms.values()))  # a Fraction if any coefficient is one
    if type(total) is int and total < 2**62:
        coeffs = np.fromiter(terms.values(), np.int64, len(terms))
    else:
        coeffs = np.array(list(terms.values()), object)
    # Field a holds d and field b holds e_a, packed lowest, so that sorting
    # the packed rows sorts each group by e_a and keeps it contiguous.
    exps[:, a] += exps[:, b]
    exps[:, b] = exps[:, a] - exps[:, b]
    shifts = width * ((np.arange(nvars) - b) % nvars)
    if nvars * width <= 63:
        packed = exps @ np.left_shift(1, shifts)
    else:
        packed = exps.astype(object) @ np.array([1 << s for s in shifts.tolist()], object)
    order = np.argsort(packed)
    group, exps, coeffs = packed[order] >> width, exps[order], coeffs[order]
    ea = exps[:, b]
    # While every group before sums to 0, the running sum is the group's own.
    prefix = np.cumsum(coeffs)
    if prefix[np.append(group[1:] != group[:-1], True)].any():
        raise InexactDivisionError("a group of terms does not sum to 0; division is not exact")
    runs = np.append(ea[1:], 0) - ea
    runs[prefix == 0] = 0  # zero quotient terms, and the end of every group
    e = np.repeat(ea, runs) + np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)
    out = np.repeat(exps, runs, axis=0)
    out[:, b] = out[:, a] - 1 - e
    out[:, a] = e
    return dict(zip(_keys(out), (-np.repeat(prefix, runs)).tolist()))


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


def _det_bareiss(matrix) -> int:
    """Exact determinant of ``int`` entries by integer Bareiss; a remainder
    raises :class:`InexactDivisionError`, and 0x0 gives 1."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot_row is None:
                return 0
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
    return sign * m[-1][-1] if n else 1
