"""Multi-index arithmetic.

A multi-index is a tuple of nonnegative integers of fixed length m. It
indexes coefficients of truncated power series and the operators of a
derivative system. All arithmetic is exact integer arithmetic.

MonomialTable holds the same arithmetic for every index |k| <= n at once,
as integer arrays, for the layers that would otherwise walk index pairs.
"""
from __future__ import annotations

import itertools
import math
import operator
from typing import Sequence

import numpy as np

from .errors import DomainError

MultiIndex = tuple[int, ...]


def _check(a: Sequence[int]) -> MultiIndex:
    t = tuple(int(x) for x in a)
    if any(x < 0 for x in t):
        raise ValueError(f"multi-index entries must be nonnegative: {t}")
    return t


def _integers(k) -> MultiIndex:
    """k as a tuple of Python integers; ValueError if it is not a sequence
    of integers (floats and strings included)."""
    try:
        return tuple(map(operator.index, k))
    except TypeError:
        raise ValueError(f"index {k!r} is not a sequence of integers") from None


def mi_add(a: Sequence[int], b: Sequence[int]) -> MultiIndex:
    """Componentwise sum. Lengths must match."""
    a, b = _check(a), _check(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def mi_sub(a: Sequence[int], b: Sequence[int]) -> MultiIndex:
    """Componentwise difference a - b; requires b <= a componentwise."""
    a, b = _check(a), _check(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if not all(y <= x for x, y in zip(a, b)):
        raise DomainError(f"{b} is not componentwise <= {a}")
    return tuple(x - y for x, y in zip(a, b))


def mi_le(a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise a <= b (the partial order of the index lattice)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def _graded_exponents(m: int, n: int) -> np.ndarray:
    """The rows of mi_enumerate(m, n) as a (count, m) integer array.

    An index k with |k| <= n is a composition of n into m + 1 parts (the
    last part is the slack n - |k|), fixed by its m bar positions among
    n + m slots, and the parts are the gaps between consecutive bars. The
    bars in ascending lexicographic order give the indices in ascending
    lexicographic order, so one stable sort of the reversed rows by grade
    gives grades ascending and descending lexicographic order within each.
    """
    if m < 1:
        raise ValueError(f"need at least one variable, got m={m}")
    if n < 0:
        raise ValueError(f"degree bound must be nonnegative, got n={n}")
    bars = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n + m), m)), dtype=np.intp)
    bars = bars.reshape(-1, m)[::-1]
    # k_0 = b_0 and k_i = b_i - b_(i-1) - 1
    exps = bars.copy()
    exps[:, 1:] -= bars[:, :-1] + 1
    return exps[np.argsort(exps.sum(axis=1), kind="stable")]


def mi_enumerate(m: int, n: int) -> list[MultiIndex]:
    """All k of length m with |k| <= n, in graded lexicographic order.

    Grades ascend; within a grade the lexicographically larger index comes
    first, so for m=2 the order starts (0,0), (1,0), (0,1), (2,0), (1,1),
    (0,2). The count is C(m+n, m). The order is fixed so that coefficient
    tables are reproducible across runs.
    """
    return [tuple(k) for k in _graded_exponents(m, n).tolist()]


def mi_count(m: int, n: int) -> int:
    """|{k : |k| <= n}| = C(m+n, m)."""
    return math.comb(m + n, m)


class MonomialTable:
    """Index tables of the multi-indices |k| <= degree in mvars variables.

    Row p of `exps` is the p-th index of mi_enumerate(mvars, degree), and
    `exponents`/`exp_index` are the same indices as tuples. The integer
    tables replace per-pair tuple arithmetic:

    - add[p, q] is the row of exps[p] + exps[q], or -1 above the degree;
    - sub[k, l] is the row of exps[k] - exps[l], or -1 unless l <= k.

    Rows are found by their graded rank, never by hashing tuples, and every
    table is built one variable at a time, so the work is O(d^2 m) and the
    memory O(d^2) for d rows.
    """

    def __init__(self, mvars: int, degree: int):
        self.exps = _graded_exponents(mvars, degree)
        self.exponents = [tuple(k) for k in self.exps.tolist()]
        self.exp_index = {k: i for i, k in enumerate(self.exponents)}
        self.mvars = mvars
        self.degree = degree
        # tails[:, i] = k_i + ... + k_{m-1}; tails[:, 0] is the order |k|
        tails = np.cumsum(self.exps[:, ::-1], axis=1)[:, ::-1]
        # below[t, y] = C(t + y - 1, y): indices of length y and order < t
        self._below = below = np.array(
            [[math.comb(t + y - 1, y) if t else 0 for y in range(mvars + 1)]
             for t in range(degree + 1)], dtype=np.intp)
        d = len(self.exponents)
        add = np.zeros((d, d), dtype=np.intp)
        sub = np.zeros((d, d), dtype=np.intp)
        le = np.ones((d, d), dtype=bool)
        # the rank of k in the graded order is sum_i below[tails_i(k), m - i]
        for i in range(mvars):
            t = tails[:, i]
            add += below[np.minimum(t[:, None] + t[None, :], degree), mvars - i]
            sub += below[np.maximum(t[:, None] - t[None, :], 0), mvars - i]
            le &= self.exps[None, :, i] <= self.exps[:, None, i]
        order = tails[:, 0]
        self.add = np.where(order[:, None] + order[None, :] <= degree, add, -1)
        self.sub = np.where(le, sub, -1)
        self._pattern = None

    def truncated(self, degree: int) -> "MonomialTable":
        """The table of the indices |k| <= degree, read off this one.

        The graded order puts those indices first, so their table is the
        leading corner of this one; only sums above the new degree, which
        land at rows past the corner, become -1. Always a new table.
        """
        if not 0 <= degree <= self.degree:
            raise ValueError(f"degree {degree} is not between 0 and {self.degree}")
        q = mi_count(self.mvars, degree)
        out = MonomialTable.__new__(MonomialTable)
        out.exps = self.exps[:q].copy()
        out.exponents = self.exponents[:q]
        out.exp_index = {k: i for i, k in enumerate(out.exponents)}
        out.mvars = self.mvars
        out.degree = degree
        out.add = self.add[:q, :q].copy()
        out.add[out.add >= q] = -1
        out.sub = self.sub[:q, :q].copy()
        out._below = self._below[:degree + 1]
        out._pattern = None
        return out

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def rows(self, index) -> np.ndarray:
        """The rows of the multi-indices a caller passes in, the rows of an
        (n, mvars) integer array, by their graded rank. ValueError for rows
        of another length or entries that are not integers, and for an
        index with a negative entry or of order above the degree, naming
        the first such index."""
        index = np.asarray(index)
        if not len(index):
            return np.zeros(0, dtype=np.intp)
        if index.ndim != 2 or index.shape[1] != self.mvars:
            raise ValueError(f"index {np.asarray(index[0]).tolist()} does not have "
                             f"{self.mvars} entries")
        if index.dtype.kind not in "iu":
            raise ValueError(f"index {np.asarray(index[0]).tolist()} is not a sequence "
                             f"of integers")
        # tails[:, j] = k_{m-1-j} + ... + k_{m-1} of the entries capped at
        # degree + 1, so the sums cannot overflow and a capped index stays
        # above the degree; tails[:, -1] is the order |k|
        tails = np.minimum(index[:, ::-1], self.degree + 1).cumsum(axis=1)
        if index.min() < 0 or tails[:, -1].max() > self.degree:
            outside = (index < 0).any(axis=1) | (tails[:, -1] > self.degree)
            raise ValueError(self._outside(tuple(index[np.argmax(outside)].tolist())))
        return self._below[tails, np.arange(1, self.mvars + 1)].sum(axis=1)

    def row(self, k) -> int:
        """The row of the multi-index k that a caller passes in: ValueError
        unless k is a sequence of mvars integers >= 0 of order at most the
        degree, with one text for every such k. These are the indices rows
        accepts, looked up one at a time in exp_index (a dict lookup, where
        a call of rows costs several microseconds on a one-row array)."""
        k = _integers(k)
        row = self.exp_index.get(k)
        if row is None:
            raise ValueError(self._outside(k))
        return row

    def _outside(self, k: MultiIndex) -> str:
        return (f"index {k} is outside the indices of order N={self.degree} "
                f"in m={self.mvars} variables")

    def monomials(self, point) -> np.ndarray:
        """Values point^k of every monomial, one per row."""
        point = np.asarray(point, dtype=float)
        powers = point[:, None] ** np.arange(self.degree + 1)
        return np.prod(powers[np.arange(self.mvars), self.exps], axis=1)

    def factorials(self) -> np.ndarray:
        """k! of every row, as floats."""
        fact = np.array([math.factorial(t) for t in range(self.degree + 1)], dtype=float)
        return np.prod(fact[self.exps], axis=1)

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows (k, l, k - l) of every pair l <= k, ordered by k and then
        by l; computed on the first call and kept with the table."""
        return self._upper_pattern()[:3]

    def _upper_pattern(self):
        if self._pattern is None:
            k, l = np.nonzero(self.sub >= 0)
            self._pattern = (k, l, self.sub[k, l], self.exps[k], self.exps[l])
        return self._pattern

    def _upper(self, coeff, point) -> np.ndarray:
        """M[l, k] = prod_i coeff(k_i, l_i) * point^(k - l) for l <= k, else 0."""
        n = self.degree + 1
        tab = np.array([[coeff(a, b) for b in range(n)] for a in range(n)], dtype=float)
        k, l, diff, exps_k, exps_l = self._upper_pattern()
        out = np.zeros((self.dim, self.dim))
        out[l, k] = np.prod(tab[exps_k, exps_l], axis=1) * self.monomials(point)[diff]
        return out

    def binomials(self) -> np.ndarray:
        """Entry [l, k] = binom(k, l) = prod_i C(k_i, l_i) for l <= k, else 0."""
        return self._upper(math.comb, np.ones(self.mvars))

    def shift(self, point) -> np.ndarray:
        """Column k holds the coefficients of (x + point)^k:
        entry [l, k] = binom(k, l) point^(k - l) for l <= k."""
        return self._upper(math.comb, point)

    def derivative_rows(self, point, n: int) -> np.ndarray:
        """Rows f -> (d^k f)(point) for the indices |k| <= n, in order:
        entry [k, l] = (l! / (l - k)!) point^(l - k) for k <= l."""
        return self._upper(math.perm, point)[:mi_count(self.mvars, n)]
