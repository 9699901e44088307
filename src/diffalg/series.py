"""Formal power series over an involutive algebra, truncated in total degree.

A series x in m variables of order N over a coefficient algebra B is a
finite family of coefficients x_k in B indexed by multi-indices |k| <= N.
The product is the Cauchy convolution (x y)_k = sum_{l <= k} x_{k-l} y_l
with overflow terms dropped, the involution acts coefficientwise, and the
unit is the coefficient-unit at k = 0. Coefficients are stored sparsely;
series_algebra flattens the whole thing into an ordinary structure algebra
when a matrix representation is needed.
"""
from __future__ import annotations

import numpy as np

from . import _linalg as la
from .algebra import Element, StructureAlgebra, require_dim
from .errors import DomainError
from .multiindex import MonomialTable, MultiIndex, mi_count

__all__ = [
    "SeriesElement",
    "ser_unit",
    "ser_mul",
    "ser_involve",
    "SeriesStructureAlgebra",
    "series_algebra",
    "series_to_coords",
    "coords_to_series",
]


def _check_shape(mvars: int, order: int) -> None:
    if mvars < 1:
        raise ValueError(f"need at least one variable, got m={mvars}")
    if order < 0:
        raise ValueError(f"truncation order must be nonnegative, got N={order}")


class SeriesElement:
    """Sparse truncated series: dict multi-index -> coefficient coordinates."""

    __slots__ = ("base", "mvars", "order", "coeffs")

    def __init__(self, base: StructureAlgebra, mvars: int, order: int, coeffs=None):
        _check_shape(mvars, order)
        self.base = base
        self.mvars = mvars
        self.order = order
        self.coeffs: dict[MultiIndex, np.ndarray] = {}
        if coeffs:
            for k, v in coeffs.items():
                self[k] = v

    def _check_index(self, k) -> MultiIndex:
        k = tuple(int(t) for t in k)
        if len(k) != self.mvars or any(t < 0 for t in k):
            raise ValueError(f"bad multi-index {k} for {self.mvars} variables")
        if sum(k) > self.order:
            raise ValueError(f"multi-index {k} exceeds truncation order {self.order}")
        return k

    def __getitem__(self, k) -> np.ndarray:
        k = self._check_index(k)
        v = self.coeffs.get(k)
        return v.copy() if v is not None else np.zeros(self.base.dim, dtype=complex)

    def __setitem__(self, k, value):
        k = self._check_index(k)
        v = value.coords if isinstance(value, Element) else np.asarray(value, dtype=complex).ravel()
        if v.shape != (self.base.dim,):
            raise ValueError("coefficient length does not match base algebra")
        if np.any(v):
            self.coeffs[k] = v.copy()
        else:
            self.coeffs.pop(k, None)

    def coefficient(self, k) -> Element:
        return Element(self.base, self[k])

    def _same_family(self, other: "SeriesElement"):
        if (self.base is not other.base or self.mvars != other.mvars
                or self.order != other.order):
            raise DomainError("series live over different coefficient data")

    def __add__(self, other):
        self._same_family(other)
        out = SeriesElement(self.base, self.mvars, self.order)
        for k in set(self.coeffs) | set(other.coeffs):
            out[k] = self[k] + other[k]
        return out

    def __sub__(self, other):
        self._same_family(other)
        out = SeriesElement(self.base, self.mvars, self.order)
        for k in set(self.coeffs) | set(other.coeffs):
            out[k] = self[k] - other[k]
        return out

    def __neg__(self):
        return SeriesElement(self.base, self.mvars, self.order,
                             {k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, SeriesElement):
            return ser_mul(self, other)
        z = complex(other)
        return SeriesElement(self.base, self.mvars, self.order,
                             {k: z * v for k, v in self.coeffs.items()})

    def __rmul__(self, scalar):
        return self.__mul__(scalar)

    def star(self) -> "SeriesElement":
        return ser_involve(self)

    def norm(self) -> float:
        if not self.coeffs:
            return 0.0
        return float(max(np.abs(v).max() for v in self.coeffs.values()))

    def isclose(self, other: "SeriesElement", tol=la.ZERO_TOL) -> bool:
        self._same_family(other)
        return (self - other).norm() <= tol

    def copy(self) -> "SeriesElement":
        return SeriesElement(self.base, self.mvars, self.order, self.coeffs)

    def __repr__(self):
        keys = sorted(self.coeffs, key=lambda k: (sum(k), k))
        return f"<SeriesElement m={self.mvars} N={self.order} support={keys}>"


def ser_unit(base: StructureAlgebra, mvars: int, order: int) -> SeriesElement:
    """Multiplicative unit: coefficient-algebra unit at index 0."""
    out = SeriesElement(base, mvars, order)
    out[(0,) * mvars] = base.unit
    return out


def ser_mul(x: SeriesElement, y: SeriesElement) -> SeriesElement:
    """Truncated Cauchy product, one structure-tensor contraction per call.

    Products of pairs whose indices add up to the same k are summed in
    row-major pair order, and the result's indices are inserted in the order
    in which the pairs first reach them.
    """
    x._same_family(y)
    out = SeriesElement(x.base, x.mvars, x.order)
    if not x.coeffs or not y.coeffs:
        return out
    xs = np.array(list(x.coeffs.values()))
    ys = np.array(list(y.coeffs.values()))
    prods = x.base.mul_pairs(xs, ys).reshape(-1, x.base.dim)
    sums = (np.array(list(x.coeffs))[:, None] + np.array(list(y.coeffs))[None, :]
            ).reshape(len(prods), x.mvars)
    kept = np.flatnonzero(sums.sum(axis=1) <= x.order)
    if not len(kept):
        return out
    keys, first, slot = np.unique(sums[kept], axis=0, return_index=True,
                                  return_inverse=True)
    acc = np.zeros((len(keys), x.base.dim), dtype=complex)
    np.add.at(acc, slot.ravel(), prods[kept])
    for g in np.argsort(first):
        out[keys[g]] = acc[g]
    return out


def ser_involve(x: SeriesElement) -> SeriesElement:
    """Coefficientwise involution: (x*)_k = (x_k)*."""
    out = SeriesElement(x.base, x.mvars, x.order)
    for k, v in x.coeffs.items():
        out[k] = x.base.star_coords(v)
    return out


class SeriesStructureAlgebra(StructureAlgebra):
    """Truncated series algebra flattened to structure constants.

    Basis = (multi-index, base basis vector) pairs, multi-indices in the
    graded order of `table`, base index fastest. Remembers the coefficient
    algebra and the table so series can be packed and unpacked.
    """

    def __init__(self, base: StructureAlgebra, table: MonomialTable):
        m = table.dim
        db = base.dim
        d = m * db
        require_dim(d)
        self.base = base
        self.table = table
        self.mvars = table.mvars
        self.order = table.degree
        self.exponents = table.exponents
        self.exp_index = table.exp_index
        # c[p, :, q, :, add[p, q], :] = base.structure: the monomial table
        # tensored with the base
        c = np.zeros((m, db, m, db, m, db), dtype=complex)
        p, q = np.nonzero(table.add >= 0)
        c[p, :, q, :, table.add[p, q]] = base.structure
        inv = np.kron(np.eye(m), base.involution)
        unit = np.zeros((m, db), dtype=complex)
        unit[0] = base.unit
        labels = None
        if base.labels:
            labels = [f"{lab}@{k}" for k in self.exponents for lab in base.labels]
        super().__init__(c.reshape(d, d, d), inv, unit.reshape(d),
                         labels=labels, check=False)

    def __repr__(self):
        return (f"<SeriesStructureAlgebra m={self.mvars} N={self.order} "
                f"base_dim={self.base.dim}>")


def series_algebra(base: StructureAlgebra, mvars: int, order: int) -> SeriesStructureAlgebra:
    """Structure-constant form of the truncated series algebra.

    Refuses a flattened dimension above MAX_NAMED_DIM (see require_dim)
    before the monomial table is built.
    """
    _check_shape(mvars, order)
    require_dim(mi_count(mvars, order) * base.dim)
    return SeriesStructureAlgebra(base, MonomialTable(mvars, order))


def series_to_coords(alg: SeriesStructureAlgebra, x: SeriesElement) -> np.ndarray:
    """Flatten a sparse series into the basis order of series_algebra."""
    if x.base is not alg.base or x.mvars != alg.mvars or x.order != alg.order:
        raise DomainError("series does not match the flattened algebra")
    db = alg.base.dim
    out = np.zeros(alg.dim, dtype=complex)
    for k, v in x.coeffs.items():
        p = alg.exp_index[k]
        out[p * db:(p + 1) * db] = v
    return out


def coords_to_series(alg: SeriesStructureAlgebra, coords) -> SeriesElement:
    """Inverse of series_to_coords."""
    coords = np.asarray(coords, dtype=complex).ravel()
    if coords.shape != (alg.dim,):
        raise ValueError("coordinate length mismatch")
    blocks = coords.reshape(len(alg.exponents), alg.base.dim)
    return SeriesElement(alg.base, alg.mvars, alg.order, dict(zip(alg.exponents, blocks)))
