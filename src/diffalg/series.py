"""Formal power series over an involutive algebra, truncated in total degree.

A series x in m variables of order N over a coefficient algebra B is a
finite family of coefficients x_k in B indexed by multi-indices |k| <= N.
The product is the Cauchy convolution (x y)_k = sum_{l <= k} x_{k-l} y_l
with overflow terms dropped, the involution acts coefficientwise, and the
unit is the coefficient-unit at k = 0. The coefficients are the rows of one
array, in the graded order of a MonomialTable; series_algebra flattens the
whole thing into an ordinary structure algebra (a table algebra over a
table base) when a matrix representation is needed, and packing is a
reshape.
"""
from __future__ import annotations

import numpy as np

from . import _linalg as la
from .algebra import MAX_NAMED_DIM, Element, StructureAlgebra, _coords, require_dim
from .errors import DomainError
from .multiindex import MonomialTable, mi_count

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
    """Truncated series: row p of the complex (count, dim B) array `coeffs`
    is the coefficient of the p-th index of `table`, in its graded order.

    `coeffs` may also be given as a dict of index to coefficient, whose
    missing indices are zero. Results of arithmetic share the table of
    their left operand.
    """

    __slots__ = ("base", "table", "coeffs")

    def __init__(self, base: StructureAlgebra, mvars: int, order: int, coeffs=None):
        _check_shape(mvars, order)
        # the table takes count^2 integers, refused before it exists
        count = mi_count(mvars, order)
        if count > MAX_NAMED_DIM:
            raise DomainError(f"a series of order {order} in {mvars} variables has "
                              f"{count} coefficients; at most {MAX_NAMED_DIM} are supported")
        self.base = base
        self.table = MonomialTable(mvars, order)
        self.coeffs = np.zeros((count, base.dim), dtype=complex)
        if coeffs:
            for k, v in coeffs.items():
                self[k] = v

    @classmethod
    def _of(cls, base: StructureAlgebra, table: MonomialTable, coeffs: np.ndarray):
        """The series with these rows on an existing table; takes `coeffs`."""
        out = cls.__new__(cls)
        out.base, out.table, out.coeffs = base, table, coeffs
        return out

    @property
    def mvars(self) -> int:
        return self.table.mvars

    @property
    def order(self) -> int:
        return self.table.degree

    def __getitem__(self, k) -> np.ndarray:
        return self.coeffs[self.table.row(k)].copy()

    def __setitem__(self, k, value):
        self.coeffs[self.table.row(k)] = _coords(value, self.base)

    def coefficient(self, k) -> Element:
        return Element(self.base, self[k])

    def _same_family(self, other: "SeriesElement"):
        if (self.base is not other.base or self.mvars != other.mvars
                or self.order != other.order):
            raise DomainError("series live over different coefficient data")

    def _like(self, coeffs: np.ndarray) -> "SeriesElement":
        return SeriesElement._of(self.base, self.table, coeffs)

    def __add__(self, other):
        self._same_family(other)
        return self._like(self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._same_family(other)
        return self._like(self.coeffs - other.coeffs)

    def __neg__(self):
        return self._like(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, SeriesElement):
            return ser_mul(self, other)
        return self._like(complex(other) * self.coeffs)

    def __rmul__(self, scalar):
        return self.__mul__(scalar)

    def star(self) -> "SeriesElement":
        return ser_involve(self)

    def norm(self) -> float:
        return float(np.abs(self.coeffs).max(initial=0.0))

    def isclose(self, other: "SeriesElement", tol=la.ZERO_TOL) -> bool:
        self._same_family(other)
        return (self - other).norm() <= tol

    def copy(self) -> "SeriesElement":
        return self._like(self.coeffs.copy())

    def __repr__(self):
        support = [self.table.exponents[p] for p in np.flatnonzero(self.coeffs.any(axis=1))]
        return f"<SeriesElement m={self.mvars} N={self.order} support={support}>"


def ser_unit(base: StructureAlgebra, mvars: int, order: int) -> SeriesElement:
    """Multiplicative unit: coefficient-algebra unit at index 0."""
    out = SeriesElement(base, mvars, order)
    out.coeffs[0] = base.unit
    return out


def ser_mul(x: SeriesElement, y: SeriesElement) -> SeriesElement:
    """Truncated Cauchy product, one structure-tensor contraction per call.

    The products of rows p and q land at row add[p, q] of the table; those
    that reach the same row are summed in row-major pair order.
    """
    x._same_family(y)
    add = x.table.add
    p, q = np.nonzero(add >= 0)
    out = np.zeros_like(x.coeffs)
    np.add.at(out, add[p, q], x.base.mul_pairs(x.coeffs, y.coeffs)[p, q])
    return x._like(out)


def ser_involve(x: SeriesElement) -> SeriesElement:
    """Coefficientwise involution: (x*)_k = (x_k)*."""
    return x._like(np.conj(x.coeffs) @ x.base.involution.T)


class SeriesStructureAlgebra(StructureAlgebra):
    """Truncated series algebra flattened to structure constants.

    Basis = (multi-index, base basis vector) pairs, multi-indices in the
    graded order of `table`, base index fastest. Over a table algebra the
    product is a table too (see algebra._Product.series). Remembers the
    coefficient algebra and the table so series can be packed and unpacked.
    """

    def __init__(self, base: StructureAlgebra, table: MonomialTable):
        m, db = table.dim, base.dim
        require_dim(m * db)
        self.base, self.table, self.mvars, self.order = base, table, table.mvars, table.degree
        self.exponents, self.exp_index = table.exponents, table.exp_index
        unit = np.zeros((m, db), dtype=complex)
        unit[0] = base.unit
        labels = None
        if base.labels:
            labels = [f"{lab}@{k}" for k in self.exponents for lab in base.labels]
        # the monomial table tensored with the base: a table over a table
        self._set(base._product.series(table.add), unit.ravel(), labels)

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
    """Flatten a series into the basis order of series_algebra."""
    if x.base is not alg.base or x.mvars != alg.mvars or x.order != alg.order:
        raise DomainError("series does not match the flattened algebra")
    return x.coeffs.flatten()


def coords_to_series(alg: SeriesStructureAlgebra, coords) -> SeriesElement:
    """Inverse of series_to_coords."""
    return SeriesElement._of(alg.base, alg.table,
                             _coords(coords, alg).reshape(alg.table.dim, alg.base.dim).copy())
