"""Finite-dimensional involutive algebras given by structure constants.

An algebra of dimension d is given by a d x d x d complex tensor c with
c[i, j] = coordinates of e_i * e_j, an involution matrix S acting
antilinearly (star(x) = S conj(x)), and the coordinate vector of the unit.
The named algebras are semigroup algebras (e_i e_j is one basis element or
0) and keep their (d, d) product table instead: the checks read the table,
and the tensor is built only when a dense route asks for it. Either form
lives in one _Product, which owns every route that depends on the form.
On top of that sit subspaces (orthonormal SVD bases), characters
(unital involutive multiplicative functionals), quotients by two-sided
ideals, centralizers, and a family of ready-made constructors.
"""
from __future__ import annotations

import functools
import math
import re

import numpy as np

from . import _linalg as la
from ._input import Fields
from .errors import DomainError, NumericError
from .multiindex import MonomialTable, MultiIndex, mi_count

__all__ = [
    "StructureAlgebra",
    "PolyAlgebra",
    "Element",
    "Subspace",
    "Character",
    "LinearOp",
    "mul",
    "re_im",
    "subspace_product",
    "characters",
    "quotient",
    "centralizer",
    "subalgebra",
    "matrix_algebra",
    "function_algebra",
    "truncated_poly",
    "direct_sum",
    "group_algebra",
    "cusp_algebra",
    "algebra_from_name",
]


class StructureAlgebra:
    """Involutive algebra described by structure constants.

    Immutable after construction. Axioms (associativity on basis triples,
    unit law, involution laws) are validated on construction unless
    check=False is passed; violations raise DomainError.
    """

    labels = None

    def __init__(self, structure, involution, unit, labels=None, check=True,
                 tol=la.ZERO_TOL):
        self._set(_Product.dense(structure, involution), unit, labels, check, tol)

    def _set(self, product, unit, labels=None, check=False, tol=la.ZERO_TOL):
        """The one setter of the fields, which every builder calls: ValueError
        for a dimension below 1 or an involution, unit or labels of another,
        and given check, DomainError for the first failed axiom."""
        d = product.dim
        if d < 1:
            raise ValueError(f"algebra dimension must be >= 1, got {d}")
        if product.involution.shape != (d, d):
            raise ValueError("involution matrix shape mismatch")
        unit = np.asarray(unit, dtype=complex).ravel()
        if unit.shape != (d,):
            raise ValueError("unit vector shape mismatch")
        if labels is not None:
            self.labels = list(labels)
            if len(self.labels) != d:
                raise ValueError("label count mismatch")
        self._product, self.involution, self.unit = product, product.involution, unit
        bad = self.axiom_violations(tol) if check else []
        if bad:
            raise DomainError(f"algebra axioms fail: {bad[0]}"
                              + (f" (+{len(bad) - 1} more)" if len(bad) > 1 else ""))
        return self

    structure = property(lambda self: self._product.tensor, doc="The (d, d, d) tensor.")

    @property
    def dim(self) -> int:
        return self.unit.shape[0]

    # --- raw coordinate operations -------------------------------------

    def mul_coords(self, x, y) -> np.ndarray:
        """x * y, or row by row for (..., d) stacks x and y: per pair one
        GEMV with the flattened tensor and one with its (d, d) result, the
        kernels of a single pair, so a product does not depend on its stack."""
        d = self.dim
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        left = x[..., None, :] @ self._product.tensor.reshape(d, d * d)
        return (y[..., None, :] @ left.reshape(x.shape[:-1] + (d, d)))[..., 0, :]

    def mul_pairs(self, xs, ys) -> np.ndarray:
        """Products xs[p] * ys[q] of every pair of rows, as an (m, n, d) array.

        Two matrix products: the first contracts xs into the left index of
        the structure tensor, the second (batched over p) contracts ys
        into the middle one.
        """
        d = self.dim
        xs = np.asarray(xs, dtype=complex).reshape(-1, d)
        ys = np.asarray(ys, dtype=complex).reshape(-1, d)
        return ys @ (xs @ self._product.tensor.reshape(d, d * d)).reshape(-1, d, d)

    def star_coords(self, x) -> np.ndarray:
        """x*, or row by row for a (..., d) stack."""
        return la.apply_rows(self.involution, np.conj(np.asarray(x, dtype=complex)))

    def left_mul_matrix(self, a) -> np.ndarray:
        """Matrix of x -> a*x; a stack (..., d) of vectors gives (..., d, d)."""
        return self._product.mul_matrix(a, 0)

    def right_mul_matrix(self, a) -> np.ndarray:
        """Matrix of x -> x*a; a stack (..., d) of vectors gives (..., d, d)."""
        return self._product.mul_matrix(a, 1)

    # --- elements ------------------------------------------------------

    def element(self, coords) -> "Element":
        return Element(self, coords)

    def basis_element(self, i: int) -> "Element":
        coords = np.zeros(self.dim, dtype=complex)
        coords[i] = 1.0
        return Element(self, coords)

    def zero(self) -> "Element":
        return Element(self, np.zeros(self.dim, dtype=complex))

    def one(self) -> "Element":
        return Element(self, self.unit.copy())

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    # --- validation ----------------------------------------------------

    @np.errstate(invalid="ignore", over="ignore")
    def axiom_violations(self, tol=la.ZERO_TOL) -> list[str]:
        """All failed algebra axioms, as human-readable strings.

        A residual passes only when it is <= tol, so a NaN fails its law;
        non-finite entries fail without floating-point warnings.
        Associativity and (xy)* = y*x* are _Product.laws; the unit laws
        read the multiplication matrices.
        """
        out = []
        d = self.dim
        worst, (i, j, k), twice, pairs = self._product.laws()
        if not worst <= tol:
            out.append(f"associativity fails at basis triple ({i},{j},{k}), "
                       f"residual {worst:.2e}")
        # unit law: row i of the transposed multiplication matrices of the
        # unit is u * e_i and e_i * u
        eye = np.eye(d)
        left_bad = ~(np.abs(self._product.mul_matrix(self.unit, 0).T - eye).max(axis=1) <= tol)
        right_bad = ~(np.abs(self._product.mul_matrix(self.unit, 1).T - eye).max(axis=1) <= tol)
        for i in range(d):
            if left_bad[i]:
                out.append(f"left unit law fails at basis {i}")
            if right_bad[i]:
                out.append(f"right unit law fails at basis {i}")
        if not twice <= tol:
            out.append("involution is not an involution: S conj(S) != I")
        if not np.abs(self.star_coords(self.unit) - self.unit).max() <= tol:
            out.append("unit is not involution-fixed")
        for p in np.flatnonzero(~(pairs <= tol)):
            i, j = divmod(int(p), d)
            out.append(f"(xy)* = y*x* fails at basis pair ({i},{j})")
        return out

    def is_commutative(self, tol=la.ZERO_TOL) -> bool:
        """Whether c[i, j] = c[j, i] to tol (see _Product.is_commutative)."""
        return self._product.is_commutative(tol)

    # --- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        def cplx(z):
            return [float(np.real(z)), float(np.imag(z))]

        return {
            "dim": self.dim,
            "structure": [[[cplx(z) for z in row] for row in plane]
                          for plane in self.structure],
            "involution": [[cplx(z) for z in row] for row in self.involution],
            "unit": [cplx(z) for z in self.unit],
            "labels": self.labels,
        }

    @classmethod
    def from_dict(cls, data, check: bool = True) -> "StructureAlgebra":
        """The algebra to_dict wrote, refusing any other key. `data` may
        also be an _input.Fields over such a dict, whose path then names its
        fields in refusals."""
        doc = data if isinstance(data, Fields) else Fields(data)
        d = doc.integer("dim", low=1)
        require_dim(d)
        planes = doc.raw("structure")
        if isinstance(planes, list):
            require_dim(len(planes))
        structure, involution, unit = (
            doc.array(field, shape)
            for field, shape in (("structure", (d, d, d)), ("involution", (d, d)),
                                 ("unit", (d,))))
        labels = doc.labels("labels", d)
        doc.done()
        return cls(structure, involution, unit, labels=labels, check=check)

    def __repr__(self):
        return f"<StructureAlgebra dim={self.dim}>"


class PolyAlgebra(StructureAlgebra):
    """Degree-truncated polynomial algebra in m commuting variables.

    Basis = monomials x^k with |k| <= degree in graded lexicographic order;
    products above the degree bound are dropped. The monomial table
    (`table`, with the exponent list and index) is the algebra: the
    structure tensor and the labels are built from it on first use and kept
    with the algebra, so layers that read only the table (jets, evaluation,
    the table routes of StructureAlgebra) never allocate the d^3 tensor.
    The jet spaces built on the algebra are cached in `jet_cache`, which
    lives and dies with it.
    """

    def __init__(self, mvars: int, degree: int, check: bool = True, tol=la.ZERO_TOL):
        self.table, self.jet_cache = MonomialTable(mvars, degree), {}
        # x^k x^l = x^(k+l), or 0 above the degree: the table's sums; the
        # involution conjugates coefficients, and the monomial 1 is the unit
        d = self.table.dim
        self._set(_Product(self.table.add, np.arange(d)), np.arange(d) == 0, None, check, tol)

    mvars = property(lambda self: self.table.mvars)
    degree = property(lambda self: self.table.degree)
    exponents = property(lambda self: self.table.exponents)
    exp_index = property(lambda self: self.table.exp_index)

    @functools.cached_property
    def labels(self) -> list[str]:
        return [monomial_label(k) for k in self.exponents]

    def truncated(self, n: int) -> "PolyAlgebra":
        """The polynomials of degree <= n, as a new algebra on the leading
        corner of the table: the same algebra as truncated_poly(m, n). The
        result is a new object even for n = degree, so its elements never
        mix with ours."""
        out = PolyAlgebra.__new__(PolyAlgebra)
        out.table, out.jet_cache = self.table.truncated(n), {}
        d = out.table.dim
        return out._set(_Product(out.table.add, np.arange(d)), np.arange(d) == 0)

    def evaluate(self, coords, point) -> complex:
        """Value of the polynomial with the given coefficients at a point."""
        point = np.asarray(point, dtype=float).ravel()
        if point.shape != (self.mvars,):
            raise ValueError("point dimension mismatch")
        return complex(_coords(coords, self) @ self.table.monomials(point))

    def __repr__(self):
        return f"<PolyAlgebra m={self.mvars} degree={self.degree}>"


def monomial_label(k: MultiIndex) -> str:
    if sum(k) == 0:
        return "1"
    parts = []
    for i, p in enumerate(k):
        if p == 0:
            continue
        name = "x" if len(k) == 1 else f"x{i + 1}"
        parts.append(name if p == 1 else f"{name}^{p}")
    return "*".join(parts)


class Element:
    """Coordinate vector bound to its parent algebra. The operand of +, -
    and isclose is read by _coords: an Element of the same algebra or a
    coordinate vector of its dimension."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: StructureAlgebra, coords):
        self.algebra = algebra
        self.coords = np.asarray(coords, dtype=complex).ravel()
        if self.coords.shape != (algebra.dim,):
            raise ValueError("coordinate length does not match algebra dimension")

    def __add__(self, other):
        return Element(self.algebra, self.coords + _coords(other, self.algebra))

    def __sub__(self, other):
        return Element(self.algebra, self.coords - _coords(other, self.algebra))

    def __neg__(self):
        return Element(self.algebra, -self.coords)

    def __mul__(self, other):
        if isinstance(other, Element):
            return Element(self.algebra, self.algebra.mul_coords(
                self.coords, _coords(other, self.algebra)))
        return Element(self.algebra, self.coords * complex(other))

    def __rmul__(self, scalar):
        return Element(self.algebra, complex(scalar) * self.coords)

    def star(self) -> "Element":
        return Element(self.algebra, self.algebra.star_coords(self.coords))

    def re_im(self) -> tuple["Element", "Element"]:
        """Real and imaginary parts with respect to the involution.

        Re x = (x + x*)/2 and Im x = (x - x*)/(2i); both are fixed by the
        involution and x = Re x + i Im x, x* = Re x - i Im x.
        """
        s = self.star()
        re = Element(self.algebra, (self.coords + s.coords) / 2.0)
        im = Element(self.algebra, (self.coords - s.coords) / 2.0j)
        return re, im

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def isclose(self, other, tol=la.ZERO_TOL) -> bool:
        return bool(np.abs(self.coords - _coords(other, self.algebra)).max() <= tol)

    def __repr__(self):
        return f"Element({np.array_str(self.coords, precision=4)})"


def mul(x: Element, y: Element) -> Element:
    """Product in the parent algebra (structure-constant contraction)."""
    return x * y


def re_im(x: Element) -> tuple[Element, Element]:
    """See Element.re_im."""
    return x.re_im()


def _coords(x, algebra: StructureAlgebra) -> np.ndarray:
    """The coordinates of x in algebra, the one reader of an argument that
    is an element: an Element of algebra, or a coordinate vector (raveled)
    of length algebra.dim. An Element of another algebra raises
    DomainError; a vector of another length, or anything that is not a
    vector of numbers, raises ValueError."""
    if isinstance(x, Element):
        if x.algebra is not algebra:
            raise DomainError("element belongs to a different algebra")
        return x.coords
    try:
        v = np.asarray(x, dtype=complex).ravel()
    except TypeError:
        raise ValueError(f"{type(x).__name__} is not a coordinate vector") from None
    if len(v) != algebra.dim:
        raise ValueError(f"a vector of length {len(v)} in an algebra of dimension {algebra.dim}")
    return v


def _rows(vectors, algebra: StructureAlgebra) -> np.ndarray:
    """A spanning set or generator list of algebra as one complex (n, dim)
    array: a Subspace of algebra gives its basis, a 2-d array its rows as
    they are (C-contiguous), anything else one row per item through
    _coords. DomainError for a Subspace or Element of another algebra,
    ValueError for rows of another length."""
    if isinstance(vectors, Subspace):
        if vectors.algebra is not algebra:
            raise DomainError("subspace belongs to a different algebra")
        return vectors.basis
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        if vectors.shape[1] != algebra.dim:
            raise ValueError(f"rows of length {vectors.shape[1]} in an algebra of "
                             f"dimension {algebra.dim}")
        return np.ascontiguousarray(vectors, dtype=complex)
    return np.array([_coords(v, algebra) for v in vectors],
                    dtype=complex).reshape(-1, algebra.dim)


class Subspace:
    """Linear subspace with an orthonormal SVD basis (rows)."""

    def __init__(self, algebra: StructureAlgebra, vectors, tol=la.RANK_TOL):
        self.algebra = algebra
        self.basis = la.span_basis(_rows(vectors, algebra), tol=tol)

    @classmethod
    def _from_orthonormal(cls, algebra: StructureAlgebra, rows: np.ndarray) -> "Subspace":
        """The span of rows that are already orthonormal, kept as the basis
        without another SVD."""
        space = cls.__new__(cls)
        space.algebra = algebra
        space.basis = rows
        return space

    @classmethod
    def zero(cls, algebra: StructureAlgebra) -> "Subspace":
        return cls(algebra, [])

    @classmethod
    def whole(cls, algebra: StructureAlgebra) -> "Subspace":
        return cls(algebra, np.eye(algebra.dim))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, x, tol=la.ZERO_TOL) -> bool:
        return bool(la.in_span(_coords(x, self.algebra), self.basis, tol).all())

    def contains_subspace(self, other: "Subspace", tol=la.ZERO_TOL) -> bool:
        return bool(la.in_span(_rows(other, self.algebra), self.basis, tol).all())

    def equals(self, other: "Subspace", tol=la.ZERO_TOL) -> bool:
        return self.contains_subspace(other, tol) and other.contains_subspace(self, tol)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace(self.algebra, np.vstack([self.basis, _rows(other, self.algebra)]))

    def star_closed(self, tol=la.ZERO_TOL) -> bool:
        stars = np.conj(self.basis) @ self.algebra.involution.T
        return bool(la.in_span(stars, self.basis, tol).all())

    def __repr__(self):
        return f"<Subspace dim={self.dim} of {self.algebra!r}>"


def subspace_product(m: Subspace, n: Subspace) -> Subspace:
    """Linear span of all pairwise products of basis vectors.

    The span plays the role of the closed product of subspaces; in finite
    dimension closure is linear span.
    """
    if m.algebra is not n.algebra:
        raise DomainError("subspaces belong to different algebras")
    alg = m.algebra
    return Subspace(alg, alg.mul_pairs(m.basis, n.basis).reshape(-1, alg.dim))


class Character:
    """Unital involutive multiplicative functional, as a row vector."""

    __slots__ = ("algebra", "functional")

    def __init__(self, algebra: StructureAlgebra, functional):
        self.algebra = algebra
        self.functional = np.asarray(functional, dtype=complex).ravel()
        if self.functional.shape != (algebra.dim,):
            raise ValueError("functional length mismatch")

    def __call__(self, x) -> complex:
        return complex(self.functional @ _coords(x, self.algebra))

    def kernel(self) -> Subspace:
        return Subspace(self.algebra, la.null_space(self.functional.reshape(1, -1)))

    def multiplicativity_residual(self) -> float:
        return float(_law_residuals(self.algebra, _SCALARS, self.functional[None, None],
                                    _self_runs(1))[2][0])

    def is_character(self, tol=1e-8) -> bool:
        return bool(_character_mask(self.algebra, self.functional, tol)[0])

    def __repr__(self):
        return f"Character({np.array_str(self.functional, precision=4)})"


# Complex entries of one block of the blocked contractions (the law
# kernel, Rayleigh quotients, the trace-form gram): a block takes as many
# structure slices c[i] as keep its arrays within this bound, so the peak
# does not grow with the number of maps or candidates.
_BLOCK_ENTRIES = 2 ** 16


def _slice_blocks(d: int, width: int):
    """Slices of one tensor index, each block within _BLOCK_ENTRIES."""
    step = max(1, _BLOCK_ENTRIES // (d * max(width, 1)))
    return (slice(lo, lo + step) for lo in range(0, d, step))


def _associativity_slabs(r) -> tuple[float, tuple[int, int, int]]:
    """Largest associativity residual of the tensor r, with its witness.

    The residual of a basis triple (i, j, k) is max_q |((e_i e_j) e_k -
    e_i (e_j e_k))_q|; the witness is the first triple (row-major) at the
    largest residual, a NaN residual counting as the largest. Both sides
    are contracted one i at a time, so the work is d^5 and the peak d^3.
    """
    d = r.shape[0]
    r_rows, r_cols = r.reshape(d * d, d), r.reshape(d, d * d)
    worst, where = -np.inf, (0, 0, 0)
    for i in range(d):
        left = (r[i] @ r_cols).reshape(d * d, d)
        bad = np.abs(left - r_rows @ r[i]).max(axis=1)
        top = int(np.argmax(bad))
        if not np.isnan(worst) and not bad[top] <= worst:  # larger, or the first NaN
            worst, where = bad[top], (i, *divmod(top, d))
    return float(worst), where


def _table_associativity(t) -> tuple[float, tuple[int, int, int]]:
    """_associativity_slabs of the table algebra with product table t: both
    sides of a triple are one basis element or 0, so its residual is 1 where
    t[t[i, j], k] and t[i, t[j, k]] differ (-1 for 0) and 0 elsewhere; in
    blocks of i."""
    d = len(t)
    pad = np.full((d + 1, d + 1), -1, dtype=t.dtype)  # row and column -1: 0
    pad[:d, :d] = t
    for blk in _slice_blocks(d, d):
        # (e_i e_j) e_k against e_i (e_j e_k)
        differ = np.flatnonzero(pad[t[blk], :d] != pad[:d][blk][:, t])
        if len(differ):
            i, j, k = np.unravel_index(differ[0], (d, d, d))
            return 1.0, (int(i) + blk.start, int(j), int(k))
    return 0.0, (0, 0, 0)


class _Product:
    """The product and involution matrix of an algebra, as a table (`table`,
    e_i e_j = e_table[i, j] or 0 where it is -1, and the permutation `star`,
    e_i* = e_star[i]) whose `tensor` is built on first use, or as a dense
    `tensor` alone. The routes read a table when there is one, with the
    tensor's results to the last bit: every product constant of it is 1."""

    table = star = None

    def __init__(self, table, star):
        self.table = np.asarray(table, dtype=np.intp)
        self.star = np.asarray(star, dtype=np.intp)
        self.dim = d = len(self.star)
        self.involution = np.zeros((d, d), dtype=complex)
        self.involution[self.star, np.arange(d)] = 1.0

    @classmethod
    def dense(cls, structure, involution) -> "_Product":
        out = cls.__new__(cls)
        out.tensor = np.asarray(structure, dtype=complex)
        if out.tensor.ndim != 3 or len(set(out.tensor.shape)) != 1:
            raise ValueError("structure tensor must have shape (d, d, d)")
        out.dim = out.tensor.shape[0]
        out.involution = np.asarray(involution, dtype=complex)
        return out

    tensor = functools.cached_property(lambda self: _semigroup(self.table))

    def mul_matrix(self, a, side: int) -> np.ndarray:
        """Entry [k, j] = sum_i a_i c[i, j, k] (side 0, x -> a*x) or [k, i] =
        sum_j c[i, j, k] a_j (side 1, x -> x*a), for each a of the stack: the
        one builder of multiplication operators. The tensor route contracts
        the whole stack, a table adds the coordinates of a at its products in
        one scatter; both return the transposed view of a C-contiguous
        (..., d, d) array."""
        d = self.dim
        a = np.asarray(a, dtype=complex)
        lead = a.shape[:-1]
        if self.table is None:
            c = self.tensor
            out = a @ c.reshape(d, d * d) if side == 0 else a[..., None, None, :] @ c
        else:  # a wrong length fails the reshape below, if not the scatter
            at, coeff = self._scatters[side]
            if lead:  # flat indices over the stack, each matrix in the order above
                base = np.arange(a.size // d)[:, None]
                at, coeff = (base * (d * d) + at).ravel(), (base * d + coeff).ravel()
            out = np.zeros(a.size * d, dtype=complex)
            np.add.at(out, at, a.ravel()[coeff])
        return out.reshape(lead + (d, d)).swapaxes(-1, -2)

    @functools.cached_property
    def _scatters(self):
        """For each side of mul_matrix, the flat entry [j, t[i, j]] or [i,
        t[i, j]] of the transposed matrix that each nonzero product (i, j) adds
        to (row-major), and the coordinate i or j of a that it adds."""
        d = self.dim
        i, j = np.nonzero(self.table >= 0)
        p = self.table[i, j]
        return (j * d + p, i), (i * d + p, j)

    def laws(self):
        """The associativity residual and witness (see _associativity_slabs),
        the residual of S conj(S) = I and those of (e_i e_j)* = e_j* e_i*, pair
        (i, j) at i * d + j. A table, or a tensor whose constants form one
        (_semigroup_table), compares basis indices; other tensors contract."""
        d = self.dim
        t, star = self.table, self.star
        if t is None:
            t, star = _semigroup_table(self.tensor, self.involution)
        if t is not None:
            twice = float(not (star[star] == np.arange(d)).all())
            lhs = np.where(t >= 0, star[t], -1)  # (e_i e_j)* = e_{star[t[i, j]]}
            pairs = (lhs != t[np.ix_(star, star)].T).ravel().astype(float)
            return (*_table_associativity(t), twice, pairs)
        c, s = self.tensor, self.involution
        # real tensors take the real products, a quarter of the complex work
        worst, at = _associativity_slabs(c.real if not c.imag.any() else c)
        twice = np.abs(s @ np.conj(s) - np.eye(d)).max()
        lhs = np.conj(c.reshape(d * d, d)) @ s.T
        rhs = (s.T @ (s.T @ c.reshape(d, d * d)).reshape(-1, d, d)).transpose(1, 0, 2)
        return worst, at, twice, np.abs(lhs - rhs.reshape(d * d, d)).max(axis=1)

    def is_commutative(self, tol) -> bool:
        """Whether c[i, j] = c[j, i] to tol, in blocks of slices with no
        transposed copy of the tensor. In a table c[i, j] - c[j, i] is 0
        where the table is symmetric, else of norm 1."""
        t = self.table
        if t is not None:
            return bool(float(not (t == t.T).all()) <= tol)
        c = self.tensor
        return all(np.abs(c[blk] - c[:, blk].transpose(1, 0, 2)).max() <= tol
                   for blk in _slice_blocks(self.dim, self.dim))

    def pair_products(self, rows, width: int):
        """Per block blk of _slice_blocks(d, width), blk and the (n, len(blk)
        * d) sums over q of rows[r, q] c[i, j, q]. A table gathers columns
        t[i, j] of rows, unless a row is not finite: the tensor spreads a NaN
        or inf over every pair, a gather would not."""
        d, t = self.dim, self.table
        if t is not None and np.isfinite(rows).all():
            padded = np.hstack([rows, np.zeros((len(rows), 1))])  # column -1: 0
            return ((blk, padded[:, t[blk].ravel()]) for blk in _slice_blocks(d, width))
        return ((blk, rows @ self.tensor[blk].reshape(-1, d).T)
                for blk in _slice_blocks(d, width))

    def slice_products(self, vecs):
        """Per block blk of slices, blk and the stack of c[i] @ vecs over i in
        blk; a table gathers the rows t[i, j] of vecs."""
        d, n = vecs.shape
        if self.table is not None:
            padded = np.vstack([vecs, np.zeros((1, n))])  # row -1: 0
            return ((blk, padded[self.table[blk]]) for blk in _slice_blocks(d, n))
        return ((blk, (self.tensor[blk].reshape(-1, d) @ vecs).reshape(-1, d, n))
                for blk in _slice_blocks(d, n))

    def trace_gram(self) -> np.ndarray:
        """tr(L_i L_j) = sum_ab c[i, b, a] c[j, a, b], over blocks of b (no
        full copy). A table counts the b with t[j, t[i, b]] = b, over blocks
        of i: the same integers."""
        d, t = self.dim, self.table
        if t is None:
            c = self.tensor
            return sum(c[:, blk].reshape(d, -1) @ c[:, :, blk].transpose(2, 1, 0).reshape(-1, d)
                       for blk in _slice_blocks(d, d))
        pad = np.hstack([t, np.full((d, 1), -1, dtype=t.dtype)])  # column -1: 0
        gram = np.empty((d, d), dtype=complex)
        for blk in _slice_blocks(d, d):
            gram[blk] = (pad[:, t[blk]] == np.arange(d)).sum(axis=2).T
        return gram

    def direct_sum(self, other: "_Product") -> "_Product":
        """The block-diagonal sum: a table when both are tables."""
        da, d = self.dim, self.dim + other.dim
        if self.table is not None and other.table is not None:
            t = np.full((d, d), -1, dtype=np.intp)
            t[:da, :da] = self.table
            t[da:, da:] = np.where(other.table >= 0, other.table + da, -1)
            return _Product(t, np.concatenate([self.star, other.star + da]))
        c, inv = np.zeros((d, d, d), dtype=complex), np.zeros((d, d), dtype=complex)
        c[:da, :da, :da], c[da:, da:, da:] = self.tensor, other.tensor
        inv[:da, :da], inv[da:, da:] = self.involution, other.involution
        return _Product.dense(c, inv)

    def series(self, add) -> "_Product":
        """The series over this product with the monomial sums add, basis
        (p, a) at p * d + a: a table gives the table add[p, q] * d + t[a, b]
        (-1 where either is) and star p * d + star[a], a tensor c the tensor
        with c at [p, :, q, :, add[p, q], :]."""
        m, db = len(add), self.dim
        d = m * db
        if self.table is not None:
            sums, t = add[:, None, :, None], self.table[:, None]
            table = np.where((sums >= 0) & (t >= 0), sums * db + t, -1).reshape(d, d)
            return _Product(table, (np.arange(m)[:, None] * db + self.star).ravel())
        c = np.zeros((m, db, m, db, m, db), dtype=complex)
        p, q = np.nonzero(add >= 0)
        c[p, :, q, :, add[p, q]] = self.tensor
        return _Product.dense(c.reshape(d, d, d), np.kron(np.eye(m), self.involution))


def _law_residuals(source, target, ops, runs=(), bound=None):
    """Unit, involution and Leibniz residuals of the maps D_r: A -> B in
    ops, an (n, dim B, dim A) stack; the laws are (anti)linear, so the
    basis decides them. A run (k, l, d, c) of arrays holds at most one
    Leibniz pair per row k, whose law is D_k(xy) = sum c D_d(x) D_l(y),
    added run by run; the first run holds the first pair of each row 0,
    ..., m - 1 with a law. A row whose first pair is (k, k, k) must map 1
    to 1, any other must kill 1. Returns unit (n,), star (n, dim A) at each
    e_i, the largest Leibniz residual worst (m,) (a NaN counts as the
    largest), witness (m,) = i * dim A + j of the first basis pair (i, j)
    at worst and, given a bound, first (m,) of the first pair not <= bound
    (dim A ** 2 if none). Both sides are formed in blocks of i and reduced
    to per-row maxima at once; the right sides apply the stack of L_{D_d(e_i)},
    or when B has dimension 1 broadcast its one constant; the left sides are
    the _Product.pair_products of A.
    """
    n, db, da = ops.shape
    flat = ops.reshape(n * db, da)
    unit = (flat @ source.unit).reshape(n, db)
    star = np.abs((flat @ source.involution).reshape(n, db, da)
                  - target.involution @ np.conj(ops)).max(axis=1)
    if not runs:
        return np.abs(unit).max(axis=1), star, np.zeros(0), np.zeros(0, dtype=int), None
    k, l, d, _ = runs[0]
    unit[:len(k)] -= ((k == l) & (k == d))[:, None] * target.unit
    # both sides as (row, coordinate q, pair (i, j)); row i of cols[r] is D_r(e_i)
    m, rows, cols = len(k), np.arange(len(k)), ops.transpose(0, 2, 1)
    one = target.left_mul_matrix(np.ones(1))[0, 0] if db == 1 else None
    vals, tops, firsts = [], [], []
    for blk, lhs in source._product.pair_products(flat[:m * db], m * db * max(1, db // da)):
        lhs = lhs.reshape(m, db, -1)
        pairs = lhs.shape[2]
        rhs = None
        for k, l, d, c in runs:
            if db == 1:
                prod = (cols[d, blk] * one) * ops[l]
            else:  # (D_d(e_i) e_t)_q times D_l(e_j)_t, summed over t
                left = target.left_mul_matrix(cols[d, blk])
                prod = left.transpose(0, 2, 1, 3) @ ops[l][:, None]
            prod = prod.reshape(len(k), db, pairs)
            prod *= c[:, None, None]
            if rhs is None:  # the first run: rows 0, ..., m - 1 in order
                rhs = prod
            else:
                rhs[k] += prod
        gap = np.abs(np.subtract(lhs, rhs, out=rhs))
        gap = gap[:, 0] if db == 1 else gap.max(axis=1)  # the largest over q
        at, top = blk.start * da, gap.argmax(axis=1)
        vals.append(gap[rows, top])
        tops.append(top + at)
        if bound is not None:
            bad = (gap <= bound).argmin(axis=1)
            firsts.append(np.where(gap[rows, bad] <= bound, da * da, bad + at))
    vals, tops = np.array(vals), np.array(tops)
    best = vals.argmax(axis=0)  # the first block at the largest residual
    return (np.abs(unit).max(axis=1), star, vals[best, rows], tops[best, rows],
            np.array(firsts).min(axis=0) if firsts else None)


def _self_runs(n: int) -> list:
    """One run pairing each of n rows with itself: n homomorphisms."""
    r = np.arange(n)
    return [(r, r, r, np.ones(n))]


# The Leibniz pairs of a derivation D relative to a homomorphism phi, as
# the rows (D, phi): D(xy) = D(x) phi(y) + phi(x) D(y).
_DERIVATION_RUNS = [tuple(np.array([v]) for v in run) for run in ((0, 1, 0, 1.0), (0, 0, 1, 1.0))]


def _character_mask(algebra: StructureAlgebra, rows, tol: float) -> np.ndarray:
    """Which rows are characters at tol: homomorphisms into the scalars whose
    unit, involution and multiplicativity residuals are all <= tol."""
    s = np.asarray(rows, dtype=complex).reshape(-1, 1, algebra.dim)
    unit, star, mult, _, _ = _law_residuals(algebra, _SCALARS, s, _self_runs(len(s)))
    return (unit <= tol) & (mult <= tol) & (star.max(axis=1) <= tol)


def _rayleigh_tuples(algebra: StructureAlgebra, vecs: np.ndarray) -> np.ndarray:
    """Row n holds v^H c[i] v / v^H v for v = vecs[:, n], over all i, where
    the slice c[i] of the structure tensor is the transposed left
    multiplication by e_i.

    On a common eigenvector of the slices that is the tuple of their
    eigenvalues (the products are _Product.slice_products).
    """
    d, n = vecs.shape
    conj = vecs.conj()
    out = np.empty((n, d), dtype=complex)
    for blk, prods in algebra._product.slice_products(vecs):
        out[:, blk] = np.einsum("ijn,jn->ni", prods, conj)
    return out / np.einsum("jn,jn->n", conj, vecs)[:, None]


# Generic elements tried before repeated eigenvalues are refused.
_GENERIC_DRAWS = 4


def _apart(values: np.ndarray, tol: float) -> bool:
    """Whether no two of the values lie within tol of each other."""
    return not np.triu(np.abs(values[:, None] - values) <= tol, 1).any()


def _semisimple_characters(algebra: StructureAlgebra, tol: float) -> list[Character]:
    """Character extraction for a radical-free commutative algebra.

    Here every multiplication operator is diagonalizable and the
    transposed basis multiplications commute, so when the transposed
    multiplication by a generic element has only simple eigenvalues, its
    eigenvectors are common eigenvectors of all of them, and their
    eigenvalue tuples are the candidate functionals (a character takes on
    a common eigenvector of the left regular representation exactly its
    own values). One eigendecomposition gives those. A generic element of
    such an algebra (isomorphic to C^n) separates the characters, so a
    repeated eigenvalue only means an unlucky draw: the next element comes
    from the same seeded generator, and after _GENERIC_DRAWS draws the
    extraction is refused.
    """
    d = algebra.dim
    cluster_tol = 1e-7
    rng = np.random.default_rng(7)
    for _ in range(_GENERIC_DRAWS):
        generic = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vals, vecs = np.linalg.eig(algebra.left_mul_matrix(generic).T)
        if _apart(vals, cluster_tol):
            break
    else:
        raise NumericError(f"eigen-cluster ambiguity: repeated eigenvalues in "
                           f"{_GENERIC_DRAWS} generic draws")

    tuples = _rayleigh_tuples(algebra, vecs)
    tuples = tuples[_character_mask(algebra, tuples, tol)]
    # each tuple is dropped as a repeat of the first kept earlier one within
    # 10 cluster_tol, which must then be within cluster_tol
    near = np.triu(la.close_mask(tuples, tuples, 10 * cluster_tol), 1)
    keep = np.ones(len(tuples), dtype=bool)
    for j in np.flatnonzero(near.any(axis=0)):
        i = np.flatnonzero(near[:j, j] & keep[:j])
        if i.size:
            if np.abs(tuples[i[0]] - tuples[j]).max() > cluster_tol:
                raise NumericError("eigen-cluster ambiguity: two candidate "
                                   "characters closer than the resolution limit")
            keep[j] = False
    return [Character(algebra, f) for f in tuples[keep]]


def characters(algebra: StructureAlgebra, tol: float = 1e-8) -> list[Character]:
    """All unital involutive multiplicative functionals of a commutative algebra.

    Characters kill every nilpotent, so the radical is split off first: it
    is the null space of the trace form tr(L_{e_i} L_{e_j}) (finite
    dimension, characteristic zero), and characters of the radical-free
    quotient pull back along the projection. This keeps the eigenvalue
    extraction away from defective operators. Algebras with nilpotent parts
    therefore have fewer characters than dim; that is expected, not an
    error. Non-commutative input raises DomainError.
    """
    if not algebra.is_commutative():
        raise DomainError("character extraction requires a commutative algebra")
    rad = la.null_space(algebra._product.trace_gram())
    if rad.shape[0]:
        qalg, proj = quotient(algebra, Subspace(algebra, rad))
        rows = np.array([c.functional for c in _semisimple_characters(qalg, tol)])
        rows = rows.reshape(-1, qalg.dim) @ proj.matrix
        chars = [Character(algebra, r) for r in rows[_character_mask(algebra, rows, tol)]]
    else:
        chars = _semisimple_characters(algebra, tol)
    # lexicographic in the rounded (re, im) coordinates, ties in found order
    rows = np.array([c.functional for c in chars], dtype=complex).reshape(-1, algebra.dim)
    keys = np.round(rows.view(float), 9)
    return [chars[i] for i in np.lexsort(keys.T[::-1])]


def quotient(algebra: StructureAlgebra, ideal: Subspace,
             tol: float = la.ZERO_TOL) -> tuple[StructureAlgebra, "LinearOp"]:
    """Quotient by a two-sided involution-closed ideal, plus the projection.

    The quotient basis consists of the classes of the standard basis vectors
    at the non-pivot columns of the ideal's row-reduced basis, so bases are
    deterministic. The projection is a unital homomorphism. An ideal that
    contains the unit (the whole algebra) raises DomainError.
    """
    if ideal.algebra is not algebra:
        raise DomainError("subspace belongs to a different algebra")
    d = algebra.dim
    if ideal.dim == d:  # the whole algebra: the one ideal that contains the unit
        raise DomainError("ideal contains the unit: the quotient would be zero")
    v = ideal.basis
    # [j, i, side]: e_i * v_j (column i of R_{v_j}), v_j * e_i (of L_{v_j})
    prods = np.stack([algebra.right_mul_matrix(v).swapaxes(1, 2),
                      algebra.left_mul_matrix(v).swapaxes(1, 2)], axis=2)
    inside = la.in_span(prods.reshape(-1, d), v, tol).reshape(prods.shape[:3]).swapaxes(0, 1)
    if not inside.all():  # the first failure in (i, j, side) order
        i, j, side = np.unravel_index(np.argmin(inside), inside.shape)
        if side == 0:
            raise DomainError(f"not an ideal: basis {i} * (ideal basis {j}) "
                              "leaves the subspace")
        raise DomainError(f"not an ideal: (ideal basis {j}) * basis {i} "
                          "leaves the subspace")
    if not ideal.star_closed(tol):
        raise DomainError("ideal is not involution-closed; quotient involution undefined")

    r, pivots = la.rref(ideal.basis) if ideal.dim else (ideal.basis, [])
    free = [k for k in range(d) if k not in pivots]
    reduce = np.eye(d, dtype=complex)
    reduce[:, pivots] = -r.T
    reduce[pivots, pivots] = 0.0
    proj = reduce[free, :]
    rep = np.eye(d, dtype=complex)[:, free]

    # the representatives are basis vectors: e_a e_b is column b of L_{e_a}
    c_new = algebra.left_mul_matrix(np.eye(d)[free]).swapaxes(1, 2)[:, free] @ proj.T
    unit_new = proj @ algebra.unit
    inv_new = proj @ algebra.involution @ rep
    labels = ([algebra.labels[j] for j in free] if algebra.labels else None)
    qalg = StructureAlgebra(c_new, inv_new, unit_new, labels=labels)
    return qalg, LinearOp(proj, algebra, qalg)


def centralizer(algebra: StructureAlgebra, s: Subspace) -> Subspace:
    """{b : [b, v] = 0 for all v in s}, computed as one null space."""
    if s.algebra is not algebra:
        raise DomainError("subspace belongs to a different algebra")
    if s.dim == 0:
        return Subspace.whole(algebra)
    ad = algebra.right_mul_matrix(s.basis)  # [b, v] = (R_v - L_v) b, in place
    ad -= algebra.left_mul_matrix(s.basis)
    return Subspace(algebra, la.null_space(ad.reshape(-1, algebra.dim)))


def subalgebra(algebra: StructureAlgebra, vectors,
               tol: float = la.ZERO_TOL) -> tuple[StructureAlgebra, "LinearOp"]:
    """Unital *-subalgebra spanned by the given vectors, plus its inclusion.

    The span must contain the unit and be closed under products and the
    involution; otherwise DomainError. The returned algebra uses the
    orthonormal SVD basis of the span.
    """
    basis = la.span_basis(_rows(vectors, algebra))
    if not la.in_span(algebra.unit, basis, tol).all():
        raise DomainError("span does not contain the unit")
    stars = np.conj(basis) @ algebra.involution.T
    if not la.in_span(stars, basis, tol).all():
        raise DomainError("span is not closed under the involution")
    r = basis.shape[0]
    prods = algebra.mul_pairs(basis, basis).reshape(r * r, -1)
    if not la.in_span(prods, basis, tol).all():
        raise DomainError("span is not closed under products")
    # the basis is orthonormal, so coordinates in it are inner products
    coeffs = basis.conj().T
    c = (prods @ coeffs).reshape(r, r, r)
    inv = (stars @ coeffs).T
    unit = algebra.unit @ coeffs
    sub = StructureAlgebra(c, inv, unit)
    return sub, LinearOp(basis.T, sub, algebra)


class LinearOp:
    """Matrix of a linear map between two structure algebras."""

    def __init__(self, matrix, source: StructureAlgebra, target: StructureAlgebra):
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.shape != (target.dim, source.dim):
            raise ValueError(f"matrix shape {self.matrix.shape} does not map "
                             f"dim {source.dim} to dim {target.dim}")
        self.source = source
        self.target = target

    def __call__(self, x) -> Element:
        return Element(self.target, self.matrix @ _coords(x, self.source))

    def compose(self, inner: "LinearOp") -> "LinearOp":
        if inner.target is not self.source:
            raise DomainError("composition shape mismatch")
        return LinearOp(self.matrix @ inner.matrix, inner.source, self.target)

    @classmethod
    def identity(cls, algebra: StructureAlgebra) -> "LinearOp":
        return cls(np.eye(algebra.dim), algebra, algebra)

    def hom_violations(self, tol: float = la.ZERO_TOL) -> list[str]:
        """Checks that the map is a unital involutive homomorphism; each
        failed law names its first failing basis element or pair."""
        out = []
        unit, star, _, _, first = _law_residuals(self.source, self.target, self.matrix[None],
                                                 _self_runs(1), tol)
        # a NaN residual fails, as in axiom_violations
        if not unit[0] <= tol:
            out.append("does not preserve the unit")
        if not (star[0] <= tol).all():
            out.append(f"does not intertwine involutions at basis {np.argmin(star[0] <= tol)}")
        i, j = divmod(int(first[0]), self.source.dim)
        if i < self.source.dim:
            out.append(f"not multiplicative at basis pair ({i},{j})")
        return out

    def is_homomorphism(self, tol: float = la.ZERO_TOL) -> bool:
        return not self.hom_violations(tol)

    def image(self) -> Subspace:
        return Subspace(self.target, self.matrix.T)

    def __repr__(self):
        return f"<LinearOp {self.source.dim}->{self.target.dim}>"


# --- constructors ------------------------------------------------------

# Largest dimension built from input (algebra_from_name, truncated_poly,
# series_algebra). Named algebras and series over them check themselves and
# build their multiplication operators on their tables; the dense routes
# build the tensor, 16 d^3 bytes (256 MiB at d = 256), plus a few d^3
# temporaries: mul_coords, mul_pairs, serialization, tableless algebras.
MAX_NAMED_DIM = 256


def require_dim(d: int) -> None:
    """Refuses an algebra of dimension d > MAX_NAMED_DIM with DomainError.

    Callers compute d from their arguments, so an oversized request is
    refused before anything is allocated.
    """
    if d > MAX_NAMED_DIM:
        raise DomainError(f"algebra dimension {d} exceeds {MAX_NAMED_DIM}: its "
                          f"structure tensor alone would take {16 * d ** 3} bytes")


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _semigroup(table) -> np.ndarray:
    """Structure tensor of the semigroup algebra with e_i e_j =
    e_{table[i, j]} (0 where table[i, j] is -1)."""
    d = len(table)
    c = np.zeros((d, d, d), dtype=complex)
    i, j = np.nonzero(table >= 0)
    c[i, j, table[i, j]] = 1.0
    return c


def _semigroup_table(c, s):
    """The inverse of _semigroup: the product table (-1 for 0) and star map
    of a tensor c and involution matrix s whose nonzero entries are all
    exactly 1, at most one in each c[i, j] and one in each column of s;
    (None, None) for any other pair. The nonzeros of each pair are counted
    before any constant is gathered, so a denser tensor is turned away
    without a copy of its nonzeros."""
    nonzero = c != 0
    counts = nonzero.sum(axis=2)
    if (counts > 1).any() or (np.count_nonzero(s, axis=0) != 1).any():
        return None, None
    table = np.where(counts > 0, nonzero.argmax(axis=2), -1)
    star = (s != 0).argmax(axis=0)
    i, j = np.nonzero(counts)
    if (c[i, j, table[i, j]] != 1).any() or (s[star, np.arange(len(s))] != 1).any():
        return None, None
    return table, star


def matrix_algebra(n: int) -> StructureAlgebra:
    """Full matrix algebra M_n with conjugate-transpose involution.

    Basis = matrix units E_ij in row-major order.
    """
    _require_positive(n)
    rows, cols = np.divmod(np.arange(n * n), n)
    # E_ij E_kl = E_il when j = k, else 0; E_ij* = E_ji
    table = np.where(cols[:, None] == rows, rows[:, None] * n + cols, -1)
    labels = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    return StructureAlgebra.__new__(StructureAlgebra)._set(
        _Product(table, cols * n + rows), np.eye(n).ravel(), labels)


def function_algebra(n: int) -> StructureAlgebra:
    """C^n with pointwise product and complex-conjugate involution."""
    _require_positive(n)
    idx = np.arange(n)
    table = np.where(np.eye(n, dtype=bool), idx, -1)
    labels = [f"e{i + 1}" for i in range(n)]
    return StructureAlgebra.__new__(StructureAlgebra)._set(_Product(table, idx), np.ones(n),
                                                           labels)


# The target of a character: C as the table algebra e_0 e_0 = e_0. The
# law kernel reads its one product constant through left_mul_matrix.
_SCALARS = StructureAlgebra.__new__(StructureAlgebra)._set(_Product([[0]], [0]), [1.0])


def truncated_poly(mvars: int, degree: int) -> PolyAlgebra:
    """Polynomials of degree <= degree in mvars variables, overflow dropped.

    Refuses more than MAX_NAMED_DIM monomials (see require_dim).
    """
    if mvars >= 1 and degree >= 0:
        require_dim(mi_count(mvars, degree))
    return PolyAlgebra(mvars, degree, check=False)


def direct_sum(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """Direct sum with componentwise operations; the sum of two table
    algebras is a table algebra."""
    require_dim(a.dim + b.dim)
    labels = None
    if a.labels and b.labels:
        labels = [f"({lab},0)" for lab in a.labels] + [f"(0,{lab})" for lab in b.labels]
    return StructureAlgebra.__new__(StructureAlgebra)._set(
        a._product.direct_sum(b._product), np.concatenate([a.unit, b.unit]), labels)


class _CyclicGroup:
    """Z_{n_1} x ... x Z_{n_r} with its elements in lexicographic order of
    residue tuples, the one place that order is fixed: group_algebra builds
    on it and spectra.FiniteAbelianGroup extends it. Row t of `_digits`
    holds the t-th residue of every element."""

    def __init__(self, factors):
        self.factors = tuple(int(n) for n in factors)
        if not self.factors or any(n < 1 for n in self.factors):
            raise ValueError("factors must be positive integers")
        self._digits = np.indices(self.factors).reshape(len(self.factors), -1)
        self.elements = list(zip(*self._digits.tolist()))

    @property
    def order(self) -> int:
        return self._digits.shape[1]

    def _sum_index(self, *terms) -> np.ndarray:
        """Index of the sum of elements given as broadcasting (r, ...)
        residue arrays, in any integers. Factors are summed one at a time
        and in place, so the peak is twice the size of the result."""
        out = np.zeros(np.broadcast_shapes(*(term.shape[1:] for term in terms)),
                       dtype=np.int64)
        for t, n in enumerate(self.factors):
            part = sum(term[t] for term in terms)
            part %= n
            out *= n
            out += part
            del part
        return out

    def addition_table(self) -> np.ndarray:
        """T[i, j] = index of elements[i] + elements[j]."""
        return self._sum_index(self._digits[:, :, None], self._digits[:, None, :])

    def negation(self) -> np.ndarray:
        """N[i] = index of -elements[i]."""
        return self._sum_index(-self._digits)


def parse_group_spec(text: str) -> tuple[int, ...]:
    """The factors of a group spec: "Z4xZ2", "z4xz2" and "4x2" all mean
    (4, 2). Each factor is ASCII digits with an optional leading "z", at
    least 1, spaces around it allowed; ValueError otherwise."""
    factors = []
    for part in text.strip().lower().split("x"):
        part = part.strip()
        digits = part[1:] if part.startswith("z") else part
        if not re.fullmatch(r"[0-9]+", digits) or int(digits) < 1:
            raise ValueError(f"group factor {digits!r} is not a positive integer")
        factors.append(int(digits))
    return tuple(factors)


def group_algebra(factors) -> StructureAlgebra:
    """Group algebra of a product of cyclic groups Z_{n_1} x ... x Z_{n_r}.

    Basis = point masses delta_g in lexicographic order of residue tuples;
    product is convolution (delta_g delta_h = delta_{g+h}) and the
    involution sends delta_g to delta_{-g} (conjugate coefficients).
    """
    group = _CyclicGroup(factors)
    labels = [f"d{g}" for g in group.elements]
    return StructureAlgebra.__new__(StructureAlgebra)._set(
        _Product(group.addition_table(), group.negation()), np.arange(group.order) == 0, labels)


def cusp_algebra() -> StructureAlgebra:
    """Span of the monomials {1, x^2, x^3, x^4, x^5, x^6}, products above
    degree 6 dropped.

    The missing degree-1 monomial makes the point 0 singular: tangent and
    cotangent spaces there are 2-dimensional.
    """
    exps = np.array([0, 2, 3, 4, 5, 6])
    # basis position of each degree up to 12: -1 for x and above x^6
    pos = np.full(13, -1)
    pos[exps] = np.arange(len(exps))
    labels = ["1"] + [f"x^{e}" for e in exps[1:]]
    return StructureAlgebra.__new__(StructureAlgebra)._set(
        _Product(pos[exps[:, None] + exps], np.arange(len(exps))), exps == 0, labels)


def _size(text: str) -> int:
    """One size in a constructor name: digits with an optional sign."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(f"size {text!r} is not an integer")
    return int(text)


def algebra_from_name(name: str) -> StructureAlgebra:
    """Constructor lookup for CLI-style names.

    Supported: "matrix:n", "func:n", "poly:m:N", "group:AxB...", "cusp".
    Names whose algebra would exceed MAX_NAMED_DIM raise DomainError before
    anything is allocated. Sizes the constructor would reject reach it, so
    that it names the real cause.
    """
    parts = name.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "matrix" and len(parts) == 2:
            n = _size(parts[1])
            require_dim(max(n, 0) ** 2)
            return matrix_algebra(n)
        if kind == "func" and len(parts) == 2:
            n = _size(parts[1])
            require_dim(n)
            return function_algebra(n)
        if kind == "poly" and len(parts) == 3:
            return truncated_poly(_size(parts[1]), _size(parts[2]))
        if kind == "group" and len(parts) == 2:
            factors = parse_group_spec(parts[1])
            require_dim(math.prod(factors))
            return group_algebra(factors)
        if kind == "cusp" and len(parts) == 1:
            return cusp_algebra()
    except ValueError as exc:
        raise ValueError(f"bad algebra name {name!r}: {exc}") from exc
    raise ValueError(f"unknown algebra name {name!r}")
